//! Regenerates the paper's **Table 2**: surviving gadgets on the
//! benchmark binaries — for each benchmark and NOP-insertion strategy, the
//! average number of gadgets that remain *functionally equivalent at the
//! same offset* across `PGSD_VERSIONS` (default 25) diversified versions,
//! as measured by the Survivor algorithm (§5.2).
//!
//! On top of the paper's raw counts, every survivor is classified by the
//! static audit (`pgsd-analysis`): a hit only matters to an attacker when
//! its start offset lies in *reachable* code on an intended instruction
//! boundary. Each strategy column therefore reports `raw/reachable`
//! averages, and a `surv_reach%` column gives the reachability-weighted
//! surviving fraction next to the paper's raw `surviving%`.
//!
//! Matches the paper's derived columns: `Extra%` (surviving gadgets of
//! `pNOP=0–30%` relative to `pNOP=50%`, best-to-worst) and `Surviving%`
//! (survivors of `0–30%` as a fraction of the baseline gadget count).
//! Benchmarks print sorted by baseline gadget count, as in the paper.

use pgsd_analysis::{classify_offsets, recover};
use pgsd_bench::{
    paper_builds, prepare, row, selected_suite, sweep, versions, write_csv, write_metrics,
    ProgressTimer,
};
use pgsd_core::Strategy;
use pgsd_gadget::{find_gadgets, survivor, ScanConfig};
use pgsd_telemetry::{labeled, Telemetry};
use pgsd_x86::nop::NopTable;

fn main() {
    let configs = Strategy::paper_configs();
    let builds = paper_builds();
    let n_versions = versions();
    let threads = pgsd_bench::threads();
    let t = ProgressTimer::start(format!(
        "table 2: {} benchmarks × {} strategies × {n_versions} versions ({threads} threads)",
        selected_suite().len(),
        configs.len()
    ));
    let cfg = ScanConfig::default();
    let table = NopTable::new();
    let tel = Telemetry::enabled();

    struct Row {
        name: &'static str,
        baseline: usize,
        avg: Vec<f64>,
        avg_reach: Vec<f64>,
    }
    let mut rows = Vec::new();
    for w in selected_suite() {
        let name = w.name;
        let p = prepare(w);
        let baseline = find_gadgets(&p.baseline.text, &cfg).len();
        tel.add("table2.benchmarks", 1);
        tel.add_labeled(
            "table2.baseline_gadgets",
            &[("benchmark", name)],
            baseline as u64,
        );
        let survivors = sweep(&p.session, &builds, n_versions, threads, |image| {
            let rep = survivor(&p.baseline.text, &image.text, &table, &cfg);
            let counts = classify_offsets(&recover(&image), &rep.survivors);
            (counts.total(), counts.reachable)
        });
        let mut avg = Vec::new();
        let mut avg_reach = Vec::new();
        for (ci, (label, _)) in configs.iter().enumerate() {
            let total: usize = survivors[ci].iter().map(|(t, _)| t).sum();
            let reach: usize = survivors[ci].iter().map(|(_, r)| r).sum();
            let mean = total as f64 / n_versions as f64;
            let mean_reach = reach as f64 / n_versions as f64;
            tel.set_gauge(
                &labeled(
                    "table2.avg_survivors",
                    &[("benchmark", name), ("config", label)],
                ),
                mean,
            );
            tel.set_gauge(
                &labeled(
                    "table2.avg_survivors_reach",
                    &[("benchmark", name), ("config", label)],
                ),
                mean_reach,
            );
            avg.push(mean);
            avg_reach.push(mean_reach);
        }
        eprintln!("[pgsd-bench]   {name}: baseline {baseline} gadgets");
        rows.push(Row {
            name,
            baseline,
            avg,
            avg_reach,
        });
    }
    rows.sort_by_key(|r| r.baseline);

    let mut widths = vec![16usize, 10];
    widths.extend(std::iter::repeat_n(13, configs.len()));
    widths.extend([8usize, 11, 12]);
    let mut header = vec!["benchmark".to_string(), "baseline".to_string()];
    header.extend(configs.iter().map(|(l, _)| l.replace("pNOP=", "")));
    header.push("extra%".into());
    header.push("surviving%".into());
    header.push("surv_reach%".into());
    println!("{}", row(&header, &widths));

    let mut csv = Vec::new();
    // Column order in `avg` follows paper_configs(): 50%, 25-50%, 10-50%,
    // 30%, 0-30%. Extra% compares 0-30% (index 4) against 50% (index 0).
    for r in &rows {
        let extra = if r.avg[0] > 0.0 {
            (r.avg[4] / r.avg[0] - 1.0) * 100.0
        } else {
            0.0
        };
        let surviving = if r.baseline > 0 {
            r.avg[4] / r.baseline as f64 * 100.0
        } else {
            0.0
        };
        let surviving_reach = if r.baseline > 0 {
            r.avg_reach[4] / r.baseline as f64 * 100.0
        } else {
            0.0
        };
        tel.set_gauge(
            &labeled("table2.extra_pct", &[("benchmark", r.name)]),
            extra,
        );
        tel.set_gauge(
            &labeled("table2.surviving_pct", &[("benchmark", r.name)]),
            surviving,
        );
        tel.set_gauge(
            &labeled("table2.surviving_reach_pct", &[("benchmark", r.name)]),
            surviving_reach,
        );
        let mut cells = vec![r.name.to_string(), r.baseline.to_string()];
        cells.extend(
            r.avg
                .iter()
                .zip(&r.avg_reach)
                .map(|(a, ar)| format!("{a:.1}/{ar:.1}")),
        );
        cells.push(format!("{extra:.0}%"));
        cells.push(format!("{surviving:.2}%"));
        cells.push(format!("{surviving_reach:.2}%"));
        println!("{}", row(&cells, &widths));
        csv.push(format!(
            "{},{},{},{extra:.2},{surviving:.4},{surviving_reach:.4}",
            r.name,
            r.baseline,
            r.avg
                .iter()
                .zip(&r.avg_reach)
                .map(|(a, ar)| format!("{a:.3},{ar:.3}"))
                .collect::<Vec<_>>()
                .join(","),
        ));
    }
    let path = write_csv(
        "table2_survivors.csv",
        "benchmark,baseline,p50,p50_reach,p25_50,p25_50_reach,p10_50,p10_50_reach,\
         p30,p30_reach,p0_30,p0_30_reach,extra_pct,surviving_pct,surviving_reach_pct",
        &csv,
    );
    write_metrics("table2_survivors", &tel);
    t.done();
    println!("\npaper shape checks:");
    println!("  • absolute survivors stay near the undiversified-runtime tail for every strategy");
    println!(
        "  • Surviving% falls as binaries grow (randomization is MORE effective on large code)"
    );
    println!("  • the profile-guided strategies cost only a small Extra% over pNOP=50%");
    println!("  • reachability-weighted survivors are a small fraction of the raw counts");
    println!("csv: {}", path.display());
}
