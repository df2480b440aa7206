//! Regenerates the paper's **Figure 4**: SPEC CPU 2006 performance
//! overhead of NOP insertion, per benchmark, for the five configurations
//! `pNOP = 50%`, `25–50%`, `10–50%`, `30%`, `0–30%` (ranges are
//! profile-guided with the log curve), plus the geometric mean.
//!
//! Methodology mirrors §5.1: profiles come from the *train* inputs,
//! overhead is measured on *ref*; several differently-seeded versions per
//! configuration are averaged (`PGSD_SEEDS`, default 5). The emulator is
//! deterministic, so repeated runs of one version are unnecessary.

use pgsd_bench::{
    geomean_pct, paper_builds, perf_seeds, prepare, row, selected_suite, sweep, write_csv,
    write_metrics, ProgressTimer,
};
use pgsd_core::Strategy;
use pgsd_telemetry::{labeled, Telemetry};

fn main() {
    let configs = Strategy::paper_configs();
    let builds = paper_builds();
    let seeds = perf_seeds();
    let threads = pgsd_bench::threads();
    let tel = Telemetry::enabled();
    let t = ProgressTimer::start(format!(
        "figure 4: {} benchmarks × {} configs × {seeds} seeds ({threads} threads)",
        selected_suite().len(),
        configs.len()
    ));

    let mut widths = vec![16usize, 12];
    widths.extend(std::iter::repeat_n(12, configs.len()));
    let mut header = vec!["benchmark".to_string(), "base Mcyc".to_string()];
    header.extend(configs.iter().map(|(l, _)| l.to_string()));
    println!("{}", row(&header, &widths));

    let mut csv = Vec::new();
    let mut per_config: Vec<Vec<f64>> = vec![Vec::new(); configs.len()];
    let mut names = Vec::new();
    for w in selected_suite() {
        let name = w.name;
        names.push(name);
        let p = prepare(w);
        let (expected, base_cycles) = p.reference();
        let base_cycles = base_cycles as f64;
        tel.add("fig4.benchmarks", 1);
        tel.set_gauge(
            &labeled("fig4.base_cycles", &[("benchmark", name)]),
            base_cycles,
        );

        let mut cells = vec![name.to_string(), format!("{:.1}", base_cycles / 1e6)];
        let mut csv_row = vec![name.to_string(), format!("{base_cycles}")];
        let cycles = sweep(&p.session, &builds, seeds, threads, |image| {
            p.ref_cycles(&image, Some(expected))
        });
        for (ci, (label, _)) in configs.iter().enumerate() {
            let total: f64 = cycles[ci].iter().map(|&c| c as f64).sum();
            tel.add("fig4.runs", seeds as u64);
            let overhead = (total / seeds as f64 / base_cycles - 1.0) * 100.0;
            tel.set_gauge(
                &labeled(
                    "fig4.overhead_pct",
                    &[("benchmark", name), ("config", label)],
                ),
                overhead,
            );
            per_config[ci].push(overhead);
            cells.push(format!("{overhead:.2}%"));
            csv_row.push(format!("{overhead:.4}"));
        }
        println!("{}", row(&cells, &widths));
        csv.push(csv_row.join(","));
    }

    let mut cells = vec!["geometric mean".to_string(), String::new()];
    let mut csv_row = vec!["geomean".to_string(), String::new()];
    for (values, (label, _)) in per_config.iter().zip(configs.iter()) {
        let g = geomean_pct(values);
        tel.set_gauge(&labeled("fig4.geomean_pct", &[("config", label)]), g);
        cells.push(format!("{g:.2}%"));
        csv_row.push(format!("{g:.4}"));
    }
    println!("{}", row(&cells, &widths));
    csv.push(csv_row.join(","));

    let mut header_csv = vec!["benchmark".to_string(), "base_cycles".to_string()];
    header_csv.extend(configs.iter().map(|(l, _)| l.replace(',', ";")));
    let path = write_csv("fig4_overhead.csv", &header_csv.join(","), &csv);
    write_metrics("fig4_overhead", &tel);
    t.done();
    println!("\npaper shape checks:");
    println!("  • profile-guided ranges sit well below their uniform upper bounds");
    println!("  • 0–30% lands near zero (paper: ≈1%); 50% is the costliest");
    // Where the memory-bound kernels fall, read from the data: rank 1 is
    // the smallest overhead under the first config, uniform pNOP=50%.
    let (label, _) = configs[0];
    let ranks: Vec<String> = ["429.mcf", "470.lbm"]
        .iter()
        .filter_map(|&kernel| {
            let i = names.iter().position(|&n| n == kernel)?;
            let overhead = per_config[0][i];
            let rank = 1 + per_config[0].iter().filter(|&&o| o < overhead).count();
            Some(format!("{kernel} {rank}"))
        })
        .collect();
    if !ranks.is_empty() {
        println!(
            "  • memory-bound kernels' overhead rank at {label} (1 = smallest of {}): {}",
            names.len(),
            ranks.join(", ")
        );
    }
    println!("csv: {}", path.display());
}
