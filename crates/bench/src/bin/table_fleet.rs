//! Runs the **fleet crash-symbolication campaign**: populations under
//! every transform configuration, built with the provenance ledger,
//! crashed with the full emulator fault taxonomy, and every crash
//! symbolicated back to the baseline instruction (see
//! [`pgsd_bench::fleet`]).
//!
//! Outputs:
//!
//! * `results/table_fleet.csv` — per-configuration remap tallies;
//! * `results/fleet_report.json` — the deterministic campaign report
//!   (byte-identical at any thread count; CI diffs 1 vs 4 threads);
//! * `results/table_fleet.metrics.json` — telemetry counters plus the
//!   `bench.symbolicate_per_sec` / `bench.ledger_variants_per_sec`
//!   throughput gauges.
//!
//! `PGSD_FLEET_VERSIONS` (default 250) sets variants per configuration;
//! the paper-scale 10 000-variant campaign is `PGSD_FLEET_VERSIONS=2500`.
//! The process exits non-zero if any crash fails to remap.

use std::fs;

use pgsd_bench::fleet::{fleet_versions, run_campaign};
use pgsd_bench::{results_dir, row, threads, write_csv, write_metrics, ProgressTimer};
use pgsd_telemetry::Telemetry;

fn main() {
    let versions = fleet_versions();
    let threads = threads();
    let tel = Telemetry::enabled();

    let timer = ProgressTimer::start(format!(
        "fleet campaign: 4 configs x {versions} variants on {threads} thread(s)"
    ));
    let campaign = run_campaign(versions, threads, &tel);
    timer.done();

    let widths = [8, 28, 10, 10, 10, 10, 8];
    println!(
        "{}",
        row(
            &[
                "config".into(),
                "transforms".into(),
                "variants".into(),
                "crashes".into(),
                "remapped".into(),
                "frames".into(),
                "acc%".into(),
            ],
            &widths,
        )
    );
    let mut csv_rows = Vec::new();
    for c in &campaign.configs {
        let acc = (c.remapped * 100).checked_div(c.crashes).unwrap_or(0);
        println!(
            "{}",
            row(
                &[
                    c.label.into(),
                    c.transforms.clone(),
                    c.variants.to_string(),
                    c.crashes.to_string(),
                    c.remapped.to_string(),
                    c.frames_remapped.to_string(),
                    acc.to_string(),
                ],
                &widths,
            )
        );
        csv_rows.push(format!(
            "{},{},{},{},{},{},{},{}",
            c.label,
            c.transforms,
            c.variants,
            c.crashes,
            c.remapped,
            c.frames_remapped,
            c.negative_misses,
            acc,
        ));
    }
    println!(
        "totals: {} variants, {}/{} crashes remapped ({}%), {} ledger records ({} map bytes)",
        campaign.variants(),
        campaign.remapped(),
        campaign.crashes(),
        campaign.accuracy_pct(),
        campaign.ledger_records,
        campaign.ledger_bytes,
    );

    let csv = write_csv(
        "table_fleet.csv",
        "config,transforms,variants,crashes,remapped,frames_remapped,negative_misses,accuracy_pct",
        &csv_rows,
    );
    let report_path = results_dir().join("fleet_report.json");
    fs::write(&report_path, campaign.report_json()).expect("can write fleet report");

    if campaign.ledger_secs > 0.0 {
        tel.set_gauge(
            "bench.ledger_variants_per_sec",
            campaign.variants() as f64 / campaign.ledger_secs,
        );
    }
    if campaign.symbolicate_secs > 0.0 {
        tel.set_gauge(
            "bench.symbolicate_per_sec",
            campaign.symbolicate_calls as f64 / campaign.symbolicate_secs,
        );
    }
    let metrics = write_metrics("table_fleet", &tel);
    eprintln!(
        "[pgsd-bench] wrote {}, {} and {}",
        csv.display(),
        report_path.display(),
        metrics.display()
    );

    if !campaign.failures.is_empty() {
        eprintln!("[pgsd-bench] {} remap failure(s):", campaign.failures.len());
        for f in &campaign.failures {
            eprintln!("  {f}");
        }
        std::process::exit(1);
    }
}
