//! Determinism of the parallel variant farm (`pgsd-exec`): every output
//! an experiment or fuzz session produces — CSV rows, `report.json`,
//! telemetry metrics JSON, population survivor counts — must be
//! byte-identical at any thread count. Each test runs the same work at
//! `--threads 1` (the serial fast path) and `--threads 4` (the real
//! queue, oversubscribed on small machines) and compares bytes.

use std::fs;
use std::path::PathBuf;

use pgsd::bench::{paper_builds, sweep};
use pgsd::core::driver::{BuildConfig, Input, DEFAULT_GAS};
use pgsd::core::{Session, Strategy};
use pgsd::fuzz::diff::{Sabotage, TransformSet};
use pgsd::fuzz::{fuzz, FuzzConfig};
use pgsd::gadget::{population_survival, ScanConfig};
use pgsd::telemetry::Telemetry;
use pgsd::x86::nop::NopTable;

const SRC: &str = "int main(int n) {
    int s = 0;
    int i = 0;
    while (i < n) {
        if (i % 3 == 0) { s += i * i; } else { s -= i; }
        i += 1;
    }
    return s;
}";

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pgsd-parallel-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// A miniature fig4 sweep: every (paper config, seed) pair builds one
/// diversified version and measures its cycles on the reference input.
/// Returns the formatted CSV rows, exactly as `fig4_overhead` lays its
/// aggregation out.
fn mini_fig4_csv(threads: usize) -> Vec<String> {
    let session = trained_session();
    let seeds = 4;
    let cycles = sweep(&session, &paper_builds(), seeds, threads, |image| {
        let outcome = session.run(&image, &Input::args(&[20]), DEFAULT_GAS, "ref");
        assert!(outcome.status().is_some(), "{:?}", outcome.exit);
        outcome.stats.cycles
    });
    Strategy::paper_configs()
        .iter()
        .zip(&cycles)
        .map(|((label, _), per_seed)| {
            let total: f64 = per_seed.iter().map(|&c| c as f64).sum();
            format!("{label},{:.4}", total / seeds as f64)
        })
        .collect()
}

fn trained_session() -> Session {
    let session = Session::from_source("mini", SRC);
    session.train(&[Input::args(&[20])], DEFAULT_GAS).unwrap();
    session
}

/// `sweep` returns, per config and in seed order, exactly the images a
/// cold session builds one seed at a time, at any thread count.
#[test]
fn sweep_matches_per_seed_builds_at_any_thread_count() {
    let configs = [
        BuildConfig::diversified(Strategy::range(0.1, 0.5), 0),
        BuildConfig::full_diversity(Strategy::uniform(0.3), 0),
    ];
    let texts = |threads| sweep(&trained_session(), &configs, 3, threads, |i| i.text);
    let swept = texts(1);
    assert_eq!(swept, texts(4), "sweep diverged across thread counts");
    let cold = trained_session();
    for (config, per_seed) in configs.iter().zip(&swept) {
        assert_ne!(per_seed[0], per_seed[1], "the sweep applies each seed");
        for (seed, text) in (0u64..).zip(per_seed) {
            let config = BuildConfig {
                seed,
                ..config.clone()
            };
            assert_eq!(*text, cold.build_with(&config).unwrap().text);
        }
    }
}

#[test]
fn fig4_style_csv_rows_are_identical_across_thread_counts() {
    assert_eq!(mini_fig4_csv(1), mini_fig4_csv(4));
}

/// A miniature table3: a population of diversified versions plus the
/// survivor analysis, with build telemetry collected. Everything —
/// image bytes, metrics JSON, surviving-in-at-least-k counts — must
/// match across thread counts.
fn mini_table3(threads: usize) -> (Vec<Vec<u8>>, String, Vec<usize>) {
    let tel = Telemetry::enabled();
    let session = Session::from_source("mini", SRC)
        .config(BuildConfig::diversified(Strategy::uniform(0.4), 0))
        .telemetry(tel.clone())
        .threads(threads);
    let images = session.population(8).unwrap();
    let texts: Vec<Vec<u8>> = images.into_iter().map(|i| i.text.to_vec()).collect();
    let rep = population_survival(&texts, &NopTable::new(), &ScanConfig::default());
    let thresholds = rep.thresholds(&[1, 2, 4, 8]);
    (texts, tel.metrics_json(), thresholds)
}

#[test]
fn population_and_survivors_are_identical_across_thread_counts() {
    let (texts1, metrics1, thresholds1) = mini_table3(1);
    let (texts4, metrics4, thresholds4) = mini_table3(4);
    assert_eq!(texts1, texts4, "image bytes diverged across thread counts");
    assert_eq!(
        metrics1, metrics4,
        "telemetry metrics diverged across thread counts"
    );
    assert_eq!(thresholds1, thresholds4);
    assert!(thresholds1[0] > 0, "survivor analysis ran on real gadgets");
}

/// A 50-iteration fuzz session at 1 vs 4 threads: `report.json` and the
/// telemetry metrics document must be byte-identical.
#[test]
fn fuzz_session_outputs_are_identical_across_thread_counts() {
    let run = |threads: usize, tag: &str| {
        let config = FuzzConfig {
            iters: 50,
            seed: 7,
            threads,
            ..FuzzConfig::default()
        };
        let dir = scratch_dir(tag);
        let tel = Telemetry::enabled();
        let report = fuzz(&config, Some(&dir), &tel).unwrap();
        let json = fs::read_to_string(dir.join("report.json")).unwrap();
        let _ = fs::remove_dir_all(&dir);
        (report, json, tel.metrics_json())
    };
    let (report1, json1, metrics1) = run(1, "fuzz-t1");
    let (report4, json4, metrics4) = run(4, "fuzz-t4");
    assert_eq!(report1.cases, report4.cases);
    assert_eq!(json1, json4, "report.json diverged across thread counts");
    assert_eq!(
        metrics1, metrics4,
        "fuzz telemetry diverged across thread counts"
    );
}

/// A sabotaged session exercises the parallel capture/shrink phase: the
/// same findings, in the same order, with the same shrunk reproducers,
/// regardless of thread count.
#[test]
fn sabotaged_findings_are_identical_across_thread_counts() {
    let run = |threads: usize| {
        let config = FuzzConfig {
            iters: 6,
            seed: 1,
            transforms: vec![TransformSet::Subst],
            variants_per_set: 1,
            max_findings: 2,
            sabotage: Some(Sabotage::BrokenSubst),
            threads,
            ..FuzzConfig::default()
        };
        fuzz(&config, None, &Telemetry::disabled()).unwrap()
    };
    let a = run(1);
    let b = run(4);
    assert!(!a.findings.is_empty(), "sabotage produced no findings");
    assert_eq!(a.to_json().to_string(), b.to_json().to_string());
}
