//! # pgsd-bench — experiment harnesses
//!
//! Shared plumbing for the binaries that regenerate every table and figure
//! of the paper (see DESIGN.md's experiment index):
//!
//! | binary | reproduces |
//! |---|---|
//! | `table1_nops` | Table 1 (NOP candidates and second-byte decodings) |
//! | `fig2_displacement` | Figure 2 (NOP insertion destroying a gadget) |
//! | `stats_profiles` | §3.1 execution-count statistics |
//! | `fig4_overhead` | Figure 4 (SPEC overhead per strategy) |
//! | `table2_survivors` | Table 2 (surviving gadgets vs. the original) |
//! | `table3_population` | Table 3 (gadgets shared across 25 versions) |
//! | `php_casestudy` | §5.2 concrete-attack experiment |
//! | `ablation_curves` | §3.1 linear-vs-log heuristic comparison |
//! | `ablation_shift` | §6 basic-block shifting extension |
//! | `ablation_extensions` | §6 substitution + register randomization stack |
//! | `table_fleet` | fleet crash-symbolication campaign ([`fleet`]) |
//!
//! Environment knobs: `PGSD_VERSIONS` (population size, default 25),
//! `PGSD_FLEET_VERSIONS` (fleet variants per configuration, default 250),
//! `PGSD_SEEDS` (performance seeds per configuration, default 5),
//! `PGSD_BENCH` (comma-separated benchmark substring filter),
//! `PGSD_THREADS` / `--threads N` (worker threads; default = available
//! parallelism). Figure 4, Tables 2–3, the PHP case study, the three
//! ablations and `pgsd bench`'s slice all build and measure their
//! versions through one [`sweep`] (config × seed), which returns results
//! in seed order, so CSV and metrics outputs are byte-identical at any
//! thread count; [`Prepared::reference`] is their baseline ref run.
//!
//! Each binary writes its table with [`write_csv`] and its headline
//! numbers, recorded into one enabled [`Telemetry`] handle, with
//! [`write_metrics`]: both land under `results/`.

use std::fs;
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use pgsd_cc::emit::Image;
use pgsd_core::driver::{BuildConfig, DEFAULT_GAS};
use pgsd_core::{Session, Strategy};
use pgsd_profile::Profile;
use pgsd_telemetry::Telemetry;
use pgsd_workloads::Workload;

pub mod fleet;
pub mod serve_load;

/// Number of diversified versions per population (paper: 25).
pub fn versions() -> usize {
    env_usize("PGSD_VERSIONS", 25)
}

/// Number of seeds per performance measurement (paper: 5 versions × 3
/// runs; our emulator is deterministic, so one run per seed suffices).
pub fn perf_seeds() -> usize {
    env_usize("PGSD_SEEDS", 5)
}

pub(crate) fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Worker-thread count for an experiment binary: a `--threads N`
/// argument wins, else `PGSD_THREADS`, else available parallelism.
pub fn threads() -> usize {
    let args: Vec<String> = std::env::args().collect();
    let requested = args
        .iter()
        .position(|a| a == "--threads")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse::<usize>().ok());
    pgsd_exec::resolve_threads(requested)
}

/// The benchmark list, optionally filtered by `PGSD_BENCH`.
pub fn selected_suite() -> Vec<Workload> {
    let all = pgsd_workloads::spec_suite();
    match std::env::var("PGSD_BENCH") {
        Ok(filter) if !filter.trim().is_empty() => {
            let pats: Vec<String> = filter.split(',').map(|s| s.trim().to_lowercase()).collect();
            all.into_iter()
                .filter(|w| pats.iter().any(|p| w.name.to_lowercase().contains(p)))
                .collect()
        }
        _ => all,
    }
}

/// A workload compiled and profiled, ready for experiments.
pub struct Prepared {
    /// The workload definition.
    pub workload: Workload,
    /// The session: compiled module, trained profile, artifact cache.
    pub session: Session,
    /// Training profile (from the workload's train inputs).
    pub profile: Arc<Profile>,
    /// Undiversified baseline image.
    pub baseline: Image,
}

/// Compiles and trains one workload (with a fresh in-memory cache).
///
/// # Panics
///
/// Panics on compilation or training failure — experiment inputs are
/// fixed, so failure is a bug worth a loud stop.
pub fn prepare(workload: Workload) -> Prepared {
    let session = Session::from_source(workload.name, &workload.source);
    let profile = session
        .train(&workload.train, DEFAULT_GAS)
        .unwrap_or_else(|e| panic!("{} does not train: {e}", workload.name));
    let baseline = session
        .build_with(&BuildConfig::baseline())
        .unwrap_or_else(|e| panic!("{} baseline build failed: {e}", workload.name));
    Prepared {
        workload,
        session,
        profile,
        baseline,
    }
}

impl Prepared {
    /// Runs the baseline on the reference input and returns its exit
    /// status and cycle count: the status every variant must reproduce
    /// and the denominator of every overhead figure.
    ///
    /// # Panics
    ///
    /// Panics if the baseline does not exit normally.
    pub fn reference(&self) -> (i32, u64) {
        self.ref_run(&self.baseline)
    }

    /// Runs an image on the reference input, asserting it matches the
    /// baseline's behaviour, and returns its cycle count.
    pub fn ref_cycles(&self, image: &Image, expected: Option<i32>) -> u64 {
        let (status, cycles) = self.ref_run(image);
        assert!(
            expected.is_none_or(|e| e == status),
            "{}: diversified output diverged",
            self.workload.name
        );
        cycles
    }

    fn ref_run(&self, image: &Image) -> (i32, u64) {
        let outcome = self
            .session
            .run(image, &self.workload.reference, DEFAULT_GAS, "ref");
        let status = outcome.status().unwrap_or_else(|| {
            panic!("{}: ref run failed: {:?}", self.workload.name, outcome.exit)
        });
        (status, outcome.stats.cycles)
    }
}

/// The paper's five configurations ([`Strategy::paper_configs`], same
/// order) as diversified builds for [`sweep`], which sets the seed.
pub fn paper_builds() -> Vec<BuildConfig> {
    Strategy::paper_configs()
        .into_iter()
        .map(|(_, strategy)| BuildConfig::diversified(strategy, 0))
        .collect()
}

/// Builds `BuildConfig { seed, ..config }` for every config × seed in
/// `0..seeds` as one job list on `threads` workers and measures each
/// image. Returns each config's measurements in seed order at any thread
/// count. Callers average them: Σx/n and Σ(x/n) round differently.
///
/// # Panics
///
/// Panics on build failure.
pub fn sweep<M: Send>(
    session: &Session,
    configs: &[BuildConfig],
    seeds: usize,
    threads: usize,
    measure: impl Fn(Image) -> M + Sync,
) -> Vec<Vec<M>> {
    let mut measured = pgsd_exec::run_jobs(threads, configs.len() * seeds, |job| {
        let seed = (job % seeds) as u64;
        let config = BuildConfig {
            seed,
            ..configs[job / seeds].clone()
        };
        let image = session
            .build_with(&config)
            .unwrap_or_else(|e| panic!("{session:?}: seed {seed} build failed: {e}"));
        measure(image)
    })
    .into_iter();
    configs
        .iter()
        .map(|_| measured.by_ref().take(seeds).collect())
        .collect()
}

/// Workloads of the fixed `pgsd bench` slice: small enough to finish in
/// seconds, diverse enough (compute-bound lbm, branchy bzip2) to exercise
/// the emulator's hot paths.
pub const BENCH_SLICE_WORKLOADS: [&str; 2] = ["470.lbm", "401.bzip2"];

/// Diversified builds per (workload, config) in the bench slice.
pub const BENCH_SLICE_SEEDS: usize = 6;

/// One timed run of the bench slice.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SliceMeasurement {
    /// Wall-clock time of the parallel section, in milliseconds.
    pub wall_ms: f64,
    /// Total emulated cycles across all runs (thread-count invariant).
    pub cycles: u64,
    /// Diversified builds performed.
    pub builds: u64,
    /// Emulator runs performed.
    pub runs: u64,
}

/// Compiles and trains the bench-slice workloads (untimed setup). Each
/// workload gets a fresh in-memory cache, so the first measurement over
/// the slice is a cold pass and re-measuring the same slice is the
/// warm-cache pass `pgsd bench` reports.
pub fn prepare_bench_slice() -> Vec<Prepared> {
    BENCH_SLICE_WORKLOADS
        .iter()
        .map(|name| {
            prepare(pgsd_workloads::by_name(name).unwrap_or_else(|| panic!("{name} in suite")))
        })
        .collect()
}

/// Runs the fixed slice — every (workload, paper config, seed) triple
/// builds one diversified version and measures it on the reference input
/// — on `threads` workers, timing only the parallel section. The cycle
/// total is a pure function of the seeds, so it must be identical at any
/// thread count (the determinism test asserts this).
pub fn measure_bench_slice(prepared: &[Prepared], threads: usize) -> SliceMeasurement {
    let configs = paper_builds();
    let started = Instant::now();
    let cycles: Vec<u64> = prepared
        .iter()
        .flat_map(|p| {
            sweep(&p.session, &configs, BENCH_SLICE_SEEDS, threads, |image| {
                p.ref_cycles(&image, None)
            })
        })
        .flatten()
        .collect();
    let wall_ms = started.elapsed().as_secs_f64() * 1e3;
    let n = cycles.len() as u64;
    SliceMeasurement {
        wall_ms,
        cycles: cycles.iter().sum(),
        builds: n,
        runs: n,
    }
}

/// Geometric mean of `1 + x/100` slowdowns, returned as a percentage.
pub fn geomean_pct(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values.iter().map(|v| (1.0 + v / 100.0).ln()).sum();
    ((log_sum / values.len() as f64).exp() - 1.0) * 100.0
}

/// The output directory for CSV artifacts (`results/`).
pub fn results_dir() -> PathBuf {
    let dir = PathBuf::from("results");
    fs::create_dir_all(&dir).expect("can create results directory");
    dir
}

/// Writes a CSV file under `results/` and returns its path.
pub fn write_csv(name: &str, header: &str, rows: &[String]) -> PathBuf {
    let path = results_dir().join(name);
    let mut f = fs::File::create(&path).expect("can create csv");
    writeln!(f, "{header}").expect("csv write");
    for r in rows {
        writeln!(f, "{r}").expect("csv write");
    }
    path
}

/// Writes `tel`'s metrics as `results/<name>.metrics.json` and returns
/// the path. Every harness records its headline numbers into one enabled
/// [`Telemetry`] handle; the file has the schema the CLI's `--metrics`
/// flag and `pgsd report` use, so experiment outputs are
/// machine-readable next to their CSVs.
pub fn write_metrics(name: &str, tel: &Telemetry) -> PathBuf {
    let path = results_dir().join(format!("{name}.metrics.json"));
    fs::write(&path, tel.metrics_json()).expect("can write metrics json");
    eprintln!("[pgsd-bench] metrics → {}", path.display());
    path
}

/// A coarse progress reporter for long experiments.
pub struct ProgressTimer {
    started: Instant,
    label: String,
}

impl ProgressTimer {
    /// Starts timing a phase, announcing it on stderr.
    pub fn start(label: impl Into<String>) -> ProgressTimer {
        let label = label.into();
        eprintln!("[pgsd-bench] {label}…");
        ProgressTimer {
            started: Instant::now(),
            label,
        }
    }

    /// Finishes the phase, reporting elapsed time.
    pub fn done(self) {
        eprintln!(
            "[pgsd-bench] {} done in {:.1?}",
            self.label,
            self.started.elapsed()
        );
    }
}

/// Formats a table row with right-aligned fixed-width cells.
pub fn row(cells: &[String], widths: &[usize]) -> String {
    let mut out = String::new();
    for (i, c) in cells.iter().enumerate() {
        let w = widths.get(i).copied().unwrap_or(12);
        out.push_str(&format!("{c:>w$}  "));
    }
    out.trim_end().to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_matches_hand_computation() {
        // slowdowns of 10% and 21%: geomean = sqrt(1.1 · 1.21) − 1 ≈ 15.4%.
        let g = geomean_pct(&[10.0, 21.0]);
        assert!((g - 15.36).abs() < 0.1, "{g}");
        assert_eq!(geomean_pct(&[]), 0.0);
    }

    #[test]
    fn env_knobs_have_defaults() {
        assert!(versions() >= 1);
        assert!(perf_seeds() >= 1);
    }

    #[test]
    fn row_formats_fixed_width() {
        let r = row(&["a".into(), "bb".into()], &[3, 4]);
        assert_eq!(r, "  a    bb");
    }

    #[test]
    fn write_metrics_writes_schema_v1_json() {
        let dir = std::env::temp_dir().join("pgsd-bench-sink-test");
        std::fs::create_dir_all(&dir).unwrap();
        let old = std::env::current_dir().unwrap();
        std::env::set_current_dir(&dir).unwrap();
        let tel = Telemetry::enabled();
        tel.add("bench.runs", 3);
        tel.set_gauge("bench.overhead_pct", 1.25);
        tel.observe("bench.cycles", 100);
        let path = write_metrics("sink_test", &tel);
        let text = std::fs::read_to_string(&path).unwrap();
        std::env::set_current_dir(old).unwrap();
        let doc = pgsd_telemetry::MetricsDoc::from_json(&text).unwrap();
        assert_eq!(doc.counters["bench.runs"], 3);
        assert_eq!(doc.histograms["bench.cycles"].total(), 1);
    }

    #[test]
    fn prepare_builds_a_small_workload() {
        let w = pgsd_workloads::by_name("470.lbm").expect("lbm exists");
        let p = prepare(w);
        assert!(p.profile.max_count() > 0);
        assert!(!p.baseline.text.is_empty());
        let swept = sweep(&p.session, &paper_builds()[..1], 1, 1, |i| i.text);
        assert_ne!(swept[0][0], p.baseline.text);
    }
}
