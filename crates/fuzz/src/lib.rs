//! # pgsd-fuzz — differential fuzzing of diversified variants
//!
//! The dynamic half of the correctness story. The static validator
//! (`pgsd-analysis`'s divcheck) *proves* variant equivalence from the
//! code bytes; this crate *observes* it, generating random MiniC
//! programs, diversifying each under many (seed, transform-set) pairs,
//! and running baseline and variants on the emulator with matched
//! inputs. The two oracles cross-check each other on every case: a
//! dynamic divergence the validator accepted, or a validator rejection
//! of a behaviorally identical variant, are both findings.
//!
//! * [`gen`] — seeded, grammar-aware program generator (always
//!   terminating, always fully initialized);
//! * [`diff`] — variant builder (with a test-only [`diff::Sabotage`]
//!   hook), matched-input execution, outcome comparison;
//! * [`mod@shrink`] — greedy structural minimizer for failing cases;
//! * [`corpus`] — reproducer and report serialization, corpus replay;
//! * [`fuzz`] — the top-level loop tying them together; iterations scan
//!   and findings shrink as parallel jobs (`FuzzConfig::threads`), with
//!   results merged in iteration order so the report is byte-identical
//!   at any thread count.
//!
//! # Examples
//!
//! A tiny healthy run — no findings, deterministic report:
//!
//! ```
//! use pgsd_fuzz::{fuzz, FuzzConfig};
//! use pgsd_telemetry::Telemetry;
//!
//! let config = FuzzConfig { iters: 2, seed: 1, ..FuzzConfig::default() };
//! let report = fuzz(&config, None, &Telemetry::disabled()).unwrap();
//! assert_eq!(report.programs, 2);
//! assert!(report.findings.is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod corpus;
pub mod diff;
pub mod gen;
pub mod shrink;

use std::path::Path;

use pgsd_cache::Cache;
use pgsd_telemetry::Telemetry;

use crate::corpus::{finding_id, Finding, FuzzReport};
use crate::diff::{inputs_for, run_case, CaseResult, Sabotage, TransformSet};
use crate::gen::{generate, FuzzProgram, GenOptions};
use crate::shrink::shrink;

pub use crate::corpus::{replay, ReplayReport};
pub use crate::diff::Outcome;

/// Configuration of one fuzzing session.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Number of programs to generate.
    pub iters: u64,
    /// Base seed; the whole session is a pure function of it.
    pub seed: u64,
    /// Transform sets to exercise per program.
    pub transforms: Vec<TransformSet>,
    /// Diversified variants per (program, transform set).
    pub variants_per_set: usize,
    /// Stop capturing findings after this many (counters keep counting).
    pub max_findings: usize,
    /// Shrinker predicate-evaluation budget per finding.
    pub shrink_budget: usize,
    /// Test-only fault injection (see [`diff::Sabotage`]).
    pub sabotage: Option<Sabotage>,
    /// Program-generator knobs.
    pub gen: GenOptions,
    /// Worker threads for the scan and shrink phases (`--threads` /
    /// `PGSD_THREADS`, default available parallelism). Purely a
    /// throughput knob: the report and metrics are identical at any
    /// value, so it is deliberately absent from [`FuzzReport`].
    pub threads: usize,
}

impl Default for FuzzConfig {
    fn default() -> FuzzConfig {
        FuzzConfig {
            iters: 100,
            seed: 1,
            transforms: TransformSet::ALL.to_vec(),
            variants_per_set: 2,
            max_findings: 8,
            shrink_budget: 300,
            sabotage: None,
            gen: GenOptions::default(),
            threads: pgsd_exec::default_threads(),
        }
    }
}

/// The variant seed for iteration `program_seed`, transform-set index
/// `ti`, variant index `k` — spread so the seed-derived probability tier
/// (`seed % 3`) varies across a session.
fn variant_seed_for(program_seed: u64, ti: usize, k: usize) -> u64 {
    program_seed
        .wrapping_mul(31)
        .wrapping_add(97 * ti as u64 + k as u64 + 1)
}

/// The program seed for iteration `iter` of a session with base `seed`.
fn program_seed_for(seed: u64, iter: u64) -> u64 {
    seed.wrapping_mul(1_000_003).wrapping_add(iter)
}

/// Per-transform-set counters from one iteration's scan.
#[derive(Clone, Default)]
struct TsetScan {
    cases: u64,
    divergences: u64,
    static_rejections: u64,
}

/// Everything one iteration's scan phase produces. Scans are computed as
/// parallel jobs and merged into the report strictly in iteration order.
struct IterScan {
    per_tset: Vec<TsetScan>,
    build_errors: u64,
    skipped_out_of_gas: bool,
    /// Failing `(transform-set index, variant seed)` pairs, in scan
    /// order, i.e. `(ti, k)` ascending.
    failures: Vec<(usize, u64)>,
    program_seed: u64,
    /// Kept only when the iteration has failures (the capture phase
    /// shrinks it); dropped otherwise to bound session memory.
    program: Option<FuzzProgram>,
    inputs: Vec<Vec<i32>>,
}

/// Runs a fuzzing session. When `corpus_dir` is given, every captured
/// finding is written there as a reproducer and the session summary as
/// `report.json`.
///
/// The session is a pure function of `config`: identical configs produce
/// identical reports, byte for byte. Iterations are scanned as parallel
/// jobs on `config.threads` workers and merged in iteration order, and
/// the first `max_findings` failures — ranked by `(iteration,
/// transform-set, variant)` exactly as the serial loop would meet them —
/// are then shrunk as a second wave of parallel jobs; `report.json` and
/// the telemetry metrics are therefore byte-identical at any thread
/// count.
///
/// # Errors
///
/// Returns an error only for corpus filesystem problems; findings (and
/// even toolchain build errors) are captured in the report instead.
pub fn fuzz(
    config: &FuzzConfig,
    corpus_dir: Option<&Path>,
    tel: &Telemetry,
) -> Result<FuzzReport, String> {
    let _span = tel.span("fuzz");
    let mut report = FuzzReport {
        iters: config.iters,
        seed: config.seed,
        transforms: config
            .transforms
            .iter()
            .map(|t| t.label().to_owned())
            .collect(),
        variants_per_set: config.variants_per_set,
        ..FuzzReport::default()
    };

    // Phase 1: scan every iteration (generate, build variants, run the
    // differential cases). One job per iteration; no shared state. Each
    // iteration gets its own artifact cache, so its program's frontend,
    // baseline build, and lowering are paid once across all its
    // (transform-set, seed) cases — and nothing is shared across jobs,
    // keeping the report independent of the thread count.
    let iters = usize::try_from(config.iters).unwrap_or(usize::MAX);
    let scans = pgsd_exec::run_jobs(config.threads, iters, |i| {
        let program_seed = program_seed_for(config.seed, i as u64);
        let program = generate(program_seed, &config.gen);
        let source = program.emit();
        let inputs = inputs_for(program_seed);
        let cache = Cache::in_memory();
        let mut scan = IterScan {
            per_tset: vec![TsetScan::default(); config.transforms.len()],
            build_errors: 0,
            skipped_out_of_gas: false,
            failures: Vec::new(),
            program_seed,
            program: None,
            inputs,
        };
        'tsets: for (ti, &tset) in config.transforms.iter().enumerate() {
            for k in 0..config.variants_per_set {
                let variant_seed = variant_seed_for(program_seed, ti, k);
                scan.per_tset[ti].cases += 1;
                let outcome = run_case(
                    &cache,
                    &source,
                    tset,
                    variant_seed,
                    &scan.inputs,
                    config.sabotage,
                );
                let failed = match &outcome {
                    Err(_) => {
                        scan.build_errors += 1;
                        true
                    }
                    Ok(res) if res.baseline_out_of_gas => {
                        scan.skipped_out_of_gas = true;
                        // Gas depends only on the program, not the
                        // variant: every other case of it would also be
                        // skipped.
                        break 'tsets;
                    }
                    Ok(res) => {
                        if res.dynamic_diverged {
                            scan.per_tset[ti].divergences += 1;
                        }
                        if res.static_rejected {
                            scan.per_tset[ti].static_rejections += 1;
                        }
                        res.is_failure()
                    }
                };
                if failed {
                    scan.failures.push((ti, variant_seed));
                }
            }
        }
        if !scan.failures.is_empty() {
            scan.program = Some(program);
        }
        scan
    });

    // Merge scan results into the report and telemetry in iteration
    // order, and rank failure candidates exactly as the serial loop
    // would have met them.
    let mut candidates: Vec<(usize, usize, u64)> = Vec::new();
    for (si, scan) in scans.iter().enumerate() {
        report.programs += 1;
        tel.add("fuzz.programs", 1);
        for (ti, &tset) in config.transforms.iter().enumerate() {
            let t = &scan.per_tset[ti];
            report.cases += t.cases;
            if t.cases > 0 {
                tel.add_labeled("fuzz.cases", &[("transforms", tset.label())], t.cases);
            }
            if t.divergences > 0 {
                report.divergences += t.divergences;
                tel.add_labeled(
                    "fuzz.divergences",
                    &[("transforms", tset.label())],
                    t.divergences,
                );
            }
            if t.static_rejections > 0 {
                report.static_rejections += t.static_rejections;
                tel.add_labeled(
                    "fuzz.static_rejections",
                    &[("transforms", tset.label())],
                    t.static_rejections,
                );
            }
        }
        if scan.build_errors > 0 {
            report.build_errors += scan.build_errors;
            tel.add("fuzz.build_errors", scan.build_errors);
        }
        if scan.skipped_out_of_gas {
            report.skipped_out_of_gas += 1;
            tel.add("fuzz.skipped_out_of_gas", 1);
        }
        for &(ti, variant_seed) in &scan.failures {
            if candidates.len() < config.max_findings {
                candidates.push((si, ti, variant_seed));
            }
        }
    }

    // Phase 2: shrink the capped candidate list — the expensive part —
    // as parallel jobs, each recording into its own telemetry child;
    // children merge in candidate order.
    let captured =
        pgsd_exec::map_indexed(config.threads, &candidates, |_, &(si, ti, variant_seed)| {
            let scan = &scans[si];
            let child = tel.child();
            let finding = capture_finding(
                config,
                si as u64,
                scan.program_seed,
                scan.program
                    .as_ref()
                    .expect("failing iteration keeps its program"),
                config.transforms[ti],
                variant_seed,
                &scan.inputs,
                &child,
            );
            (finding, child)
        });
    for (finding, child) in captured {
        tel.merge_from(&child);
        if let Some(dir) = corpus_dir {
            finding
                .write_to(dir)
                .map_err(|e| format!("cannot write reproducer: {e}"))?;
        }
        report.findings.push(finding);
        tel.add("fuzz.findings", 1);
    }

    if let Some(dir) = corpus_dir {
        report
            .write_to(dir)
            .map_err(|e| format!("cannot write report: {e}"))?;
    }
    Ok(report)
}

/// Shrinks a failing case and packages it as a [`Finding`].
#[allow(clippy::too_many_arguments)]
fn capture_finding(
    config: &FuzzConfig,
    iter: u64,
    program_seed: u64,
    program: &FuzzProgram,
    tset: TransformSet,
    variant_seed: u64,
    inputs: &[Vec<i32>],
    tel: &Telemetry,
) -> Finding {
    let _span = tel.span("shrink");
    // One cache per shrink job: candidate programs mostly differ, but the
    // final re-run and any re-visited candidates hit it.
    let cache = Cache::in_memory();
    let still_fails = &mut |p: &FuzzProgram| match run_case(
        &cache,
        &p.emit(),
        tset,
        variant_seed,
        inputs,
        config.sabotage,
    ) {
        Err(_) => true,
        Ok(res) => !res.baseline_out_of_gas && res.is_failure(),
    };
    let (small, stats) = shrink(program, config.shrink_budget, still_fails);
    tel.add("fuzz.shrink_evals", stats.evals as u64);

    // Re-run the shrunk case once to capture its final verdicts.
    let source = small.emit();
    let (expected, actual, dynamic, rejected, static_findings) =
        match run_case(&cache, &source, tset, variant_seed, inputs, config.sabotage) {
            Err(e) => (
                Vec::new(),
                Vec::new(),
                false,
                false,
                vec![format!("build error: {e}")],
            ),
            Ok(CaseResult {
                expected,
                actual,
                dynamic_diverged,
                static_rejected,
                static_findings,
                ..
            }) => (
                expected,
                actual,
                dynamic_diverged,
                static_rejected,
                static_findings,
            ),
        };

    Finding {
        id: finding_id(&source, tset, variant_seed, inputs),
        iter,
        program_seed,
        tset,
        variant_seed,
        stmts_before: program.num_stmts(),
        stmts_after: small.num_stmts(),
        shrink_evals: stats.evals,
        source,
        inputs: inputs.to_vec(),
        expected,
        actual,
        dynamic_diverged: dynamic,
        static_rejected: rejected,
        static_findings,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn healthy_session_has_no_findings_and_is_deterministic() {
        let config = FuzzConfig {
            iters: 4,
            seed: 1,
            ..FuzzConfig::default()
        };
        let a = fuzz(&config, None, &Telemetry::disabled()).unwrap();
        let b = fuzz(&config, None, &Telemetry::disabled()).unwrap();
        assert_eq!(a.divergences, 0, "{:#?}", a.findings);
        assert_eq!(a.static_rejections, 0);
        assert_eq!(a.build_errors, 0);
        assert!(a.findings.is_empty());
        assert_eq!(a.to_json().to_string(), b.to_json().to_string());
    }

    #[test]
    fn sabotaged_session_captures_a_small_reproducer() {
        let config = FuzzConfig {
            iters: 6,
            seed: 1,
            transforms: vec![TransformSet::Subst],
            variants_per_set: 1,
            max_findings: 1,
            sabotage: Some(Sabotage::BrokenSubst),
            ..FuzzConfig::default()
        };
        let report = fuzz(&config, None, &Telemetry::disabled()).unwrap();
        assert!(
            !report.findings.is_empty(),
            "sabotage produced no findings: {report:?}"
        );
        let f = &report.findings[0];
        assert!(
            f.stmts_after <= 10,
            "reproducer not shrunk enough: {} statements\n{}",
            f.stmts_after,
            f.source
        );
        assert!(f.stmts_after <= f.stmts_before);
    }
}
