//! Corpus management: reproducer files, the run report, and replay.
//!
//! A finding is persisted as a pair of files in the corpus directory:
//!
//! * `<id>.mc` — the shrunk MiniC source, compilable as-is;
//! * `<id>.json` — a schema-versioned metadata record: the seeds and
//!   transform set to rebuild the failing variant, the matched inputs,
//!   and both oracles' verdicts at the time of capture.
//!
//! The run report (`report.json`) summarizes a whole fuzzing session.
//! Everything is serialized with `pgsd_telemetry::json` (insertion-
//! ordered objects, no timestamps, no absolute paths), so identical runs
//! produce byte-identical files — the property the CI determinism check
//! relies on.
//!
//! Replay ([`replay`]) loads every reproducer in a directory and re-runs
//! its differential case against the *current* toolchain: a reproducer
//! documents a once-observed failure, so replay passing means the bug
//! stays fixed, and replay failing is a regression with a ready-shrunk
//! test case.

use std::fs;
use std::io;
use std::path::Path;

use pgsd_telemetry::json::{parse, Value};

use pgsd_cache::Cache;

use crate::diff::{run_case, Outcome, TransformSet};

/// Schema version of reproducer and report files.
pub const SCHEMA_VERSION: u64 = 1;

/// The `kind` tag of reproducer metadata files.
pub const REPRODUCER_KIND: &str = "pgsd-fuzz-reproducer";

/// One confirmed, shrunk failure.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Stable content-derived identifier (hex).
    pub id: String,
    /// Fuzz iteration that found it.
    pub iter: u64,
    /// Seed the failing program was generated from.
    pub program_seed: u64,
    /// Transform set of the failing variant.
    pub tset: TransformSet,
    /// Variant build seed.
    pub variant_seed: u64,
    /// Statement count before shrinking.
    pub stmts_before: usize,
    /// Statement count after shrinking.
    pub stmts_after: usize,
    /// Predicate evaluations the shrinker spent.
    pub shrink_evals: usize,
    /// Shrunk MiniC source.
    pub source: String,
    /// Matched inputs (each a `main(a, b)` argument pair).
    pub inputs: Vec<Vec<i32>>,
    /// Baseline outcomes per input, on the shrunk program.
    pub expected: Vec<Outcome>,
    /// Variant outcomes per input, on the shrunk program.
    pub actual: Vec<Outcome>,
    /// The dynamic oracle fired.
    pub dynamic_diverged: bool,
    /// The static oracle fired.
    pub static_rejected: bool,
    /// Rendered validator diagnostics (capped).
    pub static_findings: Vec<String>,
}

/// Summary of one fuzzing session, serializable as `report.json`.
#[derive(Debug, Clone, Default)]
pub struct FuzzReport {
    /// Requested iterations.
    pub iters: u64,
    /// Base seed.
    pub seed: u64,
    /// Transform-set labels exercised.
    pub transforms: Vec<String>,
    /// Variants built per (program, transform set).
    pub variants_per_set: usize,
    /// Programs generated.
    pub programs: u64,
    /// Differential cases executed.
    pub cases: u64,
    /// Cases skipped because the baseline ran out of gas.
    pub skipped_out_of_gas: u64,
    /// Cases where the dynamic oracle fired.
    pub divergences: u64,
    /// Cases where the static oracle fired.
    pub static_rejections: u64,
    /// Cases that failed to build (also failures, counted separately).
    pub build_errors: u64,
    /// Shrunk findings (capped at the configured maximum).
    pub findings: Vec<Finding>,
}

fn num_i64(v: i64) -> Value {
    Value::Num(v.to_string())
}

fn args_json(args: &[i32]) -> Value {
    Value::Arr(args.iter().map(|a| num_i64(i64::from(*a))).collect())
}

fn outcome_json(o: &Outcome) -> Value {
    match o {
        Outcome::Exited { status, output } => Value::Obj(vec![
            ("kind".into(), Value::Str("exited".into())),
            ("status".into(), num_i64(i64::from(*status))),
            ("output".into(), args_json(output)),
        ]),
        Outcome::Fault { class, output } => Value::Obj(vec![
            ("kind".into(), Value::Str("fault".into())),
            ("class".into(), Value::Str((*class).into())),
            ("output".into(), args_json(output)),
        ]),
        Outcome::OutOfGas => Value::Obj(vec![("kind".into(), Value::Str("out-of-gas".into()))]),
    }
}

/// Content-derived identifier: FNV-1a over the fields that define the
/// case, so re-finding the same shrunk failure overwrites rather than
/// duplicates.
pub fn finding_id(
    source: &str,
    tset: TransformSet,
    variant_seed: u64,
    inputs: &[Vec<i32>],
) -> String {
    let mut h = pgsd_cache::Fnv64::new();
    h.write(source.as_bytes());
    h.write(tset.label().as_bytes());
    h.write(&variant_seed.to_le_bytes());
    for args in inputs {
        for a in args {
            h.write(&a.to_le_bytes());
        }
    }
    h.key().hex()
}

impl Finding {
    /// The metadata record as JSON.
    pub fn to_json(&self) -> Value {
        Value::Obj(vec![
            ("schema_version".into(), Value::u64(SCHEMA_VERSION)),
            ("kind".into(), Value::Str(REPRODUCER_KIND.into())),
            ("id".into(), Value::Str(self.id.clone())),
            ("iter".into(), Value::u64(self.iter)),
            ("program_seed".into(), Value::u64(self.program_seed)),
            ("transforms".into(), Value::Str(self.tset.label().into())),
            ("variant_seed".into(), Value::u64(self.variant_seed)),
            ("stmts_before".into(), Value::u64(self.stmts_before as u64)),
            ("stmts_after".into(), Value::u64(self.stmts_after as u64)),
            ("shrink_evals".into(), Value::u64(self.shrink_evals as u64)),
            (
                "inputs".into(),
                Value::Arr(self.inputs.iter().map(|a| args_json(a)).collect()),
            ),
            (
                "expected".into(),
                Value::Arr(self.expected.iter().map(outcome_json).collect()),
            ),
            (
                "actual".into(),
                Value::Arr(self.actual.iter().map(outcome_json).collect()),
            ),
            (
                "dynamic_diverged".into(),
                Value::Bool(self.dynamic_diverged),
            ),
            ("static_rejected".into(), Value::Bool(self.static_rejected)),
            (
                "static_findings".into(),
                Value::Arr(
                    self.static_findings
                        .iter()
                        .map(|s| Value::Str(s.clone()))
                        .collect(),
                ),
            ),
        ])
    }

    /// Writes `<id>.mc` and `<id>.json` into `dir` (created on demand).
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_to(&self, dir: &Path) -> io::Result<()> {
        fs::create_dir_all(dir)?;
        fs::write(dir.join(format!("{}.mc", self.id)), &self.source)?;
        fs::write(
            dir.join(format!("{}.json", self.id)),
            format!("{}\n", self.to_json()),
        )
    }
}

impl FuzzReport {
    /// The report as JSON (deterministic: insertion-ordered, no
    /// timestamps).
    pub fn to_json(&self) -> Value {
        Value::Obj(vec![
            ("schema_version".into(), Value::u64(SCHEMA_VERSION)),
            ("kind".into(), Value::Str("pgsd-fuzz-report".into())),
            ("iters".into(), Value::u64(self.iters)),
            ("seed".into(), Value::u64(self.seed)),
            (
                "transforms".into(),
                Value::Arr(
                    self.transforms
                        .iter()
                        .map(|t| Value::Str(t.clone()))
                        .collect(),
                ),
            ),
            (
                "variants_per_set".into(),
                Value::u64(self.variants_per_set as u64),
            ),
            ("programs".into(), Value::u64(self.programs)),
            ("cases".into(), Value::u64(self.cases)),
            (
                "skipped_out_of_gas".into(),
                Value::u64(self.skipped_out_of_gas),
            ),
            ("divergences".into(), Value::u64(self.divergences)),
            (
                "static_rejections".into(),
                Value::u64(self.static_rejections),
            ),
            ("build_errors".into(), Value::u64(self.build_errors)),
            (
                "findings".into(),
                Value::Arr(self.findings.iter().map(Finding::to_json).collect()),
            ),
        ])
    }

    /// Writes `report.json` into `dir` (created on demand).
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_to(&self, dir: &Path) -> io::Result<()> {
        fs::create_dir_all(dir)?;
        fs::write(dir.join("report.json"), format!("{}\n", self.to_json()))
    }
}

/// Result of replaying one reproducer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayCase {
    /// The reproducer id.
    pub id: String,
    /// The case no longer fails on the current toolchain.
    pub passing: bool,
    /// Human-readable detail for failures.
    pub detail: String,
}

/// Result of replaying a corpus directory.
#[derive(Debug, Clone, Default)]
pub struct ReplayReport {
    /// Per-reproducer outcomes, sorted by id.
    pub cases: Vec<ReplayCase>,
}

impl ReplayReport {
    /// Number of reproducers that no longer fail.
    pub fn passing(&self) -> usize {
        self.cases.iter().filter(|c| c.passing).count()
    }

    /// True when every reproducer passes.
    pub fn all_passing(&self) -> bool {
        self.cases.iter().all(|c| c.passing)
    }
}

fn parse_i32(v: &Value) -> Option<i32> {
    match v {
        Value::Num(n) => n.parse::<i64>().ok().and_then(|n| i32::try_from(n).ok()),
        _ => None,
    }
}

fn parse_inputs(v: &Value) -> Option<Vec<Vec<i32>>> {
    v.as_arr()?
        .iter()
        .map(|args| args.as_arr()?.iter().map(parse_i32).collect())
        .collect()
}

/// Replays every reproducer in `dir` against the current toolchain.
///
/// Reproducers are replayed in id order. Each is rebuilt from its saved
/// source, transform set, and variant seed — *without* any sabotage hook
/// — and re-checked by both oracles.
///
/// # Errors
///
/// Returns an error for filesystem problems or malformed reproducer
/// files; a failing replay is reported in the result, not as an error.
pub fn replay(dir: &Path) -> Result<ReplayReport, String> {
    // Replay is serial; one cache shares the pipeline prefix across
    // reproducers derived from the same source.
    let cache = Cache::in_memory();
    let mut ids: Vec<String> = Vec::new();
    let entries = fs::read_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if let Some(stem) = name.strip_suffix(".json") {
            if stem != "report" {
                ids.push(stem.to_owned());
            }
        }
    }
    ids.sort();

    let mut report = ReplayReport::default();
    for id in ids {
        let meta_path = dir.join(format!("{id}.json"));
        let text = fs::read_to_string(&meta_path)
            .map_err(|e| format!("cannot read {}: {e}", meta_path.display()))?;
        let meta =
            parse(&text).map_err(|e| format!("{}: malformed JSON: {e}", meta_path.display()))?;
        if meta.get("kind").and_then(Value::as_str) != Some(REPRODUCER_KIND) {
            continue;
        }
        let tset = meta
            .get("transforms")
            .and_then(Value::as_str)
            .and_then(TransformSet::parse)
            .ok_or_else(|| format!("{id}: bad transforms field"))?;
        let variant_seed = meta
            .get("variant_seed")
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("{id}: bad variant_seed field"))?;
        let inputs = meta
            .get("inputs")
            .and_then(parse_inputs)
            .ok_or_else(|| format!("{id}: bad inputs field"))?;
        let src_path = dir.join(format!("{id}.mc"));
        let source = fs::read_to_string(&src_path)
            .map_err(|e| format!("cannot read {}: {e}", src_path.display()))?;

        let case = match run_case(&cache, &source, tset, variant_seed, &inputs, None) {
            Err(e) => ReplayCase {
                id,
                passing: false,
                detail: format!("build error: {e}"),
            },
            Ok(res) if res.is_failure() => ReplayCase {
                id,
                passing: false,
                detail: format!(
                    "still failing (dynamic={}, static={})",
                    res.dynamic_diverged, res.static_rejected
                ),
            },
            Ok(_) => ReplayCase {
                id,
                passing: true,
                detail: String::new(),
            },
        };
        report.cases.push(case);
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_finding() -> Finding {
        let source = "int main(int a, int b) { return a + b; }\n".to_owned();
        let inputs = vec![vec![1, 2], vec![i32::MIN, -1]];
        let id = finding_id(&source, TransformSet::Subst, 7, &inputs);
        Finding {
            id,
            iter: 3,
            program_seed: 17,
            tset: TransformSet::Subst,
            variant_seed: 7,
            stmts_before: 12,
            stmts_after: 2,
            shrink_evals: 40,
            source,
            inputs,
            expected: vec![
                Outcome::Exited {
                    status: 3,
                    output: vec![3],
                },
                Outcome::Fault {
                    class: "divide-error",
                    output: vec![],
                },
            ],
            actual: vec![
                Outcome::Exited {
                    status: 5,
                    output: vec![5],
                },
                Outcome::Fault {
                    class: "divide-error",
                    output: vec![],
                },
            ],
            dynamic_diverged: true,
            static_rejected: true,
            static_findings: vec!["subst: not an equivalence".to_owned()],
        }
    }

    #[test]
    fn finding_json_roundtrips_and_is_stable() {
        let f = sample_finding();
        let text = f.to_json().to_string();
        let back = parse(&text).unwrap();
        assert_eq!(
            back.get("kind").and_then(Value::as_str),
            Some(REPRODUCER_KIND)
        );
        assert_eq!(back.get("variant_seed").and_then(Value::as_u64), Some(7));
        assert_eq!(
            parse_inputs(back.get("inputs").unwrap()),
            Some(f.inputs.clone())
        );
        // Serialization is deterministic.
        assert_eq!(text, f.to_json().to_string());
    }

    #[test]
    fn finding_ids_are_content_derived() {
        let f = sample_finding();
        let same = finding_id(&f.source, f.tset, f.variant_seed, &f.inputs);
        assert_eq!(f.id, same);
        let other = finding_id(&f.source, TransformSet::Nop, f.variant_seed, &f.inputs);
        assert_ne!(f.id, other);
    }

    #[test]
    fn write_and_replay_a_passing_reproducer() {
        // A healthy program saved as a reproducer must replay as passing
        // (the bug it documents does not exist on this toolchain).
        let dir =
            std::env::temp_dir().join(format!("pgsd-fuzz-corpus-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let f = sample_finding();
        f.write_to(&dir).unwrap();
        FuzzReport {
            findings: vec![f.clone()],
            ..FuzzReport::default()
        }
        .write_to(&dir)
        .unwrap();

        let replayed = replay(&dir).unwrap();
        assert_eq!(replayed.cases.len(), 1, "report.json must be skipped");
        assert_eq!(replayed.cases[0].id, f.id);
        assert!(replayed.all_passing(), "{:?}", replayed.cases);
        fs::remove_dir_all(&dir).unwrap();
    }
}
