//! Differential execution of diversified variants.
//!
//! For each generated program the runner builds one baseline image and a
//! set of diversified variants (seeds × transform sets), runs every image
//! on the same inputs, and compares the *observable behaviour*: exit
//! status, the sequence of `print`ed words, and — when the program traps
//! — the fault class. Fault **addresses** are deliberately excluded:
//! NOP insertion and block shifting legally move every EIP, so only the
//! kind of fault is an invariant of the program.
//!
//! Every variant is additionally checked by the static translation
//! validator (`pgsd_analysis::divcheck`), and the two oracles must agree:
//! a variant that diverges dynamically or is rejected statically is a
//! finding. On a healthy toolchain neither ever fires; the test-only
//! [`Sabotage`] hook breaks a substitution rule on purpose to prove the
//! harness can see.

use pgsd_cache::Cache;
use pgsd_cc::driver::emit_image;
use pgsd_cc::emit::Image;
use pgsd_cc::error::Result;
use pgsd_cc::lir::{MFunction, MInst, MRhs};
use pgsd_core::driver::{apply_diversity, run, BuildConfig};
use pgsd_core::{Session, Strategy};
use pgsd_emu::{Exit, Fault};
use pgsd_workloads::gen::Lcg;
use pgsd_x86::AluOp;

/// Instruction budget for baseline runs. Generated programs are bounded
/// by construction (masked loop bounds, DAG call graph), so this is a
/// generous ceiling, not a semantics knob.
pub const BASELINE_GAS: u64 = 4_000_000;

/// Instruction budget for variant runs: 4× the baseline ceiling, since
/// NOP insertion at high p can double the dynamic instruction count.
pub const VARIANT_GAS: u64 = 4 * BASELINE_GAS;

/// Which diversifying transforms a variant build enables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TransformSet {
    /// NOP insertion only (the paper's main configuration).
    Nop,
    /// Equivalent-instruction substitution only.
    Subst,
    /// Basic-block shifting only.
    Shift,
    /// Everything at once, including register randomization
    /// (`BuildConfig::full_diversity`).
    Combo,
}

impl TransformSet {
    /// All transform sets, in canonical order.
    pub const ALL: [TransformSet; 4] = [
        TransformSet::Nop,
        TransformSet::Subst,
        TransformSet::Shift,
        TransformSet::Combo,
    ];

    /// Stable lowercase name, as used by `--transforms` and the corpus.
    pub fn label(self) -> &'static str {
        match self {
            TransformSet::Nop => "nop",
            TransformSet::Subst => "subst",
            TransformSet::Shift => "shift",
            TransformSet::Combo => "combo",
        }
    }

    /// Parses a `--transforms` component.
    pub fn parse(s: &str) -> Option<TransformSet> {
        match s {
            "nop" => Some(TransformSet::Nop),
            "subst" => Some(TransformSet::Subst),
            "shift" => Some(TransformSet::Shift),
            "combo" => Some(TransformSet::Combo),
            _ => None,
        }
    }

    /// The build configuration for this transform set under
    /// `variant_seed`. The probability is itself seed-derived so the
    /// corpus spans gentle and aggressive diversification.
    pub fn config(self, variant_seed: u64) -> BuildConfig {
        let p = [0.25, 0.5, 0.8][(variant_seed % 3) as usize];
        let strategy = Strategy::uniform(p);
        match self {
            TransformSet::Nop => BuildConfig::diversified(strategy, variant_seed),
            TransformSet::Subst => BuildConfig {
                substitution: Some(strategy),
                seed: variant_seed,
                ..BuildConfig::baseline()
            },
            TransformSet::Shift => BuildConfig {
                shift: true,
                seed: variant_seed,
                ..BuildConfig::baseline()
            },
            TransformSet::Combo => BuildConfig::full_diversity(strategy, variant_seed),
        }
    }
}

/// What a run looked like from the outside. This is exactly the set of
/// signals the differential comparison is allowed to use.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// Clean exit with `status`, having printed `output`.
    Exited {
        /// `main`'s return value (the exit syscall argument).
        status: i32,
        /// Words printed before exit, in order.
        output: Vec<i32>,
    },
    /// The run trapped. Only the fault *class* is compared — addresses
    /// legally differ between variants — plus whatever was printed
    /// before the trap.
    Fault {
        /// Stable class label (`"unmapped"`, `"divide-error"`, …).
        class: &'static str,
        /// Words printed before the fault, in order.
        output: Vec<i32>,
    },
    /// The instruction budget ran out. Baseline runs that hit this are
    /// skipped rather than compared (the variant budget is 4×, so gas is
    /// never a legitimate divergence).
    OutOfGas,
}

/// Collapses an emulator exit plus printed output into an [`Outcome`].
pub fn classify(exit: &Exit, output: &[i32]) -> Outcome {
    let out = output.to_vec();
    match exit {
        Exit::Exited(status) => Outcome::Exited {
            status: *status,
            output: out,
        },
        Exit::Fault {
            fault: Fault::Unmapped { .. },
            ..
        } => Outcome::Fault {
            class: "unmapped",
            output: out,
        },
        Exit::Fault {
            fault: Fault::WriteProtected { .. },
            ..
        } => Outcome::Fault {
            class: "write-protected",
            output: out,
        },
        Exit::Fault {
            fault: Fault::NotExecutable { .. },
            ..
        } => Outcome::Fault {
            class: "not-executable",
            output: out,
        },
        Exit::InvalidInstruction { .. } => Outcome::Fault {
            class: "invalid-instruction",
            output: out,
        },
        Exit::Unsupported { .. } => Outcome::Fault {
            class: "unsupported",
            output: out,
        },
        Exit::DivideError { .. } => Outcome::Fault {
            class: "divide-error",
            output: out,
        },
        Exit::Halted { .. } => Outcome::Fault {
            class: "halted",
            output: out,
        },
        Exit::BadSyscall { .. } => Outcome::Fault {
            class: "bad-syscall",
            output: out,
        },
        Exit::OutOfGas => Outcome::OutOfGas,
    }
}

/// Test-only fault injection: deliberately miscompiles variants so the
/// harness's detection path can be exercised end to end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sabotage {
    /// A broken substitution rule: rewrites `add r, 1` (and `inc r`) to
    /// `add r, 2` in every diversifiable function — the classic
    /// off-by-one a buggy equivalence class would introduce.
    BrokenSubst,
}

fn apply_sabotage(funcs: &mut [MFunction], sabotage: Sabotage) {
    match sabotage {
        Sabotage::BrokenSubst => {
            for func in funcs.iter_mut().filter(|f| f.diversify) {
                for block in &mut func.blocks {
                    for inst in &mut block.instrs {
                        match *inst {
                            MInst::Alu {
                                op: AluOp::Add,
                                dst,
                                rhs: MRhs::Imm(1),
                            } => {
                                *inst = MInst::Alu {
                                    op: AluOp::Add,
                                    dst,
                                    rhs: MRhs::Imm(2),
                                };
                            }
                            MInst::IncDec { dst, inc: true } => {
                                *inst = MInst::Alu {
                                    op: AluOp::Add,
                                    dst,
                                    rhs: MRhs::Imm(2),
                                };
                            }
                            _ => {}
                        }
                    }
                }
            }
        }
    }
}

/// The diversified LIR a shipped build of `config` emits: the session's
/// memoized lowering followed by the production diversify stage
/// ([`apply_diversity`]).
fn diversified_lir(session: &Session, config: &BuildConfig) -> Result<Vec<MFunction>> {
    let reg_seed = config.reg_randomize.then_some(config.seed);
    let mut funcs = (*session.lowered(reg_seed)?).clone();
    apply_diversity(&mut funcs, session.active_profile().as_deref(), config);
    Ok(funcs)
}

/// A variant of `config` with `sabotage` injected after the production
/// diversify stage, so the image differs from what
/// [`Session::build_with`] ships by the sabotage step alone. The
/// sabotaged image bypasses the session's image cache entirely.
fn build_sabotaged(session: &Session, config: &BuildConfig, sabotage: Sabotage) -> Result<Image> {
    let mut funcs = diversified_lir(session, config)?;
    apply_sabotage(&mut funcs, sabotage);
    emit_image(&funcs, session.module()?)
}

/// Derives the matched inputs for a program seed: a couple of small
/// argument pairs plus one pair drawn from the edge-constant pool.
pub fn inputs_for(program_seed: u64) -> Vec<Vec<i32>> {
    let mut rng = Lcg::new(program_seed ^ 0x1287_AB1E);
    let edge = crate::gen::EDGE_CONSTANTS;
    vec![
        vec![rng.range(-8, 16), rng.range(-8, 16)],
        vec![
            edge[rng.below(edge.len() as u64) as usize],
            edge[rng.below(edge.len() as u64) as usize],
        ],
    ]
}

/// Result of differentially checking one (program, transform-set,
/// variant-seed) case against the baseline.
#[derive(Debug, Clone)]
pub struct CaseResult {
    /// The baseline ran out of gas, so no comparison was made.
    pub baseline_out_of_gas: bool,
    /// Per-input baseline outcomes.
    pub expected: Vec<Outcome>,
    /// Per-input variant outcomes.
    pub actual: Vec<Outcome>,
    /// Any input produced different outcomes.
    pub dynamic_diverged: bool,
    /// The static validator refused the equivalence proof.
    pub static_rejected: bool,
    /// Rendered validator diagnostics (capped at 8).
    pub static_findings: Vec<String>,
}

impl CaseResult {
    /// True when either oracle flagged the variant.
    pub fn is_failure(&self) -> bool {
        self.dynamic_diverged || self.static_rejected
    }
}

/// Compiles the MiniC `source`, builds the `tset`/`variant_seed` variant
/// (optionally sabotaged), runs both on `inputs`, and cross-checks the
/// dynamic comparison against the static validator. The fuzz loop passes
/// a generated program's emitted source; corpus replay passes the stored
/// reproducer.
///
/// Pipeline artifacts are memoized in `cache`: the fuzz loop gives each
/// iteration one cache, so a program's frontend, baseline build, and
/// lowering are paid once across its (transform-set, seed) cases.
/// Sabotaged variants reuse the memoized lowering but are never
/// themselves cached — a deliberately broken image must not leak into a
/// store a healthy build could hit.
///
/// # Errors
///
/// Propagates frontend and build errors; the generator and shrinker only
/// produce compilable programs, so an error here is itself a toolchain
/// bug worth surfacing.
pub fn run_case(
    cache: &Cache,
    source: &str,
    tset: TransformSet,
    variant_seed: u64,
    inputs: &[Vec<i32>],
    sabotage: Option<Sabotage>,
) -> Result<CaseResult> {
    let session = Session::from_source("fuzzcase", source).cache(cache.clone());
    let baseline = session.build_with(&BuildConfig::baseline())?;
    let config = tset.config(variant_seed);
    let variant = match sabotage {
        None => session.build_with(&config)?,
        Some(s) => build_sabotaged(&session, &config, s)?,
    };

    let (static_rejected, static_findings) =
        match pgsd_analysis::check_images(&baseline, &variant, &config.transforms()) {
            Ok(_) => (false, Vec::new()),
            Err(diags) => (true, diags.iter().take(8).map(|d| d.to_string()).collect()),
        };

    let mut expected = Vec::with_capacity(inputs.len());
    let mut actual = Vec::with_capacity(inputs.len());
    let mut dynamic_diverged = false;
    let mut baseline_out_of_gas = false;
    for args in inputs {
        let (b_exit, b_stats) = run(&baseline, args, BASELINE_GAS);
        let want = classify(&b_exit, &b_stats.output);
        if want == Outcome::OutOfGas {
            baseline_out_of_gas = true;
            break;
        }
        let (v_exit, v_stats) = run(&variant, args, VARIANT_GAS);
        let got = classify(&v_exit, &v_stats.output);
        if got != want {
            dynamic_diverged = true;
        }
        expected.push(want);
        actual.push(got);
    }
    Ok(CaseResult {
        baseline_out_of_gas,
        expected,
        actual,
        dynamic_diverged: dynamic_diverged && !baseline_out_of_gas,
        static_rejected,
        static_findings,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate, GenOptions};

    /// The sabotage path minus the sabotage must be the shipped build —
    /// otherwise the sabotaged variants would be testing a different
    /// compiler.
    #[test]
    fn unsabotaged_variant_lir_emits_the_production_build() {
        let program = generate(7, &GenOptions::default());
        let session = Session::from_source("t", &program.emit());
        for tset in TransformSet::ALL {
            for seed in [1u64, 2, 3] {
                let config = tset.config(seed);
                let shipped = session.build_with(&config).unwrap();
                let funcs = diversified_lir(&session, &config).unwrap();
                let emitted = emit_image(&funcs, session.module().unwrap()).unwrap();
                assert_eq!(shipped, emitted, "{tset:?} seed {seed}");
            }
        }
    }

    #[test]
    fn healthy_cases_never_fail() {
        for program_seed in 0..6 {
            let program = generate(program_seed, &GenOptions::default());
            let inputs = inputs_for(program_seed);
            for tset in TransformSet::ALL {
                let res = run_case(
                    &Cache::in_memory(),
                    &program.emit(),
                    tset,
                    program_seed + 11,
                    &inputs,
                    None,
                )
                .unwrap_or_else(|e| panic!("seed {program_seed} {tset:?}: {e}"));
                assert!(
                    !res.is_failure(),
                    "seed {program_seed} {tset:?}: {res:#?}\n{}",
                    program.emit()
                );
            }
        }
    }

    #[test]
    fn sabotage_is_caught_by_both_oracles_somewhere() {
        // Across a handful of seeds the broken-subst rule must produce at
        // least one dynamic divergence AND at least one static rejection
        // (not necessarily on the same case).
        let mut dynamic = false;
        let mut rejected = false;
        for program_seed in 0..8 {
            let program = generate(program_seed, &GenOptions::default());
            let inputs = inputs_for(program_seed);
            let res = run_case(
                &Cache::in_memory(),
                &program.emit(),
                TransformSet::Subst,
                program_seed,
                &inputs,
                Some(Sabotage::BrokenSubst),
            )
            .unwrap();
            dynamic |= res.dynamic_diverged;
            rejected |= res.static_rejected;
            if dynamic && rejected {
                break;
            }
        }
        assert!(dynamic, "sabotage never diverged dynamically");
        assert!(rejected, "sabotage never rejected statically");
    }

    #[test]
    fn outcome_comparison_ignores_fault_addresses() {
        let a = classify(&Exit::DivideError { addr: 0x1000 }, &[1, 2]);
        let b = classify(&Exit::DivideError { addr: 0x2000 }, &[1, 2]);
        assert_eq!(a, b);
        let c = classify(&Exit::DivideError { addr: 0x1000 }, &[1]);
        assert_ne!(a, c, "printed prefix still distinguishes outcomes");
    }

    #[test]
    fn transform_set_labels_roundtrip() {
        for t in TransformSet::ALL {
            assert_eq!(TransformSet::parse(t.label()), Some(t));
        }
        assert_eq!(TransformSet::parse("bogus"), None);
    }
}
