//! Equivalent-instruction substitution (paper §6, future work; one of
//! Cohen's original program-evolution techniques).
//!
//! Replaces instructions with semantically equivalent encodings of
//! different lengths and byte patterns — `mov r, 0` ↔ `xor r, r`,
//! `mov d, s` ↔ `lea d, [s]` ↔ `push s; pop d`, `add r, i` ↔ `sub r, −i`,
//! `inc r` ↔ `add r, 1`, `shl r, 1` ↔ `add r, r` — so that even code the
//! NOP pass leaves alone changes shape between versions. Like NOP
//! insertion, the substitution probability is profile-guided: hot blocks
//! keep their original (often faster) encodings.
//!
//! Safety: many substitutions change the arithmetic flags, so the pass
//! consults the shared EFLAGS-liveness analysis from `pgsd-analysis`
//! (`flags_live_after`, the generalized worklist form of the analysis
//! this pass originally carried privately) and substitutes a
//! flag-affecting pattern only where the flags are provably dead.
//! `esp`-involving moves keep their original form except for the
//! verified-safe `push src; pop dst` rewrite (Intel pushes the *old* esp).

use pgsd_analysis::flags::flags_live_after;
use pgsd_telemetry::{HeatBucket, Telemetry};
use pgsd_x86::{AluOp, Reg, ShiftOp};
use rand::Rng;

use pgsd_cc::lir::{MAddr, MFunction, MInst, MReg, MRhs, ShiftCount};
use pgsd_profile::Profile;

use crate::curve::Strategy;

/// Summary of one substitution run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SubstReport {
    /// Instructions that had at least one safe equivalent available.
    pub candidates: u64,
    /// Substitutions performed.
    pub substituted: u64,
}

fn is_esp(r: MReg) -> bool {
    matches!(r, MReg::P(Reg::Esp))
}

/// The safe equivalents of `inst`. `flags_dead` permits flag-visible
/// rewrites.
fn equivalents(inst: &MInst, flags_dead: bool) -> Vec<Vec<MInst>> {
    let mut out = Vec::new();
    match *inst {
        MInst::MovRI { dst, imm: 0 } if flags_dead && !is_esp(dst) => {
            out.push(vec![MInst::Alu {
                op: AluOp::Xor,
                dst,
                rhs: MRhs::Reg(dst),
            }]);
        }
        MInst::Alu {
            op: AluOp::Xor,
            dst,
            rhs: MRhs::Reg(r),
        } if r == dst && flags_dead => {
            out.push(vec![MInst::MovRI { dst, imm: 0 }]);
        }
        MInst::MovRR { dst, src } if dst != src && !is_esp(dst) => {
            // mov d, s ≡ lea d, [s]  (no flags — always safe).
            if !is_esp(src) {
                out.push(vec![MInst::Lea {
                    dst,
                    addr: MAddr::base_imm(src, 0),
                }]);
            }
            // mov d, s ≡ push s; pop d (pushes the pre-decrement esp, so
            // src = esp is fine; Intel SDM PUSH).
            out.push(vec![
                MInst::Push {
                    rhs: MRhs::Reg(src),
                },
                MInst::Pop { dst },
            ]);
        }
        MInst::Lea { dst, addr } if addr.index.is_none() && !is_esp(dst) => {
            if let (Some(base), pgsd_cc::lir::Disp::Imm(0)) = (addr.base, addr.disp) {
                if base != dst && !is_esp(base) {
                    out.push(vec![MInst::MovRR { dst, src: base }]);
                }
            }
        }
        MInst::Alu {
            op: op @ (AluOp::Add | AluOp::Sub),
            dst,
            rhs: MRhs::Imm(imm),
        } if flags_dead && imm != i32::MIN && !is_esp(dst) => {
            let flipped = if op == AluOp::Add {
                AluOp::Sub
            } else {
                AluOp::Add
            };
            out.push(vec![MInst::Alu {
                op: flipped,
                dst,
                rhs: MRhs::Imm(-imm),
            }]);
            if imm == 1 {
                out.push(vec![MInst::IncDec {
                    dst,
                    inc: op == AluOp::Add,
                }]);
            }
        }
        MInst::IncDec { dst, inc } if flags_dead && !is_esp(dst) => {
            let op = if inc { AluOp::Add } else { AluOp::Sub };
            out.push(vec![MInst::Alu {
                op,
                dst,
                rhs: MRhs::Imm(1),
            }]);
        }
        MInst::Shift {
            op: ShiftOp::Shl,
            dst,
            count: ShiftCount::Imm(1),
        } if flags_dead && !is_esp(dst) => {
            out.push(vec![MInst::Alu {
                op: AluOp::Add,
                dst,
                rhs: MRhs::Reg(dst),
            }]);
        }
        _ => {}
    }
    out
}

/// Runs equivalent-instruction substitution over every diversifiable
/// function, with the per-block probability from `strategy` (profile
/// guided, as §6 suggests for this family of transformations),
/// recording per-heat-bucket candidate/substitution counters and a
/// `subst.p_pct` probability histogram into `tel`.
pub fn substitute(
    funcs: &mut [MFunction],
    strategy: &Strategy,
    profile: Option<&Profile>,
    rng: &mut impl Rng,
    tel: &Telemetry,
) -> SubstReport {
    let x_max = profile.map(|p| p.max_count()).unwrap_or(0);
    let mut report = SubstReport::default();
    for func in funcs.iter_mut() {
        if !func.diversify {
            continue;
        }
        let liveness = flags_live_after(func);
        for (bi, block) in func.blocks.iter_mut().enumerate() {
            let count = match (profile, block.ir_block) {
                (Some(p), Some(ir)) => p.block_count(&func.name, ir as usize),
                _ => 0,
            };
            let p = strategy.probability(count, x_max);
            let heat = [("heat", HeatBucket::of(count, x_max).label())];
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            tel.observe("subst.p_pct", (p * 100.0).round() as u64);
            let cand_before = report.candidates;
            let subst_before = report.substituted;
            let old = std::mem::take(&mut block.instrs);
            let mut new = Vec::with_capacity(old.len());
            for (ii, inst) in old.into_iter().enumerate() {
                let options = equivalents(&inst, !liveness[bi][ii]);
                if options.is_empty() {
                    new.push(inst);
                    continue;
                }
                report.candidates += 1;
                let roll: f64 = rng.gen();
                if roll < p {
                    let pick = rng.gen_range(0..options.len());
                    new.extend(options[pick].iter().cloned());
                    report.substituted += 1;
                } else {
                    new.push(inst);
                }
            }
            block.instrs = new;
            tel.add_labeled("subst.candidates", &heat, report.candidates - cand_before);
            tel.add_labeled(
                "subst.substituted",
                &heat,
                report.substituted - subst_before,
            );
        }
    }
    tel.add("subst.candidates", report.candidates);
    tel.add("subst.substituted", report.substituted);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgsd_cc::driver::{emit_image, frontend, lower_module_seeded};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const SRC: &str = "int g;
        int f(int a, int b) { g = a; int x = 0; x += 1; return (a << 1) + b - 1 + x + g; }
        int main(int a, int b) { return f(a, b) * 2; }";

    fn run_src(funcs: &[MFunction], module: &pgsd_cc::ir::Module, args: &[i32]) -> i32 {
        let image = emit_image(funcs, module).unwrap();
        let mut emu = pgsd_emu::Emulator::new(
            image.base,
            image.text.clone(),
            image.data_base,
            image.data.clone(),
            pgsd_cc::emit::STACK_TOP,
        );
        emu.call_entry(image.main_addr, image.exit_addr, args);
        emu.run(10_000_000).status().expect("clean exit")
    }

    #[test]
    fn substitution_preserves_semantics() {
        let module = frontend("t", SRC).unwrap();
        let baseline = lower_module_seeded(&module, None).unwrap();
        let want = run_src(&baseline, &module, &[21, 5]);
        for seed in 0..24 {
            let mut funcs = lower_module_seeded(&module, None).unwrap();
            let mut rng = StdRng::seed_from_u64(seed);
            substitute(
                &mut funcs,
                &Strategy::uniform(1.0),
                None,
                &mut rng,
                &Telemetry::disabled(),
            );
            assert_eq!(run_src(&funcs, &module, &[21, 5]), want, "seed {seed}");
        }
    }

    #[test]
    fn substitution_changes_bytes() {
        let module = frontend("t", SRC).unwrap();
        let base_funcs = lower_module_seeded(&module, None).unwrap();
        let base = emit_image(&base_funcs, &module).unwrap();
        let mut funcs = lower_module_seeded(&module, None).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let rep = substitute(
            &mut funcs,
            &Strategy::uniform(1.0),
            None,
            &mut rng,
            &Telemetry::disabled(),
        );
        assert!(rep.substituted > 0, "{rep:?}");
        let img = emit_image(&funcs, &module).unwrap();
        assert_ne!(base.text, img.text);
    }

    #[test]
    fn flag_sensitive_rewrites_respect_liveness() {
        // `a - 1` feeds a comparison: the sub's flags are dead (the cmp
        // redefines them), but a cmp directly feeding jcc must never be
        // rewritten — covered by running many seeds at p=1 and asserting
        // semantics (branches stay correct).
        let src = "int main(int a) {
            int n = 0;
            for (int i = a; i > 0; i--) { n += i; }
            if (n == 15) { return 1; }
            return 0;
        }";
        let module = frontend("t", src).unwrap();
        let baseline = lower_module_seeded(&module, None).unwrap();
        let want = run_src(&baseline, &module, &[5]);
        assert_eq!(want, 1);
        for seed in 0..16 {
            let mut funcs = lower_module_seeded(&module, None).unwrap();
            let mut rng = StdRng::seed_from_u64(seed);
            substitute(
                &mut funcs,
                &Strategy::uniform(1.0),
                None,
                &mut rng,
                &Telemetry::disabled(),
            );
            assert_eq!(run_src(&funcs, &module, &[5]), want, "seed {seed}");
        }
    }

    #[test]
    fn runtime_functions_untouched() {
        let module = frontend("t", SRC).unwrap();
        let mut funcs = lower_module_seeded(&module, None).unwrap();
        let before: Vec<_> = funcs.iter().filter(|f| !f.diversify).cloned().collect();
        let mut rng = StdRng::seed_from_u64(2);
        substitute(
            &mut funcs,
            &Strategy::uniform(1.0),
            None,
            &mut rng,
            &Telemetry::disabled(),
        );
        let after: Vec<_> = funcs.iter().filter(|f| !f.diversify).cloned().collect();
        assert_eq!(before, after);
    }
}
