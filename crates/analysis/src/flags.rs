//! EFLAGS liveness over a machine function, for the substitution pass.
//!
//! A single boolean fact — "may the arithmetic flags be read before they
//! are fully redefined?" — flowing backward. Block live-ins start at
//! `false` and grow only by `∨` on the shared worklist driver
//! ([`fixpoint`]), so they reach the unique least fixpoint whatever the
//! visiting order; each block is then replayed backward for the
//! per-instruction answer.

use pgsd_cc::lir::{MBlock, MFunction, MInst, MTerm};

use crate::dataflow::fixpoint;

/// Flags liveness just before `inst`, given liveness just after it.
fn live_before(inst: &MInst, live_after: bool) -> bool {
    inst.reads_eflags() || (live_after && !inst.defines_all_eflags())
}

/// Flags liveness at `block`'s terminator, given every block's live-in. A
/// conditional branch is the canonical flags reader; at `ret` the flags
/// are dead, since the ABI makes no promises about EFLAGS.
fn live_at_term(block: &MBlock, live_in: &[bool]) -> bool {
    matches!(block.term, MTerm::JCond { .. })
        || block.term.successors().iter().any(|&s| live_in[s as usize])
}

/// Per-instruction flags liveness for `func`: `live[b][i]` is `true` when
/// the flags may be read after instruction `i` of block `b` executes (so a
/// flag-changing rewrite of instruction `i` is unsafe).
pub fn flags_live_after(func: &MFunction) -> Vec<Vec<bool>> {
    let blocks = &func.blocks;
    let preds = func.predecessors();
    let mut live_in = vec![false; blocks.len()];
    fixpoint(blocks.len(), (0..blocks.len()).rev(), |b| {
        let block = &blocks[b];
        let live = block
            .instrs
            .iter()
            .rev()
            .fold(live_at_term(block, &live_in), |live, inst| {
                live_before(inst, live)
            });
        if live == live_in[b] {
            return Vec::new();
        }
        live_in[b] = live;
        preds[b].iter().map(|&p| p as usize).collect()
    });
    blocks
        .iter()
        .map(|block| {
            let mut live = live_at_term(block, &live_in);
            let mut after = vec![false; block.instrs.len()];
            for (i, inst) in block.instrs.iter().enumerate().rev() {
                after[i] = live;
                live = live_before(inst, live);
            }
            after
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgsd_cc::lir::{MReg, MRhs, MTarget};
    use pgsd_x86::{AluOp, Cond, Reg};

    fn func(blocks: Vec<MBlock>) -> MFunction {
        MFunction {
            name: "t".into(),
            params: 0,
            blocks,
            num_vregs: 0,
            slot_words: Vec::new(),
            diversify: true,
            raw: false,
        }
    }

    fn p(r: Reg) -> MReg {
        MReg::P(r)
    }

    #[test]
    fn jcond_keeps_flags_live_back_through_block() {
        // .L0: cmp eax, 0 ; mov ecx, 1 ; jcond E -> .L1 else .L2
        // .L1: ret   .L2: ret
        let f = func(vec![
            MBlock {
                instrs: vec![
                    MInst::Cmp {
                        lhs: p(Reg::Eax),
                        rhs: MRhs::Imm(0),
                    },
                    MInst::MovRI {
                        dst: p(Reg::Ecx),
                        imm: 1,
                    },
                ],
                term: MTerm::JCond {
                    cc: Cond::E,
                    t: MTarget::M(1),
                    f: MTarget::M(2),
                },
                ir_block: None,
            },
            MBlock {
                instrs: vec![],
                term: MTerm::Ret,
                ir_block: None,
            },
            MBlock {
                instrs: vec![],
                term: MTerm::Ret,
                ir_block: None,
            },
        ]);
        let live = flags_live_after(&f);
        // After the cmp the flags are live (the mov does not define them);
        // after the mov they are still live (the jcond reads them).
        assert_eq!(live[0], vec![true, true]);
    }

    #[test]
    fn full_definition_kills_liveness() {
        // .L0: cmp ; add (defines all flags) ; jcond
        let f = func(vec![
            MBlock {
                instrs: vec![
                    MInst::Cmp {
                        lhs: p(Reg::Eax),
                        rhs: MRhs::Imm(0),
                    },
                    MInst::Alu {
                        op: AluOp::Add,
                        dst: p(Reg::Ecx),
                        rhs: MRhs::Imm(1),
                    },
                ],
                term: MTerm::JCond {
                    cc: Cond::E,
                    t: MTarget::M(1),
                    f: MTarget::M(1),
                },
                ir_block: None,
            },
            MBlock {
                instrs: vec![],
                term: MTerm::Ret,
                ir_block: None,
            },
        ]);
        let live = flags_live_after(&f);
        // After the cmp the add will redefine flags before the jcond reads
        // them, so the cmp's flags are dead; after the add they are live.
        assert_eq!(live[0], vec![false, true]);
    }

    #[test]
    fn liveness_crosses_loop_edges() {
        // .L0: cmp -> .L1
        // .L1: (empty) jcond -> .L1 / .L2 — flags live around the loop.
        let f = func(vec![
            MBlock {
                instrs: vec![MInst::Cmp {
                    lhs: p(Reg::Eax),
                    rhs: MRhs::Imm(0),
                }],
                term: MTerm::Jmp(MTarget::M(1)),
                ir_block: None,
            },
            MBlock {
                instrs: vec![],
                term: MTerm::JCond {
                    cc: Cond::E,
                    t: MTarget::M(1),
                    f: MTarget::M(2),
                },
                ir_block: None,
            },
            MBlock {
                instrs: vec![],
                term: MTerm::Ret,
                ir_block: None,
            },
        ]);
        let live = flags_live_after(&f);
        assert_eq!(live[0], vec![true]);
    }
}
