//! Frame lowering: prologue/epilogue insertion and stack-slot resolution.
//!
//! Stack layout (cdecl, frame pointer `ebp`):
//!
//! ```text
//!   [ebp + 8 + 4i]  argument i
//!   [ebp + 4]       return address
//!   [ebp]           caller's ebp
//!   [ebp -  4]      saved ebx
//!   [ebp -  8]      saved esi
//!   [ebp - 12]      saved edi
//!   [ebp - 12 - …]  local array slots, then spill slots
//! ```
//!
//! All three callee-saved registers are always saved; this wastes a few
//! bytes in leaf functions but keeps slot offsets independent of register
//! usage, which keeps lowering deterministic — a property the diversity
//! experiments rely on (two compilations of the same module must differ
//! *only* by inserted NOPs).

use pgsd_x86::{AluOp, Reg};

use super::{Disp, MAddr, MFunction, MInst, MReg, MRhs, MTerm};

/// Byte distance from `ebp` down to the bottom of the saved-register area.
const SAVED_REGS_BYTES: i32 = 12;

/// Inserts prologue/epilogue code and resolves [`Disp::Slot`] references
/// to `ebp`-relative addresses. Raw functions are left untouched.
///
/// # Panics
///
/// Panics if a slot reference has a base register (slots provide their own
/// base) or if a slot id is out of range — both indicate lowering bugs.
pub fn lower_frame(func: &mut MFunction) {
    if func.raw {
        return;
    }
    // Slot k occupies words slot_words[k]; compute its offset below ebp.
    let mut base_off = Vec::with_capacity(func.slot_words.len());
    let mut cum = 0i32;
    for &words in &func.slot_words {
        cum += 4 * words as i32;
        base_off.push(SAVED_REGS_BYTES + cum);
    }
    let frame_bytes = cum;

    // Resolve slot displacements.
    for block in &mut func.blocks {
        for inst in &mut block.instrs {
            for_each_addr(inst, |addr| {
                if let Disp::Slot { id, offset } = addr.disp {
                    assert!(
                        addr.base.is_none(),
                        "slot address already has a base register: {addr}"
                    );
                    let off = base_off
                        .get(id as usize)
                        .unwrap_or_else(|| panic!("slot {id} out of range"));
                    addr.base = Some(MReg::P(Reg::Ebp));
                    addr.disp = Disp::Imm(-off + offset);
                }
            });
        }
    }

    // Prologue.
    let mut prologue = vec![
        MInst::Push {
            rhs: MRhs::Reg(MReg::P(Reg::Ebp)),
        },
        MInst::MovRR {
            dst: MReg::P(Reg::Ebp),
            src: MReg::P(Reg::Esp),
        },
        MInst::Push {
            rhs: MRhs::Reg(MReg::P(Reg::Ebx)),
        },
        MInst::Push {
            rhs: MRhs::Reg(MReg::P(Reg::Esi)),
        },
        MInst::Push {
            rhs: MRhs::Reg(MReg::P(Reg::Edi)),
        },
    ];
    if frame_bytes > 0 {
        prologue.push(MInst::Alu {
            op: AluOp::Sub,
            dst: MReg::P(Reg::Esp),
            rhs: MRhs::Imm(frame_bytes),
        });
    }
    func.blocks[0].instrs.splice(0..0, prologue);

    // Epilogue before every return. Stack pushes and pops are balanced by
    // construction (calls clean up their own arguments), so a plain
    // `add esp, N` releases the frame — the shape real compilers emit,
    // which also matters for the security analysis: `add esp, imm` keeps a
    // ROP chain alive (the attacker pads), whereas an `lea esp, …`
    // epilogue would make every function ending a stack pivot.
    for block in &mut func.blocks {
        if matches!(block.term, MTerm::Ret) {
            if frame_bytes > 0 {
                block.instrs.push(MInst::Alu {
                    op: AluOp::Add,
                    dst: MReg::P(Reg::Esp),
                    rhs: MRhs::Imm(frame_bytes),
                });
            }
            block.instrs.extend([
                MInst::Pop {
                    dst: MReg::P(Reg::Edi),
                },
                MInst::Pop {
                    dst: MReg::P(Reg::Esi),
                },
                MInst::Pop {
                    dst: MReg::P(Reg::Ebx),
                },
                MInst::Pop {
                    dst: MReg::P(Reg::Ebp),
                },
            ]);
        }
    }
}

/// Visits every memory operand of an instruction mutably.
fn for_each_addr(inst: &mut MInst, mut f: impl FnMut(&mut MAddr)) {
    match inst {
        MInst::Load { addr, .. }
        | MInst::Store { addr, .. }
        | MInst::StoreImm { addr, .. }
        | MInst::AluMem { addr, .. }
        | MInst::Lea { addr, .. } => f(addr),
        MInst::Alu {
            rhs: MRhs::Mem(m), ..
        }
        | MInst::Cmp {
            rhs: MRhs::Mem(m), ..
        }
        | MInst::Imul {
            rhs: MRhs::Mem(m), ..
        }
        | MInst::Push { rhs: MRhs::Mem(m) } => f(m),
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frontend::{lexer::lex, parser::parse};
    use crate::ir::builder::build;
    use crate::ir::passes::optimize;
    use crate::lir::isel::{select, LowerCtx};
    use crate::lir::regalloc::allocate;
    use pgsd_telemetry::Telemetry;

    fn full(src: &str) -> Vec<MFunction> {
        let mut m = build("t", &parse(lex(src).unwrap()).unwrap()).unwrap();
        optimize(&mut m, &Telemetry::disabled());
        let ctx = LowerCtx {
            print_index: 1,
            user_func_base: 2,
        };
        m.funcs
            .iter()
            .map(|f| {
                let mut mf = select(f, &ctx).unwrap();
                allocate(&mut mf).unwrap();
                lower_frame(&mut mf);
                mf
            })
            .collect()
    }

    #[test]
    fn prologue_and_epilogue_bracket_the_function() {
        let fs = full("int f(int a) { return a; }");
        let f = &fs[0];
        assert!(matches!(f.blocks[0].instrs[0], MInst::Push { .. }));
        assert!(matches!(f.blocks[0].instrs[1], MInst::MovRR { .. }));
        let ret_block = f
            .blocks
            .iter()
            .find(|b| matches!(b.term, MTerm::Ret))
            .expect("return block");
        let n = ret_block.instrs.len();
        assert!(matches!(
            ret_block.instrs[n - 1],
            MInst::Pop {
                dst: MReg::P(Reg::Ebp)
            }
        ));
        assert!(matches!(
            ret_block.instrs[n - 2],
            MInst::Pop {
                dst: MReg::P(Reg::Ebx)
            }
        ));
    }

    #[test]
    fn slots_resolve_to_ebp_relative() {
        let fs = full("int f(int i) { int a[4]; a[i] = 1; return a[0]; }");
        for b in &fs[0].blocks {
            for inst in &b.instrs {
                let mut copy = *inst;
                super::for_each_addr(&mut copy, |addr| {
                    assert!(
                        !matches!(addr.disp, Disp::Slot { .. }),
                        "unresolved slot in {inst:?}"
                    );
                });
            }
        }
    }

    #[test]
    fn frame_reserves_array_space() {
        let fs = full("int f() { int a[10]; a[0] = 1; return a[0]; }");
        let sub = fs[0].blocks[0].instrs.iter().find_map(|i| match i {
            MInst::Alu {
                op: AluOp::Sub,
                dst: MReg::P(Reg::Esp),
                rhs: MRhs::Imm(n),
            } => Some(*n),
            _ => None,
        });
        assert!(sub.expect("stack adjustment") >= 40);
    }

    #[test]
    fn no_frame_adjustment_without_slots() {
        let fs = full("int f(int a) { return a + 1; }");
        let sub = fs[0].blocks[0].instrs.iter().any(|i| {
            matches!(
                i,
                MInst::Alu {
                    op: AluOp::Sub,
                    dst: MReg::P(Reg::Esp),
                    ..
                }
            )
        });
        assert!(!sub);
    }
}
