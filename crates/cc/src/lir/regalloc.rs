//! Linear-scan register allocation.
//!
//! Virtual registers are allocated to the callee-saved set
//! `{ebx, esi, edi}`; `eax`, `ecx` and `edx` are reserved as scratch for
//! spill reloads and for the fixed-register sequences instruction selection
//! emits (division, shifts, call returns). Keeping the allocatable and
//! scratch sets disjoint makes the allocator constraint-free — the classic
//! simple-backend design, and entirely adequate for measuring *relative*
//! NOP-insertion overhead, which is what the paper's Figure 4 needs.
//!
//! Liveness is computed by backward dataflow over the machine CFG; each
//! virtual register gets one conservative interval (covering loops via
//! live-in/live-out extension); intervals are scanned in start order with
//! furthest-end spilling (Poletto & Sarkar).

use std::collections::HashMap;

use pgsd_x86::Reg;

use crate::error::{CompileError, Result};

use super::{Disp, MAddr, MFunction, MInst, MReg};

/// Registers available for allocation (callee-saved under cdecl).
pub const ALLOCATABLE: [Reg; 3] = [Reg::Ebx, Reg::Esi, Reg::Edi];

/// Scratch registers used for spill code (caller-saved under cdecl).
pub const SCRATCH: [Reg; 3] = [Reg::Eax, Reg::Ecx, Reg::Edx];

/// Where a virtual register ended up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Loc {
    Reg(Reg),
    /// Index into `MFunction::slot_words`.
    Slot(u32),
}

/// Allocates registers for `func` in place, rewriting every virtual
/// register to a physical register or to frame-slot accesses via scratch
/// registers. Raw functions are left untouched.
///
/// # Errors
///
/// Returns an error if an instruction requires more scratch registers than
/// exist (cannot happen for instruction-selected code; defends against
/// hand-built LIR).
pub fn allocate(func: &mut MFunction) -> Result<()> {
    allocate_with_order(func, ALLOCATABLE)
}

/// Like [`allocate`], but hands registers out in the given preference
/// order. All three allocatable registers are callee-saved and fully
/// symmetric, so any permutation yields correct code — which makes the
/// order a *diversification knob*: the paper's §6 lists register
/// randomization among the complementary transformations a compiler can
/// apply, profile-guided like the rest.
///
/// # Errors
///
/// Fails in exactly the cases [`allocate`] fails.
pub fn allocate_with_order(func: &mut MFunction, order: [Reg; 3]) -> Result<()> {
    if func.raw {
        return Ok(());
    }
    debug_assert!(
        order.iter().all(|r| ALLOCATABLE.contains(r)),
        "register order must be a permutation of the allocatable set"
    );
    let intervals = build_intervals(func);
    let assignment = scan(func, &intervals, order);
    rewrite(func, &assignment)?;
    func.num_vregs = 0;
    Ok(())
}

#[derive(Debug, Clone, Copy)]
struct Interval {
    vreg: u32,
    start: u32,
    end: u32,
}

/// Computes one conservative live interval per virtual register.
fn build_intervals(func: &MFunction) -> Vec<Interval> {
    let nb = func.blocks.len();
    let nv = func.num_vregs as usize;

    // Global instruction numbering; each block also gets a start/end
    // position (the end covers the terminator).
    let mut block_start = vec![0u32; nb];
    let mut block_end = vec![0u32; nb];
    let mut pos = 0u32;
    for (bi, b) in func.blocks.iter().enumerate() {
        block_start[bi] = pos;
        pos += b.instrs.len() as u32 + 1; // +1 for the terminator
        block_end[bi] = pos - 1;
    }

    // Per-block use/def sets.
    let mut uses = vec![vec![false; nv]; nb];
    let mut defs = vec![vec![false; nv]; nb];
    for (bi, b) in func.blocks.iter().enumerate() {
        for i in &b.instrs {
            i.for_each_reg(|r, is_def| {
                if let MReg::V(n) = r {
                    let n = n as usize;
                    if is_def {
                        defs[bi][n] = true;
                    } else if !defs[bi][n] {
                        uses[bi][n] = true;
                    }
                }
            });
        }
    }

    // Backward liveness dataflow.
    let succs: Vec<Vec<usize>> = func
        .blocks
        .iter()
        .map(|b| b.term.successors().iter().map(|&s| s as usize).collect())
        .collect();
    let mut live_in = vec![vec![false; nv]; nb];
    let mut live_out = vec![vec![false; nv]; nb];
    loop {
        let mut changed = false;
        for bi in (0..nb).rev() {
            for v in 0..nv {
                let out = succs[bi].iter().any(|&s| live_in[s][v]);
                let inp = uses[bi][v] || (out && !defs[bi][v]);
                if out != live_out[bi][v] || inp != live_in[bi][v] {
                    live_out[bi][v] = out;
                    live_in[bi][v] = inp;
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }

    // Interval construction.
    let mut start = vec![u32::MAX; nv];
    let mut end = vec![0u32; nv];
    let touch = |v: usize, at: u32, start: &mut Vec<u32>, end: &mut Vec<u32>| {
        start[v] = start[v].min(at);
        end[v] = end[v].max(at);
    };
    for (bi, b) in func.blocks.iter().enumerate() {
        for v in 0..nv {
            if live_in[bi][v] {
                touch(v, block_start[bi], &mut start, &mut end);
            }
            if live_out[bi][v] {
                touch(v, block_end[bi], &mut start, &mut end);
            }
        }
        for (p, i) in (block_start[bi]..).zip(b.instrs.iter()) {
            i.for_each_reg(|r, _| {
                if let MReg::V(n) = r {
                    touch(n as usize, p, &mut start, &mut end);
                }
            });
        }
    }

    let mut out: Vec<Interval> = (0..nv)
        .filter(|&v| start[v] != u32::MAX)
        .map(|v| Interval {
            vreg: v as u32,
            start: start[v],
            end: end[v],
        })
        .collect();
    out.sort_by_key(|i| (i.start, i.end));
    out
}

/// Classic linear scan with furthest-end spilling.
fn scan(func: &mut MFunction, intervals: &[Interval], order: [Reg; 3]) -> HashMap<u32, Loc> {
    let mut assignment: HashMap<u32, Loc> = HashMap::new();
    let mut active: Vec<(Interval, Reg)> = Vec::new();
    // `free` is popped from the back; reverse so `order[0]` is preferred.
    let mut free: Vec<Reg> = order.iter().rev().copied().collect();

    let new_slot = |func: &mut MFunction| -> u32 {
        let id = func.slot_words.len() as u32;
        func.slot_words.push(1);
        id
    };

    for &iv in intervals {
        // Expire intervals that ended before this one starts.
        active.retain(|(a, r)| {
            if a.end < iv.start {
                free.push(*r);
                false
            } else {
                true
            }
        });
        if let Some(r) = free.pop() {
            active.push((iv, r));
            assignment.insert(iv.vreg, Loc::Reg(r));
        } else {
            // Spill the interval that ends last (it blocks a register for
            // the longest time).
            let (furthest_idx, _) = active
                .iter()
                .enumerate()
                .max_by_key(|(_, (a, _))| a.end)
                .expect("active is non-empty when no register is free");
            if active[furthest_idx].0.end > iv.end {
                let (victim, reg) = active.swap_remove(furthest_idx);
                assignment.insert(victim.vreg, Loc::Slot(new_slot(func)));
                assignment.insert(iv.vreg, Loc::Reg(reg));
                active.push((iv, reg));
            } else {
                assignment.insert(iv.vreg, Loc::Slot(new_slot(func)));
            }
        }
    }
    assignment
}

/// Rewrites all virtual registers according to `assignment`, inserting
/// spill loads/stores through scratch registers.
fn rewrite(func: &mut MFunction, assignment: &HashMap<u32, Loc>) -> Result<()> {
    for bi in 0..func.blocks.len() {
        let old = std::mem::take(&mut func.blocks[bi].instrs);
        let mut new = Vec::with_capacity(old.len());
        for inst in old {
            rewrite_inst(inst, assignment, &mut new)?;
        }
        func.blocks[bi].instrs = new;
    }
    Ok(())
}

fn slot_addr(slot: u32) -> MAddr {
    MAddr::disp(Disp::Slot {
        id: slot,
        offset: 0,
    })
}

fn rewrite_inst(
    mut inst: MInst,
    assignment: &HashMap<u32, Loc>,
    out: &mut Vec<MInst>,
) -> Result<()> {
    // Fast path: nothing virtual.
    let mut any_virtual = false;
    inst.for_each_reg(|r, _| any_virtual |= matches!(r, MReg::V(_)));
    if !any_virtual {
        out.push(inst);
        return Ok(());
    }

    // Peephole the common single-register move forms so spill code stays
    // compact.
    match inst {
        MInst::MovRR {
            dst: MReg::V(d),
            src,
        } if spilled(assignment, d) => {
            if let Some(src) = resolve_reg(assignment, src) {
                out.push(MInst::Store {
                    addr: slot_addr(slot_of(assignment, d)),
                    src,
                });
                return Ok(());
            }
        }
        MInst::MovRR {
            dst,
            src: MReg::V(s),
        } if spilled(assignment, s) => {
            if let Some(dst) = resolve_reg(assignment, dst) {
                out.push(MInst::Load {
                    dst,
                    addr: slot_addr(slot_of(assignment, s)),
                });
                return Ok(());
            }
        }
        MInst::MovRI {
            dst: MReg::V(d),
            imm,
        } if spilled(assignment, d) => {
            out.push(MInst::StoreImm {
                addr: slot_addr(slot_of(assignment, d)),
                imm,
            });
            return Ok(());
        }
        _ => {}
    }

    // Scratch registers must avoid physical registers this instruction
    // already touches (explicitly or implicitly).
    let mut used_phys = Vec::new();
    inst.for_each_reg(|r, _| {
        if let MReg::P(p) = r {
            used_phys.push(p);
        }
    });
    let mut pool: Vec<Reg> = SCRATCH
        .iter()
        .copied()
        .filter(|r| !used_phys.contains(r))
        .collect();

    // vreg → scratch assignment for this instruction.
    let mut scratch_for: HashMap<u32, (Reg, bool, bool)> = HashMap::new(); // (reg, load, store)
    let mut error = None;
    inst.for_each_reg_mut(|r, access| {
        if error.is_some() {
            return;
        }
        if let MReg::V(n) = *r {
            match assignment.get(&n) {
                Some(Loc::Reg(p)) => *r = MReg::P(*p),
                Some(Loc::Slot(_)) => {
                    let entry = match scratch_for.get_mut(&n) {
                        Some(e) => e,
                        None => match pool.pop() {
                            Some(s) => {
                                scratch_for.insert(n, (s, false, false));
                                scratch_for.get_mut(&n).expect("just inserted")
                            }
                            None => {
                                error = Some(CompileError::new(
                                    "ran out of spill scratch registers during spill rewriting"
                                        .to_string(),
                                ));
                                return;
                            }
                        },
                    };
                    if access.is_use() {
                        entry.1 = true;
                    }
                    if access.is_def() {
                        entry.2 = true;
                    }
                    *r = MReg::P(entry.0);
                }
                None => {
                    // A vreg with no interval is never read; it can only be
                    // a dead definition. Route it to a scratch register.
                    let s = pool.last().copied().unwrap_or(Reg::Eax);
                    *r = MReg::P(s);
                }
            }
        }
    });
    if let Some(e) = error {
        return Err(e);
    }

    // Reloads before, stores after, in deterministic vreg order.
    let mut entries: Vec<(&u32, &(Reg, bool, bool))> = scratch_for.iter().collect();
    entries.sort_by_key(|(v, _)| **v);
    for (v, (s, load, _)) in &entries {
        if *load {
            out.push(MInst::Load {
                dst: MReg::P(*s),
                addr: slot_addr(slot_of(assignment, **v)),
            });
        }
    }
    out.push(inst);
    for (v, (s, _, store)) in &entries {
        if *store {
            out.push(MInst::Store {
                addr: slot_addr(slot_of(assignment, **v)),
                src: MReg::P(*s),
            });
        }
    }
    Ok(())
}

fn spilled(assignment: &HashMap<u32, Loc>, v: u32) -> bool {
    matches!(assignment.get(&v), Some(Loc::Slot(_)))
}

fn slot_of(assignment: &HashMap<u32, Loc>, v: u32) -> u32 {
    match assignment.get(&v) {
        Some(Loc::Slot(s)) => *s,
        other => panic!("vreg v{v} is not spilled: {other:?}"),
    }
}

/// Resolves a register operand to a physical register if it is physical or
/// allocated to one (`None` if spilled).
fn resolve_reg(assignment: &HashMap<u32, Loc>, r: MReg) -> Option<MReg> {
    match r {
        MReg::P(p) => Some(MReg::P(p)),
        MReg::V(n) => match assignment.get(&n) {
            Some(Loc::Reg(p)) => Some(MReg::P(*p)),
            _ => None,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frontend::{lexer::lex, parser::parse};
    use crate::ir::builder::build;
    use crate::ir::passes::optimize;
    use crate::lir::isel::{select, LowerCtx};
    use pgsd_telemetry::Telemetry;

    fn alloc(src: &str) -> Vec<MFunction> {
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
                mf
            })
            .collect()
    }

    fn assert_fully_physical(f: &MFunction) {
        for b in &f.blocks {
            for i in &b.instrs {
                i.for_each_reg(|r, _| {
                    assert!(
                        matches!(r, MReg::P(_)),
                        "virtual register left in {i:?} of {f}"
                    );
                });
            }
        }
    }

    #[test]
    fn simple_function_is_fully_allocated() {
        for f in alloc("int f(int a, int b) { return a * b + a - b; }") {
            assert_fully_physical(&f);
        }
    }

    #[test]
    fn allocatable_registers_only() {
        let fs = alloc("int f(int a, int b, int c) { return a + b + c; }");
        for b in &fs[0].blocks {
            for i in &b.instrs {
                if let MInst::Alu {
                    dst: MReg::P(p), ..
                } = i
                {
                    assert!(
                        ALLOCATABLE.contains(p) || SCRATCH.contains(p) || *p == Reg::Esp,
                        "unexpected register {p}"
                    );
                }
            }
        }
    }

    #[test]
    fn high_pressure_spills_but_stays_correct() {
        // 8 simultaneously-live values forces spills with 3 registers.
        let src = "int f(int a) {
            int v0 = a + 1; int v1 = a + 2; int v2 = a + 3; int v3 = a + 4;
            int v4 = a + 5; int v5 = a + 6; int v6 = a + 7; int v7 = a + 8;
            return v0 + v1 + v2 + v3 + v4 + v5 + v6 + v7;
        }";
        let fs = alloc(src);
        assert_fully_physical(&fs[0]);
        // Spill slots must have been created.
        assert!(!fs[0].slot_words.is_empty(), "expected spills");
    }

    #[test]
    fn loops_keep_induction_variable_alive() {
        let fs = alloc(
            "int f(int n) { int s = 0; int i = 0; while (i < n) { s += i; i += 1; } return s; }",
        );
        assert_fully_physical(&fs[0]);
    }

    #[test]
    fn division_survives_allocation() {
        let fs = alloc("int f(int a, int b) { return a / b; }");
        assert_fully_physical(&fs[0]);
        // idiv's divisor must not be eax or edx.
        for b in &fs[0].blocks {
            for i in &b.instrs {
                if let MInst::Idiv {
                    divisor: MReg::P(p),
                } = i
                {
                    assert!(*p != Reg::Eax && *p != Reg::Edx);
                }
            }
        }
    }

    #[test]
    fn raw_functions_untouched() {
        let mut f = MFunction {
            name: "stub".into(),
            params: 0,
            blocks: vec![],
            num_vregs: 5,
            slot_words: vec![],
            diversify: false,
            raw: true,
        };
        allocate(&mut f).unwrap();
        assert_eq!(f.num_vregs, 5);
    }
}
