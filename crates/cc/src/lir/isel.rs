//! Instruction selection: IR → LIR.
//!
//! Lowering is mostly pattern-per-instruction. Two cases need care:
//!
//! * **Comparison fusion** — a `Cmp` whose single use is the block's own
//!   `CondBr` lowers to `cmp` + `jcc` without materializing a 0/1 value.
//! * **Aliasing of two-address operations** — x86 ALU ops read and write
//!   their destination, so `v3 = v1 - v3` must detour through a temporary.
//!
//! Division, remainder and variable shifts use the architectural fixed
//! registers (`eax`/`edx`/`cl`); those registers are reserved as scratch by
//! the register allocator, so no allocation constraints arise.

use pgsd_x86::{AluOp, Cond, Reg, Scale, ShiftOp};

use crate::error::Result;
use crate::ir::{self, BinOp, CmpOp, Instr, Operand, Term, UnOp, ValueId};

use super::{
    CallTarget, Disp, MAddr, MBlock, MFunction, MInst, MReg, MRhs, MTarget, MTerm, ShiftCount,
};

/// Context shared by all function lowerings of a module.
#[derive(Debug, Clone, Copy)]
pub struct LowerCtx {
    /// Index of the runtime `__print` routine in the final function list.
    pub print_index: u32,
    /// Index of the first user function in the final function list
    /// (user `FuncId(n)` emits a call to `user_func_base + n`).
    pub user_func_base: u32,
}

/// Lowers one optimized IR function to LIR with virtual registers.
///
/// # Errors
///
/// Returns an error for malformed IR (should be prevented by
/// [`crate::ir::verify`]).
pub fn select(func: &ir::Function, ctx: &LowerCtx) -> Result<MFunction> {
    Lowerer::new(func, ctx).run()
}

struct Lowerer<'a> {
    func: &'a ir::Function,
    ctx: &'a LowerCtx,
    out: MFunction,
    /// Machine-block index of each IR block's entry.
    ir_map: Vec<u32>,
    /// Current machine block being filled.
    cur: usize,
    next_vreg: u32,
    /// Total number of uses per value (for comparison fusion).
    use_counts: Vec<u32>,
    def_counts: Vec<u32>,
}

impl<'a> Lowerer<'a> {
    fn new(func: &'a ir::Function, ctx: &'a LowerCtx) -> Lowerer<'a> {
        let nv = func.num_values as usize;
        let mut use_counts = vec![0u32; nv];
        let mut def_counts = vec![0u32; nv];
        for p in 0..func.params {
            def_counts[p as usize] += 1;
        }
        for b in &func.blocks {
            for i in &b.instrs {
                i.for_each_use(|op| {
                    if let Operand::Value(v) = op {
                        use_counts[v.0 as usize] += 1;
                    }
                });
                if let Some(d) = i.dst() {
                    def_counts[d.0 as usize] += 1;
                }
            }
            match &b.term {
                Term::Ret(Some(Operand::Value(v)))
                | Term::CondBr {
                    cond: Operand::Value(v),
                    ..
                } => use_counts[v.0 as usize] += 1,
                _ => {}
            }
        }
        Lowerer {
            func,
            ctx,
            out: MFunction {
                name: func.name.clone(),
                params: func.params,
                blocks: Vec::new(),
                num_vregs: func.num_values,
                slot_words: func.slots.clone(),
                diversify: true,
                raw: false,
            },
            ir_map: vec![0; func.blocks.len()],
            cur: 0,
            next_vreg: func.num_values,
            use_counts,
            def_counts,
        }
    }

    fn run(mut self) -> Result<MFunction> {
        for (bi, block) in self.func.blocks.iter().enumerate() {
            let m = self.new_block(Some(bi as u32));
            self.ir_map[bi] = m;
            self.cur = m as usize;
            if bi == 0 {
                // Copy incoming arguments into their virtual registers.
                // cdecl: argument `i` lives at [ebp + 8 + 4i].
                for p in 0..self.func.params {
                    self.emit(MInst::Load {
                        dst: MReg::V(p),
                        addr: MAddr::base_imm(MReg::P(Reg::Ebp), 8 + 4 * p as i32),
                    });
                }
            }
            self.lower_block(block)?;
        }
        // Resolve symbolic branch targets.
        for b in &mut self.out.blocks {
            let fix = |t: &mut MTarget| {
                if let MTarget::Ir(n) = *t {
                    *t = MTarget::M(self.ir_map[n as usize]);
                }
            };
            match &mut b.term {
                MTerm::Jmp(t) => fix(t),
                MTerm::JCond { t, f, .. } => {
                    fix(t);
                    fix(f);
                }
                MTerm::Ret => {}
            }
        }
        self.out.num_vregs = self.next_vreg;
        Ok(self.out)
    }

    fn new_block(&mut self, ir_block: Option<u32>) -> u32 {
        let id = self.out.blocks.len() as u32;
        self.out.blocks.push(MBlock {
            instrs: Vec::new(),
            term: MTerm::Ret,
            ir_block,
        });
        id
    }

    fn emit(&mut self, i: MInst) {
        self.out.blocks[self.cur].instrs.push(i);
    }

    fn fresh(&mut self) -> MReg {
        let v = self.next_vreg;
        self.next_vreg += 1;
        MReg::V(v)
    }

    fn vreg(v: ValueId) -> MReg {
        MReg::V(v.0)
    }

    fn rhs(op: Operand) -> MRhs {
        match op {
            Operand::Value(v) => MRhs::Reg(Self::vreg(v)),
            Operand::Const(c) => MRhs::Imm(c),
        }
    }

    /// Emits `mov dst, op`, skipping the no-op move.
    fn move_into(&mut self, dst: MReg, op: Operand) {
        match op {
            Operand::Const(c) => self.emit(MInst::MovRI { dst, imm: c }),
            Operand::Value(v) => {
                let src = Self::vreg(v);
                if src != dst {
                    self.emit(MInst::MovRR { dst, src });
                }
            }
        }
    }

    fn aliases(op: Operand, dst: MReg) -> bool {
        matches!(op, Operand::Value(v) if Self::vreg(v) == dst)
    }

    fn lower_block(&mut self, block: &ir::Block) -> Result<()> {
        let n = block.instrs.len();
        // Detect the comparison-fusion pattern.
        let fused = matches!(
            (&block.term, block.instrs.last()),
            (
                Term::CondBr {
                    cond: Operand::Value(cv),
                    ..
                },
                Some(Instr::Cmp { dst, .. }),
            ) if cv == dst
                && self.use_counts[cv.0 as usize] == 1
                && self.def_counts[cv.0 as usize] == 1
        );
        let body = if fused {
            &block.instrs[..n - 1]
        } else {
            &block.instrs[..]
        };
        for ins in body {
            self.lower_instr(ins)?;
        }
        match &block.term {
            Term::Ret(op) => {
                if let Some(op) = op {
                    self.move_into(MReg::P(Reg::Eax), *op);
                } else {
                    self.emit(MInst::MovRI {
                        dst: MReg::P(Reg::Eax),
                        imm: 0,
                    });
                }
                self.out.blocks[self.cur].term = MTerm::Ret;
            }
            Term::Br(b) => {
                self.out.blocks[self.cur].term = MTerm::Jmp(MTarget::Ir(b.0));
            }
            Term::CondBr { cond, t, f } => {
                if fused {
                    let Some(Instr::Cmp { op, lhs, rhs, .. }) = block.instrs.last() else {
                        unreachable!("fusion checked the last instruction is a cmp");
                    };
                    let cc = self.emit_cmp_flags(*op, *lhs, *rhs);
                    self.out.blocks[self.cur].term = MTerm::JCond {
                        cc,
                        t: MTarget::Ir(t.0),
                        f: MTarget::Ir(f.0),
                    };
                } else {
                    match cond {
                        Operand::Const(c) => {
                            let target = if *c != 0 { t } else { f };
                            self.out.blocks[self.cur].term = MTerm::Jmp(MTarget::Ir(target.0));
                        }
                        Operand::Value(v) => {
                            self.emit(MInst::Cmp {
                                lhs: Self::vreg(*v),
                                rhs: MRhs::Imm(0),
                            });
                            self.out.blocks[self.cur].term = MTerm::JCond {
                                cc: Cond::Ne,
                                t: MTarget::Ir(t.0),
                                f: MTarget::Ir(f.0),
                            };
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Emits a flag-setting compare for `lhs op rhs` and returns the
    /// condition code under which the comparison is true.
    fn emit_cmp_flags(&mut self, op: CmpOp, lhs: Operand, rhs: Operand) -> Cond {
        let (reg_side, rhs_side, op) = match (lhs, rhs) {
            (Operand::Value(l), r) => (Self::vreg(l), Self::rhs(r), op),
            (Operand::Const(_), Operand::Value(r)) => {
                // cmp must have a register on the left: swap operands and
                // the comparison direction.
                (Self::vreg(r), Self::rhs(lhs), op.swapped())
            }
            (Operand::Const(lc), Operand::Const(_)) => {
                let tmp = self.fresh();
                self.emit(MInst::MovRI { dst: tmp, imm: lc });
                (tmp, Self::rhs(rhs), op)
            }
        };
        self.emit(MInst::Cmp {
            lhs: reg_side,
            rhs: rhs_side,
        });
        cmp_cond(op)
    }

    fn lower_instr(&mut self, ins: &Instr) -> Result<()> {
        match ins {
            Instr::Copy { dst, src } => {
                self.move_into(Self::vreg(*dst), *src);
            }
            Instr::Bin { dst, op, lhs, rhs } => self.lower_bin(Self::vreg(*dst), *op, *lhs, *rhs),
            Instr::Un { dst, op, src } => {
                let d = Self::vreg(*dst);
                self.move_into(d, *src);
                match op {
                    UnOp::Neg => self.emit(MInst::Neg { dst: d }),
                    UnOp::BitNot => self.emit(MInst::Not { dst: d }),
                }
            }
            Instr::Cmp { dst, op, lhs, rhs } => {
                // Materialize a 0/1 value with a small diamond:
                //   cmp …; mov dst, 1; jcc cont; fix: mov dst, 0; cont:
                let d = Self::vreg(*dst);
                let cc = self.emit_cmp_flags(*op, *lhs, *rhs);
                self.emit(MInst::MovRI { dst: d, imm: 1 });
                let ir_tag = self.out.blocks[self.cur].ir_block;
                let fix = self.new_block(ir_tag);
                let cont = self.new_block(ir_tag);
                self.out.blocks[self.cur].term = MTerm::JCond {
                    cc,
                    t: MTarget::M(cont),
                    f: MTarget::M(fix),
                };
                self.cur = fix as usize;
                self.emit(MInst::MovRI { dst: d, imm: 0 });
                self.out.blocks[self.cur].term = MTerm::Jmp(MTarget::M(cont));
                self.cur = cont as usize;
            }
            Instr::LoadG { dst, global, index } => {
                let addr = self.global_addr(global.0, *index);
                self.emit(MInst::Load {
                    dst: Self::vreg(*dst),
                    addr,
                });
            }
            Instr::StoreG { global, index, src } => {
                let addr = self.global_addr(global.0, *index);
                self.store(addr, *src);
            }
            Instr::LoadA { dst, slot, index } => {
                let addr = self.slot_addr(slot.0, *index);
                self.emit(MInst::Load {
                    dst: Self::vreg(*dst),
                    addr,
                });
            }
            Instr::StoreA { slot, index, src } => {
                let addr = self.slot_addr(slot.0, *index);
                self.store(addr, *src);
            }
            Instr::Call { dst, func, args } => {
                for a in args.iter().rev() {
                    self.emit(MInst::Push { rhs: Self::rhs(*a) });
                }
                self.emit(MInst::Call {
                    target: CallTarget(self.ctx.user_func_base + func.0),
                });
                if !args.is_empty() {
                    self.emit(MInst::Alu {
                        op: AluOp::Add,
                        dst: MReg::P(Reg::Esp),
                        rhs: MRhs::Imm(4 * args.len() as i32),
                    });
                }
                self.emit(MInst::MovRR {
                    dst: Self::vreg(*dst),
                    src: MReg::P(Reg::Eax),
                });
            }
            Instr::Print { src } => {
                self.emit(MInst::Push {
                    rhs: Self::rhs(*src),
                });
                self.emit(MInst::Call {
                    target: CallTarget(self.ctx.print_index),
                });
                self.emit(MInst::Alu {
                    op: AluOp::Add,
                    dst: MReg::P(Reg::Esp),
                    rhs: MRhs::Imm(4),
                });
            }
            Instr::ProfCtr { id } => {
                self.emit(MInst::AluMem {
                    op: AluOp::Add,
                    addr: MAddr::disp(Disp::Counter(*id)),
                    imm: 1,
                });
            }
        }
        Ok(())
    }

    fn global_addr(&mut self, id: u32, index: Option<Operand>) -> MAddr {
        match index {
            None => MAddr::disp(Disp::Global { id, offset: 0 }),
            Some(Operand::Const(c)) => MAddr::disp(Disp::Global {
                id,
                offset: c.wrapping_mul(4),
            }),
            Some(Operand::Value(v)) => MAddr {
                base: None,
                index: Some((Self::vreg(v), Scale::S4)),
                disp: Disp::Global { id, offset: 0 },
            },
        }
    }

    fn slot_addr(&mut self, id: u32, index: Operand) -> MAddr {
        match index {
            Operand::Const(c) => MAddr::disp(Disp::Slot {
                id,
                offset: c.wrapping_mul(4),
            }),
            Operand::Value(v) => MAddr {
                base: None,
                index: Some((Self::vreg(v), Scale::S4)),
                disp: Disp::Slot { id, offset: 0 },
            },
        }
    }

    fn store(&mut self, addr: MAddr, src: Operand) {
        match src {
            Operand::Const(c) => self.emit(MInst::StoreImm { addr, imm: c }),
            Operand::Value(v) => self.emit(MInst::Store {
                addr,
                src: Self::vreg(v),
            }),
        }
    }

    fn lower_bin(&mut self, dst: MReg, op: BinOp, lhs: Operand, rhs: Operand) {
        match op {
            BinOp::Add | BinOp::Sub | BinOp::And | BinOp::Or | BinOp::Xor => {
                let alu = match op {
                    BinOp::Add => AluOp::Add,
                    BinOp::Sub => AluOp::Sub,
                    BinOp::And => AluOp::And,
                    BinOp::Or => AluOp::Or,
                    _ => AluOp::Xor,
                };
                self.two_address(dst, lhs, rhs, |rhs| MInst::Alu { op: alu, dst, rhs });
            }
            BinOp::Mul => {
                if let Operand::Const(c) = rhs {
                    // Strength-reduce ×2ⁿ and use the three-operand imul
                    // form otherwise; both avoid the aliasing detour.
                    if c > 0 && (c as u32).is_power_of_two() && !Self::aliases(rhs, dst) {
                        self.move_into(dst, lhs);
                        self.emit(MInst::Shift {
                            op: ShiftOp::Shl,
                            dst,
                            count: ShiftCount::Imm(c.trailing_zeros() as u8),
                        });
                        return;
                    }
                    if let Operand::Value(l) = lhs {
                        self.emit(MInst::ImulImm {
                            dst,
                            src: Self::vreg(l),
                            imm: c,
                        });
                        return;
                    }
                }
                self.two_address(dst, lhs, rhs, |rhs| MInst::Imul { dst, rhs });
            }
            BinOp::Div | BinOp::Rem => {
                self.move_into(MReg::P(Reg::Eax), lhs);
                self.emit(MInst::Cdq);
                let divisor = match rhs {
                    Operand::Value(v) => Self::vreg(v),
                    Operand::Const(c) => {
                        self.emit(MInst::MovRI {
                            dst: MReg::P(Reg::Ecx),
                            imm: c,
                        });
                        MReg::P(Reg::Ecx)
                    }
                };
                self.emit(MInst::Idiv { divisor });
                let result = if op == BinOp::Div { Reg::Eax } else { Reg::Edx };
                self.emit(MInst::MovRR {
                    dst,
                    src: MReg::P(result),
                });
            }
            BinOp::Shl | BinOp::Shr => {
                let shop = if op == BinOp::Shl {
                    ShiftOp::Shl
                } else {
                    ShiftOp::Sar
                };
                match rhs {
                    Operand::Const(c) => {
                        self.move_into(dst, lhs);
                        let count = (c as u32 % 32) as u8;
                        if count != 0 {
                            self.emit(MInst::Shift {
                                op: shop,
                                dst,
                                count: ShiftCount::Imm(count),
                            });
                        }
                    }
                    Operand::Value(v) => {
                        // `cl` must be loaded *immediately* before the
                        // shift: any instruction in between may be
                        // rewritten by the spill pass, whose scratch pool
                        // includes ecx (this exact clobber was a real
                        // miscompile found by differential fuzzing). The
                        // value move therefore comes first; when the
                        // destination aliases the count, the result is
                        // built in a temporary.
                        let count = Self::vreg(v);
                        let target = if count == dst { self.fresh() } else { dst };
                        self.move_into(target, lhs);
                        self.emit(MInst::MovRR {
                            dst: MReg::P(Reg::Ecx),
                            src: count,
                        });
                        self.emit(MInst::Shift {
                            op: shop,
                            dst: target,
                            count: ShiftCount::Cl,
                        });
                        if target != dst {
                            self.emit(MInst::MovRR { dst, src: target });
                        }
                    }
                }
            }
        }
    }

    /// Lowers `dst = lhs op rhs` for a two-address operation, detouring
    /// through a temporary when `rhs` aliases `dst`.
    fn two_address(&mut self, dst: MReg, lhs: Operand, rhs: Operand, make: impl Fn(MRhs) -> MInst) {
        if Self::aliases(rhs, dst) && !Self::aliases(lhs, dst) {
            let tmp = self.fresh();
            self.move_into(tmp, lhs);
            // The closure captured `dst`; rebuild the instruction against
            // `tmp` by patching its destination.
            let mut inst = make(Self::rhs(rhs));
            patch_dst(&mut inst, tmp);
            self.emit(inst);
            self.emit(MInst::MovRR { dst, src: tmp });
        } else {
            self.move_into(dst, lhs);
            self.emit(make(Self::rhs(rhs)));
        }
    }
}

/// Rewrites the destination register of a freshly built two-address
/// instruction (`Alu` or `Imul`).
fn patch_dst(inst: &mut MInst, new_dst: MReg) {
    match inst {
        MInst::Alu { dst, .. } | MInst::Imul { dst, .. } => *dst = new_dst,
        other => unreachable!("patch_dst on unexpected instruction {other:?}"),
    }
}

/// Maps an IR comparison to the signed x86 condition code.
fn cmp_cond(op: CmpOp) -> Cond {
    match op {
        CmpOp::Eq => Cond::E,
        CmpOp::Ne => Cond::Ne,
        CmpOp::Lt => Cond::L,
        CmpOp::Le => Cond::Le,
        CmpOp::Gt => Cond::G,
        CmpOp::Ge => Cond::Ge,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frontend::{lexer::lex, parser::parse};
    use crate::ir::builder::build;
    use crate::ir::passes::optimize;
    use pgsd_telemetry::Telemetry;

    fn lower(src: &str) -> Vec<MFunction> {
        let mut m = build("t", &parse(lex(src).unwrap()).unwrap()).unwrap();
        optimize(&mut m, &Telemetry::disabled());
        let ctx = LowerCtx {
            print_index: 1,
            user_func_base: 2,
        };
        m.funcs.iter().map(|f| select(f, &ctx).unwrap()).collect()
    }

    fn all_instrs(f: &MFunction) -> Vec<&MInst> {
        f.blocks.iter().flat_map(|b| &b.instrs).collect()
    }

    #[test]
    fn params_are_loaded_from_frame() {
        let fs = lower("int f(int a, int b) { return a + b; }");
        let loads: Vec<_> = all_instrs(&fs[0])
            .into_iter()
            .filter(|i| matches!(i, MInst::Load { .. }))
            .collect();
        assert_eq!(loads.len(), 2);
    }

    #[test]
    fn cmp_fuses_into_branch() {
        let fs = lower("int f(int a) { if (a < 3) { return 1; } return 2; }");
        let f = &fs[0];
        // No 0/1 materialization: no MovRI{imm:1} diamond, exactly one Cmp,
        // terminator JCond with L.
        let has_jcond_l = f
            .blocks
            .iter()
            .any(|b| matches!(b.term, MTerm::JCond { cc: Cond::L, .. }));
        assert!(has_jcond_l, "{f}");
    }

    #[test]
    fn materialized_cmp_builds_diamond() {
        let fs = lower("int f(int a, int b) { int x = a < b; return x + x; }");
        let f = &fs[0];
        assert!(f.blocks.len() >= 3, "diamond expected: {f}");
    }

    #[test]
    fn division_uses_eax_edx() {
        let fs = lower("int f(int a, int b) { return a / b + a % b; }");
        let f = &fs[0];
        let cdqs = all_instrs(f)
            .into_iter()
            .filter(|i| matches!(i, MInst::Cdq))
            .count();
        assert_eq!(cdqs, 2);
    }

    #[test]
    fn mul_by_power_of_two_becomes_shift() {
        let fs = lower("int f(int a) { return a * 8; }");
        let shifts = all_instrs(&fs[0])
            .into_iter()
            .filter(|i| {
                matches!(
                    i,
                    MInst::Shift {
                        op: ShiftOp::Shl,
                        ..
                    }
                )
            })
            .count();
        assert_eq!(shifts, 1);
    }

    #[test]
    fn aliasing_subtraction_is_safe() {
        // x = y - x: must not clobber x before reading it.
        let fs = lower("int f(int x, int y) { x = y - x; return x; }");
        let f = &fs[0];
        // Find the Alu sub; its dst must differ from the rhs register.
        let sub = all_instrs(f)
            .into_iter()
            .find_map(|i| match i {
                MInst::Alu {
                    op: AluOp::Sub,
                    dst,
                    rhs: MRhs::Reg(r),
                } => Some((*dst, *r)),
                _ => None,
            })
            .expect("sub instruction present");
        assert_ne!(sub.0, sub.1, "{f}");
    }

    #[test]
    fn global_array_indexing_uses_sib() {
        let fs = lower("int a[10]; int f(int i) { return a[i]; }");
        let has_index = all_instrs(&fs[0]).into_iter().any(|i| {
            matches!(
                i,
                MInst::Load {
                    addr: MAddr {
                        index: Some((_, Scale::S4)),
                        disp: Disp::Global { .. },
                        ..
                    },
                    ..
                }
            )
        });
        assert!(has_index);
    }

    #[test]
    fn call_pushes_args_right_to_left() {
        let fs = lower("int g(int a, int b) { return a - b; } int f() { return g(1, 2); }");
        let f = &fs[1];
        let pushes: Vec<_> = all_instrs(f)
            .into_iter()
            .filter_map(|i| match i {
                MInst::Push { rhs: MRhs::Imm(v) } => Some(*v),
                _ => None,
            })
            .collect();
        assert_eq!(pushes, vec![2, 1]);
    }

    #[test]
    fn print_calls_runtime() {
        let fs = lower("int main() { print(7); return 0; }");
        let calls: Vec<_> = all_instrs(&fs[0])
            .into_iter()
            .filter_map(|i| match i {
                MInst::Call { target } => Some(target.0),
                _ => None,
            })
            .collect();
        assert_eq!(calls, vec![1]);
    }

    #[test]
    fn shift_by_variable_goes_through_cl() {
        let fs = lower("int f(int a, int n) { return a << n; }");
        let has_cl = all_instrs(&fs[0]).into_iter().any(|i| {
            matches!(
                i,
                MInst::Shift {
                    count: ShiftCount::Cl,
                    ..
                }
            )
        });
        assert!(has_cl);
    }
}
