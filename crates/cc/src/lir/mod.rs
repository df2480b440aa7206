//! Low-level representation (LIR): x86-shaped machine IR.
//!
//! This is the paper's "LR" (Figure 3): every [`MInst`] corresponds
//! one-to-one to a native instruction, which is precisely the property that
//! makes NOP insertion sound at this stage — the diversifying pass runs on
//! LIR *after* register allocation and frame lowering, immediately before
//! byte emission (paper §4).
//!
//! Registers are either virtual (`MReg::V`, before allocation) or physical
//! (`MReg::P`). Addressing modes may reference symbolic locations
//! ([`Disp::Global`], [`Disp::Counter`], [`Disp::Slot`]) that later stages
//! resolve: slots by frame lowering, globals/counters by the emitter.

pub mod frame;
pub mod isel;
pub mod regalloc;

use std::fmt;

use pgsd_x86::nop::NopKind;
use pgsd_x86::{AluOp, Cond, Reg, Scale, ShiftOp};

/// A machine register: virtual before allocation, physical after.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MReg {
    /// Virtual register `n`.
    V(u32),
    /// Physical register.
    P(Reg),
}

impl MReg {
    /// The virtual register number, if virtual.
    pub fn vreg(self) -> Option<u32> {
        match self {
            MReg::V(n) => Some(n),
            MReg::P(_) => None,
        }
    }

    /// The physical register.
    ///
    /// # Panics
    ///
    /// Panics if the register is still virtual — i.e. if code generation
    /// reached emission without register allocation.
    pub fn phys(self) -> Reg {
        match self {
            MReg::P(r) => r,
            MReg::V(n) => panic!("virtual register v{n} survived register allocation"),
        }
    }
}

impl fmt::Display for MReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MReg::V(n) => write!(f, "v{n}"),
            MReg::P(r) => r.fmt(f),
        }
    }
}

/// Symbolic displacement of a memory operand.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Disp {
    /// A plain immediate displacement.
    Imm(i32),
    /// `offset` bytes into global variable `id` — resolved by the emitter
    /// against the module's data layout.
    Global {
        /// Global index within the module.
        id: u32,
        /// Byte offset into the global.
        offset: i32,
    },
    /// Profiling counter `id` — resolved by the emitter against the
    /// counter area that follows the globals in the data section.
    Counter(u32),
    /// `offset` bytes into stack slot `id` — resolved by frame lowering
    /// into an `ebp`-relative displacement.
    Slot {
        /// Slot index within the function.
        id: u32,
        /// Byte offset into the slot.
        offset: i32,
    },
}

/// A (possibly symbolic) memory operand.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MAddr {
    /// Optional base register.
    pub base: Option<MReg>,
    /// Optional scaled index register.
    pub index: Option<(MReg, Scale)>,
    /// Displacement.
    pub disp: Disp,
}

impl MAddr {
    /// An address that is just a displacement.
    pub fn disp(disp: Disp) -> MAddr {
        MAddr {
            base: None,
            index: None,
            disp,
        }
    }

    /// A `[base + imm]` address.
    pub fn base_imm(base: MReg, imm: i32) -> MAddr {
        MAddr {
            base: Some(base),
            index: None,
            disp: Disp::Imm(imm),
        }
    }
}

impl fmt::Display for MAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        let mut sep = "";
        if let Some(b) = self.base {
            write!(f, "{b}")?;
            sep = "+";
        }
        if let Some((r, s)) = self.index {
            write!(f, "{sep}{r}*{}", s.factor())?;
            sep = "+";
        }
        match self.disp {
            Disp::Imm(0) if !sep.is_empty() => {}
            Disp::Imm(v) => write!(f, "{sep}{v:#x}")?,
            Disp::Global { id, offset } => write!(f, "{sep}g{id}+{offset:#x}")?,
            Disp::Counter(id) => write!(f, "{sep}ctr{id}")?,
            Disp::Slot { id, offset } => write!(f, "{sep}slot{id}+{offset:#x}")?,
        }
        write!(f, "]")
    }
}

/// A right-hand-side operand: register, immediate, or memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MRhs {
    /// Register operand.
    Reg(MReg),
    /// Immediate operand.
    Imm(i32),
    /// Memory operand.
    Mem(MAddr),
}

impl fmt::Display for MRhs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MRhs::Reg(r) => r.fmt(f),
            MRhs::Imm(v) => write!(f, "{v:#x}"),
            MRhs::Mem(m) => m.fmt(f),
        }
    }
}

/// Shift count operand.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ShiftCount {
    /// Immediate count (0–31).
    Imm(u8),
    /// Count in `cl`.
    Cl,
}

/// The target of a call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CallTarget(
    /// Index into the final emitted function list.
    pub u32,
);

/// A machine instruction.
///
/// Each variant lowers to exactly one x86 instruction at emission.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MInst {
    /// `mov dst, imm`
    MovRI { dst: MReg, imm: i32 },
    /// `mov dst, src`
    MovRR { dst: MReg, src: MReg },
    /// `mov dst, [addr]`
    Load { dst: MReg, addr: MAddr },
    /// `mov [addr], src`
    Store { addr: MAddr, src: MReg },
    /// `mov dword [addr], imm`
    StoreImm { addr: MAddr, imm: i32 },
    /// `op dst, rhs` (dst is read and written). `op` must not be `cmp`;
    /// use [`MInst::Cmp`].
    Alu { op: AluOp, dst: MReg, rhs: MRhs },
    /// `op dword [addr], imm` — read-modify-write on memory (profiling
    /// counters).
    AluMem { op: AluOp, addr: MAddr, imm: i32 },
    /// `cmp lhs, rhs` — flags only.
    Cmp { lhs: MReg, rhs: MRhs },
    /// `test a, b` — flags only.
    Test { a: MReg, b: MReg },
    /// `imul dst, rhs`
    Imul { dst: MReg, rhs: MRhs },
    /// `imul dst, src, imm`
    ImulImm { dst: MReg, src: MReg, imm: i32 },
    /// `cdq` — sign-extend `eax` into `edx:eax`.
    Cdq,
    /// `idiv divisor` — divide `edx:eax`.
    Idiv { divisor: MReg },
    /// `inc dst` / `dec dst` (register form).
    IncDec {
        /// Register to adjust.
        dst: MReg,
        /// `true` = increment.
        inc: bool,
    },
    /// `neg dst`
    Neg { dst: MReg },
    /// `not dst`
    Not { dst: MReg },
    /// Shift `dst` by an immediate or by `cl`.
    Shift {
        op: ShiftOp,
        dst: MReg,
        count: ShiftCount,
    },
    /// `push rhs`
    Push { rhs: MRhs },
    /// `pop dst`
    Pop { dst: MReg },
    /// `lea dst, [addr]`
    Lea { dst: MReg, addr: MAddr },
    /// `call target` (relative; resolved by the emitter).
    Call { target: CallTarget },
    /// `int n` — the emulator's syscall gate.
    Int { n: u8 },
    /// A diversifying no-op inserted by the NOP-insertion pass.
    Nop { kind: NopKind },
}

impl MInst {
    /// Visits every register operand. `is_def` is `true` when the operand
    /// is (also) written.
    pub fn for_each_reg(&self, mut f: impl FnMut(MReg, bool)) {
        let mut addr = |a: &MAddr, f: &mut dyn FnMut(MReg, bool)| {
            if let Some(b) = a.base {
                f(b, false);
            }
            if let Some((i, _)) = a.index {
                f(i, false);
            }
        };
        match self {
            MInst::MovRI { dst, .. } => f(*dst, true),
            MInst::MovRR { dst, src } => {
                f(*src, false);
                f(*dst, true);
            }
            MInst::Load { dst, addr: a } => {
                addr(a, &mut f);
                f(*dst, true);
            }
            MInst::Store { addr: a, src } => {
                addr(a, &mut f);
                f(*src, false);
            }
            MInst::StoreImm { addr: a, .. } | MInst::AluMem { addr: a, .. } => addr(a, &mut f),
            MInst::Alu { dst, rhs, .. } => {
                rhs_regs(rhs, &mut addr, &mut f);
                f(*dst, false);
                f(*dst, true);
            }
            MInst::Cmp { lhs, rhs } => {
                f(*lhs, false);
                rhs_regs(rhs, &mut addr, &mut f);
            }
            MInst::Test { a, b } => {
                f(*a, false);
                f(*b, false);
            }
            MInst::Imul { dst, rhs } => {
                rhs_regs(rhs, &mut addr, &mut f);
                f(*dst, false);
                f(*dst, true);
            }
            MInst::ImulImm { dst, src, .. } => {
                f(*src, false);
                f(*dst, true);
            }
            MInst::Cdq => {
                f(MReg::P(Reg::Eax), false);
                f(MReg::P(Reg::Edx), true);
            }
            MInst::Idiv { divisor } => {
                f(*divisor, false);
                f(MReg::P(Reg::Eax), false);
                f(MReg::P(Reg::Edx), false);
                f(MReg::P(Reg::Eax), true);
                f(MReg::P(Reg::Edx), true);
            }
            MInst::IncDec { dst, .. } | MInst::Neg { dst } | MInst::Not { dst } => {
                f(*dst, false);
                f(*dst, true);
            }
            MInst::Shift { dst, count, .. } => {
                if matches!(count, ShiftCount::Cl) {
                    f(MReg::P(Reg::Ecx), false);
                }
                f(*dst, false);
                f(*dst, true);
            }
            MInst::Push { rhs } => rhs_regs(rhs, &mut addr, &mut f),
            MInst::Pop { dst } => f(*dst, true),
            MInst::Lea { dst, addr: a } => {
                addr(a, &mut f);
                f(*dst, true);
            }
            MInst::Call { .. } => {
                // Caller-saved registers are clobbered; allocation never
                // uses them, so nothing to report.
            }
            MInst::Int { .. } | MInst::Nop { .. } => {}
        }
    }
}

/// How an instruction accesses a register operand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// Read only.
    Use,
    /// Written only.
    Def,
    /// Read and written (two-address destinations).
    UseDef,
}

impl MInst {
    /// `true` if the instruction reads the arithmetic flags (only the
    /// carry-consuming ALU ops `adc`/`sbb` in this machine model).
    pub fn reads_eflags(&self) -> bool {
        matches!(
            self,
            MInst::Alu {
                op: AluOp::Adc | AluOp::Sbb,
                ..
            }
        )
    }

    /// `true` if the instruction defines *all* the flags a later reader
    /// could consult. Anything that writes only a subset (`inc`, shifts,
    /// `imul`) deliberately does **not** qualify, so a conservative
    /// liveness analysis keeps flags live across it.
    pub fn defines_all_eflags(&self) -> bool {
        matches!(
            self,
            MInst::Alu { .. }
                | MInst::AluMem { .. }
                | MInst::Cmp { .. }
                | MInst::Test { .. }
                | MInst::Neg { .. }
        )
    }
}

impl Access {
    /// `true` if the operand is read.
    pub fn is_use(self) -> bool {
        matches!(self, Access::Use | Access::UseDef)
    }

    /// `true` if the operand is written.
    pub fn is_def(self) -> bool {
        matches!(self, Access::Def | Access::UseDef)
    }
}

impl MInst {
    /// Visits every *explicit* register operand mutably, exactly once,
    /// with its [`Access`] kind (implicit fixed registers such as
    /// `eax`/`edx` of `idiv` are not visited — they can never be
    /// rewritten). Two-address destinations are visited a single time as
    /// [`Access::UseDef`], so a rewriter that replaces the operand still
    /// learns about both the read and the write.
    pub fn for_each_reg_mut(&mut self, mut f: impl FnMut(&mut MReg, Access)) {
        let mut addr = |a: &mut MAddr, f: &mut dyn FnMut(&mut MReg, Access)| {
            if let Some(b) = &mut a.base {
                f(b, Access::Use);
            }
            if let Some((i, _)) = &mut a.index {
                f(i, Access::Use);
            }
        };
        #[allow(clippy::type_complexity)] // nested visitor callbacks
        let rhs = |r: &mut MRhs,
                   addr: &mut dyn FnMut(&mut MAddr, &mut dyn FnMut(&mut MReg, Access)),
                   f: &mut dyn FnMut(&mut MReg, Access)| {
            match r {
                MRhs::Reg(r) => f(r, Access::Use),
                MRhs::Imm(_) => {}
                MRhs::Mem(m) => addr(m, f),
            }
        };
        match self {
            MInst::MovRI { dst, .. } => f(dst, Access::Def),
            MInst::MovRR { dst, src } => {
                f(src, Access::Use);
                f(dst, Access::Def);
            }
            MInst::Load { dst, addr: a } => {
                addr(a, &mut f);
                f(dst, Access::Def);
            }
            MInst::Store { addr: a, src } => {
                addr(a, &mut f);
                f(src, Access::Use);
            }
            MInst::StoreImm { addr: a, .. } | MInst::AluMem { addr: a, .. } => addr(a, &mut f),
            MInst::Alu { dst, rhs: r, .. } => {
                rhs(r, &mut addr, &mut f);
                f(dst, Access::UseDef);
            }
            MInst::Cmp { lhs, rhs: r } => {
                f(lhs, Access::Use);
                rhs(r, &mut addr, &mut f);
            }
            MInst::Test { a, b } => {
                f(a, Access::Use);
                f(b, Access::Use);
            }
            MInst::Imul { dst, rhs: r } => {
                rhs(r, &mut addr, &mut f);
                f(dst, Access::UseDef);
            }
            MInst::ImulImm { dst, src, .. } => {
                f(src, Access::Use);
                f(dst, Access::Def);
            }
            MInst::Cdq => {}
            MInst::Idiv { divisor } => f(divisor, Access::Use),
            MInst::IncDec { dst, .. } | MInst::Neg { dst } | MInst::Not { dst } => {
                f(dst, Access::UseDef);
            }
            MInst::Shift { dst, .. } => f(dst, Access::UseDef),
            MInst::Push { rhs: r } => rhs(r, &mut addr, &mut f),
            MInst::Pop { dst } => f(dst, Access::Def),
            MInst::Lea { dst, addr: a } => {
                addr(a, &mut f);
                f(dst, Access::Def);
            }
            MInst::Call { .. } | MInst::Int { .. } | MInst::Nop { .. } => {}
        }
    }
}

#[allow(clippy::type_complexity)] // nested visitor callbacks
fn rhs_regs(
    rhs: &MRhs,
    addr: &mut dyn FnMut(&MAddr, &mut dyn FnMut(MReg, bool)),
    f: &mut dyn FnMut(MReg, bool),
) {
    match rhs {
        MRhs::Reg(r) => f(*r, false),
        MRhs::Imm(_) => {}
        MRhs::Mem(m) => addr(m, f),
    }
}

/// A branch target during lowering: an IR block id (before resolution) or a
/// final machine-block index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MTarget {
    /// Refers to the entry machine block of IR block `n`.
    Ir(u32),
    /// Refers to machine block `n` directly.
    M(u32),
}

impl MTarget {
    /// The machine-block index.
    ///
    /// # Panics
    ///
    /// Panics if the target is still symbolic (lowering forgot to resolve
    /// it).
    pub fn m(self) -> u32 {
        match self {
            MTarget::M(n) => n,
            MTarget::Ir(n) => panic!("unresolved branch target (ir block {n})"),
        }
    }
}

/// A machine-block terminator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MTerm {
    /// Return (epilogue instructions precede this in the block body).
    Ret,
    /// Unconditional jump.
    Jmp(MTarget),
    /// Conditional jump to `t`, else `f`.
    JCond {
        /// Branch condition.
        cc: Cond,
        /// Taken target.
        t: MTarget,
        /// Fall-through target.
        f: MTarget,
    },
}

impl MTerm {
    /// Successor machine blocks (after resolution).
    pub fn successors(&self) -> Vec<u32> {
        match self {
            MTerm::Ret => Vec::new(),
            MTerm::Jmp(t) => vec![t.m()],
            MTerm::JCond { t, f, .. } => vec![t.m(), f.m()],
        }
    }
}

/// A machine basic block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MBlock {
    /// Instructions in order.
    pub instrs: Vec<MInst>,
    /// Terminator.
    pub term: MTerm,
    /// The IR block this machine block was lowered from, if any. Extra
    /// blocks materialized during lowering inherit the id of their source
    /// block so profile counts map through.
    pub ir_block: Option<u32>,
}

/// A machine function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MFunction {
    /// Function name.
    pub name: String,
    /// Number of parameters (for documentation; the frame uses it).
    pub params: u32,
    /// Machine blocks in layout order; block 0 is the entry.
    pub blocks: Vec<MBlock>,
    /// Number of virtual registers used (0 after allocation).
    pub num_vregs: u32,
    /// Stack slots in words: IR local arrays first, then spill slots.
    pub slot_words: Vec<u32>,
    /// Whether the diversifying NOP pass may touch this function.
    /// The runtime library sets this to `false`, modeling the paper's
    /// undiversified C library.
    pub diversify: bool,
    /// `true` for hand-written runtime stubs that use physical registers
    /// directly and must skip register allocation and frame lowering.
    pub raw: bool,
}

impl MFunction {
    /// Total dynamic instruction slots (for sizing diagnostics).
    pub fn num_instrs(&self) -> usize {
        self.blocks.iter().map(|b| b.instrs.len() + 1).sum()
    }

    /// Per-block predecessor lists, derived from the terminators'
    /// successor edges. `predecessors()[b]` lists every block with an edge
    /// into `b`, in block order, without duplicates.
    pub fn predecessors(&self) -> Vec<Vec<u32>> {
        let mut preds = vec![Vec::new(); self.blocks.len()];
        for (bi, block) in self.blocks.iter().enumerate() {
            for s in block.term.successors() {
                let list = &mut preds[s as usize];
                if list.last() != Some(&(bi as u32)) && !list.contains(&(bi as u32)) {
                    list.push(bi as u32);
                }
            }
        }
        preds
    }
}

impl fmt::Display for MFunction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "mfunc {}:", self.name)?;
        for (i, b) in self.blocks.iter().enumerate() {
            writeln!(f, ".L{i}: (ir {:?})", b.ir_block)?;
            for ins in &b.instrs {
                writeln!(f, "    {ins:?}")?;
            }
            writeln!(f, "    {:?}", b.term)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reg_visitor_reports_uses_then_defs() {
        let i = MInst::Alu {
            op: AluOp::Add,
            dst: MReg::V(1),
            rhs: MRhs::Mem(MAddr {
                base: Some(MReg::V(2)),
                index: Some((MReg::V(3), Scale::S4)),
                disp: Disp::Imm(0),
            }),
        };
        let mut uses = Vec::new();
        let mut defs = Vec::new();
        i.for_each_reg(|r, d| {
            if d {
                defs.push(r);
            } else {
                uses.push(r);
            }
        });
        assert_eq!(uses, vec![MReg::V(2), MReg::V(3), MReg::V(1)]);
        assert_eq!(defs, vec![MReg::V(1)]);
    }

    #[test]
    fn idiv_implicit_regs() {
        let mut regs = Vec::new();
        MInst::Idiv {
            divisor: MReg::P(Reg::Ecx),
        }
        .for_each_reg(|r, d| regs.push((r, d)));
        assert!(regs.contains(&(MReg::P(Reg::Eax), true)));
        assert!(regs.contains(&(MReg::P(Reg::Edx), true)));
        assert!(regs.contains(&(MReg::P(Reg::Ecx), false)));
    }

    #[test]
    fn unresolved_target_panics() {
        let t = MTarget::Ir(3);
        assert!(std::panic::catch_unwind(|| t.m()).is_err());
    }

    #[test]
    fn vreg_accessors() {
        assert_eq!(MReg::V(7).vreg(), Some(7));
        assert_eq!(MReg::P(Reg::Eax).vreg(), None);
        assert_eq!(MReg::P(Reg::Ebx).phys(), Reg::Ebx);
    }
}
