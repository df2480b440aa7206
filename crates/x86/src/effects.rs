//! Per-instruction def/use and flag metadata.
//!
//! [`Inst::effects`] summarizes which registers an instruction reads and
//! writes, whether it touches EFLAGS, and whether it accesses memory.
//! [`Inst::is_identity`] recognizes instructions that provably leave the
//! entire architectural state unchanged — the property that makes the
//! Table-1 NOP candidates safe to insert anywhere.  The validator in
//! `pgsd-analysis` builds on both, and [`Inst::regs`] / [`Inst::map_regs`]
//! expose the syntactic register operands for register-renaming checks.

use crate::inst::{AluOp, Inst, Mem};
use crate::reg::Reg;

/// A compact set of the eight general-purpose registers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Hash)]
pub struct RegSet(u8);

impl RegSet {
    /// The empty set.
    pub const EMPTY: RegSet = RegSet(0);

    /// Builds a set from a slice of registers.
    pub fn of(regs: &[Reg]) -> RegSet {
        let mut s = RegSet::EMPTY;
        for &r in regs {
            s.insert(r);
        }
        s
    }

    /// Adds `r` to the set.
    pub fn insert(&mut self, r: Reg) {
        self.0 |= 1 << r.number();
    }

    /// Removes `r` from the set.
    pub fn remove(&mut self, r: Reg) {
        self.0 &= !(1 << r.number());
    }

    /// `true` if `r` is in the set.
    pub fn contains(self, r: Reg) -> bool {
        self.0 & (1 << r.number()) != 0
    }

    /// `true` if the set is empty.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Members of this set minus members of `other`.
    pub fn minus(self, other: RegSet) -> RegSet {
        RegSet(self.0 & !other.0)
    }

    /// Iterates the members in register-number order.
    pub fn iter(self) -> impl Iterator<Item = Reg> {
        Reg::ALL.into_iter().filter(move |r| self.contains(*r))
    }

    /// Number of members.
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }
}

impl std::fmt::Display for RegSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{{")?;
        for (i, r) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{}", r.name())?;
        }
        write!(f, "}}")
    }
}

/// Architectural side effects of one instruction.
///
/// The register sets are *syntactic plus implicit*: `push eax` reads
/// `{eax, esp}` and writes `{esp}`; `cdq` reads `{eax}` and writes `{edx}`.
/// EFLAGS effects are conservative — an instruction that writes any subset
/// of the arithmetic flags reports `writes_flags`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Effects {
    /// Registers whose value the instruction observes.
    pub reads: RegSet,
    /// Registers the instruction may modify.
    pub writes: RegSet,
    /// `true` if the instruction's behavior depends on EFLAGS.
    pub reads_flags: bool,
    /// `true` if the instruction modifies any EFLAGS bit.
    pub writes_flags: bool,
    /// `true` if the instruction loads from memory.
    pub reads_mem: bool,
    /// `true` if the instruction stores to memory.
    pub writes_mem: bool,
}

impl Effects {
    fn mem_addr(&mut self, m: &Mem) {
        if let Some(b) = m.base {
            self.reads.insert(b);
        }
        if let Some((i, _)) = m.index {
            self.reads.insert(i);
        }
    }
}

impl Inst {
    /// Computes the def/use/flags/memory summary of this instruction.
    ///
    /// Control-flow instructions report their implicit stack traffic
    /// (`call` pushes, `ret` pops) but not the transfer itself; use
    /// [`Inst::is_control_flow`] for that. `int` is modeled as a full
    /// barrier: it reads and writes every register, flags and memory.
    pub fn effects(&self) -> Effects {
        use Inst::*;
        let mut e = Effects::default();
        match self {
            MovRI(d, _) => {
                e.writes.insert(*d);
            }
            MovRR(d, s) => {
                e.reads.insert(*s);
                e.writes.insert(*d);
            }
            MovRM(d, m) => {
                e.mem_addr(m);
                e.reads_mem = true;
                e.writes.insert(*d);
            }
            MovMR(m, s) => {
                e.mem_addr(m);
                e.reads.insert(*s);
                e.writes_mem = true;
            }
            MovMI(m, _) => {
                e.mem_addr(m);
                e.writes_mem = true;
            }
            AluRR(op, d, s) => {
                e.reads.insert(*d);
                e.reads.insert(*s);
                if !op.is_compare() {
                    e.writes.insert(*d);
                }
                e.writes_flags = true;
                e.reads_flags = matches!(op, AluOp::Adc | AluOp::Sbb);
            }
            AluRM(op, d, m) => {
                e.reads.insert(*d);
                e.mem_addr(m);
                e.reads_mem = true;
                if !op.is_compare() {
                    e.writes.insert(*d);
                }
                e.writes_flags = true;
                e.reads_flags = matches!(op, AluOp::Adc | AluOp::Sbb);
            }
            AluMR(op, m, s) => {
                e.mem_addr(m);
                e.reads.insert(*s);
                e.reads_mem = true;
                if !op.is_compare() {
                    e.writes_mem = true;
                }
                e.writes_flags = true;
                e.reads_flags = matches!(op, AluOp::Adc | AluOp::Sbb);
            }
            AluRI(op, d, _) => {
                e.reads.insert(*d);
                if !op.is_compare() {
                    e.writes.insert(*d);
                }
                e.writes_flags = true;
                e.reads_flags = matches!(op, AluOp::Adc | AluOp::Sbb);
            }
            AluMI(op, m, _) => {
                e.mem_addr(m);
                e.reads_mem = true;
                if !op.is_compare() {
                    e.writes_mem = true;
                }
                e.writes_flags = true;
                e.reads_flags = matches!(op, AluOp::Adc | AluOp::Sbb);
            }
            TestRR(a, b) => {
                e.reads.insert(*a);
                e.reads.insert(*b);
                e.writes_flags = true;
            }
            ImulRR(d, s) => {
                e.reads.insert(*d);
                e.reads.insert(*s);
                e.writes.insert(*d);
                e.writes_flags = true;
            }
            ImulRM(d, m) => {
                e.reads.insert(*d);
                e.mem_addr(m);
                e.reads_mem = true;
                e.writes.insert(*d);
                e.writes_flags = true;
            }
            ImulRRI(d, s, _) => {
                e.reads.insert(*s);
                e.writes.insert(*d);
                e.writes_flags = true;
            }
            Cdq => {
                e.reads.insert(Reg::Eax);
                e.writes.insert(Reg::Edx);
            }
            IdivR(r) => {
                e.reads = RegSet::of(&[*r, Reg::Eax, Reg::Edx]);
                e.writes = RegSet::of(&[Reg::Eax, Reg::Edx]);
                e.writes_flags = true; // flags are left undefined
            }
            NegR(r) => {
                e.reads.insert(*r);
                e.writes.insert(*r);
                e.writes_flags = true;
            }
            NotR(r) => {
                e.reads.insert(*r);
                e.writes.insert(*r);
            }
            IncR(r) | DecR(r) => {
                e.reads.insert(*r);
                e.writes.insert(*r);
                e.writes_flags = true;
            }
            IncDecM(_, m) => {
                e.mem_addr(m);
                e.reads_mem = true;
                e.writes_mem = true;
                e.writes_flags = true;
            }
            ShiftRI(_, r, count) => {
                e.reads.insert(*r);
                e.writes.insert(*r);
                if *count != 0 {
                    e.writes_flags = true;
                }
            }
            ShiftRCl(_, r) => {
                e.reads.insert(*r);
                e.reads.insert(Reg::Ecx);
                e.writes.insert(*r);
                e.writes_flags = true;
            }
            PushR(r) => {
                e.reads = RegSet::of(&[*r, Reg::Esp]);
                e.writes.insert(Reg::Esp);
                e.writes_mem = true;
            }
            PushI(_) => {
                e.reads.insert(Reg::Esp);
                e.writes.insert(Reg::Esp);
                e.writes_mem = true;
            }
            PushM(m) => {
                e.mem_addr(m);
                e.reads.insert(Reg::Esp);
                e.reads_mem = true;
                e.writes.insert(Reg::Esp);
                e.writes_mem = true;
            }
            PopR(r) => {
                e.reads.insert(Reg::Esp);
                e.writes.insert(*r);
                e.writes.insert(Reg::Esp);
                e.reads_mem = true;
            }
            Lea(d, m) => {
                e.mem_addr(m); // address computation only: no memory access
                e.writes.insert(*d);
            }
            XchgRR(a, b) => {
                e.reads.insert(*a);
                e.reads.insert(*b);
                e.writes.insert(*a);
                e.writes.insert(*b);
            }
            CallRel(_) => {
                e.reads.insert(Reg::Esp);
                e.writes.insert(Reg::Esp);
                e.writes_mem = true;
            }
            CallR(r) => {
                e.reads = RegSet::of(&[*r, Reg::Esp]);
                e.writes.insert(Reg::Esp);
                e.writes_mem = true;
            }
            Ret | RetImm(_) => {
                e.reads.insert(Reg::Esp);
                e.writes.insert(Reg::Esp);
                e.reads_mem = true;
            }
            JmpRel(_) | JmpRel8(_) | Hlt => {}
            JmpR(r) => {
                e.reads.insert(*r);
            }
            Jcc(..) | Jcc8(..) => {
                e.reads_flags = true;
            }
            Int(_) => {
                e.reads = RegSet::of(&Reg::ALL);
                e.writes = RegSet::of(&Reg::ALL);
                e.reads_flags = true;
                e.writes_flags = true;
                e.reads_mem = true;
                e.writes_mem = true;
            }
            Nop(k) => {
                if !matches!(k, crate::nop::NopKind::Nop) {
                    e = k.as_inst().effects();
                }
            }
        }
        e
    }

    /// `true` if executing this instruction provably leaves every register,
    /// every EFLAGS bit and all of memory unchanged.
    ///
    /// This covers exactly the shapes the Table-1 NOP candidates take:
    /// `nop`, `mov r, r`, `xchg r, r`, and `lea r, [r]` / `lea r, [r*1]`
    /// with zero displacement.
    pub fn is_identity(&self) -> bool {
        use Inst::*;
        match self {
            Nop(k) => matches!(k, crate::nop::NopKind::Nop) || k.as_inst().is_identity(),
            MovRR(d, s) => d == s,
            XchgRR(a, b) => a == b,
            Lea(d, m) => {
                m.disp == 0
                    && match (m.base, m.index) {
                        (Some(b), None) => b == *d,
                        (None, Some((i, s))) => i == *d && s.factor() == 1,
                        _ => false,
                    }
            }
            _ => false,
        }
    }

    /// The syntactic register operands, in operand order (memory operands
    /// contribute base then index). Implicit registers (`esp` of push/pop,
    /// `eax`/`edx` of `cdq`…) are *not* included; see [`Inst::effects`].
    pub fn regs(&self) -> Vec<Reg> {
        use Inst::*;
        fn mem(out: &mut Vec<Reg>, m: &Mem) {
            if let Some(b) = m.base {
                out.push(b);
            }
            if let Some((i, _)) = m.index {
                out.push(i);
            }
        }
        let mut out = Vec::new();
        match self {
            MovRI(r, _)
            | AluRI(_, r, _)
            | NegR(r)
            | NotR(r)
            | IncR(r)
            | DecR(r)
            | ShiftRI(_, r, _)
            | ShiftRCl(_, r)
            | PushR(r)
            | PopR(r)
            | IdivR(r)
            | CallR(r)
            | JmpR(r) => out.push(*r),
            MovRR(a, b) | AluRR(_, a, b) | TestRR(a, b) | ImulRR(a, b) | XchgRR(a, b) => {
                out.push(*a);
                out.push(*b);
            }
            ImulRRI(d, s, _) => {
                out.push(*d);
                out.push(*s);
            }
            MovRM(r, m) | AluRM(_, r, m) | ImulRM(r, m) | Lea(r, m) => {
                out.push(*r);
                mem(&mut out, m);
            }
            MovMR(m, r) | AluMR(_, m, r) => {
                mem(&mut out, m);
                out.push(*r);
            }
            MovMI(m, _) | AluMI(_, m, _) | IncDecM(_, m) | PushM(m) => mem(&mut out, m),
            Cdq | PushI(_) | CallRel(_) | Ret | RetImm(_) | JmpRel(_) | JmpRel8(_) | Jcc(..)
            | Jcc8(..) | Int(_) | Hlt | Nop(_) => {}
        }
        out
    }

    /// Returns a copy of this instruction with every syntactic register
    /// operand replaced by `f(reg)`. Implicit registers are untouched, so
    /// renaming `esp`/`ebp` through `f` does not affect push/pop/call
    /// stack traffic semantics.
    pub fn map_regs(&self, mut f: impl FnMut(Reg) -> Reg) -> Inst {
        use Inst::*;
        fn fm(m: &Mem, f: &mut dyn FnMut(Reg) -> Reg) -> Mem {
            Mem {
                base: m.base.map(&mut *f),
                index: m.index.map(|(r, s)| (f(r), s)),
                disp: m.disp,
            }
        }
        match *self {
            MovRI(r, i) => MovRI(f(r), i),
            MovRR(a, b) => MovRR(f(a), f(b)),
            MovRM(r, m) => MovRM(f(r), fm(&m, &mut f)),
            MovMR(m, r) => {
                let m = fm(&m, &mut f);
                MovMR(m, f(r))
            }
            MovMI(m, i) => MovMI(fm(&m, &mut f), i),
            AluRR(op, a, b) => AluRR(op, f(a), f(b)),
            AluRM(op, r, m) => {
                let r = f(r);
                AluRM(op, r, fm(&m, &mut f))
            }
            AluMR(op, m, r) => {
                let m = fm(&m, &mut f);
                AluMR(op, m, f(r))
            }
            AluRI(op, r, i) => AluRI(op, f(r), i),
            AluMI(op, m, i) => AluMI(op, fm(&m, &mut f), i),
            TestRR(a, b) => TestRR(f(a), f(b)),
            ImulRR(a, b) => ImulRR(f(a), f(b)),
            ImulRM(r, m) => {
                let r = f(r);
                ImulRM(r, fm(&m, &mut f))
            }
            ImulRRI(d, s, i) => ImulRRI(f(d), f(s), i),
            Cdq => Cdq,
            IdivR(r) => IdivR(f(r)),
            NegR(r) => NegR(f(r)),
            NotR(r) => NotR(f(r)),
            IncR(r) => IncR(f(r)),
            DecR(r) => DecR(f(r)),
            IncDecM(inc, m) => IncDecM(inc, fm(&m, &mut f)),
            ShiftRI(op, r, c) => ShiftRI(op, f(r), c),
            ShiftRCl(op, r) => ShiftRCl(op, f(r)),
            PushR(r) => PushR(f(r)),
            PushI(i) => PushI(i),
            PushM(m) => PushM(fm(&m, &mut f)),
            PopR(r) => PopR(f(r)),
            Lea(r, m) => {
                let r = f(r);
                Lea(r, fm(&m, &mut f))
            }
            XchgRR(a, b) => XchgRR(f(a), f(b)),
            CallRel(d) => CallRel(d),
            CallR(r) => CallR(f(r)),
            Ret => Ret,
            RetImm(n) => RetImm(n),
            JmpRel(d) => JmpRel(d),
            JmpRel8(d) => JmpRel8(d),
            JmpR(r) => JmpR(f(r)),
            Jcc(c, d) => Jcc(c, d),
            Jcc8(c, d) => Jcc8(c, d),
            Int(n) => Int(n),
            Hlt => Hlt,
            Nop(k) => Nop(k),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::Scale;
    use crate::nop::{NopKind, NopTable};

    #[test]
    fn regset_basic_ops() {
        let mut s = RegSet::EMPTY;
        assert!(s.is_empty());
        s.insert(Reg::Eax);
        s.insert(Reg::Edi);
        assert!(s.contains(Reg::Eax) && s.contains(Reg::Edi));
        assert_eq!(s.len(), 2);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![Reg::Eax, Reg::Edi]);
        s.remove(Reg::Eax);
        assert!(!s.contains(Reg::Eax));
        let t = RegSet::of(&[Reg::Edi, Reg::Esi]);
        assert_eq!(t.minus(s), RegSet::of(&[Reg::Esi]));
        assert_eq!(format!("{t}"), "{esi,edi}");
    }

    #[test]
    fn push_pop_track_esp() {
        let e = Inst::PushR(Reg::Ebx).effects();
        assert!(e.reads.contains(Reg::Ebx) && e.reads.contains(Reg::Esp));
        assert!(e.writes.contains(Reg::Esp) && e.writes_mem && !e.writes_flags);
        let e = Inst::PopR(Reg::Ebx).effects();
        assert!(e.writes.contains(Reg::Ebx) && e.writes.contains(Reg::Esp) && e.reads_mem);
    }

    #[test]
    fn alu_flags_and_compare() {
        let e = Inst::AluRR(AluOp::Cmp, Reg::Eax, Reg::Ebx).effects();
        assert!(e.writes.is_empty() && e.writes_flags);
        let e = Inst::AluRI(AluOp::Adc, Reg::Eax, 1).effects();
        assert!(e.reads_flags && e.writes_flags && e.writes.contains(Reg::Eax));
        let e = Inst::Jcc(crate::Cond::E, 0).effects();
        assert!(e.reads_flags && !e.writes_flags);
    }

    #[test]
    fn cdq_idiv_implicits() {
        let e = Inst::Cdq.effects();
        assert!(e.reads.contains(Reg::Eax) && e.writes.contains(Reg::Edx) && !e.writes_flags);
        let e = Inst::IdivR(Reg::Ecx).effects();
        assert!(e.reads.contains(Reg::Eax) && e.reads.contains(Reg::Edx));
        assert!(e.writes.contains(Reg::Eax) && e.writes.contains(Reg::Edx));
    }

    /// Every Table-1 NOP candidate must be an architectural identity that
    /// leaves EFLAGS alone — this is what makes `divcheck`'s "inserted
    /// bytes are harmless" argument sound.
    #[test]
    fn nop_table_entries_are_flagless_identities() {
        for kind in NopKind::ALL {
            let inst = kind.as_inst();
            let e = inst.effects();
            assert!(inst.is_identity(), "{kind:?} not an identity: {inst:?}");
            assert!(!e.writes_flags, "{kind:?} writes EFLAGS");
            assert!(!e.reads_flags, "{kind:?} reads EFLAGS");
            assert!(!e.reads_mem && !e.writes_mem, "{kind:?} touches memory");
            // Any register it writes it also reads, and the value written
            // is the value read (identity), so no live value is clobbered.
            assert_eq!(
                e.writes.minus(e.reads),
                RegSet::EMPTY,
                "{kind:?} defines fresh value"
            );
            assert!(!inst.is_control_flow(), "{kind:?} is control flow");
        }
    }

    /// The encoded bytes of each candidate must decode back to that same
    /// identity instruction — the validator re-derives safety from decoded
    /// variant bytes, not from the generator's intent.
    #[test]
    fn nop_table_bytes_decode_to_identities() {
        for table in [NopTable::new(), NopTable::with_xchg()] {
            for kind in table.iter() {
                let d = crate::decode(kind.bytes()).expect("candidate decodes");
                assert_eq!(d.len, kind.len());
                match d.body {
                    crate::Body::Known(inst) => {
                        assert!(inst.is_identity(), "{kind:?} decodes to {inst:?}");
                        assert!(!inst.effects().writes_flags);
                    }
                    crate::Body::Other(o) => panic!("{kind:?} decodes to Other({o:?})"),
                }
            }
        }
    }

    #[test]
    fn non_identities_are_rejected() {
        assert!(!Inst::MovRR(Reg::Eax, Reg::Ebx).is_identity());
        assert!(!Inst::Lea(Reg::Esi, Mem::base_disp(Reg::Esi, 4)).is_identity());
        assert!(!Inst::Lea(Reg::Esi, Mem::base_disp(Reg::Edi, 0)).is_identity());
        assert!(!Inst::AluRI(AluOp::Add, Reg::Eax, 0).is_identity());
        assert!(!Inst::XchgRR(Reg::Eax, Reg::Ebx).is_identity());
    }

    #[test]
    fn map_regs_and_regs_roundtrip() {
        let swap = |r| match r {
            Reg::Ebx => Reg::Esi,
            Reg::Esi => Reg::Ebx,
            other => other,
        };
        let m = Mem {
            base: Some(Reg::Ebx),
            index: Some((Reg::Esi, Scale::S4)),
            disp: 8,
        };
        let inst = Inst::MovRM(Reg::Eax, m);
        assert_eq!(inst.regs(), vec![Reg::Eax, Reg::Ebx, Reg::Esi]);
        let mapped = inst.map_regs(swap);
        assert_eq!(mapped.regs(), vec![Reg::Eax, Reg::Esi, Reg::Ebx]);
        assert_eq!(mapped.map_regs(swap), inst);
        // Displacements and immediates survive renaming.
        assert_eq!(
            Inst::AluRI(AluOp::Add, Reg::Ebx, 42).map_regs(swap),
            Inst::AluRI(AluOp::Add, Reg::Esi, 42)
        );
    }
}
