//! Per-instruction effect facts the validator relies on.
//!
//! [`Inst::is_identity`] recognizes instructions that provably leave the
//! entire architectural state unchanged, EFLAGS included — the property
//! that makes the Table-1 NOP candidates safe to insert anywhere. The
//! validator in `pgsd-analysis` builds on it, and [`Inst::regs`] /
//! [`Inst::map_regs`] expose the syntactic register operands for
//! register-renaming checks.

use crate::inst::{Inst, Mem};
use crate::reg::Reg;

impl Inst {
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
    /// `eax`/`edx` of `cdq`…) are *not* included.
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
    use crate::inst::{AluOp, Scale};
    use crate::nop::{NopKind, NopTable};

    /// Every Table-1 NOP candidate must be an architectural identity that
    /// leaves EFLAGS alone — this is what makes `divcheck`'s "inserted
    /// bytes are harmless" argument sound.
    #[test]
    fn nop_table_entries_are_flagless_identities() {
        for kind in NopKind::ALL {
            let inst = kind.as_inst();
            assert!(inst.is_identity(), "{kind:?} not an identity: {inst:?}");
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
