//! CPU state: registers and flags.

use pgsd_x86::{Cond, Reg};

/// Arithmetic flags (the subset x86 conditional branches consult).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Flags {
    /// Carry.
    pub cf: bool,
    /// Zero.
    pub zf: bool,
    /// Sign.
    pub sf: bool,
    /// Overflow.
    pub of: bool,
    /// Parity (of the low result byte).
    pub pf: bool,
}

impl Flags {
    /// Sets ZF/SF/PF from a result.
    pub fn set_zsp(&mut self, result: u32) {
        self.zf = result == 0;
        self.sf = (result as i32) < 0;
        self.pf = (result as u8).count_ones().is_multiple_of(2);
    }

    /// Evaluates a condition code against the current flags.
    pub fn cond(&self, cc: Cond) -> bool {
        match cc {
            Cond::O => self.of,
            Cond::No => !self.of,
            Cond::B => self.cf,
            Cond::Ae => !self.cf,
            Cond::E => self.zf,
            Cond::Ne => !self.zf,
            Cond::Be => self.cf || self.zf,
            Cond::A => !self.cf && !self.zf,
            Cond::S => self.sf,
            Cond::Ns => !self.sf,
            Cond::P => self.pf,
            Cond::Np => !self.pf,
            Cond::L => self.sf != self.of,
            Cond::Ge => self.sf == self.of,
            Cond::Le => self.zf || self.sf != self.of,
            Cond::G => !self.zf && self.sf == self.of,
        }
    }
}

/// Index of the register file's hard-wired zero slot, after the eight
/// general-purpose registers. A pre-decoded memory operand with no base
/// or no index register names this slot, so its address computation
/// needs no branch.
pub(crate) const ZERO: u8 = 8;

/// Register file plus instruction pointer and flags.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Cpu {
    /// The eight general-purpose registers, then the [`ZERO`] slot, which
    /// nothing writes.
    regs: [u32; 9],
    /// Instruction pointer.
    pub eip: u32,
    /// Arithmetic flags.
    pub flags: Flags,
}

impl Cpu {
    /// Creates a zeroed CPU.
    pub fn new() -> Cpu {
        Cpu::default()
    }

    /// Reads a register.
    #[inline]
    pub fn get(&self, r: Reg) -> u32 {
        self.regs[r.number() as usize]
    }

    /// Writes a register.
    #[inline]
    pub fn set(&mut self, r: Reg, v: u32) {
        self.regs[r.number() as usize] = v;
    }

    /// Reads a register-file slot: a register number, or [`ZERO`].
    #[inline]
    pub(crate) fn slot(&self, i: u8) -> u32 {
        self.regs[usize::from(i)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn signed_conditions() {
        // 1 - 2: sf=1, of=0 → L true, G false.
        let mut f = Flags::default();
        let (res, borrow) = 1u32.overflowing_sub(2);
        f.cf = borrow;
        f.of = false;
        f.set_zsp(res);
        assert!(f.cond(Cond::L));
        assert!(f.cond(Cond::Ne));
        assert!(!f.cond(Cond::G));
        assert!(f.cond(Cond::Le));
        assert!(f.cond(Cond::B)); // unsigned: 1 < 2
    }

    #[test]
    fn negated_conditions_are_complements() {
        let f = Flags {
            cf: true,
            zf: false,
            sf: true,
            of: false,
            pf: true,
        };
        for cc in Cond::ALL {
            assert_eq!(f.cond(cc), !f.cond(cc.negated()), "{cc}");
        }
    }

    #[test]
    fn parity_of_low_byte_only() {
        let mut f = Flags::default();
        f.set_zsp(0x0000_0300); // low byte 0, even parity
        assert!(f.pf);
        f.set_zsp(0x0000_0001);
        assert!(!f.pf);
    }
}
