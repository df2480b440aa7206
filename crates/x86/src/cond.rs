//! Condition codes (`cc`) used by `Jcc` and `SETcc`.

use std::fmt;

/// An IA-32 condition code.
///
/// The discriminant is the 4-bit condition number `tttn` from the Intel SDM,
/// so `cc as u8` can be OR-ed into the `0x70 + cc` (short `Jcc`) and
/// `0x0F 0x80 + cc` (near `Jcc`) opcodes.
///
/// # Examples
///
/// ```
/// use pgsd_x86::Cond;
/// assert_eq!(Cond::E.number(), 4);
/// assert_eq!(Cond::E.negated(), Cond::Ne);
/// assert_eq!(Cond::L.to_string(), "l");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum Cond {
    /// Overflow (OF=1).
    O = 0,
    /// Not overflow (OF=0).
    No = 1,
    /// Below / carry (CF=1), unsigned `<`.
    B = 2,
    /// Above or equal (CF=0), unsigned `>=`.
    Ae = 3,
    /// Equal / zero (ZF=1).
    E = 4,
    /// Not equal / not zero (ZF=0).
    Ne = 5,
    /// Below or equal (CF=1 or ZF=1), unsigned `<=`.
    Be = 6,
    /// Above (CF=0 and ZF=0), unsigned `>`.
    A = 7,
    /// Sign (SF=1).
    S = 8,
    /// Not sign (SF=0).
    Ns = 9,
    /// Parity even (PF=1).
    P = 10,
    /// Parity odd (PF=0).
    Np = 11,
    /// Less (SF≠OF), signed `<`.
    L = 12,
    /// Greater or equal (SF=OF), signed `>=`.
    Ge = 13,
    /// Less or equal (ZF=1 or SF≠OF), signed `<=`.
    Le = 14,
    /// Greater (ZF=0 and SF=OF), signed `>`.
    G = 15,
}

impl Cond {
    /// All sixteen condition codes in encoding order.
    pub const ALL: [Cond; 16] = [
        Cond::O,
        Cond::No,
        Cond::B,
        Cond::Ae,
        Cond::E,
        Cond::Ne,
        Cond::Be,
        Cond::A,
        Cond::S,
        Cond::Ns,
        Cond::P,
        Cond::Np,
        Cond::L,
        Cond::Ge,
        Cond::Le,
        Cond::G,
    ];

    /// The 4-bit `tttn` condition number.
    #[inline]
    pub fn number(self) -> u8 {
        self as u8
    }

    /// Looks up a condition code by its `tttn` number.
    ///
    /// Returns `None` if `n >= 16`.
    #[inline]
    pub fn from_number(n: u8) -> Option<Cond> {
        Cond::ALL.get(usize::from(n)).copied()
    }

    /// The logical negation (flips the lowest bit of the encoding).
    ///
    /// `Jcc target` followed by fall-through is equivalent to
    /// `J(!cc) fallthrough; jmp target`.
    #[inline]
    pub fn negated(self) -> Cond {
        Cond::from_number(self.number() ^ 1).expect("negation stays in range")
    }

    /// The canonical mnemonic suffix, e.g. `"e"` for `je`.
    pub fn name(self) -> &'static str {
        match self {
            Cond::O => "o",
            Cond::No => "no",
            Cond::B => "b",
            Cond::Ae => "ae",
            Cond::E => "e",
            Cond::Ne => "ne",
            Cond::Be => "be",
            Cond::A => "a",
            Cond::S => "s",
            Cond::Ns => "ns",
            Cond::P => "p",
            Cond::Np => "np",
            Cond::L => "l",
            Cond::Ge => "ge",
            Cond::Le => "le",
            Cond::G => "g",
        }
    }
}

impl fmt::Display for Cond {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numbers_round_trip() {
        for c in Cond::ALL {
            assert_eq!(Cond::from_number(c.number()), Some(c));
        }
        assert_eq!(Cond::from_number(16), None);
    }

    #[test]
    fn negation_is_involution() {
        for c in Cond::ALL {
            assert_eq!(c.negated().negated(), c);
            assert_ne!(c.negated(), c);
        }
    }

    #[test]
    fn signed_negations() {
        assert_eq!(Cond::L.negated(), Cond::Ge);
        assert_eq!(Cond::Le.negated(), Cond::G);
        assert_eq!(Cond::E.negated(), Cond::Ne);
    }
}
