//! The NOP candidate table of the paper (Table 1).
//!
//! The paper selects no-operation instructions that (a) preserve the entire
//! processor state — registers, memory *and* flags — and (b) are unlikely to
//! give an attacker useful bytes: the second byte of every two-byte candidate
//! decodes to something harmless or unusable (`in`, a segment-override
//! prefix, or `aas`).
//!
//! Two additional `xchg`-based candidates preserve state equally well but pay
//! a bus-lock penalty on real implementations (Intel SDM), so the default
//! candidate set excludes them; [`NopTable::with_xchg`] opts in, matching the
//! paper's compile-time switch.

use std::fmt;

use crate::{Inst, Mem, Reg};

/// One diversifying NOP candidate from the paper's Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum NopKind {
    /// `nop` — `90`.
    Nop,
    /// `mov esp, esp` — `89 E4`; second byte decodes to `in`.
    MovEspEsp,
    /// `mov ebp, ebp` — `89 ED`; second byte decodes to `in`.
    MovEbpEbp,
    /// `lea esi, [esi]` — `8D 36`; second byte decodes to an `ss:` prefix.
    LeaEsiEsi,
    /// `lea edi, [edi]` — `8D 3F`; second byte decodes to `aas`.
    LeaEdiEdi,
    /// `xchg esp, esp` — `87 E4`; bus-locking, disabled by default.
    XchgEspEsp,
    /// `xchg ebp, ebp` — `87 ED`; bus-locking, disabled by default.
    XchgEbpEbp,
}

impl NopKind {
    /// All seven candidates, in the paper's Table 1 order.
    pub const ALL: [NopKind; 7] = [
        NopKind::Nop,
        NopKind::MovEspEsp,
        NopKind::MovEbpEbp,
        NopKind::LeaEsiEsi,
        NopKind::LeaEdiEdi,
        NopKind::XchgEspEsp,
        NopKind::XchgEbpEbp,
    ];

    /// The machine-code encoding of this candidate.
    pub fn bytes(self) -> &'static [u8] {
        match self {
            NopKind::Nop => &[0x90],
            NopKind::MovEspEsp => &[0x89, 0xE4],
            NopKind::MovEbpEbp => &[0x89, 0xED],
            NopKind::LeaEsiEsi => &[0x8D, 0x36],
            NopKind::LeaEdiEdi => &[0x8D, 0x3F],
            NopKind::XchgEspEsp => &[0x87, 0xE4],
            NopKind::XchgEbpEbp => &[0x87, 0xED],
        }
    }

    /// Encoded length in bytes (1 or 2).
    #[inline]
    #[allow(clippy::len_without_is_empty)] // a NOP always has bytes
    pub fn len(self) -> usize {
        self.bytes().len()
    }

    /// The assembly text of this candidate.
    pub fn asm(self) -> &'static str {
        match self {
            NopKind::Nop => "nop",
            NopKind::MovEspEsp => "mov esp, esp",
            NopKind::MovEbpEbp => "mov ebp, ebp",
            NopKind::LeaEsiEsi => "lea esi, [esi]",
            NopKind::LeaEdiEdi => "lea edi, [edi]",
            NopKind::XchgEspEsp => "xchg esp, esp",
            NopKind::XchgEbpEbp => "xchg ebp, ebp",
        }
    }

    /// What the *second* byte of the encoding decodes to on its own —
    /// the "Second Byte Decoding" column of Table 1 (`None` for the
    /// single-byte `nop`).
    pub fn second_byte_decoding(self) -> Option<&'static str> {
        match self {
            NopKind::Nop => None,
            NopKind::MovEspEsp | NopKind::MovEbpEbp => Some("in"),
            NopKind::LeaEsiEsi => Some("ss:"),
            NopKind::LeaEdiEdi => Some("aas"),
            NopKind::XchgEspEsp | NopKind::XchgEbpEbp => Some("in"),
        }
    }

    /// `true` for the `xchg`-based candidates, which lock the memory bus on
    /// current x86 implementations and therefore cost far more than the
    /// other candidates (paper §3).
    #[inline]
    pub fn locks_bus(self) -> bool {
        matches!(self, NopKind::XchgEspEsp | NopKind::XchgEbpEbp)
    }

    /// The equivalent structured instruction, as the decoder would report it.
    pub fn as_inst(self) -> Inst {
        match self {
            NopKind::Nop => Inst::Nop(NopKind::Nop),
            NopKind::MovEspEsp => Inst::MovRR(Reg::Esp, Reg::Esp),
            NopKind::MovEbpEbp => Inst::MovRR(Reg::Ebp, Reg::Ebp),
            NopKind::LeaEsiEsi => Inst::Lea(Reg::Esi, Mem::base_disp(Reg::Esi, 0)),
            NopKind::LeaEdiEdi => Inst::Lea(Reg::Edi, Mem::base_disp(Reg::Edi, 0)),
            NopKind::XchgEspEsp => Inst::XchgRR(Reg::Esp, Reg::Esp),
            NopKind::XchgEbpEbp => Inst::XchgRR(Reg::Ebp, Reg::Ebp),
        }
    }
}

impl fmt::Display for NopKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.asm())
    }
}

/// The set of NOP candidates the insertion pass draws from.
///
/// # Examples
///
/// ```
/// use pgsd_x86::nop::NopTable;
/// let table = NopTable::new();
/// assert_eq!(table.len(), 5);
/// let full = NopTable::with_xchg();
/// assert_eq!(full.len(), 7);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NopTable {
    /// Candidates in table order; the NOP pass draws indices into it.
    kinds: Vec<NopKind>,
    /// The same candidates longest first: the order [`NopTable::strip`]
    /// tries them in.
    strip_order: Vec<NopKind>,
}

impl NopTable {
    fn from_kinds(kinds: Vec<NopKind>) -> NopTable {
        // Prefer longer encodings so two-byte candidates are removed
        // atomically; the sort is stable, so equal lengths keep table order.
        let mut strip_order = kinds.clone();
        strip_order.sort_by_key(|k| std::cmp::Reverse(k.len()));
        NopTable { kinds, strip_order }
    }

    /// The default table: the five candidates that do not lock the bus.
    pub fn new() -> NopTable {
        NopTable::from_kinds(
            NopKind::ALL
                .iter()
                .copied()
                .filter(|k| !k.locks_bus())
                .collect(),
        )
    }

    /// The full seven-candidate table including the `xchg` forms
    /// (the paper's compile-time opt-in for extra diversity).
    pub fn with_xchg() -> NopTable {
        NopTable::from_kinds(NopKind::ALL.to_vec())
    }

    /// Number of candidates.
    pub fn len(&self) -> usize {
        self.kinds.len()
    }

    /// `true` if the table has no candidates (never the case for the
    /// provided constructors).
    pub fn is_empty(&self) -> bool {
        self.kinds.is_empty()
    }

    /// The candidate at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()`.
    pub fn kind(&self, index: usize) -> NopKind {
        self.kinds[index]
    }

    /// Iterates over the candidates in table order.
    pub fn iter(&self) -> impl Iterator<Item = NopKind> + '_ {
        self.kinds.iter().copied()
    }

    /// Strips every *complete* candidate encoding from `bytes`, returning the
    /// normalized residue. This is the normalization step of the paper's
    /// Survivor comparison: it removes all potentially-inserted NOPs before
    /// comparing an original and a diversified instruction sequence.
    ///
    /// Matching is greedy left-to-right and always prefers the two-byte
    /// candidates, so that `89 E4` is removed as a unit rather than leaving
    /// a stray `E4` behind. Because stripping can only make two sequences
    /// *more* similar, the comparison built on it conservatively
    /// overestimates survivors, as in the paper.
    pub fn strip(&self, bytes: &[u8]) -> Vec<u8> {
        self.stripped(bytes).collect()
    }

    /// [`NopTable::strip`] as an iterator over the residue, for comparing
    /// normalized sequences without allocating.
    pub fn stripped<'a>(&'a self, bytes: &'a [u8]) -> impl Iterator<Item = u8> + 'a {
        let mut i = 0;
        std::iter::from_fn(move || loop {
            let rest = &bytes[i..];
            let &first = rest.first()?;
            match self
                .strip_order
                .iter()
                .find(|k| rest.starts_with(k.bytes()))
            {
                Some(k) => i += k.len(),
                None => {
                    i += 1;
                    return Some(first);
                }
            }
        })
    }
}

impl Default for NopTable {
    fn default() -> NopTable {
        NopTable::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_encodings() {
        assert_eq!(NopKind::Nop.bytes(), &[0x90]);
        assert_eq!(NopKind::MovEspEsp.bytes(), &[0x89, 0xE4]);
        assert_eq!(NopKind::MovEbpEbp.bytes(), &[0x89, 0xED]);
        assert_eq!(NopKind::LeaEsiEsi.bytes(), &[0x8D, 0x36]);
        assert_eq!(NopKind::LeaEdiEdi.bytes(), &[0x8D, 0x3F]);
        assert_eq!(NopKind::XchgEspEsp.bytes(), &[0x87, 0xE4]);
        assert_eq!(NopKind::XchgEbpEbp.bytes(), &[0x87, 0xED]);
    }

    #[test]
    fn default_table_excludes_bus_locking_candidates() {
        let t = NopTable::new();
        assert_eq!(t.len(), 5);
        assert!(t.iter().all(|k| !k.locks_bus()));
        assert!(NopTable::with_xchg().iter().any(|k| k.locks_bus()));
    }

    #[test]
    fn strip_removes_all_candidates() {
        let t = NopTable::with_xchg();
        let mut bytes = Vec::new();
        for k in NopKind::ALL {
            bytes.extend_from_slice(k.bytes());
        }
        bytes.push(0xC3);
        assert_eq!(t.strip(&bytes), vec![0xC3]);
    }

    #[test]
    fn strip_keeps_partial_patterns() {
        let t = NopTable::new();
        // 0x89 alone (no valid second byte) must survive.
        assert_eq!(t.strip(&[0x89, 0xC0]), vec![0x89, 0xC0]);
        // An interleaved real instruction survives around NOPs.
        assert_eq!(t.strip(&[0x90, 0x40, 0x89, 0xE4, 0xC3]), vec![0x40, 0xC3]);
    }

    #[test]
    fn second_byte_column_matches_paper() {
        assert_eq!(NopKind::MovEspEsp.second_byte_decoding(), Some("in"));
        assert_eq!(NopKind::LeaEsiEsi.second_byte_decoding(), Some("ss:"));
        assert_eq!(NopKind::LeaEdiEdi.second_byte_decoding(), Some("aas"));
        assert_eq!(NopKind::Nop.second_byte_decoding(), None);
    }
}
