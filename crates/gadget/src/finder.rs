//! ROP gadget discovery.
//!
//! A gadget (paper §2.1, §5.2) is a short instruction sequence that ends in
//! a *free branch* — a return, indirect jump or indirect call — through
//! which the attacker regains control. The finder scans every byte offset
//! of a text section (x86 has no alignment, so gadgets can start inside
//! intended instructions), decodes forward, and records each start offset
//! that yields a valid sequence: all instructions valid, no interior
//! control flow, terminator at the end.
//!
//! For attack-feasibility analysis (the paper's PHP experiment, which uses
//! ROPgadget and the microgadgets scanner), the terminator set can be
//! extended with syscall gates (`int n`, `sysenter`), since syscall
//! gadgets are what those tools hunt for.
//!
//! A whole-section scan first builds a [`TextIndex`]: one `decode` per
//! byte offset, keeping only the length and the [`Flow`] class. Every
//! candidate start then walks the index instead of decoding again, so
//! each offset is decoded exactly once however many gadgets overlap it.

use pgsd_x86::{decode, CfKind, Class, Decoded};

/// Which instructions may terminate a gadget.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TerminatorSet {
    /// Returns, indirect jumps, indirect calls — the paper's Survivor
    /// definition.
    #[default]
    FreeBranches,
    /// Free branches plus syscall gates — what attack scanners use.
    FreeBranchesAndSyscalls,
}

impl TerminatorSet {
    fn matches(self, flow: Flow) -> bool {
        match flow {
            Flow::FreeBranch => true,
            Flow::Syscall => self == TerminatorSet::FreeBranchesAndSyscalls,
            Flow::Normal | Flow::OtherControlFlow => false,
        }
    }
}

/// The gadget scanner's view of one instruction's control flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Flow {
    /// No control transfer.
    Normal,
    /// A return, indirect jump or indirect call: always a terminator.
    FreeBranch,
    /// A syscall gate: a terminator only for
    /// [`TerminatorSet::FreeBranchesAndSyscalls`].
    Syscall,
    /// Any other control transfer; it disqualifies a gadget.
    OtherControlFlow,
}

impl Flow {
    const ALL: [Flow; 4] = [
        Flow::Normal,
        Flow::FreeBranch,
        Flow::Syscall,
        Flow::OtherControlFlow,
    ];

    /// The class of a decoded instruction.
    pub fn of(d: &Decoded) -> Flow {
        match d.class() {
            c if c.is_free_branch() => Flow::FreeBranch,
            Class::ControlFlow(CfKind::Syscall) => Flow::Syscall,
            Class::ControlFlow(_) => Flow::OtherControlFlow,
            _ => Flow::Normal,
        }
    }
}

/// Scan parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScanConfig {
    /// Maximum instructions per gadget, including the terminator.
    pub max_insts: usize,
    /// Maximum bytes to walk back from a terminator when looking for
    /// gadget start offsets.
    pub max_back: usize,
    /// Terminator set.
    pub terminators: TerminatorSet,
}

impl Default for ScanConfig {
    fn default() -> ScanConfig {
        ScanConfig {
            max_insts: 5,
            max_back: 20,
            terminators: TerminatorSet::default(),
        }
    }
}

/// A discovered gadget: a byte range of the scanned section.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Gadget {
    /// Start offset within the section.
    pub offset: usize,
    /// Length in bytes (up to and including the terminator).
    pub len: usize,
}

impl Gadget {
    /// The gadget's bytes within `text`.
    pub fn bytes<'a>(&self, text: &'a [u8]) -> &'a [u8] {
        &text[self.offset..self.offset + self.len]
    }
}

/// The gadget walk shared by [`gadget_at`] and [`TextIndex::gadget_at`]:
/// `at(pos)` gives the length and class of the instruction at `pos`, or
/// `None` where nothing valid decodes.
fn walk(
    offset: usize,
    cfg: &ScanConfig,
    at: impl Fn(usize) -> Option<(usize, Flow)>,
) -> Option<usize> {
    let mut pos = offset;
    for _ in 0..cfg.max_insts {
        let (len, flow) = at(pos)?;
        pos += len;
        if cfg.terminators.matches(flow) {
            return Some(pos - offset);
        }
        if flow != Flow::Normal {
            // Interior control flow disqualifies the sequence (paper
            // §5.2: "no control-flow instructions except a free branch at
            // the end").
            return None;
        }
    }
    None
}

/// Decodes the sequence starting at `offset`; returns the gadget length if
/// it forms a valid gadget under `cfg`.
pub fn gadget_at(text: &[u8], offset: usize, cfg: &ScanConfig) -> Option<usize> {
    walk(offset, cfg, |pos| {
        decode(&text[pos..]).ok().map(|d| (d.len, Flow::of(&d)))
    })
}

/// Every offset of a text section decoded once: the instruction length
/// (or invalid) and its [`Flow`] class, one byte per offset.
#[derive(Debug, Clone)]
pub struct TextIndex {
    /// Length in the low nibble (0 where `decode` fails: x86 instructions
    /// are 1–15 bytes), `Flow` discriminant above it.
    entries: Vec<u8>,
}

impl TextIndex {
    /// Decodes `text` at every offset.
    pub fn new(text: &[u8]) -> TextIndex {
        let entries = (0..text.len())
            .map(|t| match decode(&text[t..]) {
                // `decode` caps lengths at `MAX_INST_LEN` (15).
                Ok(d) => d.len as u8 | (Flow::of(&d) as u8) << 4,
                Err(_) => 0,
            })
            .collect();
        TextIndex { entries }
    }

    /// The number of offsets indexed (the text's length).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` for an empty text.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The length and class of the instruction at `offset`, or `None`
    /// where `decode` fails (invalid or truncated) or past the end.
    #[inline]
    pub fn at(&self, offset: usize) -> Option<(usize, Flow)> {
        match *self.entries.get(offset)? {
            0 => None,
            e => Some((usize::from(e & 0xF), Flow::ALL[usize::from(e >> 4)])),
        }
    }

    /// [`gadget_at`] on the indexed text, without decoding.
    fn gadget_at(&self, offset: usize, cfg: &ScanConfig) -> Option<usize> {
        walk(offset, cfg, |pos| self.at(pos))
    }

    /// [`find_gadgets`] on the indexed text, without decoding.
    fn gadgets(&self, cfg: &ScanConfig) -> Vec<Gadget> {
        (0..self.len())
            .filter_map(|offset| {
                let len = self.gadget_at(offset, cfg)?;
                (len <= cfg.max_back + 1).then_some(Gadget { offset, len })
            })
            .collect()
    }
}

/// Finds all gadgets in `text`.
///
/// Every start offset producing a valid sequence is a distinct gadget —
/// the counting convention of ROP scanners (and the paper's Table 2,
/// whose "Gadgets Baseline" column counts hundreds of thousands for large
/// binaries). A gadget may be at most `max_back + 1` bytes long.
pub fn find_gadgets(text: &[u8], cfg: &ScanConfig) -> Vec<Gadget> {
    TextIndex::new(text).gadgets(cfg)
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    /// `index` holds exactly what `decode` says at every offset of `text`.
    fn assert_index_matches_decode(text: &[u8], index: &TextIndex) {
        assert_eq!(index.len(), text.len());
        for t in 0..text.len() {
            let expected = decode(&text[t..]).ok().map(|d| (d.len, Flow::of(&d)));
            assert_eq!(index.at(t), expected, "offset {t} of {text:02x?}");
        }
        assert_eq!(index.at(text.len()), None);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The index agrees with `decode` everywhere, and walking it finds
        /// the same gadgets as decoding does, under both terminator sets.
        #[test]
        fn index_agrees_with_decode_on_random_bytes(
            text in prop::collection::vec(any::<u8>(), 0..64),
        ) {
            let index = TextIndex::new(&text);
            assert_index_matches_decode(&text, &index);
            for terminators in [TerminatorSet::FreeBranches, TerminatorSet::FreeBranchesAndSyscalls] {
                let cfg = ScanConfig { terminators, ..ScanConfig::default() };
                for t in 0..text.len() {
                    prop_assert_eq!(index.gadget_at(t, &cfg), gadget_at(&text, t, &cfg));
                }
            }
        }
    }

    #[test]
    fn index_marks_invalid_and_truncated_offsets() {
        // ud2; mov eax, imm32 cut short; ret
        let text = [0x0F, 0x0B, 0xB8, 0x01, 0xC3];
        let index = TextIndex::new(&text);
        assert_index_matches_decode(&text, &index);
        assert_eq!(index.at(2), None, "truncated");
        assert_eq!(index.at(4), Some((1, Flow::FreeBranch)));
    }

    #[test]
    fn finds_simple_ret_gadgets() {
        // pop eax; ret — plus the bare ret, plus the `58` inside… every
        // suffix decoding cleanly counts.
        let text = [0x58, 0xC3]; // pop eax; ret
        let gadgets = find_gadgets(&text, &ScanConfig::default());
        let offsets: Vec<usize> = gadgets.iter().map(|g| g.offset).collect();
        assert_eq!(offsets, vec![0, 1]);
    }

    #[test]
    fn unintended_gadgets_from_misalignment() {
        // b8 01 c3 90 c3: `mov eax, 0x...` hides `add eax,…`? Simpler:
        // the classic: c7 04 25 ... embeds c3 in an immediate.
        // mov eax, 0xc301 → intended: 1 instruction; offset 2 decodes
        // `c3` = ret → gadget.
        let text = [0xB8, 0x01, 0xC3, 0x00, 0x00, 0xC3];
        let gadgets = find_gadgets(&text, &ScanConfig::default());
        assert!(gadgets.iter().any(|g| g.offset == 2), "{gadgets:?}");
    }

    #[test]
    fn interior_control_flow_disqualifies() {
        // jmp short +0; ret — starting at 0 hits a direct jump first.
        let text = [0xEB, 0x00, 0xC3];
        let g0 = gadget_at(&text, 0, &ScanConfig::default());
        assert_eq!(g0, None);
        assert_eq!(gadget_at(&text, 2, &ScanConfig::default()), Some(1));
    }

    #[test]
    fn invalid_bytes_disqualify() {
        // 0F 0B = ud2 before the ret.
        let text = [0x0F, 0x0B, 0xC3];
        assert_eq!(gadget_at(&text, 0, &ScanConfig::default()), None);
    }

    #[test]
    fn max_insts_limits_length() {
        // Six `inc eax` then ret: not a gadget from offset 0 with the
        // default 5-instruction limit, but one from offset 1.
        let text = [0x40, 0x40, 0x40, 0x40, 0x40, 0x40, 0xC3];
        let cfg = ScanConfig::default();
        assert_eq!(gadget_at(&text, 0, &cfg), None);
        assert_eq!(gadget_at(&text, 2, &cfg), Some(5));
    }

    #[test]
    fn syscall_terminators_only_when_enabled() {
        let text = [0x58, 0xCD, 0x80]; // pop eax; int 0x80
        let free_only = ScanConfig::default();
        assert_eq!(gadget_at(&text, 0, &free_only), None);
        let with_sys = ScanConfig {
            terminators: TerminatorSet::FreeBranchesAndSyscalls,
            ..ScanConfig::default()
        };
        assert_eq!(gadget_at(&text, 0, &with_sys), Some(3));
    }

    #[test]
    fn indirect_jump_and_call_terminate() {
        for tail in [[0xFF, 0xE0], [0xFF, 0xD3]] {
            // jmp eax / call ebx
            let mut text = vec![0x41]; // inc ecx
            text.extend_from_slice(&tail);
            assert_eq!(gadget_at(&text, 0, &ScanConfig::default()), Some(3));
        }
    }

    #[test]
    fn counts_on_real_compiler_output() {
        let image = pgsd_cc::driver::compile(
            "t",
            "int main(int n) { int s = 0; for (int i = 0; i < n; i++) { s += i; } return s; }",
        )
        .unwrap();
        let gadgets = find_gadgets(&image.text, &ScanConfig::default());
        // Every function ends in `ret`, so there are plenty.
        assert!(gadgets.len() > 20, "found {}", gadgets.len());
        for g in &gadgets {
            assert!(g.len <= 21);
            assert!(g.offset + g.len <= image.text.len());
        }
    }
}
