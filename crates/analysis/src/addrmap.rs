//! Invertible baseline↔variant address maps.
//!
//! `divcheck`'s structural walk proves each variant instruction
//! corresponds to a baseline instruction — and, as a byproduct, computes
//! exactly the mapping a fleet crash reporter needs: for every baseline
//! instruction address, the half-open range of variant addresses that
//! "belong" to it (the instruction itself plus any run of inserted NOPs
//! that falls through into it). This module turns that byproduct into a
//! persistent artifact: an [`AddrMap`] that answers both
//! [`baseline_to_variant`](AddrMap::baseline_to_variant) and
//! [`variant_to_baseline`](AddrMap::variant_to_baseline) lookups.
//!
//! A map is kept in the same run-length form its binary encoding
//! stores. Within a function, baseline addresses and variant addresses
//! both increase strictly monotonically, so each pair is a small delta
//! from the one before, and a [`Run`] of `n` pairs with identical deltas
//! (straight-line code with no diversification between two points) is
//! one element. Lookups binary-search the runs and step arithmetically
//! inside one, so a map's memory is linear in its encoded size whatever
//! its pair count. Undiversified, byte-identical functions (the runtime
//! library — the common case, which `divcheck` never even decodes) are a
//! single *linear* entry: `variant = baseline + constant`.
//!
//! The codec lives with the other persisted formats in
//! `pgsd_cache::artifact` (`encode_addr_map` / `decode_addr_map`): one
//! envelope, tag `PGSDAMP1`, and one bounds-checked reader for images,
//! profiles and maps. Decoding rejects every map that breaks the
//! invariants the lookups rely on: a run of length zero, a pair that
//! does not advance on both sides after the function's first, a span
//! `[lo, hi]` reaching back to the previous instruction or below the
//! function start, a pair outside its function's bounds, or a linear
//! entry whose two spans differ in length. A damaged or hostile artifact
//! therefore yields an error — never a panic, and never a silently
//! wrong map.

/// One function's slice of the map.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuncEntry {
    /// Function name (shared between baseline and variant).
    pub name: String,
    /// First baseline address of the function.
    pub base_start: u32,
    /// One past the last baseline address.
    pub base_end: u32,
    /// First variant address of the function.
    pub var_start: u32,
    /// One past the last variant address.
    pub var_end: u32,
    /// Byte-identical function: `variant = baseline + (var_start -
    /// base_start)` and `runs` is empty.
    pub linear: bool,
    /// The `(baseline, lo, hi)` pairs, one per baseline instruction in
    /// address order, as runs of equal deltas: the matching variant
    /// instruction starts at `hi`, and `lo ≤ hi` extends down through
    /// the run of inserted NOPs that falls through into it.
    pub runs: Vec<Run>,
}

/// `n` consecutive `(baseline, lo, hi)` pairs, each `(db, dh)` past the
/// one before it (the first past the previous run's last pair, or past
/// `(base_start, var_start)` at the start of a function), all with `hi -
/// lo = pad`. This is exactly one run-length group of the encoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Run {
    /// Baseline address of the first pair.
    pub base: u32,
    /// Variant instruction address (`hi`) of the first pair.
    pub hi: u32,
    /// Number of pairs, at least 1.
    pub n: u32,
    /// Baseline step between pairs.
    pub db: u32,
    /// Variant step between pairs.
    pub dh: u32,
    /// NOP padding `hi - lo` of every pair.
    pub pad: u32,
}

impl FuncEntry {
    /// Builds a linear (byte-identical) entry.
    pub fn linear(name: &str, base_start: u32, base_end: u32, var_start: u32) -> FuncEntry {
        FuncEntry {
            name: name.to_string(),
            base_start,
            base_end,
            var_start,
            var_end: var_start + (base_end - base_start),
            linear: true,
            runs: Vec::new(),
        }
    }

    /// Builds a diversified entry from its `(baseline, lo, hi)` pairs in
    /// address order, collapsing consecutive equal deltas into runs.
    pub fn mapped(
        name: &str,
        (base_start, base_end): (u32, u32),
        (var_start, var_end): (u32, u32),
        pairs: impl IntoIterator<Item = (u32, u32, u32)>,
    ) -> FuncEntry {
        let pairs = pairs.into_iter();
        let mut runs: Vec<Run> = Vec::with_capacity(pairs.size_hint().0);
        let mut prev = (base_start, var_start);
        for (base, lo, hi) in pairs {
            let (db, dh, pad) = (base - prev.0, hi - prev.1, hi - lo);
            match runs.last_mut() {
                Some(r) if (r.db, r.dh, r.pad) == (db, dh, pad) => r.n += 1,
                _ => runs.push(Run {
                    base,
                    hi,
                    n: 1,
                    db,
                    dh,
                    pad,
                }),
            }
            prev = (base, hi);
        }
        FuncEntry {
            name: name.to_string(),
            base_start,
            base_end,
            var_start,
            var_end,
            linear: false,
            runs,
        }
    }
}

/// A symbolicated location: the baseline image of a variant address.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BaselineLoc {
    /// Name of the containing function.
    pub function: String,
    /// Baseline address of the instruction the variant address maps to.
    pub addr: u32,
}

/// An invertible baseline↔variant address map for one (baseline,
/// variant) image pair, produced by
/// [`check_images_mapped`](crate::divcheck::check_images_mapped).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AddrMap {
    /// Per-function entries, in image layout order.
    pub funcs: Vec<FuncEntry>,
}

impl AddrMap {
    /// Maps a baseline instruction address to its variant address range
    /// `(lo, hi)`: the matched instruction starts at `hi`, and any
    /// address in `[lo, hi]` falls through to it. Returns `None` when
    /// the address is outside every function or not on an instruction
    /// boundary.
    pub fn baseline_to_variant(&self, addr: u32) -> Option<(u32, u32)> {
        let f = self
            .funcs
            .iter()
            .find(|f| f.base_start <= addr && addr < f.base_end)?;
        if f.linear {
            return Some((
                addr - f.base_start + f.var_start,
                addr - f.base_start + f.var_start,
            ));
        }
        let i = f.runs.partition_point(|r| r.base <= addr);
        let r = f.runs.get(i.checked_sub(1)?)?;
        let off = addr - r.base;
        let k = off / r.db.max(1);
        if k >= r.n || k * r.db != off {
            return None;
        }
        let hi = r.hi + k * r.dh;
        Some((hi - r.pad, hi))
    }

    /// Maps a variant address back to the baseline instruction it
    /// belongs to. Addresses inside an inserted NOP run, mid-pattern in
    /// a substitution, or in a shift prologue resolve to the baseline
    /// instruction they execute on behalf of (the next matched one).
    /// Returns `None` when the address is outside every function.
    pub fn variant_to_baseline(&self, addr: u32) -> Option<BaselineLoc> {
        let f = self
            .funcs
            .iter()
            .find(|f| f.var_start <= addr && addr < f.var_end)?;
        let base = if f.linear {
            addr - f.var_start + f.base_start
        } else {
            // Last pair whose span starts at or before `addr`. A span
            // covers the matched instruction at `hi`, the NOP run `[lo,
            // hi)` that falls through into it, and any trailing
            // substitution-pattern bytes before the next span — all of
            // which execute on behalf of the same baseline instruction.
            // Shift-prologue bytes before the first span bind to the
            // function entry (the prologue jumps there). A diversified
            // function with no matched instructions (empty body) has
            // nothing to bind to.
            let i = f.runs.partition_point(|r| r.hi - r.pad <= addr);
            let r = f.runs.get(i.saturating_sub(1))?;
            let k = addr.saturating_sub(r.hi - r.pad) / r.dh.max(1);
            r.base + k.min(r.n - 1) * r.db
        };
        Some(BaselineLoc {
            function: f.name.clone(),
            addr: base,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> AddrMap {
        AddrMap {
            funcs: vec![
                FuncEntry::linear("memset", 0x1000, 0x1010, 0x1000),
                FuncEntry::mapped(
                    "main",
                    (0x1010, 0x1020),
                    (0x1010, 0x1030),
                    [
                        (0x1010, 0x1012, 0x1014), // shift prologue before it
                        (0x1012, 0x1016, 0x1016),
                        (0x1015, 0x1019, 0x101b), // NOP run [0x1019, 0x101b)
                        (0x101a, 0x1020, 0x1020),
                    ],
                ),
            ],
        }
    }

    #[test]
    fn forward_lookup_hits_instruction_boundaries_only() {
        let m = sample();
        assert_eq!(m.baseline_to_variant(0x1012), Some((0x1016, 0x1016)));
        assert_eq!(m.baseline_to_variant(0x1015), Some((0x1019, 0x101b)));
        assert_eq!(m.baseline_to_variant(0x1013), None, "mid-instruction");
        assert_eq!(m.baseline_to_variant(0x2000), None, "outside any function");
        // Linear functions map every byte.
        assert_eq!(m.baseline_to_variant(0x1007), Some((0x1007, 0x1007)));
    }

    #[test]
    fn reverse_lookup_binds_padding_to_the_following_instruction() {
        let m = sample();
        // Exact instruction start.
        assert_eq!(m.variant_to_baseline(0x1016).unwrap().addr, 0x1012);
        // Inside the NOP run [0x1019, 0x101b) that falls through into
        // baseline 0x1015's instruction: binds to that instruction.
        assert_eq!(m.variant_to_baseline(0x101a).unwrap().addr, 0x1015);
        // Trailing bytes after a span (mid-substitution-pattern) bind
        // down to the instruction that owns the span.
        assert_eq!(m.variant_to_baseline(0x1017).unwrap().addr, 0x1012);
        // Shift prologue bytes before the first matched instruction.
        assert_eq!(m.variant_to_baseline(0x1010).unwrap().addr, 0x1010);
        assert_eq!(m.variant_to_baseline(0x1010).unwrap().function, "main");
        assert_eq!(m.variant_to_baseline(0x5000), None);
    }

    #[test]
    fn equal_deltas_collapse_into_one_run_and_step_inside_it() {
        // Four 3-byte instructions, each after one inserted NOP byte.
        let pairs = (0..4).map(|k| (0x2000 + 3 * k, 0x3001 + 4 * k, 0x3001 + 4 * k + 1));
        let f = FuncEntry::mapped("f", (0x2000, 0x2010), (0x3000, 0x3020), pairs);
        assert_eq!(f.runs.len(), 2, "first pair from the entry, then one run");
        assert_eq!(f.runs[1].n, 3);
        let m = AddrMap { funcs: vec![f] };
        assert_eq!(m.baseline_to_variant(0x2006), Some((0x3009, 0x300a)));
        assert_eq!(m.baseline_to_variant(0x2007), None, "mid-instruction");
        assert_eq!(m.baseline_to_variant(0x200c), None, "past the last pair");
        assert_eq!(m.variant_to_baseline(0x300e).unwrap().addr, 0x2009);
        assert_eq!(m.variant_to_baseline(0x301f).unwrap().addr, 0x2009);
    }
}
