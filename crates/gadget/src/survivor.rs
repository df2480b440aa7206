//! The Survivor comparison algorithm (paper §5.2).
//!
//! Survivor measures how many functionally equivalent gadgets remain *at
//! the same location* after diversification: it scans the original and a
//! diversified text section, pairs candidate gadgets at identical
//! offsets, strips every potentially-inserted NOP encoding from both
//! sequences, and declares a survivor when the normalized sequences are
//! equal. Stripping can only make sequences more similar, so the count
//! conservatively *overestimates* survivors — the paper's own caveat.
//!
//! The paper's experiments score many versions against one baseline, so
//! the baseline side — its gadgets and their normalized bytes — is kept
//! in a small content-keyed memo and scanned once per baseline, not once
//! per version.

use std::sync::{Arc, Mutex, PoisonError};

use pgsd_x86::nop::NopTable;

use crate::finder::{find_gadgets, gadget_at, ScanConfig};

/// Result of one Survivor comparison.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SurvivorReport {
    /// Gadgets found in the original (undiversified) section.
    pub baseline: usize,
    /// Offsets of gadgets surviving in the diversified section.
    pub survivors: Vec<usize>,
}

impl SurvivorReport {
    /// Number of survivors.
    pub fn count(&self) -> usize {
        self.survivors.len()
    }

    /// Surviving fraction of the baseline (the paper's "Surviving %").
    pub fn surviving_fraction(&self) -> f64 {
        if self.baseline == 0 {
            0.0
        } else {
            self.survivors.len() as f64 / self.baseline as f64
        }
    }
}

/// One baseline's gadgets with their NOP-stripped bytes in one flat
/// arena, and the full key they were scanned under.
#[derive(Debug)]
struct BaselineGadgets {
    text: Vec<u8>,
    table: NopTable,
    cfg: ScanConfig,
    /// `(offset, end)` per gadget: its normalized bytes run in `arena`
    /// from the previous gadget's end (0 for the first) to `end`.
    gadgets: Vec<(usize, usize)>,
    arena: Vec<u8>,
}

impl BaselineGadgets {
    fn scan(text: &[u8], table: &NopTable, cfg: &ScanConfig) -> BaselineGadgets {
        let mut arena = Vec::new();
        let gadgets = find_gadgets(text, cfg)
            .iter()
            .map(|g| {
                arena.extend(table.stripped(g.bytes(text)));
                (g.offset, arena.len())
            })
            .collect();
        BaselineGadgets {
            text: text.to_vec(),
            table: table.clone(),
            cfg: *cfg,
            gadgets,
            arena,
        }
    }

    fn is(&self, text: &[u8], table: &NopTable, cfg: &ScanConfig) -> bool {
        self.cfg == *cfg && self.table == *table && self.text == text
    }

    /// `(offset, normalized bytes)` per gadget, in offset order.
    fn iter(&self) -> impl Iterator<Item = (usize, &[u8])> {
        let mut start = 0;
        self.gadgets.iter().map(move |&(offset, end)| {
            let norm = &self.arena[start..end];
            start = end;
            (offset, norm)
        })
    }
}

/// How many baselines the memo keeps; the least recently used goes first.
/// An entry is a copy of the text plus ~25 bytes per gadget: about 1 MiB
/// for the largest workload, 483.xalancbmk (24,425 gadgets).
const MEMO_CAPACITY: usize = 8;

/// The memo, most recently used last.
static MEMO: Mutex<Vec<Arc<BaselineGadgets>>> = Mutex::new(Vec::new());

/// Finds `(text, table, cfg)` in `memo` and marks it most recently used.
fn memo_hit(
    memo: &mut Vec<Arc<BaselineGadgets>>,
    text: &[u8],
    table: &NopTable,
    cfg: &ScanConfig,
) -> Option<Arc<BaselineGadgets>> {
    let i = memo.iter().position(|b| b.is(text, table, cfg))?;
    let hit = memo.remove(i);
    memo.push(Arc::clone(&hit));
    Some(hit)
}

/// The scanned baseline for `(text, table, cfg)`, from the memo or from a
/// fresh scan (made outside the lock, then remembered).
fn baseline(text: &[u8], table: &NopTable, cfg: &ScanConfig) -> Arc<BaselineGadgets> {
    // A panic elsewhere cannot leave the list half-updated, so a poisoned
    // lock is still usable.
    let lock = || MEMO.lock().unwrap_or_else(PoisonError::into_inner);
    if let Some(hit) = memo_hit(&mut lock(), text, table, cfg) {
        return hit;
    }
    let fresh = Arc::new(BaselineGadgets::scan(text, table, cfg));
    let mut memo = lock();
    // Another thread may have scanned the same baseline meanwhile.
    if let Some(hit) = memo_hit(&mut memo, text, table, cfg) {
        return hit;
    }
    if memo.len() == MEMO_CAPACITY {
        memo.remove(0);
    }
    memo.push(Arc::clone(&fresh));
    fresh
}

/// Runs Survivor: compares `diversified` against `original`.
///
/// The scan of `original` is memoized, so scoring many versions against
/// one baseline scans it once; the report never depends on the memo.
pub fn survivor(
    original: &[u8],
    diversified: &[u8],
    table: &NopTable,
    cfg: &ScanConfig,
) -> SurvivorReport {
    let base = baseline(original, table, cfg);
    let survivors = base
        .iter()
        .filter(|&(offset, norm)| {
            // Candidate match: a valid gadget at the same offset in the
            // diversified binary, equal to the original once both are
            // NOP-stripped.
            offset < diversified.len()
                && gadget_at(diversified, offset, cfg).is_some_and(|len| {
                    table
                        .stripped(&diversified[offset..offset + len])
                        .eq(norm.iter().copied())
                })
        })
        .map(|(offset, _)| offset)
        .collect();
    SurvivorReport {
        baseline: base.gadgets.len(),
        survivors,
    }
}

/// Convenience: the average survivor count of many diversified versions
/// against one original (the per-cell statistic of the paper's Table 2,
/// averaged over 25 versions).
pub fn average_survivors(
    original: &[u8],
    versions: &[Vec<u8>],
    table: &NopTable,
    cfg: &ScanConfig,
) -> f64 {
    if versions.is_empty() {
        return 0.0;
    }
    let total: usize = versions
        .iter()
        .map(|v| survivor(original, v, table, cfg).count())
        .sum();
    total as f64 / versions.len() as f64
}

/// Returns the multiset of `(offset, normalized bytes)` gadgets of one
/// section — the identity used for cross-version comparisons.
pub fn normalized_gadgets(
    text: &[u8],
    table: &NopTable,
    cfg: &ScanConfig,
) -> Vec<(usize, Vec<u8>)> {
    find_gadgets(text, cfg)
        .into_iter()
        .map(|g| (g.offset, table.strip(g.bytes(text))))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::finder::TerminatorSet;

    fn cfg() -> ScanConfig {
        ScanConfig::default()
    }

    /// Survivor without the memo: both sides scanned and stripped afresh.
    fn fresh_survivor(
        original: &[u8],
        diversified: &[u8],
        table: &NopTable,
        cfg: &ScanConfig,
    ) -> SurvivorReport {
        let gadgets = find_gadgets(original, cfg);
        let survivors = gadgets
            .iter()
            .filter(|g| {
                g.offset < diversified.len()
                    && gadget_at(diversified, g.offset, cfg).is_some_and(|len| {
                        table.strip(g.bytes(original))
                            == table.strip(&diversified[g.offset..g.offset + len])
                    })
            })
            .map(|g| g.offset)
            .collect();
        SurvivorReport {
            baseline: gadgets.len(),
            survivors,
        }
    }

    /// A text whose gadget at offset 0 survives only if `xchg esp, esp`
    /// counts as a NOP: the diversified side inserts one.
    fn xchg_pair() -> (Vec<u8>, Vec<u8>) {
        (vec![0x58, 0xC3], vec![0x87, 0xE4, 0x58, 0xC3])
    }

    #[test]
    fn memo_hit_matches_a_fresh_scan() {
        let original = [0x58, 0xC3, 0x90, 0x5B, 0xFF, 0xE0, 0x41, 0xC3];
        let diversified = [0x90, 0x58, 0xC3, 0x5B, 0xFF, 0xE0, 0x41, 0xC3];
        let table = NopTable::new();
        let fresh = fresh_survivor(&original, &diversified, &table, &cfg());
        let cold = survivor(&original, &diversified, &table, &cfg());
        let warm = survivor(&original, &diversified, &table, &cfg());
        assert_eq!(cold, fresh);
        assert_eq!(warm, fresh);
        assert!(fresh.count() > 0 && fresh.count() < fresh.baseline);
    }

    #[test]
    fn memo_never_shares_an_entry_across_keys() {
        let (original, diversified) = xchg_pair();
        let syscalls = ScanConfig {
            terminators: TerminatorSet::FreeBranchesAndSyscalls,
            ..cfg()
        };
        let keys = [
            (original.clone(), NopTable::new(), cfg()),
            (original.clone(), NopTable::with_xchg(), cfg()),
            (original.clone(), NopTable::new(), syscalls),
            (vec![0x5B, 0xC3], NopTable::new(), cfg()),
        ];
        let entries: Vec<Arc<BaselineGadgets>> = keys
            .iter()
            .map(|(text, table, cfg)| baseline(text, table, cfg))
            .collect();
        for (i, ((text, table, cfg), entry)) in keys.iter().zip(&entries).enumerate() {
            assert!(entry.is(text, table, cfg), "entry {i} answers another key");
            for other in &entries[i + 1..] {
                assert!(!Arc::ptr_eq(entry, other));
            }
        }
        // The NOP table decides the verdict, whichever table scanned first.
        for _ in 0..2 {
            let plain = survivor(&original, &diversified, &NopTable::new(), &cfg());
            let xchg = survivor(&original, &diversified, &NopTable::with_xchg(), &cfg());
            assert_eq!(plain.survivors, Vec::<usize>::new());
            assert_eq!(xchg.survivors, vec![0]);
        }
    }

    #[test]
    fn memo_stays_at_its_capacity() {
        let table = NopTable::new();
        for i in 0..2 * MEMO_CAPACITY as u8 {
            let text = [0x40 + (i & 7), 0x58 + (i >> 3), 0xC3];
            let rep = survivor(&text, &text, &table, &cfg());
            assert_eq!(rep, fresh_survivor(&text, &text, &table, &cfg()));
            assert!(MEMO.lock().unwrap().len() <= MEMO_CAPACITY);
        }
        assert_eq!(MEMO.lock().unwrap().len(), MEMO_CAPACITY);
    }

    #[test]
    fn identical_binaries_survive_fully() {
        let text = vec![0x58, 0xC3, 0x90, 0x5B, 0xC3];
        let rep = survivor(&text, &text, &NopTable::new(), &cfg());
        assert_eq!(rep.count(), rep.baseline);
        assert!(rep.baseline > 0);
    }

    #[test]
    fn shifted_gadgets_do_not_survive() {
        // Original: pop eax; ret at offset 0. Diversified: one
        // non-candidate byte prepended shifts everything.
        let original = [0x58, 0xC3];
        let diversified = [0x41, 0x58, 0xC3];
        let rep = survivor(&original, &diversified, &NopTable::new(), &cfg());
        assert_eq!(rep.count(), 0);
    }

    #[test]
    fn nop_normalization_overestimates_survivors() {
        // Original: pop eax; ret. Diversified: nop; pop eax; ret — the
        // gadget at offset 0 now decodes differently, but after stripping
        // the NOP both normalize to pop+ret → conservative survivor.
        let original = [0x58, 0xC3];
        let diversified = [0x90, 0x58, 0xC3];
        let rep = survivor(&original, &diversified, &NopTable::new(), &cfg());
        assert_eq!(rep.survivors, vec![0]);
    }

    #[test]
    fn different_payload_at_same_offset_is_no_survivor() {
        let original = [0x58, 0xC3]; // pop eax; ret
        let diversified = [0x5B, 0xC3]; // pop ebx; ret
        let rep = survivor(&original, &diversified, &NopTable::new(), &cfg());
        // Offset 1 (bare ret) survives; offset 0 does not.
        assert_eq!(rep.survivors, vec![1]);
    }

    #[test]
    fn two_byte_nops_strip_atomically() {
        let original = [0x58, 0xC3];
        // 89 E4 (mov esp,esp) prepended.
        let diversified = [0x89, 0xE4, 0x58, 0xC3];
        let rep = survivor(&original, &diversified, &NopTable::new(), &cfg());
        assert_eq!(rep.survivors, vec![0]);
    }

    #[test]
    fn real_diversified_binary_loses_most_gadgets() {
        use pgsd_core::{BuildConfig, Session, Strategy};
        let src = "int helper(int x) { return x * 3 + 1; }
                   int main(int n) { int s = 0; for (int i = 0; i < n; i++) { s += helper(i); } return s; }";
        let session = Session::from_source("t", src);
        let base = session.build_with(&BuildConfig::baseline()).unwrap();
        let div = session
            .build_with(&BuildConfig::diversified(Strategy::uniform(0.5), 7))
            .unwrap();
        let rep = survivor(&base.text, &div.text, &NopTable::new(), &cfg());
        assert!(rep.baseline > 0);
        // The undiversified runtime survives; diversified user code mostly
        // does not — so survivors exist but are well below the baseline.
        assert!(rep.count() < rep.baseline);
        assert!(rep.count() > 0, "runtime gadgets should survive");
    }
}
