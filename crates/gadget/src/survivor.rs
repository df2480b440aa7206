//! The Survivor comparison algorithm (paper §5.2).
//!
//! Survivor measures how many functionally equivalent gadgets remain *at
//! the same location* after diversification: it scans the original and a
//! diversified text section, pairs candidate gadgets at identical
//! offsets, strips every potentially-inserted NOP encoding from both
//! sequences, and declares a survivor when the normalized sequences are
//! equal. Stripping can only make sequences more similar, so the count
//! conservatively *overestimates* survivors — the paper's own caveat.

use pgsd_x86::nop::NopTable;

use crate::finder::{find_gadgets, gadget_at, Gadget, ScanConfig};

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

/// Runs Survivor: compares `diversified` against `original`.
pub fn survivor(
    original: &[u8],
    diversified: &[u8],
    table: &NopTable,
    cfg: &ScanConfig,
) -> SurvivorReport {
    let base_gadgets = find_gadgets(original, cfg);
    let mut survivors = Vec::new();
    for g in &base_gadgets {
        if g.offset >= diversified.len() {
            continue;
        }
        // Candidate match: a valid gadget at the same offset in the
        // diversified binary.
        let Some(div_len) = gadget_at(diversified, g.offset, cfg) else {
            continue;
        };
        let orig_norm = table.strip(g.bytes(original));
        let div_norm = table.strip(&diversified[g.offset..g.offset + div_len]);
        if orig_norm == div_norm {
            survivors.push(g.offset);
        }
    }
    SurvivorReport {
        baseline: base_gadgets.len(),
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
        .map(|g: Gadget| (g.offset, table.strip(g.bytes(text))))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> ScanConfig {
        ScanConfig::default()
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
