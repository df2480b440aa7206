//! Cross-version gadget survival (paper §5.2, Table 3).
//!
//! An attacker content with compromising a *subset* of targets looks for
//! the largest gadget set common to as many diversified versions as
//! possible, ignoring the undiversified original. This module counts, for
//! a population of versions, how many `(offset, normalized content)`
//! gadgets appear in at least *k* versions — the paper reports k ∈ {2, 5,
//! 12} over 25 versions.

use std::collections::HashMap;

use pgsd_x86::nop::NopTable;

use crate::finder::ScanConfig;
use crate::survivor::normalized_gadgets;

/// Survival counts for a population of diversified versions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PopulationReport {
    /// Number of versions analyzed.
    pub versions: usize,
    /// For each distinct `(offset, content)` gadget: in how many versions
    /// it appears.
    pub occurrence: HashMap<(usize, Vec<u8>), usize>,
}

impl PopulationReport {
    /// Number of gadgets present in at least `k` versions.
    pub fn surviving_in_at_least(&self, k: usize) -> usize {
        self.occurrence.values().filter(|&&n| n >= k).count()
    }

    /// The paper's Table 3 row: counts for each threshold.
    pub fn thresholds(&self, ks: &[usize]) -> Vec<usize> {
        ks.iter().map(|&k| self.surviving_in_at_least(k)).collect()
    }
}

/// Analyzes a population of diversified text sections.
pub fn population_survival(
    versions: &[Vec<u8>],
    table: &NopTable,
    cfg: &ScanConfig,
) -> PopulationReport {
    let mut occurrence: HashMap<(usize, Vec<u8>), usize> = HashMap::new();
    for text in versions {
        // Each version contributes each (offset, content) at most once.
        let mut seen: HashMap<(usize, Vec<u8>), ()> = HashMap::new();
        for key in normalized_gadgets(text, table, cfg) {
            seen.entry(key).or_insert(());
        }
        for (key, ()) in seen {
            *occurrence.entry(key).or_insert(0) += 1;
        }
    }
    PopulationReport {
        versions: versions.len(),
        occurrence,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> ScanConfig {
        ScanConfig::default()
    }

    #[test]
    fn identical_versions_share_everything() {
        let text = vec![0x58u8, 0xC3];
        let versions = vec![text.clone(), text.clone(), text];
        let rep = population_survival(&versions, &NopTable::new(), &cfg());
        assert_eq!(rep.surviving_in_at_least(3), 2); // both offsets
        assert_eq!(rep.surviving_in_at_least(4), 0);
    }

    #[test]
    fn disjoint_versions_share_nothing() {
        let a = vec![0x58u8, 0xC3]; // pop eax; ret
        let b = vec![0x41u8, 0x5B, 0xC3]; // shifted, different content
        let rep = population_survival(&[a, b], &NopTable::new(), &cfg());
        assert_eq!(rep.surviving_in_at_least(2), 0);
        assert!(rep.surviving_in_at_least(1) > 0);
    }

    #[test]
    fn same_baseline_gadget_at_two_offsets_counts_twice() {
        // The paper notes more gadgets exist "in at least two binaries"
        // than in the original because one baseline gadget can sit at
        // offset O1 in some versions and O2 in others — each offset
        // counts separately.
        let v1 = vec![0x58u8, 0xC3, 0x00];
        let v2 = vec![0x90u8, 0x58, 0xC3];
        let v3 = vec![0x58u8, 0xC3, 0x00];
        let v4 = vec![0x90u8, 0x58, 0xC3];
        let rep = population_survival(&[v1, v2, v3, v4], &NopTable::new(), &cfg());
        // pop/ret content appears at offset 0 (twice) and offset 1 — as
        // normalization strips the 90, offset 0 in v2/v4 also normalizes
        // to pop+ret… count pairs appearing ≥2 times.
        assert!(rep.surviving_in_at_least(2) >= 2);
    }

    #[test]
    fn thresholds_are_monotone() {
        use pgsd_core::{BuildConfig, Session, Strategy};
        let session = Session::from_source(
            "t",
            "int main(int n) { int s = 1; while (n > 1) { s *= n; n -= 1; } return s; }",
        )
        .config(BuildConfig::diversified(Strategy::uniform(0.3), 0));
        let images = session.population(8).unwrap();
        let texts: Vec<Vec<u8>> = images.into_iter().map(|i| i.text.to_vec()).collect();
        let rep = population_survival(&texts, &NopTable::new(), &cfg());
        let counts = rep.thresholds(&[1, 2, 4, 8]);
        for w in counts.windows(2) {
            assert!(w[0] >= w[1], "{counts:?}");
        }
        // The undiversified runtime appears identically in all 8.
        assert!(rep.surviving_in_at_least(8) > 0);
    }
}
