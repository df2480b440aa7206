//! Whole-image static audit: byte classification, abstract-interpretation
//! summaries, and gadget reachability classification.
//!
//! [`audit_image`] recovers the CFG of one emitted image, runs the
//! abstract interpreter over it, classifies a caller-provided set of
//! gadget offsets (the `gadget` crate's survivor hits — this crate takes
//! plain byte offsets to stay independent of the scanner), and folds
//! everything into an [`ImageAudit`] with a deterministic JSON rendering.
//!
//! A gadget's start offset falls into exactly one [`SurvivorClass`]:
//! every offset is classified, so per-class counts always sum to the
//! total — the property the `pgsd audit` acceptance gate checks.

use pgsd_cc::emit::Image;

use crate::absint::{interpret, AbsReport};
use crate::cfg::{recover, ByteClass, ByteCounts, RecoveredCfg};
use crate::diag::{findings_json, AnalysisDiag, Severity};

/// Reachability class of one gadget start offset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SurvivorClass {
    /// Starts on an intended instruction boundary in reachable code —
    /// the attacker-relevant class.
    Reachable,
    /// Inside reachable code but off the intended boundaries (classic
    /// unaligned-decode ROP material).
    UnintendedBoundary,
    /// In unreachable code, padding, or data: never executed on any
    /// recovered path.
    DeadBytes,
}

impl SurvivorClass {
    /// Stable lowercase name used in JSON reports and telemetry labels.
    pub fn name(self) -> &'static str {
        match self {
            SurvivorClass::Reachable => "reachable",
            SurvivorClass::UnintendedBoundary => "unintended-boundary",
            SurvivorClass::DeadBytes => "dead-bytes",
        }
    }
}

/// Classifies one text offset against a recovered CFG.
pub fn classify_offset(cfg: &RecoveredCfg, off: usize) -> SurvivorClass {
    if cfg.is_inst_start(off) {
        SurvivorClass::Reachable
    } else if cfg.class_at(off) == ByteClass::ReachableCode {
        SurvivorClass::UnintendedBoundary
    } else {
        SurvivorClass::DeadBytes
    }
}

/// Per-class totals of classified gadget offsets.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SurvivorCounts {
    /// [`SurvivorClass::Reachable`] hits.
    pub reachable: usize,
    /// [`SurvivorClass::UnintendedBoundary`] hits.
    pub unintended: usize,
    /// [`SurvivorClass::DeadBytes`] hits.
    pub dead: usize,
}

impl SurvivorCounts {
    /// Total classified offsets (always the input length: classification
    /// is a total function).
    pub fn total(&self) -> usize {
        self.reachable + self.unintended + self.dead
    }

    /// Folds another count in.
    pub fn add(&mut self, other: &SurvivorCounts) {
        self.reachable += other.reachable;
        self.unintended += other.unintended;
        self.dead += other.dead;
    }
}

/// Classifies every offset and tallies per class.
pub fn classify_offsets(cfg: &RecoveredCfg, offsets: &[usize]) -> SurvivorCounts {
    let mut c = SurvivorCounts::default();
    for &off in offsets {
        match classify_offset(cfg, off) {
            SurvivorClass::Reachable => c.reachable += 1,
            SurvivorClass::UnintendedBoundary => c.unintended += 1,
            SurvivorClass::DeadBytes => c.dead += 1,
        }
    }
    c
}

/// Aggregated survivor classification for one transform configuration
/// across a variant population (what `table2` reports per config).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SurvivorAuditReport {
    /// Gadgets in the undiversified baseline.
    pub baseline_gadgets: usize,
    /// Variants folded in.
    pub variants: usize,
    /// Per-class survivor totals summed over all variants.
    pub counts: SurvivorCounts,
}

impl SurvivorAuditReport {
    /// Folds one variant's classified survivors in.
    pub fn add_variant(&mut self, counts: &SurvivorCounts) {
        self.variants += 1;
        self.counts.add(counts);
    }

    /// Mean raw survivors per variant.
    pub fn avg_survivors(&self) -> f64 {
        if self.variants == 0 {
            0.0
        } else {
            self.counts.total() as f64 / self.variants as f64
        }
    }

    /// Mean *reachability-weighted* survivors per variant: only hits an
    /// attacker can actually reach count.
    pub fn avg_reachable(&self) -> f64 {
        if self.variants == 0 {
            0.0
        } else {
            self.counts.reachable as f64 / self.variants as f64
        }
    }
}

/// The full static audit of one image.
#[derive(Debug, Clone)]
pub struct ImageAudit {
    /// Byte totals per classification.
    pub bytes: ByteCounts,
    /// Reachable (intended) instructions recovered.
    pub insts: usize,
    /// Indirect branches whose targets were not enumerated.
    pub unresolved_indirects: usize,
    /// Functions in the image.
    pub funcs_total: usize,
    /// Functions reachable from the entry points.
    pub funcs_reachable: usize,
    /// Reachable functions proven to return with a balanced stack.
    pub funcs_balanced: usize,
    /// Maximum proven per-function stack bound in bytes, when every
    /// reachable function is bounded.
    pub stack_bound: Option<u32>,
    /// Stores proven to write only stack or data.
    pub checked_stores: usize,
    /// Stores whose target could not be resolved.
    pub unresolved_stores: usize,
    /// Stores proven to write executable text (W⊕X violations).
    pub wx_violations: usize,
    /// Classified gadget offsets.
    pub survivors: SurvivorCounts,
    /// All findings from recovery and interpretation, canonically sorted.
    pub findings: Vec<AnalysisDiag>,
}

impl ImageAudit {
    /// Findings at or above `sev`.
    pub fn findings_at_least(&self, sev: Severity) -> usize {
        self.findings.iter().filter(|d| d.severity >= sev).count()
    }

    /// Deterministic JSON object for this audit (fixed key order, no
    /// floats, findings pre-sorted).
    pub fn to_json(&self) -> String {
        let b = &self.bytes;
        let s = &self.survivors;
        format!(
            "{{\"bytes\":{{\"reachable\":{},\"unreachable\":{},\"padding\":{},\"data\":{}}},\
             \"insts\":{},\"unresolved_indirects\":{},\
             \"funcs\":{{\"total\":{},\"reachable\":{},\"balanced\":{}}},\
             \"stack_bound\":{},\
             \"stores\":{{\"checked\":{},\"unresolved\":{},\"wx_violations\":{}}},\
             \"survivors\":{{\"total\":{},\"reachable\":{},\"unintended_boundary\":{},\
             \"dead_bytes\":{}}},\
             \"findings\":{}}}",
            b.reachable,
            b.unreachable,
            b.padding,
            b.data,
            self.insts,
            self.unresolved_indirects,
            self.funcs_total,
            self.funcs_reachable,
            self.funcs_balanced,
            self.stack_bound
                .map_or_else(|| "null".to_string(), |v| v.to_string()),
            self.checked_stores,
            self.unresolved_stores,
            self.wx_violations,
            s.total(),
            s.reachable,
            s.unintended,
            s.dead,
            findings_json(&self.findings),
        )
    }
}

/// Canonical finding order for reports: severity (most severe first),
/// then function, address, rule, message.
pub fn sort_findings(findings: &mut [AnalysisDiag]) {
    findings.sort_by(|a, b| {
        let key = |d: &AnalysisDiag| {
            d.loc
                .as_ref()
                .map(|l| (l.func.clone(), l.addr.unwrap_or(0)))
        };
        b.severity
            .cmp(&a.severity)
            .then_with(|| key(a).cmp(&key(b)))
            .then_with(|| a.rule.id().cmp(b.rule.id()))
            .then_with(|| a.message.cmp(&b.message))
    });
}

/// Audits one image: CFG recovery, abstract interpretation, and
/// classification of `gadget_offsets` (text offsets of gadget starts,
/// e.g. `gadget::survivor()` hits).
pub fn audit_image(image: &Image, gadget_offsets: &[usize]) -> ImageAudit {
    let cfg = recover(image);
    let abs: AbsReport = interpret(image, &cfg);
    let survivors = classify_offsets(&cfg, gadget_offsets);

    let mut findings = cfg.diags.clone();
    findings.extend(abs.diags.iter().cloned());
    sort_findings(&mut findings);

    let stack_bound = abs
        .funcs
        .iter()
        .map(|f| f.stack_bound)
        .try_fold(0u32, |m, b| b.map(|v| m.max(v)));

    ImageAudit {
        bytes: cfg.byte_counts(),
        insts: cfg.reachable_insts(),
        unresolved_indirects: cfg.unresolved_indirects,
        funcs_total: cfg.funcs.len(),
        funcs_reachable: cfg.funcs.iter().filter(|f| f.reachable).count(),
        funcs_balanced: abs.funcs.iter().filter(|f| f.balanced).count(),
        stack_bound,
        checked_stores: abs.checked_stores,
        unresolved_stores: abs.unresolved_stores,
        wx_violations: abs.wx_violations,
        survivors,
        findings,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::{Loc, Rule};
    use pgsd_cc::driver::compile;

    #[test]
    fn audit_classifies_every_offset() {
        let img = compile("t", "int main(int n) { return n * 2 + 1; }").unwrap();
        let offsets: Vec<usize> = (0..img.text.len()).collect();
        let audit = audit_image(&img, &offsets);
        assert_eq!(
            audit.survivors.total(),
            img.text.len(),
            "classification must be total"
        );
        assert!(audit.survivors.reachable > 0);
    }

    #[test]
    fn image_audit_json_is_deterministic() {
        let img = compile("t", "int main() { return 3; }").unwrap();
        let a = audit_image(&img, &[0, 1, 2]).to_json();
        let b = audit_image(&img, &[0, 1, 2]).to_json();
        assert_eq!(a, b);
        assert!(a.starts_with("{\"bytes\":{\"reachable\":"));
        assert!(a.contains("\"survivors\":{\"total\":3,"));
    }

    #[test]
    fn sort_orders_by_severity_then_location() {
        let mut v = vec![
            AnalysisDiag::note(Rule::UnreachableCode, Loc::addr("z", 1), "n"),
            AnalysisDiag::error(Rule::WxViolation, Loc::addr("b", 5), "e2"),
            AnalysisDiag::warning(Rule::WastedNops, Loc::addr("m", 3), "w"),
            AnalysisDiag::error(Rule::WxViolation, Loc::addr("a", 9), "e1"),
        ];
        sort_findings(&mut v);
        let sevs: Vec<_> = v.iter().map(|d| d.severity).collect();
        assert_eq!(
            sevs,
            vec![
                Severity::Error,
                Severity::Error,
                Severity::Warning,
                Severity::Note
            ]
        );
        assert_eq!(v[0].loc.as_ref().unwrap().func, "a", "ties break by func");
    }

    #[test]
    fn survivor_report_averages() {
        let mut r = SurvivorAuditReport {
            baseline_gadgets: 100,
            ..Default::default()
        };
        r.add_variant(&SurvivorCounts {
            reachable: 2,
            unintended: 4,
            dead: 6,
        });
        r.add_variant(&SurvivorCounts {
            reachable: 0,
            unintended: 2,
            dead: 2,
        });
        assert_eq!(r.variants, 2);
        assert_eq!(r.counts.total(), 16);
        assert!((r.avg_survivors() - 8.0).abs() < 1e-9);
        assert!((r.avg_reachable() - 1.0).abs() < 1e-9);
    }
}
