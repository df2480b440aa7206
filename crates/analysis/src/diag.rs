//! Analysis diagnostics.
//!
//! Rendered in the same terse `location: message` style as the compiler's
//! `CompileError` (`cc/src/error.rs`), with machine-code locations —
//! the function, and the instruction's address when the diagnostic
//! refers to emitted bytes.
//!
//! Every finding carries a stable [`Rule`] identifier (`PGSDnnn`), so
//! downstream tooling can filter, baseline, and gate on rule IDs without
//! parsing message text. Findings serialize to a deterministic,
//! schema-versioned JSON shape ([`AnalysisDiag::to_json`]) modeled on
//! SARIF result objects but small enough to hand-roll.

use std::fmt;

use pgsd_telemetry::json::quote;

/// Version of the JSON diagnostic schema emitted by [`AnalysisDiag::to_json`]
/// and the audit/check report documents built on it. Bump on any change to
/// key names, key order, or value encoding.
pub const DIAG_SCHEMA_VERSION: u32 = 2;

/// How serious a finding is. Ordering is by severity: `Note < Warning <
/// Error`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Informational: a fact worth surfacing (e.g. an indirect jump the
    /// analysis could not resolve) that is not by itself suspicious.
    Note,
    /// Suspicious but not provably wrong (analysis imprecision possible).
    Warning,
    /// Provably wrong, or a validation failure.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Note => "note",
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// Stable identity of a diagnostic rule.
///
/// IDs are append-only: a rule keeps its `PGSDnnn` identifier forever, and
/// retired rules are never reused. [`Rule::from_id`] round-trips the ID
/// string, which the JSON schema tests pin.
///
/// Retired: `PGSD001` (vreg-survives), `PGSD003` (stack-unbalanced) and
/// `PGSD004` (flags-live-at-entry), the rules of an LIR lint that no build
/// ran; the emitter rejects a surviving virtual register and the variant
/// validator proves every validated variant against its baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rule {
    /// A direct branch target escapes its function's range (CFG
    /// recovery).
    BranchTargetRange,
    /// Baseline and variant disagree beyond the declared transforms
    /// (translation validation).
    ValidationMismatch,
    /// Bytes in the image fail to decode where code was expected.
    Undecodable,
    /// Image-level layout mismatch between baseline and variant (function
    /// count, bounds, data segment).
    LayoutMismatch,
    /// A branch in the variant does not land on the image of its baseline
    /// target (translation validation).
    BranchRetarget,
    /// Recovered-CFG: code bytes that no path from an entry point reaches.
    UnreachableCode,
    /// Diversifier NOPs spent inside unreachable code.
    WastedNops,
    /// Abstract interpretation proved a path with imbalanced stack height
    /// at `ret`.
    StackImbalance,
    /// Stack height could not be bounded (overwritten `esp`, unresolved
    /// flow).
    StackUnbounded,
    /// A statically resolvable store writes into the executable text
    /// segment (W^X violation).
    WxViolation,
    /// A store target could not be statically resolved; W^X unproven for
    /// it.
    UnresolvedStore,
    /// An indirect jump or call whose targets the CFG recovery cannot
    /// enumerate; reachability is a may-underapproximation past it.
    UnresolvedIndirect,
}

/// Every rule, in stable ID order. Used by round-trip tests and docs.
pub const ALL_RULES: &[Rule] = &[
    Rule::BranchTargetRange,
    Rule::ValidationMismatch,
    Rule::Undecodable,
    Rule::LayoutMismatch,
    Rule::BranchRetarget,
    Rule::UnreachableCode,
    Rule::WastedNops,
    Rule::StackImbalance,
    Rule::StackUnbounded,
    Rule::WxViolation,
    Rule::UnresolvedStore,
    Rule::UnresolvedIndirect,
];

impl Rule {
    /// The stable `PGSDnnn` identifier.
    pub fn id(self) -> &'static str {
        match self {
            Rule::BranchTargetRange => "PGSD002",
            Rule::ValidationMismatch => "PGSD005",
            Rule::Undecodable => "PGSD006",
            Rule::LayoutMismatch => "PGSD007",
            Rule::BranchRetarget => "PGSD008",
            Rule::UnreachableCode => "PGSD009",
            Rule::WastedNops => "PGSD010",
            Rule::StackImbalance => "PGSD011",
            Rule::StackUnbounded => "PGSD012",
            Rule::WxViolation => "PGSD013",
            Rule::UnresolvedStore => "PGSD014",
            Rule::UnresolvedIndirect => "PGSD015",
        }
    }

    /// Human-readable slug, stable like the ID.
    pub fn name(self) -> &'static str {
        match self {
            Rule::BranchTargetRange => "branch-target-range",
            Rule::ValidationMismatch => "validation-mismatch",
            Rule::Undecodable => "undecodable-bytes",
            Rule::LayoutMismatch => "layout-mismatch",
            Rule::BranchRetarget => "branch-retarget",
            Rule::UnreachableCode => "unreachable-code",
            Rule::WastedNops => "wasted-nops",
            Rule::StackImbalance => "stack-imbalance",
            Rule::StackUnbounded => "stack-unbounded",
            Rule::WxViolation => "wx-violation",
            Rule::UnresolvedStore => "unresolved-store",
            Rule::UnresolvedIndirect => "unresolved-indirect",
        }
    }

    /// Parses a `PGSDnnn` identifier back to the rule.
    pub fn from_id(id: &str) -> Option<Rule> {
        ALL_RULES.iter().copied().find(|r| r.id() == id)
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.id())
    }
}

/// Where in a function a diagnostic points.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Loc {
    /// Function name.
    pub func: String,
    /// Absolute address of the emitted bytes the diagnostic refers to,
    /// if it is instruction-scoped.
    pub addr: Option<u32>,
}

impl Loc {
    /// A function-scoped location.
    pub fn func(name: impl Into<String>) -> Loc {
        Loc {
            func: name.into(),
            ..Loc::default()
        }
    }

    /// An address-scoped machine-code location.
    pub fn addr(name: impl Into<String>, addr: u32) -> Loc {
        Loc {
            func: name.into(),
            addr: Some(addr),
        }
    }
}

impl fmt::Display for Loc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.func)?;
        if let Some(a) = self.addr {
            write!(f, "@{a:#x}")?;
        }
        Ok(())
    }
}

/// One finding from the variant validator or the whole-image audit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnalysisDiag {
    /// Stable rule identity of the finding.
    pub rule: Rule,
    /// Severity of the finding.
    pub severity: Severity,
    /// Location, when one is known.
    pub loc: Option<Loc>,
    /// Human-readable description (lowercase, no trailing period).
    pub message: String,
}

impl AnalysisDiag {
    /// Creates an error finding at `loc`.
    pub fn error(rule: Rule, loc: Loc, message: impl Into<String>) -> AnalysisDiag {
        AnalysisDiag {
            rule,
            severity: Severity::Error,
            loc: Some(loc),
            message: message.into(),
        }
    }

    /// Creates a warning finding at `loc`.
    pub fn warning(rule: Rule, loc: Loc, message: impl Into<String>) -> AnalysisDiag {
        AnalysisDiag {
            rule,
            severity: Severity::Warning,
            loc: Some(loc),
            message: message.into(),
        }
    }

    /// Creates a note finding at `loc`.
    pub fn note(rule: Rule, loc: Loc, message: impl Into<String>) -> AnalysisDiag {
        AnalysisDiag {
            rule,
            severity: Severity::Note,
            loc: Some(loc),
            message: message.into(),
        }
    }

    /// Creates a finding with no location (whole-image checks).
    pub fn global(rule: Rule, severity: Severity, message: impl Into<String>) -> AnalysisDiag {
        AnalysisDiag {
            rule,
            severity,
            loc: None,
            message: message.into(),
        }
    }

    /// Renders the finding as one deterministic JSON object.
    ///
    /// Key order is fixed (`rule`, `name`, `severity`, `func`, `addr`,
    /// `message`); absent location fields serialize as
    /// `null` so every finding has an identical shape. Schema changes bump
    /// [`DIAG_SCHEMA_VERSION`].
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(128);
        out.push_str("{\"rule\":\"");
        out.push_str(self.rule.id());
        out.push_str("\",\"name\":\"");
        out.push_str(self.rule.name());
        out.push_str("\",\"severity\":\"");
        out.push_str(&self.severity.to_string());
        out.push_str("\",\"func\":");
        match &self.loc {
            Some(loc) => {
                out.push_str(&quote(&loc.func));
                match loc.addr {
                    Some(a) => out.push_str(&format!(",\"addr\":{a}")),
                    None => out.push_str(",\"addr\":null"),
                }
            }
            None => out.push_str("null,\"addr\":null"),
        }
        out.push_str(",\"message\":");
        out.push_str(&quote(&self.message));
        out.push('}');
        out
    }
}

/// Renders a slice of findings as a deterministic JSON array, in input
/// order. Sort before calling if a canonical order is wanted.
pub fn findings_json(diags: &[AnalysisDiag]) -> String {
    let mut out = String::from("[");
    for (i, d) in diags.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&d.to_json());
    }
    out.push(']');
    out
}

impl fmt::Display for AnalysisDiag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.loc {
            Some(loc) => write!(
                f,
                "{loc}: {}[{}]: {}",
                self.severity, self.rule, self.message
            ),
            None => write!(f, "{}[{}]: {}", self.severity, self.rule, self.message),
        }
    }
}

impl std::error::Error for AnalysisDiag {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_matches_compiler_style() {
        let d = AnalysisDiag::error(
            Rule::BranchTargetRange,
            Loc::func("fib"),
            "target out of range",
        );
        assert_eq!(d.to_string(), "fib: error[PGSD002]: target out of range");
        let d = AnalysisDiag::warning(
            Rule::ValidationMismatch,
            Loc::addr("main", 0x1000),
            "unmatched instruction",
        );
        assert_eq!(
            d.to_string(),
            "main@0x1000: warning[PGSD005]: unmatched instruction"
        );
        let d = AnalysisDiag::global(
            Rule::LayoutMismatch,
            Severity::Error,
            "function count differs",
        );
        assert_eq!(d.to_string(), "error[PGSD007]: function count differs");
    }

    #[test]
    fn severity_orders_note_below_warning_below_error() {
        assert!(Severity::Note < Severity::Warning);
        assert!(Severity::Warning < Severity::Error);
        let max = [Severity::Warning, Severity::Note, Severity::Error]
            .into_iter()
            .max();
        assert_eq!(max, Some(Severity::Error));
    }

    #[test]
    fn rule_ids_round_trip_and_are_unique() {
        let mut seen = std::collections::HashSet::new();
        for &r in ALL_RULES {
            assert!(seen.insert(r.id()), "duplicate rule id {}", r.id());
            assert_eq!(Rule::from_id(r.id()), Some(r));
            assert!(r.id().starts_with("PGSD"));
            assert_eq!(r.id().len(), 7);
        }
        assert_eq!(Rule::from_id("PGSD999"), None);
        for retired in ["PGSD001", "PGSD003", "PGSD004"] {
            assert_eq!(Rule::from_id(retired), None);
        }
        assert_eq!(Rule::from_id(""), None);
    }

    #[test]
    fn json_shape_is_stable() {
        let d = AnalysisDiag::error(
            Rule::WxViolation,
            Loc::addr("main", 0x8048000),
            "store writes text at 0x8048010",
        );
        assert_eq!(
            d.to_json(),
            "{\"rule\":\"PGSD013\",\"name\":\"wx-violation\",\"severity\":\"error\",\
             \"func\":\"main\",\"addr\":134512640,\
             \"message\":\"store writes text at 0x8048010\"}"
        );
        let d = AnalysisDiag::global(Rule::LayoutMismatch, Severity::Warning, "say \"hi\"\n");
        assert_eq!(
            d.to_json(),
            "{\"rule\":\"PGSD007\",\"name\":\"layout-mismatch\",\"severity\":\"warning\",\
             \"func\":null,\"addr\":null,\
             \"message\":\"say \\\"hi\\\"\\n\"}"
        );
        assert_eq!(findings_json(&[]), "[]");
    }
}
