//! # pgsd-analysis — machine-code dataflow and translation validation
//!
//! Static-analysis layer of the *profile-guided automated software
//! diversity* reproduction (Homescu et al., CGO 2013). Three layers:
//!
//! 1. **EFLAGS liveness over LIR** ([`flags`]): the one static fact the
//!    substitution pass needs about lowered code — whether the flags are
//!    dead after an instruction — solved on the worklist driver
//!    ([`dataflow::fixpoint`]) that the abstract interpreter shares.
//!
//! 2. **A variant validator** ([`divcheck`]): given a baseline image and
//!    a diversified image, statically prove they are equivalent modulo
//!    the declared transforms — inserted bytes decode to NOP-table
//!    identities, substitutions stay inside the known equivalence
//!    classes, block shifting is one jump over dead padding, register
//!    randomization is a clean bijection, and every branch lands on the
//!    image of its baseline target.
//!
//! 3. **A whole-image static audit** ([`mod@cfg`], [`absint`], [`audit`]):
//!    recursive-descent CFG and call-graph recovery over emitted images
//!    with a byte-classification map, abstract interpretation (stack
//!    height and register value ranges) proving stack bounds and W⊕X
//!    consistency, and reachability classification of surviving ROP
//!    gadgets. Findings carry stable rule IDs ([`diag::Rule`]) and
//!    export as deterministic, schema-versioned JSON.
//!
//! The paper argues diversified binaries are safe because each transform
//! is semantics-preserving by construction; `divcheck` turns that
//! argument into a machine-checked one per build, in the spirit of
//! translation validation.
//!
//! # Examples
//!
//! Running the flags analysis over a lowered function:
//!
//! ```
//! use pgsd_analysis::flags::flags_live_after;
//! use pgsd_cc::driver::{frontend, lower_module_seeded};
//!
//! let module = frontend("t", "int main() { return 4 / 2; }")?;
//! let funcs = lower_module_seeded(&module, None)?;
//! for f in &funcs {
//!     let live = flags_live_after(f);
//!     assert_eq!(live.len(), f.blocks.len());
//! }
//! # Ok::<(), pgsd_cc::error::CompileError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod absint;
pub mod addrmap;
pub mod audit;
pub mod cfg;
pub mod dataflow;
pub mod diag;
pub mod divcheck;
pub mod flags;

pub use addrmap::{AddrMap, BaselineLoc, FuncEntry, Run};
pub use audit::{
    audit_image, classify_offsets, sort_findings, ImageAudit, SurvivorAuditReport, SurvivorClass,
    SurvivorCounts,
};
pub use cfg::{recover, ByteClass, ByteCounts, RecoveredCfg};
pub use dataflow::fixpoint;
pub use diag::{findings_json, AnalysisDiag, Loc, Rule, Severity, DIAG_SCHEMA_VERSION};
pub use divcheck::{check_images, check_images_mapped, CheckReport, Transforms};
