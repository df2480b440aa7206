//! # pgsd-core — profile-guided automated software diversity
//!
//! The primary contribution of Homescu et al. (CGO 2013), reproduced: a
//! diversifying compiler pass that inserts NOP instructions
//! probabilistically in the low-level representation, with the per-block
//! insertion probability driven by profiling data so that hot code stays
//! nearly untouched while cold code is heavily randomized.
//!
//! * [`curve`] — the probability strategies (uniform, and the
//!   linear/logarithmic profile-guided curves of §3.1);
//! * [`nop_pass`] — Algorithm 1, run on the LIR just before emission (§4);
//! * [`shift_pass`] — basic-block shifting, the §6 extension;
//! * [`subst_pass`] — equivalent-instruction substitution, the other §6
//!   extension;
//! * [`driver`] — [`BuildConfig`], the diversify and validate stages,
//!   and emulator glue for running images;
//! * [`session`] — the [`Session`] front door and the one build path:
//!   one handle over module, profile, configuration, parallelism, and
//!   the content-addressed artifact cache ([`pgsd_cache`]).
//!
//! # Examples
//!
//! Build two diversified versions of a program and check they differ in
//! code bytes but agree on behaviour:
//!
//! ```
//! use pgsd_core::{BuildConfig, Input, Session, Strategy};
//!
//! let session = Session::from_source("demo", "int main(int n) { return n * 2; }");
//! let a = session.build_with(&BuildConfig::diversified(Strategy::uniform(0.5), 1))?;
//! let b = session.build_with(&BuildConfig::diversified(Strategy::uniform(0.5), 2))?;
//! assert_ne!(a.text, b.text);
//! assert_eq!(session.run(&a, &Input::args(&[21]), 100_000, "a").status(), Some(42));
//! assert_eq!(session.run(&b, &Input::args(&[21]), 100_000, "b").status(), Some(42));
//! # Ok::<(), pgsd_cc::error::CompileError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod curve;
pub mod driver;
pub mod nop_pass;
pub mod session;
pub mod shift_pass;
pub mod subst_pass;

pub use curve::{Curve, Strategy};
pub use driver::{run, run_reported, BuildConfig, Input};
pub use nop_pass::{insert_nops, NopReport};
pub use session::{variant_id, AuditOutcome, RunOutcome, Session, Symbolicated};
pub use shift_pass::{shift_blocks, ShiftReport};
pub use subst_pass::{substitute, SubstReport};
