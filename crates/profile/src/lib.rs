//! # pgsd-profile — CFG edge profiling
//!
//! The profiling framework the paper relies on (§3.1, §4): counters are
//! placed only on control-flow edges *outside* a maximum-weight spanning
//! tree of the augmented flow graph — "LLVM … only inserts counters for
//! the minimal required subset of edges on the control flow graph" — and
//! all per-edge and per-block execution counts are reconstructed from that
//! minimal set by flow conservation.
//!
//! Pipeline:
//!
//! 1. [`instrument()`] mutates a *copy* of the optimized IR, adding
//!    `ProfCtr` instructions, and returns a [`Plan`];
//! 2. the instrumented copy is compiled and run on the *train* input; the
//!    harness reads the raw counter words back from emulator memory;
//! 3. [`reconstruct()`] turns raw counters into a [`Profile`] whose block
//!    ids refer to the original (uninstrumented) CFG — the one the
//!    measurement build lowers.
//!
//! Every profile comes from such a training run; there is no static
//! (no-training) estimator.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod graph;
pub mod instrument;
pub mod profile;
pub mod reconstruct;

pub use instrument::{instrument, Plan};
pub use profile::{FuncProfile, Profile};
pub use reconstruct::reconstruct;
