//! # pgsd — profile-guided automated software diversity
//!
//! Umbrella crate of the reproduction of Homescu, Neisius, Larsen,
//! Brunthaler & Franz, *"Profile-guided Automated Software Diversity"*
//! (CGO 2013). Re-exports every subsystem:
//!
//! * [`x86`] — IA-32 instruction model, encoder, decoder, NOP table;
//! * [`cc`] — the MiniC optimizing compiler (frontend → IR → LIR → image);
//! * [`analysis`] — EFLAGS liveness for the substitution pass, the
//!   `divcheck` translation validator for diversified variants, and the
//!   whole-image static audit;
//! * [`profile`] — spanning-tree edge profiling and count reconstruction;
//! * [`emu`] — deterministic x86-32 emulator with a cycle cost model;
//! * [`core`] — **the paper's contribution**: profile-guided NOP insertion;
//! * [`gadget`] — gadget scanning, the Survivor comparison, attack
//!   feasibility;
//! * [`workloads`] — the synthetic SPEC CPU 2006 suite and the PHP-like VM;
//! * [`telemetry`] — spans, metrics and trace export threaded through the
//!   whole compile → diversify → execute pipeline;
//! * [`fuzz`] — differential fuzzing of diversified variants: program
//!   generator, dynamic-vs-static oracle cross-check, shrinker, corpus;
//! * [`exec`] — zero-dependency deterministic parallel job queue used by
//!   every population / sweep / fuzz fan-out;
//! * [`cache`] — content-addressed two-level artifact cache behind
//!   [`core::Session`]'s incremental builds;
//! * [`mod@bench`] — experiment-harness plumbing shared by the `pgsd bench`
//!   subcommand and the table/figure binaries;
//! * [`proto`] — the schema-versioned request/response envelope and the
//!   framed wire protocol shared by the daemon, `pgsd fetch`, and every
//!   CLI `--json` document;
//! * [`serve`] — the `pgsd serve` variant-distribution daemon: bounded
//!   request queue, worker pool, HTTP health/metrics shim, ledgered seed
//!   sequence, graceful drain.
//!
//! See `README.md` for a tour, `DESIGN.md` for the system inventory, and
//! `EXPERIMENTS.md` for paper-vs-measured results.
//!
//! # Examples
//!
//! ```
//! use pgsd::core::{BuildConfig, Input, Session, Strategy};
//!
//! let session = Session::from_source("demo", "int main(int n) { return n + 1; }")
//!     .config(BuildConfig::diversified(Strategy::uniform(0.5), 7));
//! let image = session.build()?;
//! let outcome = session.run(&image, &Input::args(&[41]), 100_000, "run");
//! assert_eq!(outcome.status(), Some(42));
//! # Ok::<(), pgsd::cc::error::CompileError>(())
//! ```

#![forbid(unsafe_code)]

pub use pgsd_analysis as analysis;
pub use pgsd_bench as bench;
pub use pgsd_cache as cache;
pub use pgsd_cc as cc;
pub use pgsd_core as core;
pub use pgsd_emu as emu;
pub use pgsd_exec as exec;
pub use pgsd_fuzz as fuzz;
pub use pgsd_gadget as gadget;
pub use pgsd_profile as profile;
pub use pgsd_proto as proto;
pub use pgsd_serve as serve;
pub use pgsd_telemetry as telemetry;
pub use pgsd_workloads as workloads;
pub use pgsd_x86 as x86;
