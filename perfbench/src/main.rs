//! Benchmark of the pgsd toolchain through its public API.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload evaluate --seed 1 --seconds 15 --trace 0
//! ```
//!
//! Each invocation runs one workload in its own process (so
//! `peak_rss_mb` is that workload's alone), prints diagnostics, and ends
//! with one JSON line: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`. `README.md` beside this crate
//! lists the workloads, the metrics and which layer should move which
//! end-to-end number.

mod evaluate;
mod produce;
mod report;
mod serve;
mod trace;

use std::process::ExitCode;
use std::time::Instant;

use report::Outcome;

/// Command-line arguments, all required.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome: Result<Outcome, String> = match args.workload.as_str() {
        "evaluate" => evaluate::run(&args, started),
        "produce" => produce::run(&args, started),
        "serve" => serve::run(&args, started, false),
        "serve-ledgered" => serve::run(&args, started, true),
        other => Err(format!(
            "unknown workload `{other}` (evaluate, produce, serve, serve-ledgered)"
        )),
    };
    match outcome {
        Ok(outcome) => {
            outcome.print(&args);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
