//! Shared plumbing: op records, timed windows, statistics, process
//! memory, and the result line.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::trace::Trace;
use crate::Args;

/// One completed op of a timed window.
pub struct OpRecord {
    /// Program the op worked on (the shape diagnostics group by it).
    pub program: &'static str,
    /// Kind of op, for workloads that mix kinds (fresh vs re-download).
    pub kind: &'static str,
    /// Wall time of the op.
    pub ms: f64,
    /// Whether the op completed and its output checked out.
    pub ok: bool,
}

/// Everything a workload measured, ready to print.
pub struct Outcome {
    pub ops: Vec<OpRecord>,
    /// Wall time of the timed window.
    pub window_s: f64,
    /// Duration of each set-up repetition.
    pub setups: Vec<f64>,
    /// Percentile reported as `latency_tail_ms`: the highest one this
    /// workload's minimum op count leaves at least 10 samples beyond.
    pub tail_pct: f64,
    /// Checks outside any op that failed (each one makes the run
    /// incorrect).
    pub check_failures: Vec<String>,
    pub variant_overhead_pct: f64,
    pub gadget_survival_pct: f64,
    /// VmHWM at the end of the timed window (later checks excluded).
    pub peak_rss_mb: f64,
    /// Free-form diagnostics lines.
    pub notes: Vec<String>,
    pub trace: Trace,
}

impl Outcome {
    pub fn new(trace: Trace, tail_pct: f64) -> Outcome {
        Outcome {
            ops: Vec::new(),
            window_s: 0.0,
            setups: Vec::new(),
            tail_pct,
            check_failures: Vec::new(),
            variant_overhead_pct: 0.0,
            gadget_survival_pct: 0.0,
            peak_rss_mb: 0.0,
            notes: Vec::new(),
            trace,
        }
    }

    /// Records a failed check, which makes the whole run incorrect (a
    /// failed op is also counted in `failed` through its record).
    pub fn fail(&mut self, msg: String) {
        eprintln!("perfbench: check failed: {msg}");
        self.check_failures.push(msg);
    }

    pub fn ops_per_s(&self) -> f64 {
        self.ops.len() as f64 / self.window_s.max(1e-9)
    }

    pub fn print(mut self, args: &Args) {
        let attempted = self.ops.len();
        let failed = self.ops.iter().filter(|o| !o.ok).count();
        let lat: Vec<f64> = self.ops.iter().map(|o| o.ms).collect();
        let tail = quantile(&lat, self.tail_pct / 100.0);
        let beyond = lat.iter().filter(|&&v| v > tail).count();
        if beyond < 10 && !args.trace {
            self.notes.push(format!(
                "warning: only {beyond} samples beyond p{}",
                self.tail_pct
            ));
        }

        println!(
            "workload={} seed={} seconds={} trace={} host_parallelism={}",
            args.workload,
            args.seed,
            args.seconds,
            u8::from(args.trace),
            nproc()
        );
        println!(
            "ops={attempted} failed={failed} window_s={:.3} ops_per_s={:.3}",
            self.window_s,
            self.ops_per_s()
        );
        println!(
            "latency p10={:.3} p50={:.3} p90={:.3} ms; tail p{}={tail:.3} ms with {beyond} of {attempted} samples beyond",
            quantile(&lat, 0.10),
            quantile(&lat, 0.50),
            quantile(&lat, 0.90),
            self.tail_pct
        );
        for (label, groups) in [
            ("program", group(&self.ops, |o| o.program)),
            ("kind", group(&self.ops, |o| o.kind)),
        ] {
            for (key, v) in groups {
                println!(
                    "  {label} {key}: n={} p10={:.3} p50={:.3} p90={:.3} ms",
                    v.len(),
                    quantile(&v, 0.10),
                    quantile(&v, 0.50),
                    quantile(&v, 0.90)
                );
            }
        }
        let setups: Vec<String> = self.setups.iter().map(|s| format!("{s:.3}")).collect();
        println!("setup repetitions (s): {}", setups.join(" "));
        for note in &self.notes {
            println!("{note}");
        }
        for line in self.trace.describe() {
            println!("  trace {line}");
        }

        let metrics: Vec<(&str, f64, &str)> = if args.trace {
            self.trace.metrics()
        } else {
            vec![
                ("setup_s", median(&self.setups), "s"),
                ("ops_per_s", self.ops_per_s(), "1/s"),
                ("latency_p50_ms", quantile(&lat, 0.5), "ms"),
                ("latency_tail_ms", tail, "ms"),
                ("peak_rss_mb", self.peak_rss_mb, "MiB"),
                (
                    "ok_pct",
                    100.0 * (attempted - failed) as f64 / attempted.max(1) as f64,
                    "%",
                ),
                ("variant_overhead_pct", self.variant_overhead_pct, "%"),
                ("gadget_survival_pct", self.gadget_survival_pct, "%"),
            ]
        };
        let correct = failed == 0
            && attempted > 0
            && self.check_failures.is_empty()
            && metrics.iter().all(|(_, v, _)| v.is_finite());
        let body: Vec<String> = metrics
            .iter()
            .map(|(name, v, unit)| {
                let v = if v.is_finite() { *v } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            attempted.max(1),
            body.join(", ")
        );
    }
}

fn group(
    ops: &[OpRecord],
    key: impl Fn(&OpRecord) -> &'static str,
) -> BTreeMap<&'static str, Vec<f64>> {
    let mut m: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for o in ops {
        m.entry(key(o)).or_default().push(o.ms);
    }
    m
}

/// A finished timed window.
pub struct Window<T> {
    /// Each op's result, in op order.
    pub results: Vec<T>,
    /// Wall time of the window.
    pub secs: f64,
    /// VmHWM when the first `min_ops` ops were done: a figure for a fixed
    /// amount of work, whatever the machine's speed.
    pub hwm_mib: f64,
}

/// Runs the op sequence `op(0)`, `op(1)`, … on `nproc` workers, each
/// taking the next op as it finishes one (a closed loop per worker),
/// until `seconds` have passed and at least `min_ops` ops are done. The
/// sequence ends on a whole round of `round` ops, so every program is
/// equally represented whatever the op count. Each worker records into a
/// trace of its own, merged into `trace` at the end.
///
/// Keeping every core busy is deliberate: on a shared host a core left
/// idle lets other tenants' work slow the busy one by a varying amount,
/// which made single-threaded runs of the same code differ by up to half.
pub fn closed_loop<T: Send>(
    round: usize,
    min_ops: usize,
    seconds: f64,
    trace: &mut Trace,
    op: impl Fn(usize, &mut Trace) -> T + Sync,
) -> Window<T> {
    let next = AtomicUsize::new(0);
    let end = AtomicUsize::new(usize::MAX);
    let done = AtomicUsize::new(0);
    let hwm = Mutex::new(0.0);
    let started = Instant::now();
    let traced = trace.enabled();
    let per_worker: Vec<(Vec<(usize, T)>, Trace)> = std::thread::scope(|scope| {
        let joins: Vec<_> = (0..nproc())
            .map(|_| {
                scope.spawn(|| {
                    let mut local = Trace::new(traced);
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::SeqCst);
                        if i >= min_ops && started.elapsed().as_secs_f64() >= seconds {
                            end.fetch_min(i.next_multiple_of(round), Ordering::SeqCst);
                        }
                        if i >= end.load(Ordering::SeqCst) {
                            break;
                        }
                        out.push((i, op(i, &mut local)));
                        if done.fetch_add(1, Ordering::SeqCst) + 1 == min_ops {
                            *hwm.lock().expect("no worker panics holding it") =
                                proc_status_mib("VmHWM:");
                        }
                    }
                    (out, local)
                })
            })
            .collect();
        joins
            .into_iter()
            .map(|j| j.join().expect("worker thread panicked"))
            .collect()
    });
    let secs = started.elapsed().as_secs_f64();
    // A worker can start an op past the final round's end before another
    // worker fixes that end; such ops are dropped to keep whole rounds.
    let end = end.load(Ordering::SeqCst);
    let mut results = Vec::new();
    for (out, local) in per_worker {
        trace.merge(local);
        results.extend(out.into_iter().filter(|(i, _)| *i < end));
    }
    results.sort_by_key(|(i, _)| *i);
    Window {
        results: results.into_iter().map(|(_, r)| r).collect(),
        secs,
        hwm_mib: hwm.into_inner().expect("no worker panics holding it"),
    }
}

/// `f` over `items` on `nproc` threads, results in item order.
pub fn par_map<I: Sync, T: Send>(items: &[I], f: impl Fn(&I) -> T + Sync) -> Vec<T> {
    let next = AtomicUsize::new(0);
    let mut out: Vec<(usize, T)> = std::thread::scope(|scope| {
        let joins: Vec<_> = (0..nproc())
            .map(|_| {
                scope.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::SeqCst);
                        let Some(item) = items.get(i) else { break };
                        mine.push((i, f(item)));
                    }
                    mine
                })
            })
            .collect();
        joins
            .into_iter()
            .flat_map(|j| j.join().expect("worker thread panicked"))
            .collect()
    });
    out.sort_by_key(|(i, _)| *i);
    out.into_iter().map(|(_, t)| t).collect()
}

/// Records the tracing cost (ops/s of the untraced window against the
/// traced one, which repeats the same op sequence) and the share of the
/// traced ops' wall time that the stages in `attributed_ms` leave
/// unaccounted.
pub fn tracing_cost(
    trace: &mut Trace,
    untraced_ops_per_s: f64,
    traced: &[OpRecord],
    traced_s: f64,
    attributed_ms: f64,
) {
    trace.set("trace.untraced_ops_per_s", untraced_ops_per_s);
    trace.set("trace.traced_ops_per_s", traced.len() as f64 / traced_s);
    let op_ms: f64 = traced.iter().map(|o| o.ms).sum();
    trace.set(
        "trace.unattributed_pct",
        100.0 * (op_ms - attributed_ms) / op_ms.max(1e-9),
    );
}

/// Wall time of `f` in milliseconds, with its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64() * 1e3)
}

/// Linear-interpolated quantile (`q` in 0..=1); 0 for no samples.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Geometric mean of `1 + x/100` ratios, as a percentage.
pub fn geomean_pct(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values.iter().map(|v| (1.0 + v / 100.0).ln()).sum();
    ((log_sum / values.len() as f64).exp() - 1.0) * 100.0
}

/// A `/proc/self/status` field in MiB (0 where unavailable).
pub fn proc_status_mib(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Host parallelism, read at run time: clients and daemon workers equal
/// it.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// A seed for item `i` of a stream, derived from the workload seed
/// (SplitMix64 finalizer).
pub fn derive_seed(seed: u64, stream: u64, i: u64) -> u64 {
    let mut x = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
        .wrapping_add(i);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Set-up repeated `reps` times from scratch; every duration is kept
/// (their median is `setup_s`) and the last repetition's state is used.
/// The first repetition is timed from process start; `teardown` releases
/// each earlier repetition's state outside the timing.
pub fn repeated_setup<T>(
    reps: usize,
    process_start: Instant,
    mut setup: impl FnMut() -> Result<T, String>,
    mut teardown: impl FnMut(T),
) -> Result<(T, Vec<f64>), String> {
    let mut durations = Vec::with_capacity(reps);
    let mut last = None;
    for r in 0..reps {
        if let Some(state) = last.take() {
            teardown(state);
        }
        let t = if r == 0 {
            process_start
        } else {
            Instant::now()
        };
        let state = setup()?;
        durations.push(t.elapsed().as_secs_f64());
        last = Some(state);
    }
    Ok((last.expect("at least one repetition"), durations))
}
