//! Per-layer timing, measured from outside the program: the benchmark
//! times each public call it makes into a layer, and replays stages that
//! run inside another call (the passes inside `Session::build_with`, the
//! ledger map inside a served request) through the stage's own public
//! function on the same inputs. Nothing here adds a span to the program;
//! traced builds record into an enabled telemetry handle only so that the
//! program's own cache counters can be read.

use std::collections::BTreeMap;
use std::time::Instant;

use pgsd_cc::emit::Image;
use pgsd_core::{insert_nops, Session, Strategy};
use pgsd_workloads::Workload;
use pgsd_x86::nop::NopTable;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Every per-layer metric, with its unit, in the order printed. A
/// workload that does not exercise a layer reports 0 for it.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("cc.frontend_ms", "ms"),
    ("cc.lower_ms", "ms"),
    ("cc.emit_ms", "ms"),
    ("profile.train_ms", "ms"),
    ("core.build_ms", "ms"),
    ("core.nop_pass_ms", "ms"),
    ("core.text_growth_bytes", "count"),
    ("emu.run_ms", "ms"),
    ("emu.minst_per_s", "Minst/s"),
    ("emu.instructions", "count"),
    ("emu.cycles", "count"),
    ("gadget.baseline_scan_ms", "ms"),
    ("gadget.survivor_ms", "ms"),
    ("gadget.scan_mib_per_s", "MiB/s"),
    ("analysis.addrmap_ms", "ms"),
    ("cache.hit_pct", "%"),
    ("cache.mem_mb", "MiB"),
    ("cache.ledger_records", "count"),
    ("cache.ledger_mb", "MiB"),
    ("cache.ledger_write_mb", "MiB"),
    ("cache.disk_mb", "MiB"),
    ("proto.encode_ms", "ms"),
    ("proto.decode_ms", "ms"),
    ("proto.payload_kb", "KiB"),
    ("serve.fetch_ms", "ms"),
    ("serve.residual_ms", "ms"),
    ("serve.busy", "count"),
    ("serve.errors", "count"),
    ("serve.rss_growth_mb", "MiB"),
    ("telemetry.spans_retained", "count"),
    ("trace.untraced_ops_per_s", "1/s"),
    ("trace.traced_ops_per_s", "1/s"),
    ("trace.unattributed_pct", "%"),
];

#[derive(Default, Clone, Copy)]
struct Acc {
    total: f64,
    calls: u64,
}

/// Accumulates per-layer samples (timings in milliseconds per call, or
/// sizes) and set values. Disabled, [`Trace::time`] only calls through.
pub struct Trace {
    enabled: bool,
    samples: BTreeMap<&'static str, Acc>,
    values: BTreeMap<&'static str, f64>,
}

impl Trace {
    pub fn new(enabled: bool) -> Trace {
        Trace {
            enabled,
            samples: BTreeMap::new(),
            values: BTreeMap::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `f`, adding its wall time to `name` when tracing.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let t = Instant::now();
        let out = f();
        self.sample(name, t.elapsed().as_secs_f64() * 1e3);
        out
    }

    /// Adds one sample (a call's milliseconds, or a size) to `name`.
    pub fn sample(&mut self, name: &'static str, value: f64) {
        let acc = self.samples.entry(name).or_default();
        acc.total += value;
        acc.calls += 1;
    }

    /// Mean sample of `name` (0 if never sampled).
    pub fn mean(&self, name: &str) -> f64 {
        self.samples
            .get(name)
            .map_or(0.0, |a| a.total / a.calls.max(1) as f64)
    }

    /// Sum of the samples of `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.samples.get(name).map_or(0.0, |a| a.total)
    }

    /// Adds `other`'s samples and values to this trace.
    pub fn merge(&mut self, other: Trace) {
        for (name, a) in other.samples {
            let acc = self.samples.entry(name).or_default();
            acc.total += a.total;
            acc.calls += a.calls;
        }
        self.values.extend(other.values);
    }

    /// Sets a value metric (last write wins).
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Every [`PER_LAYER`] metric: a set value wins, else the mean
    /// sample, else 0 for a layer this workload does not exercise.
    pub fn metrics(&self) -> Vec<(&'static str, f64, &'static str)> {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let value = match self.values.get(name) {
                    Some(&v) => v,
                    None => self.mean(name),
                };
                (name, value, unit)
            })
            .collect()
    }

    /// One diagnostics line per sampled name: samples, total, mean.
    pub fn describe(&self) -> Vec<String> {
        self.samples
            .iter()
            .map(|(name, a)| {
                format!(
                    "{name}: {} samples, total {:.1}, mean {:.3}",
                    a.calls,
                    a.total,
                    a.total / a.calls.max(1) as f64
                )
            })
            .collect()
    }
}

/// Sets the metrics read from the program's own counters (cache hits and
/// misses, the daemon's busy and error counts) and from `Cache::stats`.
pub fn counter_metrics(
    trace: &mut Trace,
    counters: &BTreeMap<String, u64>,
    stats: &pgsd_cache::CacheStats,
) {
    let sum = |prefix: &str| -> u64 {
        counters
            .iter()
            .filter(|(k, _)| k.starts_with(prefix))
            .map(|(_, v)| v)
            .sum()
    };
    let (hits, misses) = (sum("cache.hits"), sum("cache.misses"));
    trace.set(
        "cache.hit_pct",
        100.0 * hits as f64 / (hits + misses).max(1) as f64,
    );
    trace.set("cache.mem_mb", stats.mem_bytes as f64 / MIB);
    trace.set("cache.ledger_records", stats.ledger_records as f64);
    trace.set("cache.ledger_mb", stats.ledger_bytes as f64 / MIB);
    trace.set("cache.disk_mb", stats.disk_bytes as f64 / MIB);
    trace.set("serve.busy", sum("serve.busy") as f64);
    trace.set("serve.errors", sum("serve.errors") as f64);
}

/// Bytes per MiB.
pub const MIB: f64 = 1024.0 * 1024.0;

/// Replays the frontend and lowering of each program through their own
/// public functions (the session ran them inside `train`).
pub fn replay_front<'a>(
    workloads: impl Iterator<Item = &'a Workload>,
    trace: &mut Trace,
) -> Result<(), String> {
    for w in workloads {
        let module = trace
            .time("cc.frontend_ms", || {
                pgsd_cc::driver::frontend(w.name, &w.source)
            })
            .map_err(|e| format!("{}: {e}", w.name))?;
        trace
            .time("cc.lower_ms", || {
                pgsd_cc::driver::lower_module_seeded(&module, None)
            })
            .map_err(|e| format!("{}: {e}", w.name))?;
    }
    Ok(())
}

/// Replays the NOP pass and emit of a NOP-only build on the session's
/// cached lowered code, and checks the replay reproduces `image`.
pub fn replay_build(
    session: &Session,
    strategy: Strategy,
    seed: u64,
    image: &Image,
    trace: &mut Trace,
) -> Result<(), String> {
    let lowered = session.lowered(None).map_err(|e| e.to_string())?;
    let module = session.module().map_err(|e| e.to_string())?;
    let profile = session.active_profile();
    let mut funcs = (*lowered).clone();
    let mut rng = StdRng::seed_from_u64(seed);
    trace.time("core.nop_pass_ms", || {
        insert_nops(
            &mut funcs,
            &strategy,
            profile.as_deref(),
            &NopTable::new(),
            &mut rng,
        )
    });
    let replayed = trace
        .time("cc.emit_ms", || pgsd_cc::driver::emit_image(&funcs, module))
        .map_err(|e| e.to_string())?;
    if replayed.text != image.text {
        return Err(format!(
            "{} seed {seed}: replayed NOP pass + emit differs from the built variant",
            module.name
        ));
    }
    Ok(())
}
