//! `produce`: the loop behind Tables 2 and 3. Each op makes one variant
//! of each generated-bulk program and scores it with Survivor against its
//! baseline; `nproc` workers take ops in turn. Nothing is emulated in the
//! window.

use std::sync::Mutex;
use std::time::{Duration, Instant};

use pgsd_analysis::check_images;
use pgsd_cache::Cache;
use pgsd_cc::emit::Image;
use pgsd_core::driver::{BuildConfig, DEFAULT_GAS};
use pgsd_core::{Session, Strategy};
use pgsd_gadget::{find_gadgets, survivor, ScanConfig};
use pgsd_telemetry::Telemetry;
use pgsd_workloads::Workload;
use pgsd_x86::nop::NopTable;

use crate::report::{
    closed_loop, derive_seed, geomean_pct, nproc, par_map, repeated_setup, timed, tracing_cost,
    OpRecord, Outcome, Window,
};
use crate::trace::{counter_metrics, replay_build, replay_front, Trace, MIB};
use crate::Args;

/// The generated-bulk programs, with exit status and ref instruction
/// count copied by hand from the workloads crate's golden snapshot test.
const GOLDEN: [(&str, i32, u64); 5] = [
    ("403.gcc", 1_010_517_106, 2_186_616),
    ("445.gobmk", 1_087_148_991, 1_643_471),
    ("447.dealII", 434_942_994, 1_502_702),
    ("453.povray", 1_300_773_660, 1_335_710),
    ("483.xalancbmk", 939_861_836, 1_979_337),
];

/// Set-up repetitions; their median is `setup_s`. Set-up is short here,
/// so more of them steady the median.
const SETUP_REPS: usize = 5;
/// The first round (one op per paper config) uses fixed variant seeds,
/// so the exact metrics over it repeat on every run; later ops take
/// seeds derived from the workload seed.
const EXACT_OPS: usize = 5;
/// Minimum ops per window: from 100 ops on, at least 20 samples lie
/// beyond the p80 tail.
const MIN_OPS: usize = 100;
const TAIL_PCT: f64 = 80.0;

struct Program {
    workload: Workload,
    session: Session,
    baseline: Image,
}

/// Compiles, trains and baseline-builds every program (on `nproc`
/// threads, one shared in-memory cache). Traced, it times each program's
/// cold training.
fn prepare(trace: &mut Trace) -> Result<Vec<Program>, String> {
    let cache = Cache::in_memory();
    let prepared: Vec<Result<_, String>> = par_map(&GOLDEN, |&(name, _, _)| {
        let workload = pgsd_workloads::by_name(name).ok_or(format!("no workload {name}"))?;
        let session = Session::from_source(name, &workload.source)
            .cache(cache.clone())
            .threads(1);
        session.module().map_err(|e| format!("{name}: {e}"))?;
        let (trained, train_ms) = timed(|| session.train(&workload.train, DEFAULT_GAS));
        trained.map_err(|e| format!("{name}: {e}"))?;
        let baseline = session
            .build_with(&BuildConfig::baseline())
            .map_err(|e| format!("{name}: {e}"))?;
        let program = Program {
            workload,
            session,
            baseline,
        };
        Ok((program, train_ms))
    });
    let mut programs = Vec::with_capacity(GOLDEN.len());
    for p in prepared {
        let (program, train_ms) = p?;
        if trace.enabled() {
            trace.sample("profile.train_ms", train_ms);
        }
        programs.push(program);
    }
    Ok(programs)
}

/// One variant an op made, enough to rebuild it.
struct Made {
    op: usize,
    program: usize,
    strategy: Strategy,
    seed: u64,
    survivors: usize,
    baseline_gadgets: usize,
}

/// The timed window over whole rounds of one op per paper config. With
/// tracing on, each variant also replays its build's passes and the
/// baseline scan (outside the op's own time, inside the window's).
fn window(
    programs: &[Program],
    args: &Args,
    trace: &mut Trace,
    failures: &Mutex<Vec<String>>,
) -> Window<(OpRecord, Vec<Made>)> {
    let configs = Strategy::paper_configs();
    let table = NopTable::new();
    let scan = ScanConfig::default();
    let tel = Telemetry::enabled();
    let traced = trace.enabled();
    let fail = |msg: String| failures.lock().expect("no panic holding it").push(msg);
    let window = closed_loop(configs.len(), MIN_OPS, args.seconds, trace, |i, trace| {
        let (label, strategy) = configs[i % configs.len()];
        let t = Instant::now();
        let mut untimed = Duration::ZERO;
        let mut made = Vec::with_capacity(programs.len());
        let mut ok = true;
        for (pi, p) in programs.iter().enumerate() {
            let k = (i * programs.len() + pi) as u64;
            let seed = if i < EXACT_OPS {
                k
            } else {
                derive_seed(args.seed, 2, k)
            };
            let mut config = BuildConfig::diversified(strategy, seed);
            if traced {
                config = config.with_telemetry(tel.clone());
            }
            let image = match trace.time("core.build_ms", || p.session.build_with(&config)) {
                Ok(image) => image,
                Err(e) => {
                    fail(format!("{} seed {seed}: {e}", p.workload.name));
                    ok = false;
                    continue;
                }
            };
            let rep = trace.time("gadget.survivor_ms", || {
                survivor(&p.baseline.text, &image.text, &table, &scan)
            });
            made.push(Made {
                op: i,
                program: pi,
                strategy,
                seed,
                survivors: rep.count(),
                baseline_gadgets: rep.baseline,
            });
            if traced {
                let replay = Instant::now();
                trace.sample("gadget.scanned_bytes", p.baseline.text.len() as f64);
                trace.sample(
                    "core.text_growth",
                    image.text.len() as f64 - p.baseline.text.len() as f64,
                );
                trace.time("gadget.baseline_scan_ms", || {
                    find_gadgets(&p.baseline.text, &scan)
                });
                if let Err(e) = replay_build(&p.session, strategy, seed, &image, trace) {
                    fail(e);
                }
                untimed += replay.elapsed();
            }
        }
        let op = OpRecord {
            program: "bundle",
            kind: label,
            ms: (t.elapsed() - untimed).as_secs_f64() * 1e3,
            ok,
        };
        (op, made)
    });
    if traced {
        let stats = programs[0].session.cache_handle().stats();
        counter_metrics(trace, &tel.snapshot().counters, &stats);
    }
    window
}

/// Proves every variant equivalent to its baseline with `check_images`
/// on `nproc` threads, rebuilding each through its session. Newest
/// first: the cache still holds those, while the oldest were evicted and
/// must be rebuilt anyway. Returns the op and a message for each failure.
fn prove(programs: &[Program], made: &[Made]) -> Vec<(usize, String)> {
    let newest_first: Vec<&Made> = made.iter().rev().collect();
    let proofs = par_map(&newest_first, |m| {
        let p = &programs[m.program];
        let config = BuildConfig::diversified(m.strategy, m.seed);
        let proof = p
            .session
            .build_with(&config)
            .map_err(|e| e.to_string())
            .and_then(|image| {
                check_images(&p.baseline, &image, &config.transforms())
                    .map(|_| ())
                    .map_err(|d| format!("{} finding(s)", d.len()))
            });
        proof
            .err()
            .map(|e| (m.op, format!("{} seed {}: {e}", p.workload.name, m.seed)))
    });
    proofs.into_iter().flatten().collect()
}

pub fn run(args: &Args, started: Instant) -> Result<Outcome, String> {
    let failures = Mutex::new(Vec::new());
    let (programs, setups) = repeated_setup(
        SETUP_REPS,
        started,
        || prepare(&mut Trace::new(false)),
        drop,
    )?;
    let measured = window(&programs, args, &mut Trace::new(false), &failures);
    let mut outcome = Outcome::new(Trace::new(args.trace), TAIL_PCT);
    outcome.peak_rss_mb = measured.hwm_mib;
    outcome.setups = setups;
    outcome.window_s = measured.secs;
    let mut made = Vec::new();
    for (op, m) in measured.results {
        outcome.ops.push(op);
        made.extend(m);
    }
    let mut failures = failures.into_inner().expect("no panic holding it");

    let (unproved, prove_ms) = timed(|| prove(&programs, &made));
    for (op, msg) in unproved {
        outcome.ops[op].ok = false;
        failures.push(format!("variant not proved equivalent: {msg}"));
    }
    outcome.notes.push(format!(
        "check_images proved {} variants in {prove_ms:.0} ms on {} threads",
        made.len(),
        nproc()
    ));

    // Exact metrics over the first round: Table 2's survival, and
    // Figure 4's overhead from ref runs of the same variants.
    let first: Vec<&Made> = made.iter().filter(|m| m.op < EXACT_OPS).collect();
    let surv: usize = first.iter().map(|m| m.survivors).sum();
    let base: usize = first.iter().map(|m| m.baseline_gadgets).sum();
    outcome.gadget_survival_pct = 100.0 * surv as f64 / base.max(1) as f64;
    let mut base_cycles = Vec::new();
    for (p, &(name, status, instructions)) in programs.iter().zip(&GOLDEN) {
        let out = p
            .session
            .run(&p.baseline, &p.workload.reference, DEFAULT_GAS, "ref");
        if out.status() != Some(status) || out.stats.instructions != instructions {
            failures.push(format!(
                "{name}: baseline ref run gave {:?} after {} instructions, golden is {status} after {instructions}",
                out.exit, out.stats.instructions
            ));
        }
        base_cycles.push(out.stats.cycles);
    }
    let mut overheads = Vec::new();
    for m in &first {
        let p = &programs[m.program];
        let image = p
            .session
            .build_with(&BuildConfig::diversified(m.strategy, m.seed))
            .map_err(|e| e.to_string())?;
        let out = p
            .session
            .run(&image, &p.workload.reference, DEFAULT_GAS, "ref");
        if out.status() != Some(GOLDEN[m.program].1) {
            failures.push(format!(
                "{} seed {}: variant ref run gave {:?}",
                p.workload.name, m.seed, out.exit
            ));
        }
        overheads.push((out.stats.cycles as f64 / base_cycles[m.program] as f64 - 1.0) * 100.0);
    }
    outcome.variant_overhead_pct = geomean_pct(&overheads);
    outcome.notes.push(format!(
        "exact metrics over ops 0..{EXACT_OPS}: {surv} of {base} baseline gadgets survive in {} variants",
        first.len()
    ));

    if args.trace {
        // The same op sequence again on a fresh set-up, traced.
        drop(programs);
        let mut trace = Trace::new(true);
        let programs = prepare(&mut trace)?;
        replay_front(programs.iter().map(|p| &p.workload), &mut trace)?;
        let traced_failures = Mutex::new(Vec::new());
        let traced = window(&programs, args, &mut trace, &traced_failures);
        failures.extend(traced_failures.into_inner().expect("no panic holding it"));
        let ops: Vec<OpRecord> = traced.results.into_iter().map(|(op, _)| op).collect();
        let survivor_ms = trace.total("gadget.survivor_ms");
        let attributed = trace.total("core.build_ms") + survivor_ms;
        tracing_cost(
            &mut trace,
            outcome.ops_per_s(),
            &ops,
            traced.secs,
            attributed,
        );
        trace.set(
            "gadget.scan_mib_per_s",
            trace.total("gadget.scanned_bytes") / MIB / (survivor_ms / 1e3),
        );
        trace.set("core.text_growth_bytes", trace.mean("core.text_growth"));
        for o in ops.iter().filter(|o| !o.ok) {
            failures.push(format!("traced op {} failed", o.kind));
        }
        outcome.trace = trace;
    }
    for f in failures {
        outcome.fail(f);
    }
    Ok(outcome)
}
