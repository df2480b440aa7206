//! `serve` and `serve-ledgered`: the App Store. An in-process daemon
//! with `ServeConfig::default()` except `workers = nproc`, and `nproc`
//! closed-loop clients; each fetch is one connection, as `client::fetch`
//! makes it. `serve-ledgered` runs the daemon on a fresh cache directory
//! (as `pgsd serve --cache-dir` does) and makes every third fetch a
//! re-download of a variant this client was already served.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use pgsd_analysis::check_images_mapped;
use pgsd_cache::artifact::{decode_image, encode_image};
use pgsd_cache::{fnv64, Cache};
use pgsd_cc::emit::Image;
use pgsd_core::driver::{BuildConfig, DEFAULT_GAS};
use pgsd_core::{Session, Strategy};
use pgsd_gadget::{survivor, ScanConfig};
use pgsd_proto::{read_frame, write_frame, DiversifyRequest, FrameKind, Request, Response, Target};
use pgsd_serve::{client, serve, ServeConfig, ServerHandle};
use pgsd_telemetry::{MetricsDoc, Telemetry};
use pgsd_workloads::Workload;
use pgsd_x86::nop::NopTable;

use crate::report::{
    derive_seed, geomean_pct, nproc, proc_status_mib, repeated_setup, timed, tracing_cost,
    OpRecord, Outcome, Window,
};
use crate::trace::{counter_metrics, Trace, MIB};
use crate::Args;

/// The two programs served, with exit status and ref instruction count
/// copied by hand from the workloads crate's golden snapshot test.
const GOLDEN: [(&str, i32, u64); 2] = [
    ("470.lbm", 3_580, 25_003_178),
    ("401.bzip2", 2_045_999, 41_033_650),
];
/// The paper's headline config, as clients spell it on the wire.
const PNOP: &str = "0.0-0.3";
/// Set-up repetitions; their median is `setup_s`. Set-up is short here,
/// so more of them steady the median.
const SETUP_REPS: usize = 5;
/// Parent of the ledgered daemon's cache directories, relative to the
/// working directory.
const TMP_DIR: &str = ".perfbench-tmp";
/// Variants with fixed seeds `0..EXACT_VARIANTS` (programs alternating)
/// give the exact `gadget_survival_pct`; the first of each program also
/// gives `variant_overhead_pct`. The daemon serves the same bytes as the
/// offline build, which every fetch of the window checks.
const EXACT_VARIANTS: u64 = 8;

struct Program {
    workload: Workload,
    /// Offline session (its own in-memory cache): the reference builds.
    session: Session,
    baseline: Image,
}

struct Daemon {
    handle: ServerHandle,
    addr: String,
    cache: Cache,
    tel: Telemetry,
    dir: Option<PathBuf>,
    programs: Vec<Program>,
    rss_after_warmup: f64,
}

/// Shuts the daemon down, waits for its threads and removes its cache
/// directory.
fn stop(d: Daemon) {
    if client::shutdown(&d.addr).is_err() {
        d.handle.request_shutdown();
    }
    d.handle.join();
    if let Some(dir) = &d.dir {
        let _ = std::fs::remove_dir_all(dir);
        // Only succeeds once no other run's directory is left in it.
        let _ = std::fs::remove_dir(TMP_DIR);
    }
}

/// One fetch of the op sequence.
#[derive(Clone, Copy)]
struct Fetch {
    program: usize,
    seed: u64,
    redownload: bool,
}

/// Op `j` of client `c`. Plain serve: every fetch fresh, programs
/// alternating. Ledgered: of every three ops, two are fresh and the
/// third re-downloads one of the client's earlier fresh variants, chosen
/// from the seed. (A 1:1 mix would put the median between the fresh and
/// re-download latency clusters.)
fn fetch_of(seed: u64, ledgered: bool, c: usize, j: usize) -> Fetch {
    let fresh = |k: usize| Fetch {
        program: (c + k) % GOLDEN.len(),
        seed: derive_seed(seed, 3, ((c as u64) << 32) | k as u64),
        redownload: false,
    };
    if !ledgered {
        return fresh(j);
    }
    let (group, pos) = (j / 3, j % 3);
    if pos < 2 {
        return fresh(2 * group + pos);
    }
    let pick = derive_seed(seed, 4, ((c as u64) << 32) | j as u64) % (2 * group as u64 + 2);
    Fetch {
        redownload: true,
        ..fresh(pick as usize)
    }
}

/// Minimum ops per window and the tail percentile: at the minimum, at
/// least 20 samples lie beyond the tail (100 for plain serve, whose p95,
/// p98 and p99 swung by up to half between runs of the same code as the
/// shared host's speed changed).
fn shape(ledgered: bool) -> (usize, f64) {
    if ledgered {
        (200, 90.0)
    } else {
        (1000, 90.0)
    }
}

fn request(f: Fetch) -> DiversifyRequest {
    DiversifyRequest {
        pnop: Some(PNOP.into()),
        seed: Some(f.seed),
        ..DiversifyRequest::new(Target::Workload(GOLDEN[f.program].0.into()))
    }
}

fn config(seed: u64) -> BuildConfig {
    BuildConfig::diversified(Strategy::range(0.0, 0.3), seed)
}

/// Starts the daemon (on a fresh cache directory when ledgered),
/// prepares the offline reference sessions, and warms the daemon with
/// one fetch per program so it has compiled and trained both.
fn start(ledgered: bool, tag: &str, seed: u64) -> Result<Daemon, String> {
    let (cache, dir) = if ledgered {
        let dir = Path::new(TMP_DIR).join(format!("{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let cache = Cache::persistent(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        (cache, Some(dir))
    } else {
        (Cache::in_memory(), None)
    };
    let tel = Telemetry::enabled();
    let handle = serve(
        "127.0.0.1:0",
        ServeConfig {
            workers: Some(nproc()),
            cache: cache.clone(),
            telemetry: tel.clone(),
            ..ServeConfig::default()
        },
    )
    .map_err(|e| format!("cannot start daemon: {e}"))?;
    let addr = handle.addr().to_string();
    let mut programs = Vec::new();
    for &(name, _, _) in &GOLDEN {
        let workload = pgsd_workloads::by_name(name).ok_or(format!("no workload {name}"))?;
        let session = Session::from_source(name, &workload.source).threads(1);
        session
            .train(&workload.train, DEFAULT_GAS)
            .map_err(|e| format!("{name}: {e}"))?;
        let baseline = session
            .build_with(&BuildConfig::baseline())
            .map_err(|e| format!("{name}: {e}"))?;
        programs.push(Program {
            workload,
            session,
            baseline,
        });
    }
    for p in 0..GOLDEN.len() {
        let f = Fetch {
            program: p,
            seed: derive_seed(seed, 5, p as u64),
            redownload: false,
        };
        client::fetch(&addr, &request(f)).map_err(|e| format!("warm-up fetch: {e}"))?;
    }
    Ok(Daemon {
        handle,
        addr,
        cache,
        tel,
        dir,
        programs,
        rss_after_warmup: proc_status_mib("VmRSS:"),
    })
}

/// A completed fetch: the op, what was asked, and the served payload's
/// length and 64-bit FNV-1a digest (kept instead of the bytes, so the
/// benchmark's own memory does not grow with the op count).
struct Fetched {
    op: OpRecord,
    fetch: Fetch,
    payload: Option<(usize, u64)>,
}

/// `nproc` closed-loop clients until `seconds` pass and at least
/// `min_ops` ops are done. Returns every fetch in a [`Window`], and (with
/// `stat_ledger`) the summed `ledger.json` sizes stat'd after each fresh
/// fetch.
fn window(d: &Daemon, args: &Args, ledgered: bool, stat_ledger: bool) -> (Window<Fetched>, u64) {
    let clients = nproc();
    let (min_ops, _) = shape(ledgered);
    let per_client_min = min_ops.div_ceil(clients);
    let (done, hwm) = (&AtomicUsize::new(0), &Mutex::new(0.0));
    let started = Instant::now();
    let results: Vec<(Vec<Fetched>, u64)> = std::thread::scope(|scope| {
        let joins: Vec<_> = (0..clients)
            .map(|c| {
                scope.spawn(move || {
                    let mut out = Vec::new();
                    let mut ledger_bytes = 0u64;
                    let mut j = 0;
                    while j < per_client_min || started.elapsed().as_secs_f64() < args.seconds {
                        let fetch = fetch_of(args.seed, ledgered, c, j);
                        let (got, ms) = timed(|| client::fetch(&d.addr, &request(fetch)));
                        if done.fetch_add(1, Ordering::SeqCst) + 1 == min_ops {
                            *hwm.lock().expect("no client panics holding it") =
                                proc_status_mib("VmHWM:");
                        }
                        if let Err(e) = &got {
                            eprintln!("perfbench: client {c} op {j}: {e}");
                        }
                        if stat_ledger && !fetch.redownload {
                            if let Some(dir) = &d.dir {
                                ledger_bytes += std::fs::metadata(dir.join("ledger.json"))
                                    .map_or(0, |m| m.len());
                            }
                        }
                        out.push(Fetched {
                            op: OpRecord {
                                program: GOLDEN[fetch.program].0,
                                kind: if fetch.redownload {
                                    "re-download"
                                } else {
                                    "fresh"
                                },
                                ms,
                                ok: got.is_ok(),
                            },
                            fetch,
                            payload: got.ok().map(|f| (f.payload.len(), fnv64(&f.payload))),
                        });
                        j += 1;
                    }
                    (out, ledger_bytes)
                })
            })
            .collect();
        joins
            .into_iter()
            .map(|j| j.join().expect("client thread panicked"))
            .collect()
    });
    let secs = started.elapsed().as_secs_f64();
    let ledger_bytes = results.iter().map(|r| r.1).sum();
    let window = Window {
        results: results.into_iter().flat_map(|r| r.0).collect(),
        secs,
        hwm_mib: *hwm.lock().expect("no client panics holding it"),
    };
    (window, ledger_bytes)
}

/// Rebuilds every fetched variant offline (`Session::build_with` +
/// `encode_image`) and compares the served payload with it. Traced, it
/// also replays the served request's stages — build, ledger address map,
/// encode + frame, frame + decode — and times each.
fn check(d: &Daemon, fetched: &mut [Fetched], trace: &mut Trace, failures: &mut Vec<String>) {
    for f in fetched.iter_mut() {
        let Some((len, digest)) = f.payload else {
            continue;
        };
        let p = &d.programs[f.fetch.program];
        let seed = f.fetch.seed;
        let cfg = config(seed);
        let image = match trace.time("core.build_ms", || p.session.build_with(&cfg)) {
            Ok(image) => image,
            Err(e) => {
                failures.push(format!(
                    "{} seed {seed}: offline build: {e}",
                    p.workload.name
                ));
                f.op.ok = false;
                continue;
            }
        };
        let encoded = if trace.enabled() {
            trace.sample("serve.fetch_ms", f.op.ms);
            trace.sample("proto.payload_bytes", len as f64);
            trace.sample(
                "core.text_growth",
                image.text.len() as f64 - p.baseline.text.len() as f64,
            );
            let mapped = trace.time("analysis.addrmap_ms", || {
                check_images_mapped(&p.baseline, &image, &cfg.transforms())
            });
            if mapped.is_err() {
                failures.push(format!("{} seed {seed}: no address map", p.workload.name));
            }
            let mut framed = Vec::new();
            trace
                .time("proto.encode_ms", || {
                    write_frame(&mut framed, FrameKind::Bin, &encode_image(&image))
                })
                .expect("writing to memory cannot fail");
            let decoded = trace.time("proto.decode_ms", || {
                let frame = read_frame(&mut framed.as_slice()).map_err(|e| e.to_string())?;
                decode_image(&frame.payload).map(|img| (frame.payload, img))
            });
            match decoded {
                Ok((bytes, img)) if img == image => bytes,
                _ => {
                    failures.push(format!(
                        "{} seed {seed}: encode/decode round trip changed the image",
                        p.workload.name
                    ));
                    Vec::new()
                }
            }
        } else {
            encode_image(&image)
        };
        if encoded.len() != len || fnv64(&encoded) != digest {
            failures.push(format!(
                "{} seed {seed}: served payload ({len} bytes) differs from the offline build ({} bytes)",
                p.workload.name,
                encoded.len()
            ));
            f.op.ok = false;
        }
    }
}

/// The daemon's counters, as `/metrics` serves them.
fn counters(addr: &str) -> Result<MetricsDoc, String> {
    match client::request(addr, &Request::Metrics).map_err(|e| e.to_string())? {
        (Response::Metrics { metrics_json }, _) => {
            MetricsDoc::from_json(&metrics_json).map_err(|e| e.to_string())
        }
        (other, _) => Err(format!("unexpected metrics response {}", other.to_json())),
    }
}

/// Survival over the fixed-seed variants, and overhead of the first
/// variant of each program on its ref input.
fn exact_metrics(
    d: &Daemon,
    outcome: &mut Outcome,
    failures: &mut Vec<String>,
) -> Result<(), String> {
    let (mut surv, mut base) = (0usize, 0usize);
    let mut overheads = Vec::new();
    for seed in 0..EXACT_VARIANTS {
        let pi = seed as usize % GOLDEN.len();
        let p = &d.programs[pi];
        let image = p
            .session
            .build_with(&config(seed))
            .map_err(|e| e.to_string())?;
        let rep = survivor(
            &p.baseline.text,
            &image.text,
            &NopTable::new(),
            &ScanConfig::default(),
        );
        surv += rep.count();
        base += rep.baseline;
        if seed < GOLDEN.len() as u64 {
            let (name, status, instructions) = GOLDEN[pi];
            let reference = &p.workload.reference;
            let b = p.session.run(&p.baseline, reference, DEFAULT_GAS, "ref");
            if b.status() != Some(status) || b.stats.instructions != instructions {
                failures.push(format!(
                    "{name}: baseline ref run drifted from the golden table"
                ));
            }
            let v = p.session.run(&image, reference, DEFAULT_GAS, "ref");
            if v.status() != Some(status) {
                failures.push(format!(
                    "{name} seed {seed}: variant ref run gave {:?}",
                    v.exit
                ));
            }
            overheads.push((v.stats.cycles as f64 / b.stats.cycles as f64 - 1.0) * 100.0);
        }
    }
    outcome.gadget_survival_pct = 100.0 * surv as f64 / base.max(1) as f64;
    outcome.variant_overhead_pct = geomean_pct(&overheads);
    outcome.notes.push(format!(
        "exact metrics: {surv} of {base} baseline gadgets survive in {EXACT_VARIANTS} variants"
    ));
    Ok(())
}

pub fn run(args: &Args, started: Instant, ledgered: bool) -> Result<Outcome, String> {
    let mut rep = 0;
    let (d, setups) = repeated_setup(
        SETUP_REPS,
        started,
        || {
            rep += 1;
            start(ledgered, &format!("setup{rep}"), args.seed)
        },
        stop,
    )?;
    let mut failures = Vec::new();
    let (mut measured, _) = window(&d, args, ledgered, false);
    let mut outcome = Outcome::new(Trace::new(args.trace), shape(ledgered).1);
    outcome.peak_rss_mb = measured.hwm_mib;
    outcome.setups = setups;
    outcome.window_s = measured.secs;
    check(
        &d,
        &mut measured.results,
        &mut Trace::new(false),
        &mut failures,
    );
    outcome.ops = measured.results.into_iter().map(|f| f.op).collect();
    exact_metrics(&d, &mut outcome, &mut failures)?;
    outcome
        .notes
        .push(format!("clients={0} workers={0}", nproc()));
    stop(d);

    if args.trace {
        // The same op sequence again on a fresh daemon, traced.
        let mut trace = Trace::new(true);
        let d = start(ledgered, "traced", args.seed)?;
        let (mut traced, ledger_bytes) = window(&d, args, ledgered, true);
        trace.set(
            "serve.rss_growth_mb",
            proc_status_mib("VmRSS:") - d.rss_after_warmup,
        );
        let doc = counters(&d.addr)?;
        trace.set("telemetry.spans_retained", d.tel.spans().len() as f64);
        counter_metrics(&mut trace, &doc.counters, &d.cache.stats());
        trace.set("cache.ledger_write_mb", ledger_bytes as f64 / MIB);
        check(&d, &mut traced.results, &mut trace, &mut failures);
        stop(d);
        let stages = [
            "core.build_ms",
            "analysis.addrmap_ms",
            "proto.encode_ms",
            "proto.decode_ms",
        ];
        let replayed: f64 = stages.iter().map(|name| trace.total(name)).sum();
        let replayed_per_fetch: f64 = stages.iter().map(|name| trace.mean(name)).sum();
        let ops: Vec<OpRecord> = traced.results.into_iter().map(|f| f.op).collect();
        for o in ops.iter().filter(|o| !o.ok) {
            failures.push(format!("traced fetch of {} failed", o.program));
        }
        tracing_cost(&mut trace, outcome.ops_per_s(), &ops, traced.secs, replayed);
        trace.set(
            "serve.residual_ms",
            trace.mean("serve.fetch_ms") - replayed_per_fetch,
        );
        trace.set(
            "proto.payload_kb",
            trace.mean("proto.payload_bytes") / 1024.0,
        );
        trace.set("core.text_growth_bytes", trace.mean("core.text_growth"));
        outcome.trace = trace;
    }
    for f in failures {
        outcome.fail(f);
    }
    Ok(outcome)
}
