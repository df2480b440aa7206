//! # pgsd-serve — the variant-distribution daemon
//!
//! A long-running server that hands out diversified variants over one
//! unified request/response API ([`pgsd_proto`]). This is the paper's
//! "App Store" deployment model: diversification runs centrally, every
//! client download gets a fresh seed from a ledgered sequence, and the
//! provenance ledger keeps each shipped variant symbolicatable.
//!
//! ## Architecture
//!
//! ```text
//! clients ──TCP──► acceptor ──► bounded queue ──► worker pool ──► Session
//!                     │  (full → typed Busy)          │            │
//!                     │                               │        pgsd-cache
//!               HTTP shim (/healthz, /metrics)    telemetry    + ledger
//! ```
//!
//! * One **acceptor** thread owns the listening socket. When the
//!   bounded queue is full it answers inline with a typed `busy`
//!   response instead of queueing — backpressure is always explicit,
//!   never a hang (health, metrics and shutdown requests are still
//!   served inline so probes keep working under load).
//! * **Workers** (one per [`ServeConfig::workers`]) pop connections and
//!   run the request against a shared per-target [`Session`], so the
//!   seed-independent pipeline prefix is compiled once and every
//!   subsequent seed only pays the diversifying suffix.
//! * Each variant build is recorded in the cache's **provenance
//!   ledger**; the response carries the `variant_id`, seed, transforms
//!   and ledger keys, and the image artifact follows in a binary frame.
//! * The same socket speaks an **HTTP/1.0 shim**: the first four bytes
//!   of a connection select framed (`"PGSD"`) or HTTP (`"GET "`)
//!   handling, so `curl http://…/healthz` and `/metrics` work with no
//!   extra port.
//! * **Graceful shutdown**: a signal ([`install_signal_handlers`]), a
//!   framed `shutdown` or [`ServerHandle::request_shutdown`] sets one
//!   flag and wakes the acceptor from its blocking `accept` with a
//!   self-connect; workers drain every already-queued connection, then
//!   all threads join ([`ServerHandle::join`]).

#![warn(missing_docs)]

pub mod client;

use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use pgsd_cache::{artifact::encode_image, fnv64, Cache};
use pgsd_core::driver::{BuildConfig, Input, DEFAULT_GAS};
use pgsd_core::{variant_id, Session, Strategy};
use pgsd_proto::frame::{read_frame_after_magic, FRAME_MAGIC};
use pgsd_proto::{
    write_frame, DiversifyRequest, ErrorCode, FrameKind, ProtoError, Request, Response, Target,
    VariantInfo,
};
use pgsd_telemetry::Telemetry;

/// How often the signal watcher checks for a delivered signal.
const SIGNAL_POLL: Duration = Duration::from_millis(10);

/// Per-connection socket timeout: a stalled or dead peer can hold a
/// worker for at most this long.
const IO_TIMEOUT: Duration = Duration::from_secs(10);

/// Most bytes a connection refused for its preamble discards while
/// waiting for the peer to close (see [`close_after_reply`]).
const DRAIN_CAP: u64 = 4096;

/// Server configuration. `Default` gives a development server: worker
/// count resolved like every other pgsd fan-out, a 32-connection queue,
/// seeds from 1, an in-memory cache, telemetry on.
pub struct ServeConfig {
    /// Worker threads; `None` resolves like every other pgsd fan-out
    /// (explicit > `PGSD_THREADS` > available parallelism).
    pub workers: Option<usize>,
    /// Bound on queued connections; beyond it clients get a typed
    /// `busy` response. `0` refuses all queued work (useful in tests).
    pub queue_capacity: usize,
    /// First server-assigned seed; each diversify request without a
    /// pinned seed consumes the next value.
    pub seed_start: u64,
    /// Artifact cache (and provenance ledger) behind every session.
    pub cache: Cache,
    /// Telemetry sink for `serve.*` counters, surfaced by `/metrics`.
    pub telemetry: Telemetry,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            workers: None,
            queue_capacity: 32,
            seed_start: 1,
            cache: Cache::in_memory(),
            telemetry: Telemetry::enabled(),
        }
    }
}

/// A target's shared session and its default training inputs.
type TargetSession = (Arc<Session>, Vec<Input>);

/// State shared by the acceptor, the workers, and the handle.
struct Shared {
    /// Set only by [`Shared::begin_shutdown`], under the `queue` lock.
    shutdown: AtomicBool,
    addr: SocketAddr,
    queue: Mutex<VecDeque<TcpStream>>,
    queue_wake: Condvar,
    capacity: usize,
    workers: usize,
    next_seed: AtomicU64,
    cache: Cache,
    tel: Telemetry,
    /// One session per target, keyed by workload name or source hash,
    /// so every request for the same program shares the memoized
    /// seed-independent pipeline prefix, next to its default train inputs.
    sessions: Mutex<HashMap<String, TargetSession>>,
}

impl Shared {
    /// Starts a graceful shutdown; later calls do nothing. Setting the
    /// flag under the queue lock means no worker can miss `notify_all`.
    /// The self-connect (via loopback on a wildcard bind) wakes the
    /// acceptor; the kernel completes it from the backlog, so the
    /// acceptor may call this itself.
    fn begin_shutdown(&self) {
        let queue = self.queue.lock().unwrap();
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        drop(queue);
        self.queue_wake.notify_all();
        let wake: SocketAddr = match self.addr {
            SocketAddr::V4(a) if a.ip().is_unspecified() => (Ipv4Addr::LOCALHOST, a.port()).into(),
            SocketAddr::V6(a) if a.ip().is_unspecified() => (Ipv6Addr::LOCALHOST, a.port()).into(),
            a => a,
        };
        let _ = TcpStream::connect_timeout(&wake, IO_TIMEOUT);
    }
}

/// A running server: its shared state plus the thread handles needed
/// to wait for a clean exit.
pub struct ServerHandle {
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The address the server actually bound (port resolved).
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Asks the server to stop: the acceptor closes, workers drain the
    /// queue, then exit. Safe to call more than once.
    pub fn request_shutdown(&self) {
        self.shared.begin_shutdown();
    }

    /// Blocks until every thread has exited (after a shutdown request
    /// this means the queue has fully drained).
    ///
    /// # Panics
    ///
    /// Propagates a panic from a server thread.
    pub fn join(self) {
        for t in self.threads {
            t.join().expect("server thread panicked");
        }
    }
}

/// Binds `addr` (e.g. `"127.0.0.1:0"`) and starts the daemon.
///
/// # Errors
///
/// I/O errors from binding the listener.
pub fn serve(addr: &str, config: ServeConfig) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let workers = pgsd_exec::resolve_threads(config.workers);
    let shared = Arc::new(Shared {
        shutdown: AtomicBool::new(false),
        addr: listener.local_addr()?,
        queue: Mutex::new(VecDeque::new()),
        queue_wake: Condvar::new(),
        capacity: config.queue_capacity,
        workers,
        next_seed: AtomicU64::new(config.seed_start),
        cache: config.cache,
        tel: config.telemetry,
        sessions: Mutex::new(HashMap::new()),
    });
    let mut threads = Vec::with_capacity(workers + 1);
    {
        let shared = Arc::clone(&shared);
        threads.push(
            std::thread::Builder::new()
                .name("pgsd-serve-accept".into())
                .spawn(move || acceptor_loop(&listener, &shared))?,
        );
    }
    for i in 0..workers {
        let shared = Arc::clone(&shared);
        threads.push(
            std::thread::Builder::new()
                .name(format!("pgsd-serve-worker-{i}"))
                .spawn(move || worker_loop(&shared))?,
        );
    }
    Ok(ServerHandle { shared, threads })
}

/// Installs `SIGINT`/`SIGTERM` handlers that request shutdown, so a
/// daemon started from the CLI drains gracefully on Ctrl-C or `kill`.
///
/// Uses the libc `signal(2)` entry point directly (the build carries no
/// signal-handling dependency); the handler only stores to a static
/// atomic, which is async-signal-safe. A watcher thread polls it every
/// 10 ms and turns it into a shutdown request. Only the first
/// installation arms the handlers — fine for the one-daemon CLI.
pub fn install_signal_handlers(handle: &ServerHandle) {
    static FLAG: AtomicBool = AtomicBool::new(false);
    static INSTALLED: AtomicBool = AtomicBool::new(false);

    extern "C" fn on_signal(_sig: i32) {
        FLAG.store(true, Ordering::SeqCst);
    }

    if !INSTALLED.swap(true, Ordering::SeqCst) {
        #[cfg(unix)]
        unsafe {
            extern "C" {
                fn signal(signum: i32, handler: usize) -> usize;
            }
            const SIGINT: i32 = 2;
            const SIGTERM: i32 = 15;
            signal(SIGINT, on_signal as *const () as usize);
            signal(SIGTERM, on_signal as *const () as usize);
        }
    }
    let shared = Arc::clone(&handle.shared);
    std::thread::Builder::new()
        .name("pgsd-serve-signal".into())
        .spawn(move || loop {
            if FLAG.load(Ordering::SeqCst) {
                shared.begin_shutdown();
                return;
            }
            if shared.shutdown.load(Ordering::SeqCst) {
                return;
            }
            std::thread::sleep(SIGNAL_POLL);
        })
        .expect("spawn signal watcher");
}

fn acceptor_loop(listener: &TcpListener, shared: &Shared) {
    loop {
        // An error is about one connection (say, reset before it was
        // accepted) or a transient fd shortage that clears as queued
        // connections close; either way the next `accept` may succeed.
        let Ok((stream, _)) = listener.accept() else {
            continue;
        };
        let _ = stream.set_read_timeout(Some(IO_TIMEOUT));
        let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
        let mut q = shared.queue.lock().unwrap();
        if shared.shutdown.load(Ordering::SeqCst) {
            // Drop the wake connection (or a client racing it) unserved,
            // and the listener with it: new connects are refused.
            return;
        }
        if q.len() >= shared.capacity {
            drop(q);
            shared.tel.add("serve.busy", 1);
            // Inline handling: probes and the shutdown escape hatch
            // still work; diversify work gets `busy`.
            handle_conn(stream, shared, true);
        } else {
            q.push_back(stream);
            drop(q);
            shared.queue_wake.notify_one();
        }
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let stream = {
            let mut q = shared.queue.lock().unwrap();
            loop {
                if let Some(c) = q.pop_front() {
                    break c;
                }
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                q = shared.queue_wake.wait(q).unwrap();
            }
        };
        handle_conn(stream, shared, false);
    }
}

/// One connection, framed or HTTP. With `busy` set (queue overflow),
/// diversify requests are refused with a typed `busy` response.
fn handle_conn(mut stream: TcpStream, shared: &Shared, busy: bool) {
    let mut first = [0u8; 4];
    if stream.read_exact(&mut first).is_err() {
        return; // peer went away before saying anything
    }
    if first == FRAME_MAGIC {
        handle_framed(stream, shared, busy);
    } else if first == *b"GET " {
        handle_http(stream, shared);
    } else {
        // Neither protocol: answer with a framed error so the peer at
        // least gets diagnosable bytes, then hang up.
        let resp = Response::Error {
            code: ErrorCode::BadRequest,
            message: format!("unrecognized protocol preamble {first:02x?}"),
        };
        let _ = write_frame(&mut stream, FrameKind::Json, resp.to_json().as_bytes());
        close_after_reply(&stream);
    }
}

/// Hangs up without losing the reply already written: closing a socket
/// with unread peer bytes queued makes the kernel send a reset, which
/// can reach the peer before the reply does. So shut down the write
/// side, then discard what the peer still sends — at most [`DRAIN_CAP`]
/// bytes, each read bounded by [`IO_TIMEOUT`] — until it closes.
fn close_after_reply(stream: &TcpStream) {
    let _ = stream.shutdown(Shutdown::Write);
    let _ = std::io::copy(&mut stream.take(DRAIN_CAP), &mut std::io::sink());
}

fn handle_framed(mut stream: TcpStream, shared: &Shared, busy: bool) {
    let frame = match read_frame_after_magic(&mut stream, FRAME_MAGIC) {
        Ok(f) => f,
        Err(e) => {
            let err = ProtoError::bad_request(e.to_string());
            respond(&mut stream, &error_response(err), None);
            return;
        }
    };
    let text = match frame.kind {
        FrameKind::Json => String::from_utf8(frame.payload).unwrap_or_default(),
        FrameKind::Bin => {
            let err = ProtoError::bad_request("expected a JSON request frame");
            respond(&mut stream, &error_response(err), None);
            return;
        }
    };
    let request = match Request::from_json(&text) {
        Ok(r) => r,
        Err(e) => {
            respond(&mut stream, &error_response(e), None);
            return;
        }
    };
    let kind = match &request {
        Request::Diversify(_) => "diversify",
        Request::Health => "health",
        Request::Metrics => "metrics",
        Request::Shutdown => "shutdown",
    };
    shared
        .tel
        .add_labeled("serve.requests", &[("kind", kind)], 1);
    match request {
        Request::Health => respond(&mut stream, &health_response(shared), None),
        Request::Metrics => {
            let metrics_json = shared.tel.metrics_json();
            respond(&mut stream, &Response::Metrics { metrics_json }, None);
        }
        Request::Shutdown => {
            shared.begin_shutdown();
            respond(&mut stream, &Response::Ok, None);
        }
        Request::Diversify(_) if busy => {
            let depth = shared.queue.lock().unwrap().len() as u64;
            let resp = Response::Busy {
                queue_depth: depth.max(shared.capacity as u64),
                capacity: shared.capacity as u64,
            };
            respond(&mut stream, &resp, None);
        }
        Request::Diversify(req) => match build_variant(shared, &req) {
            Ok((info, payload)) => {
                shared.tel.add("serve.variants_served", 1);
                shared.tel.add("serve.bytes_served", payload.len() as u64);
                respond(&mut stream, &Response::Variant(info), Some(&payload));
            }
            Err(e) => {
                shared.tel.add("serve.errors", 1);
                respond(&mut stream, &error_response(e), None);
            }
        },
    }
}

fn error_response(e: ProtoError) -> Response {
    Response::Error {
        code: e.code,
        message: e.message,
    }
}

fn health_response(shared: &Shared) -> Response {
    Response::Health {
        queue_depth: shared.queue.lock().unwrap().len() as u64,
        workers: shared.workers as u64,
    }
}

/// Writes the JSON response frame, plus the binary image frame when a
/// variant shipped. Write failures mean the peer is gone; nothing to do.
fn respond(stream: &mut TcpStream, resp: &Response, payload: Option<&[u8]>) {
    if write_frame(stream, FrameKind::Json, resp.to_json().as_bytes()).is_err() {
        return;
    }
    if let Some(bytes) = payload {
        let _ = write_frame(stream, FrameKind::Bin, bytes);
    }
}

/// The session for `target`, shared across requests so the
/// seed-independent prefix is compiled once per program, plus the
/// default training inputs (workloads bring their own `train` set);
/// only the first request for a target generates its source.
fn session_for(shared: &Shared, target: &Target) -> Result<TargetSession, ProtoError> {
    let key = match target {
        Target::Workload(w) => format!("workload:{w}"),
        Target::Source { text, .. } => format!("src:{:016x}", fnv64(text.as_bytes())),
    };
    let mut sessions = shared.sessions.lock().unwrap();
    if let Some((session, train)) = sessions.get(&key) {
        return Ok((Arc::clone(session), train.clone()));
    }
    let (name, source, train) = match target {
        Target::Workload(w) => match pgsd_workloads::by_name(w) {
            Some(workload) => (workload.name.to_owned(), workload.source, workload.train),
            None => {
                let message = format!("unknown workload `{w}`");
                return Err(ProtoError::new(ErrorCode::UnknownWorkload, message));
            }
        },
        Target::Source { name, text } => (name.clone(), text.clone(), Vec::new()),
    };
    let session = Arc::new(
        Session::from_source(&name, &source)
            .cache(shared.cache.clone())
            .telemetry(shared.tel.clone())
            .threads(1) // each request is one worker; don't nest fan-outs
            .ledger(true),
    );
    sessions.insert(key, (Arc::clone(&session), train.clone()));
    Ok((session, train))
}

/// Builds one variant: resolve the session, pick the seed (pinned or
/// next in the ledgered sequence), train when the strategy needs a
/// profile, build, encode, and collect the ledger provenance.
fn build_variant(
    shared: &Shared,
    req: &DiversifyRequest,
) -> Result<(VariantInfo, Vec<u8>), ProtoError> {
    let strategy = match &req.pnop {
        Some(spec) => Strategy::parse(spec).map_err(ProtoError::bad_request)?,
        None => Strategy::default(),
    };
    let (session, default_train) = session_for(shared, &req.target)?;
    let (seed, pinned) = match req.seed {
        Some(s) => (s, true),
        None => (shared.next_seed.fetch_add(1, Ordering::SeqCst), false),
    };
    let config = BuildConfig::requested(
        strategy,
        seed,
        req.shift,
        req.subst,
        req.regrand,
        req.validate,
    )
    .with_telemetry(shared.tel.clone());
    if config.needs_training() {
        let inputs = match &req.train {
            Some(args) => vec![Input::args(args)],
            None if !default_train.is_empty() => default_train,
            None => {
                return Err(ProtoError::bad_request(
                    "profile-guided strategy on a source target needs `train` inputs",
                ))
            }
        };
        session.train(&inputs, DEFAULT_GAS).map_err(|e| {
            ProtoError::new(ErrorCode::BuildFailed, format!("training failed: {e}"))
        })?;
    }
    let image = session
        .build_with(&config)
        .map_err(|e| ProtoError::new(ErrorCode::BuildFailed, e.to_string()))?;
    let vid = variant_id(&image);
    let payload = encode_image(&image);
    let record = shared.cache.ledger_get(&vid);
    let info = VariantInfo {
        variant_id: vid,
        seed,
        seed_pinned: pinned,
        transforms: record
            .as_ref()
            .map_or_else(|| "<unledgered>".to_owned(), |r| r.transforms.clone()),
        strategy: strategy.to_string(),
        text_bytes: image.text.len() as u64,
        payload_bytes: payload.len() as u64,
        module_key: record
            .as_ref()
            .map(|r| r.module_key.clone())
            .unwrap_or_default(),
        config_key: record
            .as_ref()
            .map(|r| r.config.clone())
            .unwrap_or_default(),
        addr_map_bytes: record.as_ref().map_or(0, |r| r.addr_map.len() as u64),
    };
    Ok((info, payload))
}

/// The HTTP/1.0 shim: `GET /healthz` and `GET /metrics`, JSON bodies,
/// `Connection: close`. Anything else is a 404.
fn handle_http(stream: TcpStream, shared: &Shared) {
    let mut reader = BufReader::new(stream);
    // The dispatcher consumed `GET `; the rest of the request line
    // holds the path. Headers (if any) are irrelevant to the shim.
    let mut line = String::new();
    if reader.read_line(&mut line).is_err() {
        return;
    }
    let path = line.split_whitespace().next().unwrap_or("");
    let (status, body) = match path {
        "/healthz" => ("200 OK", health_response(shared).to_json()),
        "/metrics" => ("200 OK", shared.tel.metrics_json()),
        _ => {
            let err = ProtoError::bad_request(format!("no route for `{path}`"));
            ("404 Not Found", error_response(err).to_json())
        }
    };
    let kind = if status.starts_with("200") {
        "http"
    } else {
        "http_404"
    };
    shared
        .tel
        .add_labeled("serve.requests", &[("kind", kind)], 1);
    let mut stream = reader.into_inner();
    let _ = write!(
        stream,
        "HTTP/1.0 {status}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    let _ = stream.flush();
}
