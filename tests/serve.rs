//! The variant-distribution daemon end to end: golden protocol
//! round-trips, malformed/truncated-frame rejection with typed errors,
//! byte-identity of served artifacts against offline `Session` builds
//! under concurrent load, typed `busy` backpressure, graceful drain,
//! shutdown of an acceptor blocked in `accept`, the HTTP shim, and the
//! `pgsd serve`/`pgsd fetch` CLI pair with its `--json` envelope purity.

use std::io::{BufRead, BufReader, Cursor, Read, Write};
use std::net::TcpStream;
use std::process::{Command, Output, Stdio};
use std::sync::mpsc;
use std::thread;
use std::time::Duration;

use pgsd::cache::artifact::encode_image;
use pgsd::core::driver::BuildConfig;
use pgsd::core::{Session, Strategy};
use pgsd::proto::frame::read_frame;
use pgsd::proto::{
    write_frame, DiversifyRequest, ErrorCode, FrameError, FrameKind, Request, Response, Target,
    FRAME_MAGIC,
};
use pgsd::serve::client::{self, ClientError};
use pgsd::serve::{serve, ServeConfig, ServerHandle};
use pgsd::telemetry::Telemetry;

const SRC: &str = "int main(int n) {
    int s = 0;
    int i = 0;
    while (i < n) { s += i * i; i += 1; }
    return s;
}";

fn source_request(seed: Option<u64>) -> DiversifyRequest {
    DiversifyRequest {
        pnop: Some("0.5".into()),
        seed,
        ..DiversifyRequest::new(Target::Source {
            name: "serve-test.mc".into(),
            text: SRC.into(),
        })
    }
}

fn start_server(queue_capacity: usize) -> pgsd::serve::ServerHandle {
    serve(
        "127.0.0.1:0",
        ServeConfig {
            queue_capacity,
            telemetry: Telemetry::enabled(),
            ..ServeConfig::default()
        },
    )
    .expect("daemon binds an ephemeral port")
}

#[test]
fn request_documents_match_their_golden_bytes() {
    let req = Request::Diversify(DiversifyRequest {
        target: Target::Workload("470.lbm".into()),
        pnop: Some("0.0-0.3".into()),
        seed: Some(7),
        shift: true,
        subst: false,
        regrand: false,
        train: Some(vec![10]),
        validate: false,
    });
    assert_eq!(
        req.to_json(),
        "{\"schema_version\":1,\"kind\":\"diversify\",\
         \"target\":{\"workload\":\"470.lbm\"},\"pnop\":\"0.0-0.3\",\"seed\":7,\
         \"shift\":true,\"subst\":false,\"regrand\":false,\"train\":[10],\
         \"validate\":false}"
    );
    assert_eq!(Request::from_json(&req.to_json()).unwrap(), req);
    assert_eq!(
        Request::Health.to_json(),
        "{\"schema_version\":1,\"kind\":\"health\"}"
    );
    let busy = Response::Busy {
        queue_depth: 3,
        capacity: 2,
    };
    assert_eq!(
        busy.to_json(),
        "{\"schema_version\":1,\"tool\":\"pgsd-serve\",\"verdict\":\"busy\",\
         \"queue_depth\":3,\"capacity\":2}"
    );
    assert_eq!(Response::from_json(&busy.to_json()).unwrap(), busy);
}

#[test]
fn truncated_and_malformed_frames_are_typed_errors() {
    // Truncated payload: header promises 100 bytes, stream has 3.
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&FRAME_MAGIC);
    bytes.push(1); // Json
    bytes.extend_from_slice(&100u32.to_be_bytes());
    bytes.extend_from_slice(b"abc");
    match read_frame(&mut Cursor::new(bytes)) {
        Err(FrameError::Truncated { expected, got }) => {
            assert_eq!((expected, got), (100, 3));
        }
        other => panic!("expected Truncated, got {other:?}"),
    }
    // Bad magic.
    assert!(matches!(
        read_frame(&mut Cursor::new(b"XXXX\x01\x00\x00\x00\x00".to_vec())),
        Err(FrameError::BadMagic(_))
    ));
}

#[test]
fn server_rejects_malformed_requests_with_typed_errors() {
    let handle = start_server(32);
    let addr = handle.addr().to_string();

    // A frame whose payload is not JSON.
    let mut stream = TcpStream::connect(&addr).unwrap();
    write_frame(&mut stream, FrameKind::Json, b"not json at all").unwrap();
    let frame = read_frame(&mut stream).unwrap();
    match Response::from_json(std::str::from_utf8(&frame.payload).unwrap()).unwrap() {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::BadRequest),
        other => panic!("expected error response, got {other:?}"),
    }
    drop(stream);

    // Bytes that are neither the frame magic nor HTTP.
    let mut stream = TcpStream::connect(&addr).unwrap();
    stream.write_all(b"JUNKJUNKJUNK").unwrap();
    let frame = read_frame(&mut stream).unwrap();
    match Response::from_json(std::str::from_utf8(&frame.payload).unwrap()).unwrap() {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::BadRequest),
        other => panic!("expected error response, got {other:?}"),
    }
    drop(stream);

    // An unknown workload is its own code.
    let err = client::fetch(
        &addr,
        &DiversifyRequest::new(Target::Workload("999.nope".into())),
    )
    .unwrap_err();
    match err {
        ClientError::Proto(p) => assert_eq!(p.code, ErrorCode::UnknownWorkload),
        other => panic!("expected typed proto error, got {other}"),
    }

    handle.request_shutdown();
    handle.join();
}

#[test]
fn eight_concurrent_clients_get_byte_identical_pinned_seed_variants() {
    // The offline truth: the exact artifact Session::build_with +
    // encode_image produce for this (strategy, seed).
    let offline = Session::from_source("serve-test.mc", SRC);
    let expected = encode_image(
        &offline
            .build_with(&BuildConfig::diversified(Strategy::uniform(0.5), 42))
            .unwrap(),
    );

    let handle = start_server(32);
    let addr = handle.addr().to_string();
    let payloads: Vec<Vec<u8>> = thread::scope(|scope| {
        let joins: Vec<_> = (0..8)
            .map(|_| {
                let addr = &addr;
                scope.spawn(move || {
                    let fetched = client::fetch(addr, &source_request(Some(42))).unwrap();
                    assert!(fetched.info.seed_pinned);
                    assert_eq!(fetched.info.seed, 42);
                    fetched.payload
                })
            })
            .collect();
        joins.into_iter().map(|j| j.join().unwrap()).collect()
    });
    for payload in &payloads {
        assert_eq!(
            payload, &expected,
            "served artifact deviates from the offline build"
        );
    }

    // Unpinned requests consume the server's seed sequence instead.
    let a = client::fetch(&addr, &source_request(None)).unwrap();
    let b = client::fetch(&addr, &source_request(None)).unwrap();
    assert!(!a.info.seed_pinned);
    assert_ne!(a.info.seed, b.info.seed);

    handle.request_shutdown();
    handle.join();
}

#[test]
fn zero_capacity_queue_answers_busy_but_probes_still_work() {
    let handle = start_server(0);
    let addr = handle.addr().to_string();
    match client::fetch(&addr, &source_request(Some(1))).unwrap_err() {
        ClientError::Busy { capacity, .. } => assert_eq!(capacity, 0),
        other => panic!("expected busy, got {other}"),
    }
    // Health and shutdown still answer on the overflow path.
    let (queue_depth, workers) = client::health(&addr).unwrap();
    assert_eq!(queue_depth, 0);
    assert!(workers >= 1);
    client::shutdown(&addr).unwrap();
    handle.join();
}

#[test]
fn protocol_shutdown_drains_and_refuses_new_connections() {
    let handle = start_server(32);
    let addr = handle.addr().to_string();
    // Work completes before the drain.
    client::fetch(&addr, &source_request(Some(3))).unwrap();
    client::shutdown(&addr).unwrap();
    handle.join();
    // The listener is gone: connecting now fails.
    assert!(TcpStream::connect(&addr).is_err());
}

/// Joins the daemon, failing if it has not stopped within a bound far
/// above any healthy shutdown: this catches a hang, not a slow host.
fn join_within_bound(handle: ServerHandle) {
    let (done, stopped) = mpsc::channel();
    thread::spawn(move || {
        handle.join();
        let _ = done.send(());
    });
    stopped
        .recv_timeout(Duration::from_secs(5))
        .expect("daemon did not stop within 5 s of its shutdown request");
}

#[test]
fn idle_daemon_stops_through_request_shutdown() {
    let handle = start_server(32);
    handle.request_shutdown();
    handle.request_shutdown(); // idempotent
    join_within_bound(handle);
}

#[test]
fn idle_daemon_stops_through_framed_shutdown() {
    let handle = start_server(32);
    client::shutdown(&handle.addr().to_string()).unwrap();
    join_within_bound(handle);
}

#[test]
fn wildcard_bound_daemon_stops() {
    let handle = serve("0.0.0.0:0", ServeConfig::default()).expect("daemon binds 0.0.0.0");
    let loopback = format!("127.0.0.1:{}", handle.addr().port());
    client::health(&loopback).unwrap();
    handle.request_shutdown();
    join_within_bound(handle);
}

#[test]
fn zero_capacity_daemon_stops_through_inline_shutdown() {
    // With no queue the acceptor itself serves the shutdown request, so
    // its own wake-up connection must not deadlock it.
    let handle = start_server(0);
    client::shutdown(&handle.addr().to_string()).unwrap();
    join_within_bound(handle);
}

#[test]
fn http_shim_answers_healthz_and_metrics() {
    let handle = start_server(32);
    let addr = handle.addr().to_string();
    let http_get = |path: &str| -> (String, String) {
        let mut stream = TcpStream::connect(&addr).unwrap();
        write!(stream, "GET {path} HTTP/1.0\r\n\r\n").unwrap();
        let mut text = String::new();
        stream.read_to_string(&mut text).unwrap();
        let (head, body) = text.split_once("\r\n\r\n").expect("header/body split");
        (head.to_owned(), body.to_owned())
    };
    let (head, body) = http_get("/healthz");
    assert!(head.starts_with("HTTP/1.0 200"), "head: {head}");
    let parsed = pgsd::telemetry::json::parse(&body).expect("healthz body is one JSON doc");
    assert_eq!(
        parsed.get("verdict").and_then(|v| v.as_str()),
        Some("health")
    );
    let (head, body) = http_get("/metrics");
    assert!(head.starts_with("HTTP/1.0 200"), "head: {head}");
    pgsd::telemetry::json::parse(&body).expect("metrics body is one JSON doc");
    let (head, _) = http_get("/nope");
    assert!(head.starts_with("HTTP/1.0 404"), "head: {head}");
    handle.request_shutdown();
    handle.join();
}

// ---------------------------------------------------------------- CLI

fn scratch(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("pgsd-serve-cli-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("can create scratch dir");
    std::fs::write(dir.join("prog.mc"), SRC).expect("can write source");
    dir
}

fn pgsd(args: &[&str], dir: &std::path::Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_pgsd"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("pgsd binary runs")
}

/// Asserts stdout is exactly one JSON document with the expected tool
/// and verdict — the `--json` purity contract.
fn assert_envelope(out: &Output, tool: &str, verdict: &str) {
    let text = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        text.trim_end_matches('\n').lines().count(),
        1,
        "expected exactly one stdout line, got: {text:?}"
    );
    let doc = pgsd::telemetry::json::parse(text.trim()).expect("stdout parses as JSON");
    assert_eq!(doc.get("schema_version").and_then(|v| v.as_u64()), Some(1));
    assert_eq!(doc.get("tool").and_then(|v| v.as_str()), Some(tool));
    assert_eq!(doc.get("verdict").and_then(|v| v.as_str()), Some(verdict));
}

#[test]
fn cli_json_envelopes_are_pure_stdout() {
    let dir = scratch("envelopes");
    let out = pgsd(&["run", "prog.mc", "--json", "5"], &dir);
    assert!(out.status.success(), "{out:?}");
    assert_envelope(&out, "pgsd-run", "ok");

    let out = pgsd(
        &[
            "diversify",
            "prog.mc",
            "--pnop",
            "0.5",
            "--seed",
            "3",
            "--shift",
            "--json",
            "5",
        ],
        &dir,
    );
    assert!(out.status.success(), "{out:?}");
    assert_envelope(&out, "pgsd-diversify", "ok");

    let out = pgsd(
        &["check", "prog.mc", "--pnop", "0.5", "--seed", "3", "--json"],
        &dir,
    );
    assert!(out.status.success(), "{out:?}");
    assert_envelope(&out, "pgsd-check", "pass");

    let out = pgsd(
        &[
            "fuzz", "--iters", "2", "--seed", "1", "--json", "--corpus", "fz",
        ],
        &dir,
    );
    assert!(out.status.success(), "{out:?}");
    assert_envelope(&out, "pgsd-fuzz", "pass");
}

#[test]
fn cli_serve_fetch_round_trip_with_graceful_exit() {
    let dir = scratch("roundtrip");
    let mut daemon = Command::new(env!("CARGO_BIN_EXE_pgsd"))
        .args(["serve", "--addr", "127.0.0.1:0", "--seed-start", "77"])
        .current_dir(&dir)
        .stdout(Stdio::piped())
        .spawn()
        .expect("daemon starts");
    // The daemon announces its bound address on the first stdout line.
    let mut line = String::new();
    BufReader::new(daemon.stdout.take().expect("piped stdout"))
        .read_line(&mut line)
        .expect("daemon announces its address");
    let addr = line
        .split("listening on ")
        .nth(1)
        .and_then(|s| s.split_whitespace().next())
        .expect("address in announcement")
        .to_owned();

    // Fetch through the CLI: the server's envelope, verbatim, plus the
    // artifact on disk — byte-identical to the offline build.
    let out = pgsd(
        &[
            "fetch",
            "prog.mc",
            "--addr",
            &addr,
            "--pnop",
            "0.5",
            "--seed",
            "3",
            "--json",
            "--out",
            "fetched.bin",
        ],
        &dir,
    );
    assert!(out.status.success(), "{out:?}");
    assert_envelope(&out, "pgsd-serve", "variant");
    let offline = Session::from_source("prog.mc", SRC);
    let expected = encode_image(
        &offline
            .build_with(&BuildConfig::diversified(Strategy::uniform(0.5), 3))
            .unwrap(),
    );
    let fetched = std::fs::read(dir.join("fetched.bin")).unwrap();
    assert_eq!(fetched, expected, "served artifact deviates from offline");

    // An unpinned fetch consumes the --seed-start sequence.
    let out = pgsd(
        &[
            "fetch", "prog.mc", "--addr", &addr, "--pnop", "0.5", "--json",
        ],
        &dir,
    );
    assert!(out.status.success(), "{out:?}");
    let doc = pgsd::telemetry::json::parse(String::from_utf8_lossy(&out.stdout).trim()).unwrap();
    assert_eq!(doc.get("seed").and_then(|v| v.as_u64()), Some(77));

    // Protocol shutdown drains the daemon; the process exits 0.
    client::shutdown(&addr).unwrap();
    let status = daemon.wait().expect("daemon exits");
    assert!(status.success(), "daemon exit: {status:?}");
}

#[test]
fn cli_fetch_maps_client_errors_to_usage_exit() {
    let dir = scratch("fetch-errors");
    // No daemon at this address: connection error → exit 2.
    let out = pgsd(
        &["fetch", "prog.mc", "--addr", "127.0.0.1:1", "--pnop", "0.5"],
        &dir,
    );
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    // Missing --addr is usage too.
    let out = pgsd(&["fetch", "prog.mc"], &dir);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
}
