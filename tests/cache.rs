//! Integration tests for the content-addressed artifact cache and the
//! `Session` API fronting it: warm builds must be byte-identical to
//! cold builds under every paper configuration and at any thread count,
//! invalidation must key on source and configuration, a corrupt disk
//! artifact must degrade to a cold rebuild, and a warm population must
//! pay the seed-independent pipeline prefix exactly once. The tail of
//! the file drives the `pgsd` binary to pin down the position
//! independence of the global `--cache-dir` / `--threads` flags.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use pgsd::cache::Cache;
use pgsd::core::driver::{BuildConfig, Input, DEFAULT_GAS};
use pgsd::core::{Session, Strategy};
use pgsd::telemetry::Telemetry;

/// Recursion, a hot loop, and globals — enough to make every transform
/// (NOPs, substitution, shifting, register randomization) fire.
const SRC: &str = "
int acc[32];

int twist(int x) { return (x * 37) ^ (x >> 3); }

int main(int n) {
    int s = 0;
    for (int i = 0; i < n; i++) {
        acc[i & 31] = twist(i + s);
        s = s + acc[(i * 5) & 31];
    }
    print(s);
    return s & 0xffff;
}
";

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pgsd-cache-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("can create scratch dir");
    dir
}

/// A session over `SRC` backed by the persistent store in `dir`, with a
/// fresh in-memory layer — so a second call simulates a new process
/// that only shares the disk.
fn session_on(dir: &Path, tel: &Telemetry) -> Session {
    Session::from_source("cachetest", SRC)
        .telemetry(tel.clone())
        .cache(Cache::persistent(dir).expect("cache opens"))
}

/// Ground truth: the same build with caching disabled entirely.
fn cold_text(config: &BuildConfig, train: bool) -> std::sync::Arc<Vec<u8>> {
    let session = Session::from_source("cachetest", SRC).cache(Cache::disabled());
    if train {
        session.train(&[Input::args(&[40])], DEFAULT_GAS).unwrap();
    }
    session.build_with(config).unwrap().text
}

#[test]
fn warm_builds_are_byte_identical_across_paper_configs() {
    let dir = scratch("paper");
    let build_all = || {
        let tel = Telemetry::enabled();
        let session = session_on(&dir, &tel);
        session.train(&[Input::args(&[40])], DEFAULT_GAS).unwrap();
        // Cache operations count into the telemetry of the config that
        // triggered them, so each config gets the collector attached.
        let baseline = BuildConfig::baseline().with_telemetry(tel.clone());
        let mut texts = vec![session.build_with(&baseline).unwrap().text];
        for (_, strategy) in Strategy::paper_configs() {
            for seed in [1u64, 9] {
                let config = BuildConfig::diversified(strategy, seed).with_telemetry(tel.clone());
                texts.push(session.build_with(&config).unwrap().text);
            }
        }
        (texts, tel.snapshot())
    };
    let (cold, cold_doc) = build_all();
    let (warm, warm_doc) = build_all();
    assert_eq!(cold, warm, "warm builds must be byte-identical to cold");
    assert_eq!(
        cold_doc.counters.get("cache.hits{kind=image}").copied(),
        None,
        "first pass must be all misses"
    );
    assert_eq!(
        warm_doc.counters.get("cache.disk_hits{kind=image}"),
        None,
        "images are never persisted: {:?}",
        warm_doc.counters
    );
    assert_eq!(
        warm_doc
            .counters
            .get("cache.disk_hits{kind=profile}")
            .copied(),
        Some(1),
        "the training profile must come from disk too"
    );
}

#[test]
fn source_edit_forces_a_miss_with_correct_output() {
    let dir = scratch("edit");
    let config = BuildConfig::diversified(Strategy::uniform(0.4), 5);
    // One cache handle for both sources, so the edit is all that can
    // make the prefix miss.
    let cache = Cache::persistent(&dir).unwrap();
    let first = Session::from_source("cachetest", SRC).cache(cache.clone());
    let text_a = first.build_with(&config).unwrap().text;

    let edited = SRC.replace("x * 37", "x * 41");
    let tel = Telemetry::enabled();
    let session = Session::from_source("cachetest", &edited)
        .telemetry(tel.clone())
        .cache(cache);
    let text_b = session
        .build_with(&config.clone().with_telemetry(tel.clone()))
        .unwrap()
        .text;

    let doc = tel.snapshot();
    assert_eq!(doc.counters.get("cache.misses{kind=module}"), Some(&1));
    assert_eq!(doc.counters.get("cache.misses{kind=lir}"), Some(&1));
    assert_eq!(doc.counters.get("cache.hits{kind=lir}"), None);
    assert_ne!(text_a, text_b, "the edit must reach the machine code");
    let rebuilt = first.build_with(&config).unwrap().text;
    assert_eq!(rebuilt, text_a, "a rebuilt seed is byte-identical");
    let truth = Session::from_source("cachetest", &edited)
        .cache(Cache::disabled())
        .build_with(&config)
        .unwrap()
        .text;
    assert_eq!(text_b, truth, "a miss must still produce the cold build");
}

#[test]
fn config_change_forces_a_miss_and_same_config_hits() {
    let dir = scratch("config");
    let seed_1 = BuildConfig::diversified(Strategy::uniform(0.4), 1);
    let seed_2 = BuildConfig::diversified(Strategy::uniform(0.4), 2);
    session_on(&dir, &Telemetry::disabled())
        .build_with(&seed_1)
        .unwrap();

    let tel = Telemetry::enabled();
    let session = session_on(&dir, &tel);
    let b = session
        .build_with(&seed_2.clone().with_telemetry(tel.clone()))
        .unwrap()
        .text;
    let a = session
        .build_with(&seed_1.clone().with_telemetry(tel.clone()))
        .unwrap()
        .text;
    let doc = tel.snapshot();
    assert_eq!(
        doc.counters.get("cache.misses{kind=lir}"),
        Some(&1),
        "a new process lowers once: {:?}",
        doc.counters
    );
    assert_eq!(
        doc.counters.get("cache.hits{kind=lir}"),
        Some(&1),
        "both seeds derive from the one lowering"
    );
    assert_eq!(doc.counters.get("cache.misses{kind=module}"), Some(&1));
    assert_eq!(
        doc.counters.get("cache.misses{kind=image}"),
        None,
        "a variant never looks up an image"
    );
    assert_ne!(a, b);
    assert_eq!(a, cold_text(&seed_1, false));
    assert_eq!(b, cold_text(&seed_2, false));
}

#[test]
fn corrupt_artifact_falls_back_to_cold_build() {
    let dir = scratch("corrupt");
    let config = BuildConfig::diversified(Strategy::range(0.0, 0.5), 7);
    let train = [Input::args(&[40])];
    let first = session_on(&dir, &Telemetry::disabled());
    first.train(&train, DEFAULT_GAS).unwrap();
    let text = first.build_with(&config).unwrap().text;

    // Trash every profile artifact on disk in place (same name and
    // length, so the directory scan still *claims* to have the entry).
    let mut trashed = 0;
    for entry in fs::read_dir(&dir).unwrap() {
        let path = entry.unwrap().path();
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        if name.starts_with("prof-") {
            let len = fs::metadata(&path).unwrap().len() as usize;
            fs::write(&path, vec![0xAB; len]).unwrap();
            trashed += 1;
        }
    }
    assert!(trashed > 0, "expected a profile artifact on disk");

    let tel = Telemetry::enabled();
    let session = session_on(&dir, &tel);
    session.train(&train, DEFAULT_GAS).unwrap();
    let rebuilt = session
        .build_with(&config.with_telemetry(tel.clone()))
        .unwrap()
        .text;
    let doc = tel.snapshot();
    assert!(
        doc.counters.get("cache.corrupt").copied().unwrap_or(0) >= 1,
        "corruption must be detected: {:?}",
        doc.counters
    );
    assert_eq!(doc.counters.get("cache.misses{kind=profile}"), Some(&1));
    let train_runs = tel.spans().iter().filter(|s| s.name == "train_run").count();
    assert_eq!(train_runs, 1, "the profile must be trained cold");
    assert_eq!(rebuilt, text, "the fallback cold build must be identical");
}

#[test]
fn warm_population_matches_cold_at_any_thread_count() {
    let dir = scratch("pop");
    let config = BuildConfig::diversified(Strategy::uniform(0.35), 3);
    let make = |threads: usize| {
        Session::from_source("cachetest", SRC)
            .config(config.clone())
            .cache(Cache::persistent(&dir).unwrap())
            .threads(threads)
    };
    let cold: Vec<_> = make(1)
        .population(12)
        .unwrap()
        .into_iter()
        .map(|i| i.text)
        .collect();
    let warm: Vec<_> = make(4)
        .population(12)
        .unwrap()
        .into_iter()
        .map(|i| i.text)
        .collect();
    assert_eq!(
        cold, warm,
        "a warm parallel population must reproduce the cold serial one"
    );
}

#[test]
fn population_pays_the_pipeline_prefix_exactly_once() {
    let tel = Telemetry::enabled();
    let session = Session::from_source("cachetest", SRC)
        .config(BuildConfig::diversified(Strategy::uniform(0.3), 0))
        .telemetry(tel.clone())
        .threads(4);
    let images = session.population(16).unwrap();
    assert_eq!(images.len(), 16);

    let spans = tel.spans();
    let passes = |name: &str| spans.iter().filter(|s| s.name == name).count();
    assert_eq!(passes("frontend"), 1, "frontend must run once for 16 seeds");
    assert_eq!(passes("optimize"), 1, "optimizer must run once");
    assert_eq!(
        passes("lower"),
        1,
        "isel + regalloc + framing must run once"
    );
    let doc = tel.snapshot();
    assert_eq!(doc.counters.get("cache.misses{kind=lir}"), Some(&1));
    assert_eq!(
        doc.counters.get("cache.hits{kind=lir}"),
        Some(&16),
        "every seed's build must reuse the memoized baseline LIR: {:?}",
        doc.counters
    );

    // A second population re-derives every variant from the same LIR
    // and lowers nothing: 17 more LIR hits, the pre-warm and one per seed.
    let again = session.population(16).unwrap();
    assert_eq!(again, images, "re-derived variants are byte-identical");
    let doc = tel.snapshot();
    assert_eq!(doc.counters.get("cache.hits{kind=lir}"), Some(&33));
    let spans = tel.spans();
    assert_eq!(spans.iter().filter(|s| s.name == "lower").count(), 1);
}

/// A variant persists as its ledger record, not as an image: after the
/// first of 50 fresh seeds, no build adds an artifact on disk or in
/// memory, and rebuilding every seed re-derives the same bytes without
/// proving any of them again.
#[test]
fn fresh_variants_add_ledger_records_and_no_artifacts() {
    let dir = scratch("recipes");
    let tel = Telemetry::enabled();
    let session = session_on(&dir, &tel).ledger(true);
    session.train(&[Input::args(&[40])], DEFAULT_GAS).unwrap();
    let build = |seed| {
        let config =
            BuildConfig::diversified(Strategy::range(0.0, 0.5), seed).with_telemetry(tel.clone());
        session.build_with(&config).unwrap().text
    };
    let occupancy = || {
        let s = session.cache_handle().stats();
        (s.disk_entries, s.disk_bytes, s.mem_entries)
    };
    let mut texts = vec![build(1)];
    let after_first = occupancy();
    texts.extend((2..=50).map(build));
    assert_eq!(occupancy(), after_first);
    assert_eq!(session.cache_handle().stats().ledger_records, 50);

    let names: Vec<String> = fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    assert!(
        names
            .iter()
            .all(|n| n == pgsd::cache::LEDGER_FILE || n.starts_with("prof-")),
        "only profiles and the ledger persist: {names:?}"
    );

    let proofs = || tel.spans().iter().filter(|s| s.name == "validate").count();
    assert_eq!(proofs(), 50, "each fresh seed is proven once");
    for (seed, text) in (1..=50).zip(&texts) {
        assert_eq!(&build(seed), text, "seed {seed} re-derived differently");
    }
    assert_eq!(proofs(), 50, "a rebuilt seed is not proven again");
    assert_eq!(occupancy(), after_first);
}

// ---------------------------------------------------------------------
// CLI: global flags and the `cache` subcommand.

fn pgsd(args: &[&str], cwd: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_pgsd"))
        .args(args)
        .current_dir(cwd)
        .output()
        .expect("pgsd binary runs")
}

fn stdout_of(out: &Output) -> String {
    assert!(out.status.success(), "pgsd failed: {out:?}");
    String::from_utf8(out.stdout.clone()).unwrap()
}

#[test]
fn cli_global_flags_are_position_independent() {
    let dir = scratch("cli");
    let prog = dir.join("prog.mc");
    fs::write(&prog, SRC).unwrap();
    let cache = dir.join("store");
    let cache_s = cache.to_str().unwrap();

    // --cache-dir before the subcommand, after it, and trailing; plus
    // --threads anywhere. All must parse and agree byte-for-byte.
    let before = pgsd(
        &[
            "--cache-dir",
            cache_s,
            "diversify",
            "prog.mc",
            "--seed",
            "3",
            "25",
        ],
        &dir,
    );
    let after = pgsd(
        &[
            "diversify",
            "prog.mc",
            "--seed",
            "3",
            "--cache-dir",
            cache_s,
            "25",
        ],
        &dir,
    );
    let trailing = pgsd(
        &[
            "diversify",
            "prog.mc",
            "--seed",
            "3",
            "25",
            "--cache-dir",
            cache_s,
            "--threads",
            "2",
        ],
        &dir,
    );
    let a = stdout_of(&before);
    assert_eq!(a, stdout_of(&after));
    assert_eq!(a, stdout_of(&trailing));

    // The persistent store filled up, `cache stats` sees it from either
    // flag position, and `cache clear` empties it.
    let stats = stdout_of(&pgsd(&["cache", "stats", "--cache-dir", cache_s], &dir));
    assert!(
        !stats.contains(" 0 artifact(s)"),
        "store should not be empty: {stats}"
    );
    assert_eq!(
        stats,
        stdout_of(&pgsd(&["--cache-dir", cache_s, "cache", "stats"], &dir))
    );
    stdout_of(&pgsd(&["--cache-dir", cache_s, "cache", "clear"], &dir));
    let cleared = stdout_of(&pgsd(&["cache", "stats", "--cache-dir", cache_s], &dir));
    assert!(cleared.contains("0 artifact(s)"), "{cleared}");
}

#[test]
fn cli_warm_run_reuses_the_disk_store() {
    let dir = scratch("cli-warm");
    let prog = dir.join("prog.mc");
    fs::write(&prog, SRC).unwrap();
    let cache = dir.join("store");
    let cache_s = cache.to_str().unwrap();
    let args = [
        "diversify",
        "prog.mc",
        "--cache-dir",
        cache_s,
        "--seed",
        "4",
        "--metrics",
        "m.json",
        "25",
    ];
    let cold = stdout_of(&pgsd(&args, &dir));
    let warm = stdout_of(&pgsd(&args, &dir));
    assert_eq!(cold, warm, "warm CLI output must match cold");
    let metrics = fs::read_to_string(dir.join("m.json")).unwrap();
    let doc = pgsd::telemetry::MetricsDoc::from_json(&metrics).unwrap();
    assert_eq!(
        doc.counters.get("cache.disk_hits{kind=profile}"),
        Some(&1),
        "second run must take its profile from the disk store: {:?}",
        doc.counters
    );
}

/// Older versions persisted every variant as `img-<key>.bin`. Such a
/// file is not indexed at open, changes no build, and `cache clear`
/// removes it with the rest of the store.
#[test]
fn cli_ignores_and_clears_a_legacy_image_file() {
    let dir = scratch("cli-legacy");
    fs::write(dir.join("prog.mc"), SRC).unwrap();
    let store = dir.join("store");
    let args = [
        "diversify",
        "prog.mc",
        "--cache-dir",
        "store",
        "--seed",
        "4",
        "--out",
        "variant.bin",
        "25",
    ];
    let cold = stdout_of(&pgsd(&args, &dir));
    let legacy = store.join("img-00000000deadbeef.bin");
    fs::copy(dir.join("variant.bin"), &legacy).unwrap();

    let profiles: Vec<u64> = fs::read_dir(&store)
        .unwrap()
        .map(|e| e.unwrap())
        .filter(|e| e.file_name().to_string_lossy().starts_with("prof-"))
        .map(|e| e.metadata().unwrap().len())
        .collect();
    assert_eq!(profiles.len(), 1);
    let stats = stdout_of(&pgsd(
        &["cache", "stats", "--json", "--cache-dir", "store"],
        &dir,
    ));
    let expected = format!("\"disk_entries\":1,\"disk_bytes\":{},", profiles[0]);
    assert!(stats.contains(&expected), "{stats}");
    assert_eq!(stdout_of(&pgsd(&args, &dir)), cold);

    let cleared = stdout_of(&pgsd(&["cache", "clear", "--cache-dir", "store"], &dir));
    assert!(
        cleared.contains("removed 3 file(s)"),
        "profile, ledger and legacy image: {cleared}"
    );
    assert!(!legacy.exists());
}
