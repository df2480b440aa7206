//! CLI-level tests of the fleet observability layer: the `pgsd
//! symbolicate` subcommand's deterministic JSON and stable exit codes
//! (0 hit, 1 unknown variant / unmapped address, 2 usage or I/O error),
//! ledger recording through `pgsd diversify --cache-dir`, the
//! fall-back-cold contract when the on-disk ledger is corrupted, and
//! `pgsd cache stats --json`.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const SRC: &str = "int main(int n) { return 7 / n; }\n";

fn pgsd(args: &[&str], dir: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_pgsd"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("pgsd binary runs")
}

/// A fresh scratch directory holding the source file and a cache dir.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pgsd-fleet-cli-{name}"));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("can create scratch dir");
    fs::write(dir.join("div.mc"), SRC).expect("can write source");
    dir
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// Diversifies `div.mc` into the scratch cache and returns the variant
/// id the CLI printed.
fn diversify_ledgered(dir: &Path) -> String {
    let out = pgsd(
        &[
            "diversify",
            "div.mc",
            "--pnop",
            "0.5",
            "--seed",
            "5",
            "--shift",
            "--subst",
            "--regrand",
            "--train",
            "9",
            "--cache-dir",
            ".c",
            "9",
        ],
        dir,
    );
    assert!(out.status.success(), "diversify failed: {out:?}");
    let text = stdout(&out);
    let vid = text
        .lines()
        .find_map(|l| l.strip_prefix("variant id: "))
        .expect("diversify prints the variant id")
        .trim()
        .to_string();
    assert_eq!(vid.len(), 16, "variant id is a 64-bit hex hash: {vid}");
    vid
}

#[test]
fn symbolicate_hits_misses_and_usage_follow_the_exit_code_contract() {
    let dir = scratch("codes");
    let vid = diversify_ledgered(&dir);

    // Hit: an address inside the variant's text remaps — exit 0, one
    // deterministic JSON document on stdout.
    let hit = pgsd(
        &[
            "symbolicate",
            "div.mc",
            &vid,
            "0x08048100",
            "--cache-dir",
            ".c",
        ],
        &dir,
    );
    assert_eq!(hit.status.code(), Some(0), "hit: {hit:?}");
    let doc = stdout(&hit);
    assert!(doc.starts_with(
        "{\"schema_version\":1,\"tool\":\"pgsd-symbolicate\",\"verdict\":\"hit\",\"crash\":{"
    ));
    assert!(doc.contains(&format!("\"variant_id\":\"{vid}\"")));
    assert!(doc.contains("\"transforms\":\"nop+subst+shift+regrand\""));
    assert!(doc.contains("\"seed\":5"));
    // Byte-identical on a second invocation.
    let again = pgsd(
        &[
            "symbolicate",
            "div.mc",
            &vid,
            "0x08048100",
            "--cache-dir",
            ".c",
        ],
        &dir,
    );
    assert_eq!(stdout(&again), doc);

    // Unknown variant id — exit 1, a `miss` verdict document.
    let unknown = pgsd(
        &[
            "symbolicate",
            "div.mc",
            "deadbeefdeadbeef",
            "0x08048100",
            "--cache-dir",
            ".c",
        ],
        &dir,
    );
    assert_eq!(unknown.status.code(), Some(1), "unknown: {unknown:?}");
    assert!(stdout(&unknown).contains("\"verdict\":\"miss\""));

    // Mapped variant, unmappable address — exit 1.
    let unmapped = pgsd(
        &["symbolicate", "div.mc", &vid, "0x1", "--cache-dir", ".c"],
        &dir,
    );
    assert_eq!(unmapped.status.code(), Some(1), "unmapped: {unmapped:?}");

    // Usage errors — exit 2: bad address, missing args, missing file.
    for args in [
        vec!["symbolicate", "div.mc", vid.as_str(), "zzz"],
        vec!["symbolicate", "div.mc"],
        vec!["symbolicate", "nosuch.mc", vid.as_str(), "0x1000"],
    ] {
        let out = pgsd(&args, &dir);
        assert_eq!(out.status.code(), Some(2), "usage {args:?}: {out:?}");
    }
}

#[test]
fn a_corrupt_ledger_degrades_to_a_symbolicate_miss() {
    let dir = scratch("corrupt");
    let vid = diversify_ledgered(&dir);
    let ledger = dir.join(".c").join("ledger.json");
    let text = fs::read_to_string(&ledger).expect("ledger was persisted");
    assert!(text.contains(&vid), "ledger holds the variant record");

    let version = format!("\"schema_version\":{}", pgsd::cache::LEDGER_SCHEMA_VERSION);
    assert!(text.contains(&version), "ledger header carries the schema");
    fs::write(&ledger, text.replace(&version, "\"schema_version\":99"))
        .expect("can corrupt ledger");
    let out = pgsd(
        &[
            "symbolicate",
            "div.mc",
            &vid,
            "0x08048100",
            "--cache-dir",
            ".c",
        ],
        &dir,
    );
    // Cold, never wrong: the corrupted ledger loads empty, so the
    // variant is unknown — a miss, not a panic or a misattribution.
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    assert!(stdout(&out).contains("\"verdict\":\"miss\""));

    // Re-diversifying regenerates the record and symbolication works
    // again.
    let vid2 = diversify_ledgered(&dir);
    assert_eq!(vid2, vid, "same config + seed → same variant id");
    let ok = pgsd(
        &[
            "symbolicate",
            "div.mc",
            &vid,
            "0x08048100",
            "--cache-dir",
            ".c",
        ],
        &dir,
    );
    assert_eq!(ok.status.code(), Some(0), "{ok:?}");
}

#[test]
fn cache_stats_json_is_schema_versioned_and_counts_the_ledger() {
    let dir = scratch("stats");

    // Before any build: an empty cache, same schema.
    let empty = pgsd(&["cache", "stats", "--json", "--cache-dir", ".c"], &dir);
    assert_eq!(empty.status.code(), Some(0), "{empty:?}");
    assert_eq!(
        stdout(&empty),
        "{\"schema_version\":1,\"tool\":\"pgsd-cache\",\"dir\":\".c\",\"disk_entries\":0,\
         \"disk_bytes\":0,\"ledger_records\":0,\"ledger_bytes\":0}\n"
    );

    diversify_ledgered(&dir);
    let out = pgsd(&["cache", "stats", "--json", "--cache-dir", ".c"], &dir);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let doc = stdout(&out);
    assert!(doc.starts_with("{\"schema_version\":1,\"tool\":\"pgsd-cache\",\"dir\":\".c\","));
    assert!(doc.contains("\"ledger_records\":1"), "{doc}");
    assert!(
        !doc.contains("\"ledger_bytes\":0"),
        "map bytes counted: {doc}"
    );

    // --json is stats-only.
    let bad = pgsd(&["cache", "clear", "--json", "--cache-dir", ".c"], &dir);
    assert_eq!(bad.status.code(), Some(2), "{bad:?}");
}
