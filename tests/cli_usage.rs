//! The `pgsd` command-line contract, one table row per case: for every
//! command, an unknown flag (did-you-mean), a flag valid only on another
//! command, a missing value, a bad integer, a stray positional, a
//! missing required positional, and the global flags before and after
//! the subcommand. Each row pins the exit code (0 success, 1 verdict
//! failure, 2 usage or I/O error) and a stable substring of the output.

use std::path::{Path, PathBuf};
use std::process::Command;

/// One invocation: space-separated arguments (`{tmp}` expands to a
/// per-test scratch directory, `{doc}` to a checked-in metrics file),
/// expected exit code, and a substring expected in stdout or stderr.
type Row = (&'static str, i32, &'static str);

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("pgsd-cli-usage")
        .join(format!("{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("can create scratch dir");
    dir
}

/// Runs every row from the repo root and reports all mismatches at once.
fn check(name: &str, rows: &[Row]) {
    let tmp = scratch(name);
    let mut failures = Vec::new();
    for (args, code, needle) in rows {
        let args: Vec<String> = args
            .split_whitespace()
            .map(|a| {
                a.replace("{tmp}", &tmp.display().to_string())
                    .replace("{doc}", "tests/golden/diversify_metrics.json")
            })
            .collect();
        let out = Command::new(env!("CARGO_BIN_EXE_pgsd"))
            .args(&args)
            .current_dir(Path::new(env!("CARGO_MANIFEST_DIR")))
            .output()
            .expect("pgsd binary runs");
        let text = format!(
            "{}{}",
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr)
        );
        if out.status.code() != Some(*code) || !text.contains(needle) {
            failures.push(format!(
                "pgsd {}: expected exit {code} with `{needle}`, got {:?}:\n{text}",
                args.join(" "),
                out.status.code()
            ));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

#[test]
fn top_level() {
    check(
        "top",
        &[
            ("", 2, "usage: pgsd <run|diversify|check|audit|symbolicate|gadgets|disasm|report|fuzz|bench|cache|serve|fetch>"),
            ("bogus", 2, "unknown command `bogus`"),
            ("--seed 3 run", 2, "unknown command `--seed`"),
            ("--threads 2 --help", 0, "pgsd run <file.mc>"),
            ("--threads", 2, "--threads needs a value"),
        ],
    );
}

#[test]
fn run() {
    check(
        "run",
        &[
            ("run examples/sum.mc --jsn", 2, "unknown flag `--jsn` — did you mean `--json`?"),
            ("run examples/sum.mc --validate", 2, "flag `--validate` is not valid for `pgsd run` (only for `pgsd diversify`, `pgsd fetch`)"),
            ("run examples/sum.mc --trace", 2, "--trace needs a value"),
            ("run examples/sum.mc x", 2, "unexpected argument `x`"),
            ("run examples/sum.mc 1 2x", 2, "unexpected argument `2x`"),
            ("run", 2, "missing source file"),
            ("--threads 1 run examples/sum.mc 3", 0, "compiled `examples/sum.mc`"),
            ("run examples/sum.mc 3 --cache-dir {tmp}/c", 0, "compiled `examples/sum.mc`"),
        ],
    );
}

#[test]
fn diversify() {
    check(
        "diversify",
        &[
            (
                "diversify examples/sum.mc --sed 7",
                2,
                "did you mean `--seed`?",
            ),
            (
                "diversify examples/sum.mc --func main",
                2,
                "flag `--func` is not valid for `pgsd diversify` (only for `pgsd disasm`)",
            ),
            (
                "diversify examples/sum.mc --pnop",
                2,
                "--pnop needs a value",
            ),
            ("diversify examples/sum.mc --seed x", 2, "bad seed"),
            (
                "diversify examples/sum.mc 3x",
                2,
                "unexpected argument `3x`",
            ),
            ("diversify", 2, "missing source file"),
            (
                "--cache-dir {tmp}/c diversify examples/sum.mc --pnop 0.5 3",
                0,
                "variant id:",
            ),
            (
                "diversify examples/sum.mc --pnop 0.5 3 --threads 1",
                0,
                "variant id:",
            ),
            // A value is taken verbatim, even when it looks like a global.
            (
                "diversify examples/sum.mc --train --threads 3",
                2,
                "bad integer `--threads`",
            ),
        ],
    );
}

#[test]
fn check_command() {
    check(
        "check",
        &[
            ("check examples/sum.mc --jsno", 2, "did you mean `--json`?"),
            (
                "check examples/sum.mc --validate",
                2,
                "flag `--validate` is not valid for `pgsd check`",
            ),
            ("check examples/sum.mc --train", 2, "--train needs a value"),
            ("check examples/sum.mc --train 1,x", 2, "bad integer `x`"),
            ("check examples/sum.mc y", 2, "unexpected argument `y`"),
            ("check", 2, "missing source file"),
            ("--threads 1 check examples/sum.mc --pnop 0.5", 0, "OK —"),
            (
                "check examples/sum.mc --pnop 0.5 --cache-dir {tmp}/c",
                0,
                "OK —",
            ),
        ],
    );
}

#[test]
fn audit() {
    check(
        "audit",
        &[
            (
                "audit examples/sum.mc --version 2",
                2,
                "did you mean `--versions`?",
            ),
            (
                "audit examples/sum.mc --func main",
                2,
                "flag `--func` is not valid for `pgsd audit`",
            ),
            ("audit --workload", 2, "--workload needs a value"),
            ("audit examples/sum.mc --versions x", 2, "bad versions"),
            (
                "audit examples/sum.mc --versions 0",
                2,
                "--versions must be at least 1",
            ),
            ("audit examples/sum.mc 5", 2, "`pgsd audit` takes no"),
            ("audit", 2, "needs a source file or `--workload LIST`"),
            (
                "--threads 1 audit examples/sum.mc --versions 1 --pnop 0.5",
                0,
                "1 variants",
            ),
            (
                "audit examples/sum.mc --versions 1 --pnop 0.5 --cache-dir {tmp}/c",
                0,
                "1 variants",
            ),
        ],
    );
}

#[test]
fn symbolicate() {
    const USAGE: &str = "usage: pgsd symbolicate <file.mc> <variant-id> <fault-addr>";
    check(
        "symbolicate",
        &[
            (
                "symbolicate examples/sum.mc deadbeefdeadbeef 0x1000 --bogus",
                2,
                USAGE,
            ),
            (
                "symbolicate examples/sum.mc deadbeefdeadbeef 0x1000 --json",
                2,
                USAGE,
            ),
            (
                "symbolicate examples/sum.mc deadbeefdeadbeef 0x1000 --cache-dir",
                2,
                "--cache-dir needs a value",
            ),
            (
                "symbolicate examples/sum.mc deadbeefdeadbeef zzz",
                2,
                "bad address `zzz`",
            ),
            (
                "symbolicate examples/sum.mc deadbeefdeadbeef 0x1000 9",
                2,
                USAGE,
            ),
            ("symbolicate examples/sum.mc", 2, USAGE),
            (
                "--cache-dir {tmp}/c symbolicate examples/sum.mc deadbeefdeadbeef 0x1000",
                1,
                "\"verdict\":\"miss\"",
            ),
            (
                "symbolicate examples/sum.mc deadbeefdeadbeef 0x1000 --cache-dir {tmp}/c",
                1,
                "\"verdict\":\"miss\"",
            ),
        ],
    );
}

#[test]
fn gadgets() {
    check(
        "gadgets",
        &[
            (
                "gadgets examples/sum.mc --pnp 0.5",
                2,
                "did you mean `--pnop`?",
            ),
            (
                "gadgets examples/sum.mc --shift",
                2,
                "flag `--shift` is not valid for `pgsd gadgets`",
            ),
            ("gadgets examples/sum.mc --seed", 2, "--seed needs a value"),
            ("gadgets examples/sum.mc --seed x", 2, "bad seed"),
            ("gadgets examples/sum.mc z", 2, "unexpected argument `z`"),
            ("gadgets", 2, "missing source file"),
            (
                "--threads 1 gadgets examples/sum.mc --pnop 0.5",
                0,
                "survive",
            ),
            // Positional integers are the default training input.
            (
                "gadgets examples/sum.mc 3 --cache-dir {tmp}/c",
                0,
                "survive",
            ),
        ],
    );
}

#[test]
fn disasm() {
    check(
        "disasm",
        &[
            (
                "disasm examples/sum.mc --fnc main",
                2,
                "did you mean `--func`?",
            ),
            (
                "disasm examples/sum.mc --seed 1",
                2,
                "flag `--seed` is not valid for `pgsd disasm`",
            ),
            ("disasm examples/sum.mc --func", 2, "--func needs a value"),
            ("disasm examples/sum.mc --threads x", 2, "bad threads"),
            ("disasm examples/sum.mc z", 2, "unexpected argument `z`"),
            ("disasm", 2, "missing source file"),
            ("--threads 1 disasm examples/sum.mc --func main", 0, "main:"),
            (
                "disasm examples/sum.mc --func main --cache-dir {tmp}/c",
                0,
                "main:",
            ),
        ],
    );
}

#[test]
fn report() {
    const USAGE: &str = "usage: pgsd report <metrics.json>";
    check(
        "report",
        &[
            ("report {doc} --bogus", 2, USAGE),
            ("report {doc} --json", 2, USAGE),
            ("report {doc} --threads", 2, "--threads needs a value"),
            ("report {doc} --threads x", 2, "bad threads"),
            ("report {doc} {doc}", 2, USAGE),
            ("report", 2, USAGE),
            ("--threads 1 report {doc}", 0, "metrics schema v1"),
            ("report {doc} --cache-dir {tmp}/c", 0, "metrics schema v1"),
        ],
    );
}

#[test]
fn fuzz() {
    // `fuzz` takes no positional, so it has no missing-positional row.
    check(
        "fuzz",
        &[
            ("fuzz --iter 1", 2, "did you mean `--iters`?"),
            (
                "fuzz --pnop 0.5",
                2,
                "flag `--pnop` is not valid for `pgsd fuzz`",
            ),
            ("fuzz --iters", 2, "--iters needs a value"),
            ("fuzz --iters x", 2, "bad iters"),
            ("fuzz 5", 2, "`pgsd fuzz` takes no positional arguments"),
            (
                "--threads 1 fuzz --iters 1 --corpus {tmp}/a --json",
                0,
                "\"tool\":\"pgsd-fuzz\"",
            ),
            (
                "fuzz --iters 1 --corpus {tmp}/b --json --threads 1",
                0,
                "\"tool\":\"pgsd-fuzz\"",
            ),
        ],
    );
}

#[test]
fn bench() {
    // `bench` takes no positional; a successful run is too slow for a
    // table row, so the global rows end in a usage error.
    check(
        "bench",
        &[
            ("bench --otu x", 2, "did you mean `--out`?"),
            (
                "bench --json",
                2,
                "flag `--json` is not valid for `pgsd bench`",
            ),
            ("bench --out", 2, "--out needs a value"),
            ("bench --threads x", 2, "bad threads"),
            ("bench 5", 2, "`pgsd bench` takes no positional arguments"),
            ("--threads 1 bench --out", 2, "--out needs a value"),
            // `--out` takes `--threads` verbatim, leaving `1` stray.
            ("bench --out --threads 1", 2, "unexpected argument `1`"),
        ],
    );
}

#[test]
fn cache() {
    check(
        "cache",
        &[
            ("cache stats --jsn", 2, "`--jsn`"),
            ("cache stats --seed 1", 2, "`--seed`"),
            ("cache stats --cache-dir", 2, "--cache-dir needs a value"),
            ("cache stats --threads x", 2, "bad threads"),
            ("cache stats extra", 2, "unexpected argument `extra`"),
            ("cache", 2, "pgsd cache <stats|clear>"),
            ("cache list", 2, "unknown cache action `list`"),
            (
                "cache clear --json",
                2,
                "--json only applies to `pgsd cache stats`",
            ),
            (
                "--cache-dir {tmp}/c cache stats --json",
                0,
                "\"tool\":\"pgsd-cache\"",
            ),
            (
                "cache stats --json --cache-dir {tmp}/c",
                0,
                "\"tool\":\"pgsd-cache\"",
            ),
        ],
    );
}

#[test]
fn serve() {
    // `serve` takes no positional and runs until signalled, so its rows
    // stop at argument errors.
    check(
        "serve",
        &[
            ("serve --adr x", 2, "did you mean `--addr`?"),
            (
                "serve --json",
                2,
                "flag `--json` is not valid for `pgsd serve`",
            ),
            ("serve --queue", 2, "--queue needs a value"),
            ("serve --queue x", 2, "bad queue capacity"),
            (
                "serve --queue 4 5",
                2,
                "`pgsd serve` takes no positional arguments",
            ),
            ("--threads 1 serve --seed-start x", 2, "bad seed-start"),
            (
                "serve --queue x --cache-dir {tmp}/c",
                2,
                "bad queue capacity",
            ),
        ],
    );
}

#[test]
fn fetch() {
    check(
        "fetch",
        &[
            ("fetch examples/sum.mc --adr x", 2, "did you mean `--addr`?"),
            (
                "fetch examples/sum.mc --func main",
                2,
                "flag `--func` is not valid for `pgsd fetch`",
            ),
            ("fetch examples/sum.mc --addr", 2, "--addr needs a value"),
            ("fetch examples/sum.mc --seed x", 2, "bad seed"),
            (
                "fetch examples/sum.mc 5 --addr 127.0.0.1:1",
                2,
                "`pgsd fetch` takes no positional arguments",
            ),
            (
                "fetch --addr 127.0.0.1:1",
                2,
                "`pgsd fetch` needs a source file or `--workload NAME`",
            ),
            (
                "--threads 1 fetch examples/sum.mc",
                2,
                "`pgsd fetch` needs `--addr HOST:PORT`",
            ),
            (
                "fetch examples/sum.mc --addr 127.0.0.1:1 --cache-dir {tmp}/c",
                2,
                "connection error",
            ),
        ],
    );
}

#[test]
fn stray_positionals_are_usage_errors() {
    check(
        "stray",
        &[
            (
                "disasm examples/sum.mc 7",
                2,
                "`pgsd disasm` takes no positional arguments",
            ),
            (
                "serve bogus",
                2,
                "`pgsd serve` takes no positional arguments",
            ),
        ],
    );
}

#[test]
fn help_lists_every_command_with_its_operands() {
    let out = Command::new(env!("CARGO_BIN_EXE_pgsd"))
        .arg("--help")
        .output()
        .expect("pgsd binary runs");
    assert_eq!(out.status.code(), Some(0));
    let help = String::from_utf8(out.stdout).unwrap();
    for usage in [
        "pgsd run <file.mc>",
        "pgsd diversify <file.mc>",
        "pgsd check <file.mc>",
        "pgsd audit [<file.mc>]",
        "pgsd symbolicate <file.mc> <variant-id> <fault-addr>",
        "pgsd gadgets <file.mc>",
        "pgsd disasm <file.mc>",
        "pgsd report <metrics.json>",
        "pgsd fuzz [",
        "pgsd bench [",
        "pgsd cache <stats|clear>",
        "pgsd serve [",
        "pgsd fetch [<file.mc>]",
    ] {
        assert!(help.contains(usage), "missing `{usage}`:\n{help}");
    }
    // `check` and `gadgets` train on positional integers; the usage says so.
    for cmd in ["check", "gadgets"] {
        let usage = help
            .split("\n  pgsd ")
            .find(|u| u.starts_with(cmd))
            .unwrap();
        assert!(usage.trim_end().ends_with("[args…]"), "{usage}");
    }
}
