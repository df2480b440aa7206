//! `pgsd` — command-line front door to the diversifying toolchain.
//!
//! `pgsd --help` lists every command with its operands and flags. The
//! listing, the parser and its error messages all come from one spec:
//! [`COMMANDS`] gives each command's operands and handler, and
//! [`FLAG_TABLE`] gives each flag once, with the commands it applies to.
//!
//! Diagnostics go to stderr. Exit codes are stable: `0` success, `1` the
//! checked property failed (divcheck findings, audit error findings, fuzz
//! divergences, abnormal program exit, a `busy`/failed serve response),
//! `2` usage or I/O error. With `--json`, the commands that support it
//! (`run`, `diversify`, `check`, `fuzz`, `fetch`) print exactly one
//! schema-versioned envelope document on stdout and nothing else, so
//! `pgsd … --json | python -m json.tool` always parses.

use std::fmt::Display;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::str::FromStr;

use pgsd::analysis::{check_images, findings_json, sort_findings};
use pgsd::cache::Cache;
use pgsd::cc::emit::Image;
use pgsd::core::driver::{BuildConfig, Input, DEFAULT_GAS};
use pgsd::core::{transforms_label, Session, Strategy};
use pgsd::fuzz::diff::TransformSet;
use pgsd::fuzz::{fuzz, replay, FuzzConfig};
use pgsd::gadget::{find_gadgets, survivor, ScanConfig};
use pgsd::proto::{DiversifyRequest, Envelope, ErrorCode, Response, Target, VariantInfo};
use pgsd::serve::client::ClientError;
use pgsd::serve::{install_signal_handlers, serve, ServeConfig};
use pgsd::telemetry::{MetricsDoc, Telemetry};
use pgsd::x86::decode;
use pgsd::x86::nop::NopTable;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match parse(&argv) {
        Ok(Some(args)) => (args.cmd.2)(&args),
        Ok(None) => {
            print_help();
            Ok(())
        }
        Err(msg) => Err(CliError::from(msg)),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("pgsd: {}", e.msg);
            ExitCode::from(e.code)
        }
    }
}

/// A CLI error with its exit code: `1` when the checked property failed
/// (validation findings, audit errors, fuzz divergences, abnormal
/// program exit), `2` for usage and I/O errors. Plain `String` errors
/// convert to code 2, so only genuine verdict failures need
/// [`CliError::failed`].
struct CliError {
    msg: String,
    code: u8,
}

impl CliError {
    /// The property under test failed — exit 1.
    fn failed(msg: impl Into<String>) -> CliError {
        CliError {
            msg: msg.into(),
            code: 1,
        }
    }
}

impl From<String> for CliError {
    fn from(msg: String) -> CliError {
        CliError { msg, code: 2 }
    }
}

impl From<&str> for CliError {
    fn from(msg: &str) -> CliError {
        CliError::from(msg.to_owned())
    }
}

/// The positional arguments a command takes besides its flags.
enum Operands {
    /// Exactly these, in order, each as (usage name, what the error for
    /// a missing one calls it).
    Exactly(&'static [(&'static str, &'static str)]),
    /// An optional source file: `audit` and `fetch` can take
    /// `--workload` names instead.
    OptionalFile,
    /// A source file, then integer program arguments (`check` and
    /// `gadgets` train on them when `--train` is absent).
    FileThenArgs,
}

const FILE: (&str, &str) = ("<file.mc>", "source file");

/// One command: its name, its operands and the function that runs it.
struct Command(&'static str, Operands, fn(&Args) -> Result<(), CliError>);

/// Every command, in `--help` order.
const COMMANDS: &[Command] = &[
    Command("run", Operands::FileThenArgs, cmd_run),
    Command("diversify", Operands::FileThenArgs, cmd_diversify),
    Command("check", Operands::FileThenArgs, cmd_check),
    Command("audit", Operands::OptionalFile, cmd_audit),
    Command(
        "symbolicate",
        Operands::Exactly(&[
            FILE,
            ("<variant-id>", "variant id"),
            ("<fault-addr>", "fault address"),
        ]),
        cmd_symbolicate,
    ),
    Command("gadgets", Operands::FileThenArgs, cmd_gadgets),
    Command("disasm", Operands::Exactly(&[FILE]), cmd_disasm),
    Command(
        "report",
        Operands::Exactly(&[("<metrics.json>", "metrics file")]),
        cmd_report,
    ),
    Command("fuzz", Operands::Exactly(&[]), cmd_fuzz),
    Command("bench", Operands::Exactly(&[]), cmd_bench),
    Command(
        "cache",
        Operands::Exactly(&[("<stats|clear>", "cache action")]),
        cmd_cache,
    ),
    Command("serve", Operands::Exactly(&[]), cmd_serve),
    Command("fetch", Operands::OptionalFile, cmd_fetch),
];

/// Every flag, once, in usage-line order: its name, the placeholder
/// for its value (`""` for a switch), and the commands that take it
/// after their name (`""` for a global flag, which every command takes
/// anywhere on the command line, before or after the command name).
const FLAG_TABLE: &[(&str, &str, &str)] = &[
    ("--workload", "LIST", "audit fetch"),
    ("--versions", "N", "audit"),
    ("--pnop", "SPEC", "diversify check gadgets audit fetch"),
    ("--seed", "N", "diversify check gadgets fuzz audit fetch"),
    ("--train", "LIST", "diversify check gadgets audit fetch"),
    ("--shift", "", "diversify check audit fetch"),
    ("--subst", "", "diversify check audit fetch"),
    ("--regrand", "", "diversify check audit fetch"),
    ("--validate", "", "diversify fetch"),
    ("--func", "NAME", "disasm"),
    ("--iters", "N", "fuzz"),
    ("--transforms", "LIST", "fuzz"),
    ("--variants", "K", "fuzz"),
    ("--corpus", "DIR", "fuzz"),
    ("--replay", "DIR", "fuzz"),
    ("--addr", "HOST:PORT", "serve fetch"),
    ("--queue", "N", "serve"),
    ("--seed-start", "N", "serve"),
    ("--json", "", "run diversify check fuzz fetch cache"),
    ("--out", "FILE", "bench audit diversify fetch"),
    ("--trace", "FILE", "run diversify check fuzz audit"),
    ("--metrics", "FILE", "run diversify check fuzz audit"),
    ("--cache-dir", "DIR", ""),
    ("--threads", "N", ""),
];

/// Whether a flag scoped to `cmds` is taken at this point: a global one
/// always, any other only after the name of a command it lists.
fn takes(cmds: &str, cmd: Option<&Command>) -> bool {
    cmds.is_empty() || cmd.is_some_and(|c| cmds.split(' ').any(|n| n == c.0))
}

/// A parsed command line.
struct Args {
    cmd: &'static Command,
    operands: Vec<String>,
    /// The integer program arguments after a [`Operands::FileThenArgs`]
    /// source file.
    run_args: Vec<i32>,
    /// Every flag given, with its value taken verbatim.
    flags: Vec<(&'static str, Option<String>)>,
    /// `--threads`, checked while parsing since every command takes it.
    threads: Option<usize>,
}

/// Parses the command line against [`COMMANDS`] and [`FLAG_TABLE`] in
/// one pass. The command is the first argument that is not a global
/// flag; a flag's value is the next argument, whatever it looks like.
/// `Ok(None)` asks for `--help`.
fn parse(argv: &[String]) -> Result<Option<Args>, String> {
    let mut cmd: Option<&'static Command> = None;
    let mut positionals = Vec::new();
    let mut flags = Vec::new();
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        match (cmd, FLAG_TABLE.iter().find(|f| f.0 == arg)) {
            (_, Some(&(name, placeholder, cmds))) if takes(cmds, cmd) => {
                let value = match placeholder {
                    "" => None,
                    _ => Some(it.next().ok_or(format!("{name} needs a value"))?.clone()),
                };
                flags.push((name, value));
            }
            (None, _) if matches!(arg.as_str(), "--help" | "-h" | "help") => return Ok(None),
            (None, _) => match COMMANDS.iter().find(|c| c.0 == arg) {
                Some(c) => cmd = Some(c),
                None => return Err(format!("unknown command `{arg}` (try --help)")),
            },
            (Some(c), _) if arg.starts_with("--") => return Err(flag_error(c, arg)),
            (Some(_), _) => positionals.push(arg.clone()),
        }
    }
    let Some(cmd) = cmd else {
        let names: Vec<&str> = COMMANDS.iter().map(|c| c.0).collect();
        return Err(format!(
            "usage: pgsd <{}> <file> …  (see --help)",
            names.join("|")
        ));
    };

    let (named, required): (&[(&str, &str)], usize) = match cmd.1 {
        Operands::Exactly(ops) => (ops, ops.len()),
        Operands::OptionalFile => (&[FILE], 0),
        Operands::FileThenArgs => (&[FILE], 1),
    };
    let usage = usage_words(cmd).join(" ");
    if positionals.len() < required {
        let what = named[positionals.len()].1;
        return Err(format!("missing {what}\nusage: {usage}"));
    }
    let rest = positionals.split_off(positionals.len().min(named.len()));
    if let (Some(a), false) = (rest.first(), matches!(cmd.1, Operands::FileThenArgs)) {
        let after = named.last().map(|op| format!(" after {}", op.0));
        return Err(format!(
            "unexpected argument `{a}` — `pgsd {}` takes no positional arguments{}\nusage: {usage}",
            cmd.0,
            after.unwrap_or_default()
        ));
    }
    let run_args = rest
        .iter()
        .map(|a| a.parse().map_err(|_| format!("unexpected argument `{a}`")))
        .collect::<Result<_, _>>()?;
    let mut args = Args {
        cmd,
        operands: positionals,
        run_args,
        flags,
        threads: None,
    };
    args.threads = args
        .parsed("--threads", "threads")?
        .map(|n: usize| n.max(1));
    Ok(Some(args))
}

impl Args {
    /// The value of flag `name` (the last one, if given twice).
    fn value(&self, name: &str) -> Option<&str> {
        self.given(name).and_then(|(_, v)| v.as_deref())
    }

    /// Whether switch `name` was given.
    fn switch(&self, name: &str) -> bool {
        self.given(name).is_some()
    }

    fn given(&self, name: &str) -> Option<&(&'static str, Option<String>)> {
        debug_assert!(
            FLAG_TABLE.iter().any(|f| f.0 == name),
            "`{name}` is not in FLAG_TABLE"
        );
        self.flags.iter().rev().find(|(f, _)| *f == name)
    }

    /// Flag `name`'s value parsed as a `T`; an unparsable value is the
    /// error "bad {what}: …".
    fn parsed<T: FromStr>(&self, name: &str, what: &str) -> Result<Option<T>, String>
    where
        T::Err: Display,
    {
        self.value(name)
            .map(|v| v.parse().map_err(|e| format!("bad {what}: {e}")))
            .transpose()
    }

    /// The trimmed items of comma-list flag `name`; given but empty is
    /// the error "{name} needs at least one {what}".
    fn list(&self, name: &str, what: &str) -> Result<Vec<&str>, String> {
        let Some(list) = self.value(name) else {
            return Ok(Vec::new());
        };
        let items: Vec<&str> = list
            .split(',')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .collect();
        if items.is_empty() {
            return Err(format!("{name} needs at least one {what}"));
        }
        Ok(items)
    }

    /// The `--pnop` strategy, or the paper's headline default.
    fn pnop(&self) -> Result<Strategy, String> {
        self.value("--pnop")
            .map_or_else(|| Ok(Strategy::default()), Strategy::parse)
    }

    fn train(&self) -> Result<Option<Vec<i32>>, String> {
        self.value("--train").map(parse_ints).transpose()
    }

    /// The artifact cache for this invocation: persistent when
    /// `--cache-dir` was given, otherwise in-memory for the process.
    fn open_cache(&self) -> Result<Cache, String> {
        match self.value("--cache-dir") {
            Some(dir) => Cache::persistent(Path::new(dir))
                .map_err(|e| format!("cannot open cache `{dir}`: {e}")),
            None => Ok(Cache::in_memory()),
        }
    }
}

/// A command's usage as words: name, operands, the flags only it takes
/// (globals are listed once, in the help prose), then `[args…]`.
fn usage_words(cmd: &Command) -> Vec<String> {
    let mut words = vec![format!("pgsd {}", cmd.0)];
    match cmd.1 {
        Operands::Exactly(ops) => words.extend(ops.iter().map(|(name, _)| name.to_string())),
        Operands::OptionalFile => words.push(format!("[{}]", FILE.0)),
        Operands::FileThenArgs => words.push(FILE.0.to_owned()),
    }
    for &(name, placeholder, cmds) in FLAG_TABLE {
        if !cmds.is_empty() && takes(cmds, Some(cmd)) {
            words.push(match placeholder {
                "" => format!("[{name}]"),
                _ => format!("[{name} {placeholder}]"),
            });
        }
    }
    if matches!(cmd.1, Operands::FileThenArgs) {
        words.push("[args…]".to_owned());
    }
    words
}

/// Prints the usage of every command, wrapped with continuation lines
/// indented under the first operand, then the prose in [`HELP`].
fn print_help() {
    println!("pgsd — profile-guided software diversity toolchain (CGO 2013 reproduction)\n");
    for cmd in COMMANDS {
        let words = usage_words(cmd);
        let indent = " ".repeat(words[0].len() + 3);
        let mut line = format!("  {}", words[0]);
        for word in &words[1..] {
            if line.chars().count() + 1 + word.chars().count() > 76 {
                println!("{line}");
                line = indent.clone();
            } else {
                line.push(' ');
            }
            line.push_str(word);
        }
        println!("{line}");
    }
    print!("\n{HELP}");
}

/// Classic Levenshtein distance, for "did you mean" suggestions.
fn edit_distance(a: &str, b: &str) -> usize {
    let (a, b): (Vec<char>, Vec<char>) = (a.chars().collect(), b.chars().collect());
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    for (i, ca) in a.iter().enumerate() {
        let mut cur = vec![i + 1];
        for (j, cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            cur.push(sub.min(prev[j + 1] + 1).min(cur[j] + 1));
        }
        prev = cur;
    }
    prev[b.len()]
}

/// The error for `flag`, which `cmd` does not take: where the flag does
/// apply, or the nearest flag `cmd` takes; then `cmd`'s usage.
fn flag_error(cmd: &Command, flag: &str) -> String {
    let msg = match FLAG_TABLE.iter().find(|f| f.0 == flag) {
        Some((_, _, cmds)) => format!(
            "flag `{flag}` is not valid for `pgsd {}` (only for `pgsd {}`)",
            cmd.0,
            cmds.replace(' ', "`, `pgsd ")
        ),
        _ => {
            let nearest = FLAG_TABLE
                .iter()
                .filter(|f| takes(f.2, Some(cmd)))
                .map(|f| f.0)
                .min_by_key(|f| edit_distance(flag, f))
                .filter(|f| edit_distance(flag, f) <= 2);
            match nearest {
                Some(best) => format!("unknown flag `{flag}` — did you mean `{best}`?"),
                None => format!("unknown flag `{flag}`"),
            }
        }
    };
    format!("{msg}\nusage: {}", usage_words(cmd).join(" "))
}

const HELP: &str = "\
Global flags, valid anywhere on the command line (before or after the
subcommand):

  --cache-dir DIR  persist training profiles and the variant ledger
                   under DIR and reuse them across invocations; without
                   it each invocation uses a private in-memory cache
  --threads N      worker count for parallel sections (training runs,
                   fuzz scans, bench passes; default `PGSD_THREADS`,
                   else available parallelism)

SPEC is a probability (`0.5`) for uniform insertion or a range (`0.0-0.3`)
for the profile-guided strategy; ranges trigger a training run.

`check` builds a baseline and a diversified variant, then statically proves
the two equivalent modulo the declared transforms (translation validation:
inserted bytes are NOP-table identities, substitutions stay in the known
equivalence classes, shifts are a jump over dead padding, register
randomization is a clean bijection, branches land on mapped targets).
With `--json` the verdict and findings print as one deterministic,
schema-versioned JSON document instead of prose. Exit codes: 0 pass,
1 validation findings, 2 usage or I/O error.

`audit` builds a population of `--versions` diversified variants (default
16, seeds `--seed`..`--seed`+N) of one `.mc` file or of each named
workload (`--workload` is a comma list, e.g. `470.lbm,401.bzip2`), then
statically audits every variant: recursive-descent CFG and call-graph
recovery with a byte classification map (reachable / unreachable /
padding / data), abstract interpretation proving per-function stack
bounds and W⊕X consistency of resolvable stores, and reachability
classification of every Survivor gadget hit — reachable (on an intended
instruction boundary), unintended-boundary (inside reachable code, off
the boundaries), or dead-bytes (unreachable code, padding or data).
`--out` writes the aggregate report as deterministic JSON, byte-identical
at any `--threads` value. Exit codes: 0 clean, 1 error-severity findings,
2 usage or I/O error.

`diversify` also records the variant in the cache's provenance ledger —
its content-hash identity (printed as `variant id:`), seed, transform
set, and the baseline↔variant address map recovered by the validator.
With `--cache-dir` the ledger persists, so a later `pgsd symbolicate
<file.mc> <variant-id> <fault-addr>` remaps a crash address from that
variant's address space back to the baseline instruction and prints one
deterministic JSON document. `<fault-addr>` is hex (`0x8048123`) or
decimal. Exit codes: 0 symbolicated, 1 unknown variant or unmapped
address, 2 usage or I/O error.

`--trace` writes Chrome trace_event JSON (open in Perfetto or
chrome://tracing) spanning every pipeline phase; `--metrics` writes a flat
JSON document of counters, gauges and histograms (`pgsd report` renders
it as a table). Cache hits, misses and evictions appear there as
`cache.*` counters and gauges.

`fuzz` generates random MiniC programs, diversifies each under several
seeds per transform set (`--transforms` is a comma list drawn from
nop,subst,shift,combo; default all four), runs baseline and variants on
matched inputs, and cross-checks dynamic behaviour against the static
validator. Failures are shrunk and saved as reproducers under `--corpus`
(default `corpus/`) next to a deterministic `report.json`; `--replay DIR`
re-runs every saved reproducer as a regression check instead of fuzzing.
Each fuzz case uses a private in-memory cache, so `--threads` (and
`--cache-dir`) only change throughput, never the report.

`bench` runs a fixed benchmark slice (every paper configuration of
470.lbm and 401.bzip2, 6 seeds each) once serially, once on `--threads`
workers, and once more against the now-warm cache; it cross-checks that
the emulated cycle totals agree across all three passes and writes
wall-clock, Mcycles, thread speedup and warm-cache speedup to a
schema-versioned metrics document (default `BENCH_pgsd.json` at the repo
root). The bench passes use private in-memory caches so the cold/warm
comparison is reproducible regardless of `--cache-dir`.

`cache stats` prints the occupancy of the persistent store — artifacts,
bytes on disk, and provenance-ledger records — and `cache clear` empties
it (default directory `.pgsd-cache`, or the `--cache-dir` value). With
`--json`, `cache stats` prints one schema-versioned JSON document with a
fixed field order instead of prose.

`serve` runs a variant-distribution daemon: it binds `--addr` (default
127.0.0.1:7340), prints the bound address, and answers framed protocol
requests — each diversify request derives one variant from the shared
warm cache's lowered code, ledgers its provenance, and streams back the
image artifact. Seeds not pinned by the client are assigned from a
fresh sequence starting at `--seed-start` (default 1). The request
queue is bounded at `--queue` connections (default 32); beyond it
clients get a typed `busy` response instead of a hang. A plain HTTP GET
of `/healthz` or `/metrics` on the same port answers liveness and live
telemetry. SIGINT/SIGTERM (or a protocol `shutdown` request) drains the
queue and exits 0. `--cache-dir` and `--threads` apply.

`fetch` is the matching client: it sends one diversify request for a
source file or a `--workload` name to a running daemon at `--addr`,
verifies the returned artifact's self-check, and prints the variant's
identity and provenance (the server's envelope verbatim with `--json`).
`--out FILE` writes the image artifact bytes for later `cmp`-style
byte-identity checks. Exit codes: 0 variant fetched, 1 the server
refused (busy) or failed the request, 2 usage, connection or framing
errors.

JSON envelopes and exit codes, uniformly: every `--json` output and
every serve response is a single schema-versioned document that starts
`{\"schema_version\":1,\"tool\":\"pgsd-<cmd>\",\"verdict\":…}` and is printed
to stdout with no other stdout output around it. Exit codes everywhere:
0 success, 1 the checked property failed, 2 usage or I/O error.
";

fn read_source(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))
}

fn parse_ints(list: &str) -> Result<Vec<i32>, String> {
    list.split(',')
        .filter(|s| !s.trim().is_empty())
        .map(|s| {
            s.trim()
                .parse()
                .map_err(|e| format!("bad integer `{s}`: {e}"))
        })
        .collect()
}

/// Arms a collector when `--trace` or `--metrics` was requested.
fn telemetry_for(a: &Args) -> Telemetry {
    if a.value("--trace").is_some() || a.value("--metrics").is_some() {
        Telemetry::enabled()
    } else {
        Telemetry::disabled()
    }
}

/// Writes the requested trace / metrics files (also on failed runs, so a
/// crashing program still leaves its telemetry behind).
fn write_telemetry(a: &Args, tel: &Telemetry) -> Result<(), String> {
    if let Some(path) = a.value("--trace") {
        std::fs::write(path, tel.trace_json())
            .map_err(|e| format!("cannot write trace `{path}`: {e}"))?;
        eprintln!("trace written to {path}");
    }
    if let Some(path) = a.value("--metrics") {
        std::fs::write(path, tel.metrics_json())
            .map_err(|e| format!("cannot write metrics `{path}`: {e}"))?;
        eprintln!("metrics written to {path}");
    }
    Ok(())
}

/// A per-invocation [`Session`] over one source: telemetry armed per
/// `--trace`/`--metrics`, cache per `--cache-dir`, workers per
/// `--threads`.
fn session_for(a: &Args, name: &str, source: &str, tel: &Telemetry) -> Result<Session, String> {
    let mut session = Session::from_source(name, source)
        .telemetry(tel.clone())
        .cache(a.open_cache()?);
    if let Some(threads) = a.threads {
        session = session.threads(threads);
    }
    Ok(session)
}

/// The session over the command's `<file.mc>` operand.
fn file_session<'a>(a: &'a Args, tel: &Telemetry) -> Result<(&'a str, Session), String> {
    let file = &a.operands[0];
    Ok((file, session_for(a, file, &read_source(file)?, tel)?))
}

/// Runs a command's `body`, then records end-of-run cache occupancy
/// (complementing the `cache.*` hit/miss counters the operations record
/// as they go) and writes the requested telemetry files — also when
/// `body` failed, so a crashing program still leaves its telemetry.
fn traced(
    a: &Args,
    session: &Session,
    tel: &Telemetry,
    body: impl FnOnce() -> Result<(), CliError>,
) -> Result<(), CliError> {
    let result = body();
    let stats = session.cache_handle().stats();
    tel.set_gauge("cache.mem_entries", stats.mem_entries as f64);
    tel.set_gauge("cache.mem_bytes", stats.mem_bytes as f64);
    if session.cache_handle().dir().is_some() {
        tel.set_gauge("cache.disk_entries", stats.disk_entries as f64);
        tel.set_gauge("cache.disk_bytes", stats.disk_bytes as f64);
    }
    write_telemetry(a, tel)?;
    result
}

/// Runs `image`, echoing its printed values to stdout. A normal exit
/// reports the status and returns the cycle count; an abnormal exit
/// (fault, gas, bad syscall) is an error — the caller routes it to
/// stderr and the process exits nonzero.
fn report_run(
    session: &Session,
    image: &Image,
    args: &[i32],
    label: &str,
) -> Result<u64, CliError> {
    let outcome = session.run(image, &Input::args(args), DEFAULT_GAS, label);
    let stats = &outcome.stats;
    for v in &stats.output {
        println!("{v}");
    }
    match outcome.status() {
        Some(s) => {
            println!(
                "exit {s}   ({} instructions, {} cycles, {} d-cache misses)",
                stats.instructions, stats.cycles, stats.dcache_misses
            );
            Ok(stats.cycles)
        }
        None => Err(CliError::failed(format!(
            "abnormal exit: {:?}",
            outcome.exit
        ))),
    }
}

/// The `pgsd run --json` / `pgsd diversify --json` per-run fragment:
/// the exit verdict plus the counters the human output reports.
fn run_json(outcome: &pgsd::core::RunOutcome) -> String {
    let stats = &outcome.stats;
    let output: Vec<String> = stats.output.iter().map(ToString::to_string).collect();
    let exit = match outcome.status() {
        Some(s) => s.to_string(),
        None => pgsd::telemetry::json::quote(&format!("{:?}", outcome.exit)),
    };
    format!(
        "{{\"exit\":{exit},\"instructions\":{},\"cycles\":{},\
         \"dcache_misses\":{},\"output\":[{}]}}",
        stats.instructions,
        stats.cycles,
        stats.dcache_misses,
        output.join(",")
    )
}

fn cmd_run(a: &Args) -> Result<(), CliError> {
    let tel = telemetry_for(a);
    let (file, session) = file_session(a, &tel)?;
    traced(a, &session, &tel, || {
        let image = session.build().map_err(|e| e.to_string())?;
        if a.switch("--json") {
            let outcome = session.run(&image, &Input::args(&a.run_args), DEFAULT_GAS, "run");
            let ok = outcome.status().is_some();
            println!(
                "{}",
                Envelope::new("pgsd-run", if ok { "ok" } else { "abnormal" })
                    .str("source", file)
                    .u64("text_bytes", image.text.len() as u64)
                    .u64("functions", image.funcs.len() as u64)
                    .raw("run", run_json(&outcome))
                    .to_json()
            );
            return if ok {
                Ok(())
            } else {
                Err(CliError::failed(format!(
                    "abnormal exit: {:?}",
                    outcome.exit
                )))
            };
        }
        println!(
            "compiled `{file}`: {} bytes of text, {} functions",
            image.text.len(),
            image.funcs.len()
        );
        report_run(&session, &image, &a.run_args, "run").map(|_| ())
    })
}

/// What the diversity flags ask for: the `--pnop` strategy, the build
/// (`--seed`, default 1, and whichever of `--shift`, `--subst`,
/// `--regrand` and `--validate` the command takes and was given), and
/// the training input (`--train`, else the program arguments).
fn requested(a: &Args, tel: &Telemetry) -> Result<(Strategy, BuildConfig, Vec<i32>), String> {
    let strategy = a.pnop()?;
    let config = BuildConfig::requested(
        strategy,
        a.parsed("--seed", "seed")?.unwrap_or(1),
        a.switch("--shift"),
        a.switch("--subst"),
        a.switch("--regrand"),
        a.switch("--validate"),
    );
    let train = a.train()?.unwrap_or_else(|| a.run_args.clone());
    Ok((strategy, config.with_telemetry(tel.clone()), train))
}

/// Trains on `train` when the build needs a profile, then builds the
/// diversified variant through the session, so a warm cache serves the
/// whole seed-independent prefix.
fn build_diversified(
    session: &Session,
    config: &BuildConfig,
    train: &[i32],
) -> Result<Image, String> {
    if config.needs_training() {
        session
            .train(&[Input::args(train)], DEFAULT_GAS)
            .map_err(|e| format!("training failed: {e}"))?;
    }
    session.build_with(config).map_err(|e| e.to_string())
}

fn cmd_diversify(a: &Args) -> Result<(), CliError> {
    let tel = telemetry_for(a);
    let (strategy, config, train) = requested(a, &tel)?;
    // Every diversified build is recorded in the cache's provenance
    // ledger, so crashes from the shipped variant stay symbolicatable
    // (`pgsd symbolicate`); with `--cache-dir` the record persists.
    let (file, session) = file_session(a, &tel)?;
    let session = session.ledger(true);
    traced(a, &session, &tel, || {
        let baseline = session.build().map_err(|e| e.to_string())?;
        let image = build_diversified(&session, &config, &train)?;
        if let Some(out) = a.value("--out") {
            let artifact = pgsd::cache::artifact::encode_image(&image);
            std::fs::write(out, &artifact)
                .map_err(|e| format!("cannot write artifact `{out}`: {e}"))?;
            eprintln!("image artifact written to {out} ({} bytes)", artifact.len());
        }
        if a.switch("--json") {
            let base = session.run(
                &baseline,
                &Input::args(&a.run_args),
                DEFAULT_GAS,
                "baseline",
            );
            let div = session.run(
                &image,
                &Input::args(&a.run_args),
                DEFAULT_GAS,
                "diversified",
            );
            let ok = base.status().is_some() && div.status().is_some();
            let mut env = Envelope::new("pgsd-diversify", if ok { "ok" } else { "abnormal" })
                .str("source", file)
                .str("variant_id", &pgsd::core::variant_id(&image))
                .u64("seed", config.seed)
                .str("strategy", &strategy.to_string())
                .str("transforms", &transforms_label(&config.transforms()))
                .u64("baseline_text_bytes", baseline.text.len() as u64)
                .u64("text_bytes", image.text.len() as u64)
                .raw("baseline", run_json(&base))
                .raw("diversified", run_json(&div));
            if ok && base.stats.cycles > 0 {
                let overhead = (div.stats.cycles as f64 / base.stats.cycles as f64 - 1.0) * 100.0;
                tel.set_gauge("run.overhead_pct", overhead);
                env = env.raw("overhead_pct", format!("{overhead:.2}"));
            }
            println!("{}", env.to_json());
            return if ok {
                Ok(())
            } else {
                Err(CliError::failed("abnormal exit (see JSON envelope)"))
            };
        }
        println!(
            "diversified `{file}` with {strategy} (seed {}): text {} → {} bytes",
            config.seed,
            baseline.text.len(),
            image.text.len()
        );
        println!("variant id: {}", pgsd::core::variant_id(&image));
        println!("— baseline:");
        let base_cycles = report_run(&session, &baseline, &a.run_args, "baseline")?;
        println!("— diversified:");
        let div_cycles = report_run(&session, &image, &a.run_args, "diversified")?;
        if base_cycles > 0 {
            let overhead = (div_cycles as f64 / base_cycles as f64 - 1.0) * 100.0;
            tel.set_gauge("run.overhead_pct", overhead);
            println!("overhead: {overhead:+.2}%");
        }
        Ok(())
    })
}

fn cmd_check(a: &Args) -> Result<(), CliError> {
    let tel = telemetry_for(a);
    // `check` takes no `--validate`: the checker runs here with its
    // report printed, not inside the build.
    let (_, config, train) = requested(a, &tel)?;
    let json = a.switch("--json");
    let (file, session) = file_session(a, &tel)?;
    traced(a, &session, &tel, || {
        let baseline = session.build().map_err(|e| e.to_string())?;
        let variant = build_diversified(&session, &config, &train)?;
        let _span = tel.span("validate");
        match check_images(&baseline, &variant, &config.transforms()) {
            Ok(report) => {
                tel.add("validate.passed", 1);
                if json {
                    println!("{}", check_verdict_json("pass", Some(&report), &[]));
                } else {
                    println!(
                        "`{file}` seed {}: OK — {} functions, {} instructions matched, \
                         {} inserted NOPs, {} substitutions, {} shift jumps verified",
                        config.seed,
                        report.functions,
                        report.matched,
                        report.inserted_nops,
                        report.substitutions,
                        report.shift_jumps
                    );
                }
                Ok(())
            }
            Err(mut diags) => {
                tel.add("validate.failed", 1);
                tel.add("validate.findings", diags.len() as u64);
                sort_findings(&mut diags);
                if json {
                    println!("{}", check_verdict_json("fail", None, &diags));
                } else {
                    for d in &diags {
                        eprintln!("{d}");
                    }
                }
                Err(CliError::failed(format!(
                    "validation failed with {} finding(s)",
                    diags.len()
                )))
            }
        }
    })
}

/// The `pgsd check --json` verdict document: the shared envelope with
/// fixed key order and findings in canonical order — deterministic for
/// golden tests (byte-identical to the pre-envelope format).
fn check_verdict_json(
    verdict: &str,
    report: Option<&pgsd::analysis::CheckReport>,
    findings: &[pgsd::analysis::AnalysisDiag],
) -> String {
    let report_json = report.map_or_else(
        || "null".to_owned(),
        |r| {
            format!(
                "{{\"functions\":{},\"matched\":{},\"inserted_nops\":{},\
                 \"substitutions\":{},\"shift_jumps\":{}}}",
                r.functions, r.matched, r.inserted_nops, r.substitutions, r.shift_jumps
            )
        },
    );
    Envelope::new("pgsd-check", verdict)
        .raw("report", report_json)
        .raw("findings", findings_json(findings))
        .to_json()
}

/// `pgsd symbolicate` — remap a variant-space crash address back to the
/// baseline instruction through the cache's provenance ledger. Prints
/// one deterministic JSON document; exit 0 on a hit, 1 when the variant
/// is unknown or the address unmapped, 2 on usage or I/O errors.
fn cmd_symbolicate(a: &Args) -> Result<(), CliError> {
    let (vid, fault_addr) = (&a.operands[1], parse_addr(&a.operands[2])?);
    let (_, session) = file_session(a, &Telemetry::disabled())?;
    let sym = session
        .symbolicate(vid, fault_addr)
        .map_err(|e| e.to_string())?;
    match sym {
        Some(s) => {
            println!(
                "{}",
                Envelope::new("pgsd-symbolicate", "hit")
                    .raw("crash", s.to_json())
                    .to_json()
            );
            Ok(())
        }
        None => {
            println!(
                "{}",
                Envelope::new("pgsd-symbolicate", "miss")
                    .str("variant_id", vid)
                    .str("fault_addr", &format!("{fault_addr:#010x}"))
                    .to_json()
            );
            Err(CliError::failed(format!(
                "no ledger record maps variant `{vid}` address {fault_addr:#010x} — \
                 unknown variant, corrupt map, or address outside every function"
            )))
        }
    }
}

/// Parses a crash address: `0x`-prefixed hex or plain decimal.
fn parse_addr(s: &str) -> Result<u32, String> {
    let parsed = match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => u32::from_str_radix(hex, 16),
        None => s.parse(),
    };
    parsed.map_err(|e| format!("bad address `{s}`: {e}"))
}

/// `pgsd audit` — build a diversified population per target and run the
/// whole-image static audit (CFG recovery, abstract interpretation,
/// gadget reachability) over every variant.
fn cmd_audit(a: &Args) -> Result<(), CliError> {
    let workloads = a.list("--workload", "name")?;
    let versions = a.parsed("--versions", "versions")?.unwrap_or(16);
    if versions == 0 {
        return Err("--versions must be at least 1".into());
    }
    let tel = telemetry_for(a);
    let (strategy, config, _) = requested(a, &tel)?;
    let train = a.train()?;
    // Targets: (name, source, training inputs). An explicit `--train`
    // list overrides a workload's own train set.
    let mut targets: Vec<(String, String, Vec<Input>)> = Vec::new();
    if let Some(file) = a.operands.first() {
        let inputs = train.as_deref().map(|t| vec![Input::args(t)]);
        targets.push((file.clone(), read_source(file)?, inputs.unwrap_or_default()));
    }
    if targets.is_empty() && workloads.is_empty() {
        return Err("`pgsd audit` needs a source file or `--workload LIST`".into());
    }
    for name in workloads {
        let w = pgsd::workloads::by_name(name)
            .ok_or_else(|| format!("unknown workload `{name}` (e.g. 470.lbm, 401.bzip2)"))?;
        let inputs = train
            .as_deref()
            .map_or_else(|| w.train.clone(), |t| vec![Input::args(t)]);
        targets.push((w.name.to_owned(), w.source, inputs));
    }

    let mut outcomes = Vec::with_capacity(targets.len());
    let result = (|| -> Result<(), CliError> {
        for (name, source, train) in &targets {
            let session = session_for(a, name, source, &tel)?.config(config.clone());
            if config.needs_training() {
                if train.is_empty() {
                    return Err(format!(
                        "strategy {strategy} needs a profile: pass `--train LIST` for `{name}`"
                    )
                    .into());
                }
                session
                    .train(train, DEFAULT_GAS)
                    .map_err(|e| format!("training `{name}` failed: {e}"))?;
            }
            let outcome = session.audit(versions).map_err(|e| e.to_string())?;
            let c = &outcome.survivors.counts;
            println!(
                "`{name}`: {} variants (seeds {}..{}), baseline {} gadgets",
                outcome.audits.len(),
                outcome.seed_base,
                outcome.seed_base + outcome.audits.len() as u64,
                outcome.baseline_gadgets,
            );
            println!(
                "  survivors: {} — {} reachable, {} unintended-boundary, {} dead-bytes \
                 (avg {:.2}/variant, {:.2} reachable)",
                c.total(),
                c.reachable,
                c.unintended,
                c.dead,
                outcome.survivors.avg_survivors(),
                outcome.survivors.avg_reachable(),
            );
            let indirects: usize = outcome.audits.iter().map(|a| a.unresolved_indirects).sum();
            println!(
                "  findings: {} error(s), {} total; unresolved indirect branches: {}",
                outcome.error_findings(),
                outcome.total_findings(),
                indirects,
            );
            outcomes.push(outcome);
        }
        Ok(())
    })();
    write_telemetry(a, &tel)?;
    result?;

    if let Some(out) = a.value("--out") {
        let body: Vec<String> = outcomes.iter().map(|o| o.to_json()).collect();
        let doc = format!(
            "{{\"schema_version\":{},\"tool\":\"pgsd-audit\",\"targets\":[{}]}}\n",
            pgsd::analysis::DIAG_SCHEMA_VERSION,
            body.join(",")
        );
        std::fs::write(out, doc).map_err(|e| format!("cannot write report `{out}`: {e}"))?;
        eprintln!("audit report written to {out}");
    }

    let errors: usize = outcomes.iter().map(|o| o.error_findings()).sum();
    if errors > 0 {
        return Err(CliError::failed(format!(
            "audit failed: {errors} error finding(s) across {} target(s)",
            outcomes.len()
        )));
    }
    Ok(())
}

fn cmd_gadgets(a: &Args) -> Result<(), CliError> {
    let tel = Telemetry::disabled();
    let (strategy, config, train) = requested(a, &tel)?;
    let (file, session) = file_session(a, &tel)?;
    let baseline = session.build().map_err(|e| e.to_string())?;
    let cfg = ScanConfig::default();
    let gadgets = find_gadgets(&baseline.text, &cfg);
    println!(
        "`{file}`: {} gadgets in {} bytes of text",
        gadgets.len(),
        baseline.text.len()
    );
    let image = build_diversified(&session, &config, &train)?;
    let rep = survivor(&baseline.text, &image.text, &NopTable::new(), &cfg);
    println!(
        "after diversification ({strategy}, seed {}): {} survive ({:.2}%)",
        config.seed,
        rep.count(),
        100.0 * rep.surviving_fraction()
    );
    Ok(())
}

fn cmd_disasm(a: &Args) -> Result<(), CliError> {
    let (_, session) = file_session(a, &Telemetry::disabled())?;
    let image = session.build().map_err(|e| e.to_string())?;
    let filter = a.value("--func");
    for f in &image.funcs {
        if filter.is_some_and(|name| f.name != name) {
            continue;
        }
        println!(
            "\n{}:  ; {:#010x}..{:#010x}{}",
            f.name,
            f.start,
            f.end,
            if f.diversified {
                ""
            } else {
                "  (runtime, undiversified)"
            }
        );
        let mut off = (f.start - image.base) as usize;
        let end = (f.end - image.base) as usize;
        while off < end {
            match decode(&image.text[off..]) {
                Ok(d) => {
                    let bytes: Vec<String> = image.text[off..off + d.len]
                        .iter()
                        .map(|b| format!("{b:02x}"))
                        .collect();
                    println!(
                        "  {:#010x}:  {:<24} {d}",
                        image.base as usize + off,
                        bytes.join(" ")
                    );
                    off += d.len;
                }
                Err(e) => return Err(format!("disassembly failed at {off:#x}: {e}").into()),
            }
        }
    }
    Ok(())
}

/// `pgsd cache stats|clear` — inspect or empty the persistent store.
/// The directory is `--cache-dir` when given, else `.pgsd-cache`.
fn cmd_cache(a: &Args) -> Result<(), CliError> {
    let dir = PathBuf::from(a.value("--cache-dir").unwrap_or(".pgsd-cache"));
    let action = a.operands[0].as_str();
    let json = a.switch("--json");
    if json && action != "stats" {
        return Err("--json only applies to `pgsd cache stats`".into());
    }
    match action {
        "stats" => {
            // A missing directory is an empty cache, not an error — the
            // JSON schema stays identical either way.
            let stats = if dir.is_dir() {
                Cache::persistent(&dir)
                    .map_err(|e| format!("cannot open cache `{}`: {e}", dir.display()))?
                    .stats()
            } else {
                pgsd::cache::CacheStats::default()
            };
            if json {
                // Schema-versioned, fixed field order — golden-test safe.
                println!(
                    "{{\"schema_version\":1,\"tool\":\"pgsd-cache\",\"dir\":{},\
                     \"disk_entries\":{},\"disk_bytes\":{},\
                     \"ledger_records\":{},\"ledger_bytes\":{}}}",
                    pgsd::telemetry::json::quote(&dir.display().to_string()),
                    stats.disk_entries,
                    stats.disk_bytes,
                    stats.ledger_records,
                    stats.ledger_bytes
                );
            } else if !dir.is_dir() {
                println!("cache at {}: empty (no cache directory)", dir.display());
            } else {
                println!(
                    "cache at {}: {} artifact(s), {} bytes on disk, \
                     {} ledgered variant(s) ({} map bytes)",
                    dir.display(),
                    stats.disk_entries,
                    stats.disk_bytes,
                    stats.ledger_records,
                    stats.ledger_bytes
                );
            }
            Ok(())
        }
        "clear" => {
            let removed = Cache::clear_dir(&dir)
                .map_err(|e| format!("cannot clear cache `{}`: {e}", dir.display()))?;
            println!("cache at {}: removed {} file(s)", dir.display(), removed);
            Ok(())
        }
        other => {
            Err(format!("unknown cache action `{other}` (expected `stats` or `clear`)").into())
        }
    }
}

fn cmd_fuzz(a: &Args) -> Result<(), CliError> {
    let defaults = FuzzConfig::default();
    let mut config = FuzzConfig {
        iters: a.parsed("--iters", "iters")?.unwrap_or(defaults.iters),
        seed: a.parsed("--seed", "seed")?.unwrap_or(defaults.seed),
        variants_per_set: a
            .parsed("--variants", "variants")?
            .unwrap_or(defaults.variants_per_set),
        threads: a.threads.unwrap_or(defaults.threads),
        ..defaults
    };
    let transforms = a.list("--transforms", "of nop,subst,shift,combo")?;
    if !transforms.is_empty() {
        config.transforms = transforms
            .into_iter()
            .map(|s| {
                TransformSet::parse(s).ok_or_else(|| {
                    format!("bad transform `{s}` (expected nop, subst, shift or combo)")
                })
            })
            .collect::<Result<_, _>>()?;
    }
    let corpus = a.value("--corpus").unwrap_or("corpus");
    let json = a.switch("--json");

    if let Some(dir) = a.value("--replay") {
        let report = replay(Path::new(dir))?;
        if json {
            println!(
                "{}",
                Envelope::new(
                    "pgsd-fuzz",
                    if report.all_passing() { "pass" } else { "fail" }
                )
                .str("mode", "replay")
                .u64("cases", report.cases.len() as u64)
                .u64("passing", report.passing() as u64)
                .to_json()
            );
        } else {
            for case in &report.cases {
                if case.passing {
                    println!("replay {}: ok", case.id);
                } else {
                    eprintln!("replay {}: {}", case.id, case.detail);
                }
            }
            println!(
                "replayed {} reproducer(s): {} passing",
                report.cases.len(),
                report.passing()
            );
        }
        return if report.all_passing() {
            Ok(())
        } else {
            Err(CliError::failed(format!(
                "{} reproducer(s) still failing",
                report.cases.len() - report.passing()
            )))
        };
    }

    let tel = telemetry_for(a);
    let result = fuzz(&config, Some(Path::new(corpus)), &tel);
    write_telemetry(a, &tel)?;
    let report = result?;
    let clean = report.findings.is_empty()
        && report.divergences == 0
        && report.static_rejections == 0
        && report.build_errors == 0;
    if json {
        println!(
            "{}",
            Envelope::new("pgsd-fuzz", if clean { "pass" } else { "fail" })
                .str("mode", "fuzz")
                .u64("programs", report.programs as u64)
                .u64("cases", report.cases as u64)
                .str("transforms", &report.transforms.join(","))
                .u64("variants_per_set", report.variants_per_set as u64)
                .u64("divergences", report.divergences as u64)
                .u64("static_rejections", report.static_rejections as u64)
                .u64("build_errors", report.build_errors as u64)
                .u64("skipped_out_of_gas", report.skipped_out_of_gas as u64)
                .u64("findings", report.findings.len() as u64)
                .to_json()
        );
    } else {
        println!(
            "fuzzed {} programs ({} cases, transforms {}, {} variants each): \
             {} divergences, {} static rejections, {} build errors, {} skipped (gas)",
            report.programs,
            report.cases,
            report.transforms.join(","),
            report.variants_per_set,
            report.divergences,
            report.static_rejections,
            report.build_errors,
            report.skipped_out_of_gas
        );
        println!("report written to {corpus}/report.json");
    }
    if clean {
        Ok(())
    } else {
        for f in &report.findings {
            eprintln!(
                "finding {}: transforms={} variant_seed={} shrunk {} → {} statements \
                 (dynamic={}, static={}) — see {corpus}/{}.mc",
                f.id,
                f.tset.label(),
                f.variant_seed,
                f.stmts_before,
                f.stmts_after,
                f.dynamic_diverged,
                f.static_rejected,
                f.id
            );
        }
        Err(CliError::failed(format!(
            "{} divergence(s), {} static rejection(s), {} build error(s)",
            report.divergences, report.static_rejections, report.build_errors
        )))
    }
}

fn cmd_bench(a: &Args) -> Result<(), CliError> {
    let out = a.value("--out").unwrap_or("BENCH_pgsd.json");
    let threads = pgsd::exec::resolve_threads(a.threads);

    eprintln!(
        "bench slice: {} × {} paper configs × {} seeds, threads 1 then {threads}, \
         then a warm-cache pass",
        pgsd::bench::BENCH_SLICE_WORKLOADS.join(", "),
        Strategy::paper_configs().len(),
        pgsd::bench::BENCH_SLICE_SEEDS,
    );
    // Each prepared slice owns a fresh in-memory cache, so the first
    // measurement over it is a true cold pass; re-measuring the second
    // slice is the warm pass — every variant image is a cache hit.
    let serial_prep = pgsd::bench::prepare_bench_slice();
    let serial = pgsd::bench::measure_bench_slice(&serial_prep, 1);
    let warm_prep = pgsd::bench::prepare_bench_slice();
    let parallel = pgsd::bench::measure_bench_slice(&warm_prep, threads);
    let warm = pgsd::bench::measure_bench_slice(&warm_prep, threads);
    for (label, pass) in [("parallel", &parallel), ("warm-cache", &warm)] {
        if pass.cycles != serial.cycles {
            return Err(CliError::failed(format!(
                "cycle totals diverged: {} at 1 thread vs {} in the {label} pass — \
                 builds and runs are supposed to be deterministic",
                serial.cycles, pass.cycles
            )));
        }
    }
    let speedup = serial.wall_ms / parallel.wall_ms;
    let warm_speedup = parallel.wall_ms / warm.wall_ms;

    // Observability throughput: a small ledgered fleet campaign (see
    // `pgsd_bench::fleet`) — populations built with provenance
    // recording, every crash symbolicated back to the baseline.
    eprintln!("fleet slice: 4 configs × 6 ledgered variants, full fault taxonomy");
    let campaign = pgsd::bench::fleet::run_campaign(6, threads, &Telemetry::enabled());
    if !campaign.failures.is_empty() {
        return Err(CliError::failed(format!(
            "fleet campaign failed to remap {} crash(es), first: {}",
            campaign.failures.len(),
            campaign.failures[0]
        )));
    }

    // Serve throughput: an in-process daemon under concurrent client
    // load, every served artifact cmp'd byte-identical against the
    // offline build of the same seed.
    let serve_levels = [2usize, 8];
    let mut serve_results = Vec::with_capacity(serve_levels.len());
    for &clients in &serve_levels {
        eprintln!("serve slice: {clients} concurrent clients × 2 variants each");
        let r =
            pgsd::bench::serve_load::run_load("470.lbm", clients, 2).map_err(CliError::failed)?;
        serve_results.push(r);
    }

    let tel = Telemetry::enabled();
    tel.set_gauge("bench.threads", threads as f64);
    // The speedup only means something relative to the cores actually
    // present (e.g. 4 threads on a 1-core box is a slowdown).
    tel.set_gauge(
        "bench.host_parallelism",
        pgsd::exec::available_threads() as f64,
    );
    tel.set_gauge(
        &pgsd::telemetry::labeled("bench.wall_ms", &[("cache", "cold"), ("threads", "1")]),
        serial.wall_ms,
    );
    tel.set_gauge(
        &pgsd::telemetry::labeled(
            "bench.wall_ms",
            &[("cache", "cold"), ("threads", &threads.to_string())],
        ),
        parallel.wall_ms,
    );
    tel.set_gauge(
        &pgsd::telemetry::labeled(
            "bench.wall_ms",
            &[("cache", "warm"), ("threads", &threads.to_string())],
        ),
        warm.wall_ms,
    );
    tel.set_gauge("bench.speedup_vs_1thread", speedup);
    tel.set_gauge("bench.cache_warm_speedup", warm_speedup);
    tel.set_gauge("bench.emulated_mcycles", parallel.cycles as f64 / 1e6);
    tel.add("bench.builds", parallel.builds);
    tel.add("bench.runs", parallel.runs);
    tel.set_gauge(
        "bench.ledger_variants_per_sec",
        campaign.variants() as f64 / campaign.ledger_secs.max(1e-9),
    );
    tel.set_gauge(
        "bench.symbolicate_per_sec",
        campaign.symbolicate_calls as f64 / campaign.symbolicate_secs.max(1e-9),
    );
    tel.set_gauge(
        "bench.fleet_remap_accuracy_pct",
        campaign.accuracy_pct() as f64,
    );
    for r in &serve_results {
        let clients = r.clients.to_string();
        tel.set_gauge(
            &pgsd::telemetry::labeled("bench.serve_variants_per_sec", &[("clients", &clients)]),
            r.variants_per_sec(),
        );
        tel.set_gauge(
            &pgsd::telemetry::labeled("bench.serve_bytes_served", &[("clients", &clients)]),
            r.bytes_served as f64,
        );
    }
    std::fs::write(out, tel.metrics_json())
        .map_err(|e| format!("cannot write metrics `{out}`: {e}"))?;

    println!(
        "bench slice: {:.0} ms at 1 thread, {:.0} ms at {threads} threads \
         ({speedup:.2}× speedup), {:.0} ms warm ({warm_speedup:.2}× vs cold), \
         {:.1} Mcycles emulated per pass",
        serial.wall_ms,
        parallel.wall_ms,
        warm.wall_ms,
        parallel.cycles as f64 / 1e6
    );
    println!(
        "fleet slice: {}/{} crashes remapped ({}%), {:.0} ledgered variants/s, \
         {:.0} symbolications/s",
        campaign.remapped(),
        campaign.crashes(),
        campaign.accuracy_pct(),
        campaign.variants() as f64 / campaign.ledger_secs.max(1e-9),
        campaign.symbolicate_calls as f64 / campaign.symbolicate_secs.max(1e-9),
    );
    for r in &serve_results {
        println!(
            "serve slice: {} clients — {:.1} variants/s ({} variants, {} KiB served, \
             all byte-identical to offline builds)",
            r.clients,
            r.variants_per_sec(),
            r.variants,
            r.bytes_served / 1024,
        );
    }
    println!("results written to {out}");
    Ok(())
}

/// `pgsd serve` — run the variant-distribution daemon until a signal or
/// a protocol `shutdown` request drains it.
fn cmd_serve(a: &Args) -> Result<(), CliError> {
    let addr = a.value("--addr").unwrap_or("127.0.0.1:7340");
    let defaults = ServeConfig::default();
    let config = ServeConfig {
        queue_capacity: a
            .parsed("--queue", "queue capacity")?
            .unwrap_or(defaults.queue_capacity),
        seed_start: a
            .parsed("--seed-start", "seed-start")?
            .unwrap_or(defaults.seed_start),
        workers: a.threads,
        cache: a.open_cache()?,
        ..defaults
    };
    let settings = format!(
        "{} workers, queue {}, seeds from {}",
        pgsd::exec::resolve_threads(config.workers),
        config.queue_capacity,
        config.seed_start
    );
    let handle = serve(addr, config).map_err(|e| format!("cannot bind `{addr}`: {e}"))?;
    println!("pgsd serve: listening on {} ({settings})", handle.addr());
    install_signal_handlers(&handle);
    handle.join();
    eprintln!("pgsd serve: drained, exiting");
    Ok(())
}

/// `pgsd fetch` — request one variant from a running daemon.
fn cmd_fetch(a: &Args) -> Result<(), CliError> {
    let file = a.operands.first();
    let source = file.map(|f| read_source(f)).transpose()?;
    let workloads = a.list("--workload", "name")?;
    // The daemon parses the spec itself; checking it here turns a typo
    // into a usage error before any connection is made.
    a.pnop()?;
    let (seed, train) = (a.parsed("--seed", "seed")?, a.train()?);
    let Some(addr) = a.value("--addr") else {
        return Err("`pgsd fetch` needs `--addr HOST:PORT` (a running `pgsd serve`)".into());
    };
    let target = match (file.zip(source), workloads.as_slice()) {
        (Some((name, text)), []) => Target::Source {
            name: name.clone(),
            text,
        },
        (None, [w]) => Target::Workload((*w).to_owned()),
        (None, []) => {
            return Err("`pgsd fetch` needs a source file or `--workload NAME`".into());
        }
        (Some(_), _) => {
            return Err("`pgsd fetch` takes a source file or `--workload`, not both".into());
        }
        (None, _) => {
            return Err("`pgsd fetch` takes exactly one `--workload` name".into());
        }
    };
    let req = DiversifyRequest {
        target,
        pnop: a.value("--pnop").map(str::to_owned),
        seed,
        shift: a.switch("--shift"),
        subst: a.switch("--subst"),
        regrand: a.switch("--regrand"),
        train,
        validate: a.switch("--validate"),
    };
    let fetched = pgsd::serve::client::fetch(addr, &req).map_err(|e| match e {
        // The server refused or failed the request: the property under
        // test failed — exit 1. Transport problems are exit 2.
        ClientError::Busy { .. } => CliError::failed(e.to_string()),
        ClientError::Proto(ref p)
            if !matches!(p.code, ErrorCode::BadRequest | ErrorCode::UnknownWorkload) =>
        {
            CliError::failed(e.to_string())
        }
        other => CliError::from(other.to_string()),
    })?;
    if let Some(out) = a.value("--out") {
        std::fs::write(out, &fetched.payload)
            .map_err(|e| format!("cannot write artifact `{out}`: {e}"))?;
        eprintln!(
            "image artifact written to {out} ({} bytes)",
            fetched.payload.len()
        );
    }
    let info: &VariantInfo = &fetched.info;
    if a.switch("--json") {
        // The server's envelope, re-rendered verbatim: one shared
        // schema for the wire and the CLI.
        println!("{}", Response::Variant(info.clone()).to_json());
    } else {
        println!(
            "fetched variant {} from {addr}: seed {} ({}), {}, {}",
            info.variant_id,
            info.seed,
            if info.seed_pinned {
                "pinned"
            } else {
                "server-assigned"
            },
            info.strategy,
            info.transforms,
        );
        println!(
            "  text {} bytes, artifact {} bytes, module {}, config {}, addr map {} bytes",
            info.text_bytes,
            info.payload_bytes,
            info.module_key,
            info.config_key,
            info.addr_map_bytes,
        );
    }
    Ok(())
}

fn cmd_report(a: &Args) -> Result<(), CliError> {
    let path = &a.operands[0];
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    let doc = MetricsDoc::from_json(&text).map_err(|e| format!("`{path}`: {e}"))?;
    print!("{}", doc.summary_table());
    Ok(())
}
