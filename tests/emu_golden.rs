//! Emulator golden: every workload's first training input, run on the
//! baseline build, on one pNOP=50% variant and on one variant with every
//! transform on (NOPs, block shifting, substitution, register
//! randomization, all at 50%), must reproduce its exit
//! and its full `RunStats` — cycles, instructions, retired and
//! slack-hidden NOPs, the d-cache split, the branch split, the
//! instruction mix — and a digest of its printed output, exactly.
//!
//! The cycle counts are the substitute for the paper's wall-clock
//! measurements (Figure 4), so any change to the emulator's execution
//! engine must leave every figure here untouched. Regenerate the golden
//! file after an intentional change to the cost model, the compiler or
//! a workload with:
//! `PGSD_BLESS=1 cargo test --test emu_golden`.

use std::fmt::Write as _;
use std::fs;
use std::path::Path;

use pgsd::cache::Fnv64;
use pgsd::core::driver::{BuildConfig, DEFAULT_GAS};
use pgsd::core::{Session, Strategy};
use pgsd::emu::{InstClass, RunStats};
use pgsd::workloads::spec_suite;

/// The diversified build every workload is also run under.
const VARIANT_SEED: u64 = 1;
const VARIANT_PNOP: f64 = 0.5;

/// 64-bit FNV-1a over the printed values, little-endian.
fn digest(output: &[i32]) -> u64 {
    let mut h = Fnv64::new();
    for v in output {
        h.write(&v.to_le_bytes());
    }
    h.finish()
}

fn entry(out: &mut String, workload: &str, build: &str, exit: &str, s: &RunStats) {
    let mix: Vec<String> = InstClass::ALL
        .iter()
        .map(|&c| format!("\"{}\":{}", c.label(), s.mix(c)))
        .collect();
    write!(
        out,
        "  {{\"workload\":\"{workload}\",\"build\":\"{build}\",\"exit\":\"{exit}\",\
         \"cycles\":{},\"instructions\":{},\"nops_retired\":{},\"slack_hidden\":{},\
         \"dcache_hits\":{},\"dcache_misses\":{},\"dcache_accesses\":{},\
         \"branch_taken\":{},\"branch_not_taken\":{},\"inst_mix\":{{{}}},\
         \"output_len\":{},\"output_digest\":\"{:016x}\"}}",
        s.cycles,
        s.instructions,
        s.nops_retired,
        s.slack_hidden,
        s.dcache_hits,
        s.dcache_misses,
        s.dcache_accesses,
        s.branch_taken,
        s.branch_not_taken,
        mix.join(","),
        s.output.len(),
        digest(&s.output),
    )
    .expect("infallible");
}

fn render() -> String {
    let variant = BuildConfig::diversified(Strategy::uniform(VARIANT_PNOP), VARIANT_SEED);
    let builds = [
        ("baseline", BuildConfig::baseline()),
        ("pnop50_seed1", variant),
        (
            "full50_seed1",
            BuildConfig::full_diversity(Strategy::uniform(VARIANT_PNOP), VARIANT_SEED),
        ),
    ];
    let mut entries = Vec::new();
    for w in spec_suite() {
        let session = Session::from_source(w.name, &w.source);
        for (label, config) in &builds {
            let image = session
                .build_with(config)
                .unwrap_or_else(|e| panic!("{} {label}: {e}", w.name));
            let out = session.run(&image, &w.train[0], DEFAULT_GAS, "golden");
            let mut line = String::new();
            entry(
                &mut line,
                w.name,
                label,
                &format!("{:?}", out.exit),
                &out.stats,
            );
            entries.push(line);
        }
    }
    format!("[\n{}\n]\n", entries.join(",\n"))
}

#[test]
fn train_runs_match_emulator_golden() {
    let actual = render();
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/emu_runs.json");
    if std::env::var("PGSD_BLESS").is_ok() {
        fs::write(&path, &actual).expect("can bless golden file");
        return;
    }
    let golden =
        fs::read_to_string(&path).expect("golden file exists (regenerate with PGSD_BLESS=1)");
    for (i, (a, g)) in actual.lines().zip(golden.lines()).enumerate() {
        assert_eq!(
            a, g,
            "line {i} of tests/golden/emu_runs.json drifted; if the change is \
             intentional, regenerate with PGSD_BLESS=1"
        );
    }
    assert_eq!(
        actual.lines().count(),
        golden.lines().count(),
        "entry count drifted"
    );
}
