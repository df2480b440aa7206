//! Fleet crash-symbolication campaign: the observability counterpart
//! of the population experiments.
//!
//! The paper's deployment story is a *massive-scale* population of
//! diversified binaries; its §7 discussion leaves open how a vendor
//! supports such a fleet. This campaign exercises the full answer built
//! in this repo: build populations under every transform configuration
//! with the provenance ledger enabled, crash every variant with every
//! fault class the emulator models, and symbolicate each crash back to
//! the baseline instruction through the ledger's address maps —
//! asserting 100% remap accuracy against independently-computed ground
//! truth (the same injection run on the baseline build).
//!
//! Fault classes are reached two ways:
//!
//! * **source-level injections** — a dispatch program ([`FLEET_SOURCE`])
//!   whose `main(sel, x)` triggers divide errors, unmapped loads and
//!   stores, a store into the read-only text segment, and stack
//!   exhaustion via unbounded recursion;
//! * **binary patches** — the first instruction of each *shipped*
//!   variant is overwritten in place (`hlt`, `salc`, `int 0x7f`, a
//!   register-operand `bound`), modeling in-field corruption; the crash
//!   still symbolicates because the fleet identity is the content hash
//!   of the *original* text.
//!
//! The eighth class, `not_executable`, is a fetch from the data segment:
//! its pc is by definition outside every mapped function, so it is the
//! campaign's negative control — symbolication must *miss*, never
//! mis-attribute.
//!
//! Ground-truth equality holds because every source-level fault is
//! data-driven (its timing does not depend on code layout), with one
//! exception: at the brink of stack exhaustion, substitution's
//! transient `push src; pop dst` pattern can fault one abstract
//! instruction earlier than the baseline. That injection therefore
//! asserts class + function-level remap (and the backtrace cap) instead
//! of exact pc equality.
//!
//! The campaign report ([`Campaign::report_json`]) contains counts and
//! addresses only — no timings — so it is byte-identical at any thread
//! count; CI diffs a 1-thread run against a 4-thread run. Throughput
//! (`ledger_secs`, `symbolicate_secs`) is kept apart for the
//! `bench.ledger_variants_per_sec` / `bench.symbolicate_per_sec`
//! gauges.

use std::sync::Arc;
use std::time::Instant;

use pgsd_cache::Cache;
use pgsd_cc::emit::Image;
use pgsd_core::{run_reported, variant_id, BuildConfig, Input, Session, Strategy};
use pgsd_emu::{CrashClass, CrashReport, MAX_BACKTRACE_FRAMES};
use pgsd_telemetry::json::Value;
use pgsd_telemetry::Telemetry;

/// Workload name used for sessions, reports, and metrics.
pub const FLEET_WORKLOAD: &str = "fleet-faults";

/// Gas budget per injection run. Stack exhaustion is the hungriest
/// injection (~1 MiB of frames before the guard); everything else
/// faults within a few dozen instructions.
pub const FLEET_GAS: u64 = 20_000_000;

/// The fault-dispatch program. `mem` is declared first so it sits at
/// the bottom of the data segment, which lets an injection compute a
/// negative index whose scaled address lands exactly on the text base
/// (see [`injections`]). `grow` recurses unboundedly — the `+ n` after
/// the call keeps it from ever being a tail call.
pub const FLEET_SOURCE: &str = "\
int mem[256];

int grow(int n) {
  return grow(n + 1) + n;
}

int main(int sel, int x) {
  if (sel == 0) { return 1000 / x; }
  if (sel == 1) { return (0 - 2147483647 - 1) / x; }
  if (sel == 2) { return mem[x]; }
  if (sel == 3) { mem[x] = 7; return 1; }
  if (sel == 4) { return grow(1); }
  return mem[0];
}
";

/// Diversified versions per transform configuration
/// (`PGSD_FLEET_VERSIONS`, default 250 — 1 000 variants across the four
/// configurations; the paper-scale 10 000-variant campaign is
/// `PGSD_FLEET_VERSIONS=2500`).
pub fn fleet_versions() -> usize {
    crate::env_usize("PGSD_FLEET_VERSIONS", 250)
}

/// One fault injection: how to crash a variant, and what the crash must
/// look like.
#[derive(Debug, Clone, Copy)]
pub struct Injection {
    /// Stable report name.
    pub name: &'static str,
    /// Arguments passed to `main(sel, x)`.
    pub args: [i32; 2],
    /// The fault class every run must report.
    pub class: CrashClass,
    /// Bytes to overwrite the first instruction of `main` with before
    /// running (`None` = run the shipped image unmodified).
    pub patch: Option<&'static [u8]>,
    /// Whether the remapped pc must equal the baseline faulting pc
    /// exactly (false only for stack exhaustion; see module docs).
    pub exact_pc: bool,
    /// Function the crash must symbolicate into.
    pub function: &'static str,
}

/// The campaign's injection set, computed against the baseline image's
/// layout. Covers seven of the eight [`CrashClass`]es; the eighth
/// (`not_executable`) is the per-configuration negative control.
///
/// # Panics
///
/// Panics if the baseline image has no `mem` global or its data segment
/// sits below the text base — a [`FLEET_SOURCE`] mismatch.
pub fn injections(baseline: &Image) -> Vec<Injection> {
    let mem = baseline
        .globals
        .iter()
        .find(|g| g.name == "mem")
        .expect("FLEET_SOURCE declares a `mem` global");
    // A store to `mem[text_idx]` resolves to `mem + 4*text_idx` =
    // the first text byte: mapped, but read-only.
    assert!(mem.addr > baseline.base && (mem.addr - baseline.base).is_multiple_of(4));
    let text_idx = -(((mem.addr - baseline.base) / 4) as i32);
    let far = 60_000_000; // scaled: ~229 MiB past the data base, unmapped
    vec![
        Injection {
            name: "div_zero",
            args: [0, 0],
            class: CrashClass::DivideError,
            patch: None,
            exact_pc: true,
            function: "main",
        },
        Injection {
            name: "div_overflow",
            args: [1, -1],
            class: CrashClass::DivideError,
            patch: None,
            exact_pc: true,
            function: "main",
        },
        Injection {
            name: "load_unmapped",
            args: [2, far],
            class: CrashClass::Unmapped,
            patch: None,
            exact_pc: true,
            function: "main",
        },
        Injection {
            name: "store_unmapped",
            args: [3, far],
            class: CrashClass::Unmapped,
            patch: None,
            exact_pc: true,
            function: "main",
        },
        Injection {
            name: "store_text",
            args: [3, text_idx],
            class: CrashClass::WriteProtected,
            patch: None,
            exact_pc: true,
            function: "main",
        },
        Injection {
            name: "stack_exhaustion",
            args: [4, 0],
            class: CrashClass::Unmapped,
            patch: None,
            exact_pc: false,
            function: "grow",
        },
        Injection {
            name: "patched_hlt",
            args: [0, 1],
            class: CrashClass::Halted,
            patch: Some(&[0xF4]),
            exact_pc: true,
            function: "main",
        },
        Injection {
            name: "patched_salc",
            args: [0, 1],
            class: CrashClass::Unsupported,
            patch: Some(&[0xD6]),
            exact_pc: true,
            function: "main",
        },
        Injection {
            name: "patched_int",
            args: [0, 1],
            class: CrashClass::BadSyscall,
            patch: Some(&[0xCD, 0x7F]),
            exact_pc: true,
            function: "main",
        },
        Injection {
            name: "patched_bound",
            args: [0, 1],
            class: CrashClass::InvalidInstruction,
            patch: Some(&[0x62, 0xC0]),
            exact_pc: true,
            function: "main",
        },
    ]
}

/// The four transform configurations a fleet ships under, uniform
/// p = 0.5 (untrained: crash observability must not depend on having a
/// profile).
pub fn fleet_configs(seed: u64) -> Vec<(&'static str, BuildConfig)> {
    let s = Strategy::uniform(0.5);
    let base = BuildConfig::baseline();
    vec![
        ("nop", BuildConfig::diversified(s, seed)),
        (
            "subst",
            BuildConfig {
                substitution: Some(s),
                seed,
                ..base.clone()
            },
        ),
        (
            "shift",
            BuildConfig {
                shift: true,
                seed,
                ..base
            },
        ),
        ("full", BuildConfig::full_diversity(s, seed)),
    ]
}

/// Overwrites the first instruction of `main` in a copy of `image`.
fn patch_main_entry(image: &Image, bytes: &[u8]) -> Image {
    let main = image
        .funcs
        .iter()
        .find(|f| f.name == "main")
        .expect("image has a main");
    let off = (main.start - image.base) as usize;
    let mut text = (*image.text).clone();
    text[off..off + bytes.len()].copy_from_slice(bytes);
    let mut out = image.clone();
    out.text = Arc::new(text);
    out
}

/// Per-injection tallies within one configuration.
#[derive(Debug, Clone)]
pub struct InjectionOutcome {
    /// Injection name ([`Injection::name`]).
    pub name: &'static str,
    /// Crashes observed (one per variant).
    pub crashes: usize,
    /// Crashes symbolicated to the correct baseline location.
    pub remapped: usize,
}

/// Campaign tallies for one transform configuration.
#[derive(Debug, Clone)]
pub struct ConfigOutcome {
    /// Configuration label (`nop` / `subst` / `shift` / `full`).
    pub label: &'static str,
    /// Transform set as recorded in the ledger.
    pub transforms: String,
    /// Variants built and ledgered.
    pub variants: usize,
    /// Total injected crashes.
    pub crashes: usize,
    /// Crashes symbolicated to the correct baseline location.
    pub remapped: usize,
    /// Backtrace frames observed on stack-exhaustion crashes.
    pub frames: usize,
    /// Backtrace frames that symbolicated into `grow`/`main`.
    pub frames_remapped: usize,
    /// Negative controls (fetch-from-data) that correctly missed.
    pub negative_misses: usize,
    /// Per-injection breakdown, in [`injections`] order.
    pub injections: Vec<InjectionOutcome>,
}

/// Everything a fleet campaign produced.
#[derive(Debug, Clone)]
pub struct Campaign {
    /// Versions built per configuration.
    pub versions_per_config: usize,
    /// Injection ground truth: `(name, class label, baseline pc)`.
    pub truth: Vec<(&'static str, &'static str, u32)>,
    /// Per-configuration tallies, in [`fleet_configs`] order.
    pub configs: Vec<ConfigOutcome>,
    /// Human-readable remap/class mismatches (empty on a clean run;
    /// capped at [`MAX_FAILURES`]).
    pub failures: Vec<String>,
    /// Variants recorded in the ledger (cache counter).
    pub ledger_records: usize,
    /// Encoded address-map bytes held by the ledger.
    pub ledger_bytes: u64,
    /// Wall-clock seconds spent building + ledgering populations.
    pub ledger_secs: f64,
    /// Symbolication calls made (crashes + backtrace frames + controls).
    pub symbolicate_calls: usize,
    /// Wall-clock seconds spent inside [`Session::symbolicate`].
    pub symbolicate_secs: f64,
}

/// Failure-list cap: enough to diagnose, bounded so a systematic
/// mismatch cannot balloon the report.
pub const MAX_FAILURES: usize = 20;

impl Campaign {
    /// Total crashes injected across configurations.
    pub fn crashes(&self) -> usize {
        self.configs.iter().map(|c| c.crashes).sum()
    }

    /// Total crashes correctly remapped.
    pub fn remapped(&self) -> usize {
        self.configs.iter().map(|c| c.remapped).sum()
    }

    /// Total variants built.
    pub fn variants(&self) -> usize {
        self.configs.iter().map(|c| c.variants).sum()
    }

    /// Remap accuracy in whole percent (100 = every crash remapped).
    pub fn accuracy_pct(&self) -> u64 {
        let crashes = self.crashes();
        if crashes == 0 {
            return 0;
        }
        (self.remapped() * 100 / crashes) as u64
    }

    /// The deterministic campaign report: schema-versioned JSON with
    /// counts and addresses only — no timings, hostnames, or floats —
    /// byte-identical at any thread count.
    pub fn report_json(&self) -> String {
        let truth_rows: Vec<Value> = self
            .truth
            .iter()
            .map(|&(name, class, pc)| {
                Value::Obj(vec![
                    ("name".into(), Value::Str(name.into())),
                    ("class".into(), Value::Str(class.into())),
                    ("baseline_pc".into(), Value::Str(format!("{pc:#010x}"))),
                ])
            })
            .collect();
        let config_rows: Vec<Value> = self
            .configs
            .iter()
            .map(|c| {
                let inj_rows: Vec<Value> = c
                    .injections
                    .iter()
                    .map(|i| {
                        Value::Obj(vec![
                            ("name".into(), Value::Str(i.name.into())),
                            ("crashes".into(), Value::u64(i.crashes as u64)),
                            ("remapped".into(), Value::u64(i.remapped as u64)),
                        ])
                    })
                    .collect();
                Value::Obj(vec![
                    ("config".into(), Value::Str(c.label.into())),
                    ("transforms".into(), Value::Str(c.transforms.clone())),
                    ("variants".into(), Value::u64(c.variants as u64)),
                    ("crashes".into(), Value::u64(c.crashes as u64)),
                    ("remapped".into(), Value::u64(c.remapped as u64)),
                    ("backtrace_frames".into(), Value::u64(c.frames as u64)),
                    (
                        "frames_remapped".into(),
                        Value::u64(c.frames_remapped as u64),
                    ),
                    (
                        "negative_misses".into(),
                        Value::u64(c.negative_misses as u64),
                    ),
                    ("injections".into(), Value::Arr(inj_rows)),
                ])
            })
            .collect();
        let doc = Value::Obj(vec![
            ("schema_version".into(), Value::u64(1)),
            ("kind".into(), Value::Str("pgsd-fleet-report".into())),
            ("workload".into(), Value::Str(FLEET_WORKLOAD.into())),
            (
                "versions_per_config".into(),
                Value::u64(self.versions_per_config as u64),
            ),
            ("injections".into(), Value::Arr(truth_rows)),
            ("configs".into(), Value::Arr(config_rows)),
            (
                "totals".into(),
                Value::Obj(vec![
                    ("variants".into(), Value::u64(self.variants() as u64)),
                    ("crashes".into(), Value::u64(self.crashes() as u64)),
                    ("remapped".into(), Value::u64(self.remapped() as u64)),
                    ("accuracy_pct".into(), Value::u64(self.accuracy_pct())),
                    (
                        "ledger_records".into(),
                        Value::u64(self.ledger_records as u64),
                    ),
                    ("ledger_bytes".into(), Value::u64(self.ledger_bytes)),
                    ("failures".into(), Value::u64(self.failures.len() as u64)),
                ]),
            ),
        ]);
        let mut text = String::new();
        doc.write(&mut text);
        text.push('\n');
        text
    }
}

/// Runs the full campaign: ground truth on the baseline, then per
/// configuration a ledgered population, every injection on every
/// variant, symbolication of every crash, and one negative control.
///
/// Populations build on `threads` workers; the injection/symbolication
/// sweep is serial in seed order, so the resulting [`Campaign`] (and
/// its report) is identical at any thread count.
///
/// # Panics
///
/// Panics if the baseline refuses to crash under an injection — a
/// [`FLEET_SOURCE`] / emulator contract violation, not a remap failure
/// (those are collected in [`Campaign::failures`]).
pub fn run_campaign(versions_per_config: usize, threads: usize, tel: &Telemetry) -> Campaign {
    let cache = Cache::in_memory();
    let baseline_session = Session::from_source(FLEET_WORKLOAD, FLEET_SOURCE)
        .cache(cache.clone())
        .telemetry(tel.clone());
    let baseline = baseline_session.build().expect("baseline builds");
    let injs = injections(&baseline);

    // Ground truth: every injection, run on the baseline.
    let truths: Vec<CrashReport> = injs
        .iter()
        .map(|inj| {
            let image = match inj.patch {
                Some(bytes) => patch_main_entry(&baseline, bytes),
                None => baseline.clone(),
            };
            let (_, _, report) =
                run_reported(&image, &Input::args(&inj.args), FLEET_GAS, tel, "fleet");
            let report =
                report.unwrap_or_else(|| panic!("injection {} must crash the baseline", inj.name));
            assert_eq!(
                report.class, inj.class,
                "baseline {} crashed with the wrong class",
                inj.name
            );
            report
        })
        .collect();

    let mut campaign = Campaign {
        versions_per_config,
        truth: injs
            .iter()
            .zip(&truths)
            .map(|(inj, t)| (inj.name, inj.class.label(), t.pc))
            .collect(),
        configs: Vec::new(),
        failures: Vec::new(),
        ledger_records: 0,
        ledger_bytes: 0,
        ledger_secs: 0.0,
        symbolicate_calls: 0,
        symbolicate_secs: 0.0,
    };
    let fail = |failures: &mut Vec<String>, msg: String| {
        if failures.len() < MAX_FAILURES {
            failures.push(msg);
        }
    };

    for (label, config) in fleet_configs(1) {
        let session = Session::from_source(FLEET_WORKLOAD, FLEET_SOURCE)
            .config(config)
            .threads(threads)
            .cache(cache.clone())
            .ledger(true)
            .telemetry(tel.clone());
        let t0 = Instant::now();
        let variants = session.population(versions_per_config).expect("population");
        campaign.ledger_secs += t0.elapsed().as_secs_f64();

        let mut outcome = ConfigOutcome {
            label,
            transforms: String::new(),
            variants: variants.len(),
            crashes: 0,
            remapped: 0,
            frames: 0,
            frames_remapped: 0,
            negative_misses: 0,
            injections: injs
                .iter()
                .map(|inj| InjectionOutcome {
                    name: inj.name,
                    crashes: 0,
                    remapped: 0,
                })
                .collect(),
        };

        for image in &variants {
            let vid = variant_id(image);
            if outcome.transforms.is_empty() {
                outcome.transforms = cache
                    .ledger_get(&vid)
                    .map(|r| r.transforms)
                    .unwrap_or_else(|| "<unledgered>".into());
            }
            for (k, (inj, truth)) in injs.iter().zip(&truths).enumerate() {
                let injected = match inj.patch {
                    Some(bytes) => patch_main_entry(image, bytes),
                    None => image.clone(),
                };
                let report = session
                    .run(&injected, &Input::args(&inj.args), FLEET_GAS, "fleet")
                    .crash;
                let Some(report) = report else {
                    fail(
                        &mut campaign.failures,
                        format!("{label}/{vid}/{}: did not crash", inj.name),
                    );
                    continue;
                };
                outcome.crashes += 1;
                outcome.injections[k].crashes += 1;
                if report.class != inj.class {
                    fail(
                        &mut campaign.failures,
                        format!(
                            "{label}/{vid}/{}: class {} (want {})",
                            inj.name,
                            report.class.label(),
                            inj.class.label()
                        ),
                    );
                    continue;
                }
                let t1 = Instant::now();
                let sym = session.symbolicate(&vid, report.pc).expect("baseline ok");
                campaign.symbolicate_secs += t1.elapsed().as_secs_f64();
                campaign.symbolicate_calls += 1;
                let Some(sym) = sym else {
                    fail(
                        &mut campaign.failures,
                        format!(
                            "{label}/{vid}/{}: pc {:#010x} did not symbolicate",
                            inj.name, report.pc
                        ),
                    );
                    continue;
                };
                let ok = if inj.exact_pc {
                    sym.baseline_addr == truth.pc && report.addr == truth.addr
                } else {
                    sym.function == inj.function
                };
                if ok && sym.function == inj.function {
                    outcome.remapped += 1;
                    outcome.injections[k].remapped += 1;
                } else {
                    fail(
                        &mut campaign.failures,
                        format!(
                            "{label}/{vid}/{}: remapped to {}@{:#010x}, want {}@{:#010x}",
                            inj.name, sym.function, sym.baseline_addr, inj.function, truth.pc
                        ),
                    );
                }
                // Stack exhaustion pins the backtrace contract: the walk
                // caps at MAX_BACKTRACE_FRAMES and every frame — a
                // `grow` call-return site — symbolicates.
                if inj.name == "stack_exhaustion" {
                    if report.backtrace.len() != MAX_BACKTRACE_FRAMES {
                        fail(
                            &mut campaign.failures,
                            format!(
                                "{label}/{vid}: backtrace {} frames (want {})",
                                report.backtrace.len(),
                                MAX_BACKTRACE_FRAMES
                            ),
                        );
                    }
                    for &ret in &report.backtrace {
                        outcome.frames += 1;
                        let t2 = Instant::now();
                        let fsym = session.symbolicate(&vid, ret).expect("baseline ok");
                        campaign.symbolicate_secs += t2.elapsed().as_secs_f64();
                        campaign.symbolicate_calls += 1;
                        match fsym {
                            Some(s) if s.function == "grow" || s.function == "main" => {
                                outcome.frames_remapped += 1;
                            }
                            _ => fail(
                                &mut campaign.failures,
                                format!("{label}/{vid}: frame {ret:#010x} did not remap"),
                            ),
                        }
                    }
                }
            }
        }

        // Negative control: fetch from the data segment. The pc is
        // outside every mapped function, so symbolication must miss.
        if let Some(image) = variants.first() {
            let mut emu = pgsd_core::driver::load(image);
            emu.call_entry(image.data_base, image.exit_addr, &[]);
            let exit = emu.run(FLEET_GAS);
            let report = emu.crash_report(&exit).expect("fetch from data faults");
            let t3 = Instant::now();
            let sym = session
                .symbolicate(&variant_id(image), report.pc)
                .expect("baseline ok");
            campaign.symbolicate_secs += t3.elapsed().as_secs_f64();
            campaign.symbolicate_calls += 1;
            if report.class == CrashClass::NotExecutable && sym.is_none() {
                outcome.negative_misses += 1;
            } else {
                fail(
                    &mut campaign.failures,
                    format!(
                        "{label}: negative control got class {} / remap {}",
                        report.class.label(),
                        sym.is_some()
                    ),
                );
            }
        }

        campaign.configs.push(outcome);
    }

    let stats = cache.stats();
    campaign.ledger_records = stats.ledger_records;
    campaign.ledger_bytes = stats.ledger_bytes;
    campaign
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_small_campaign_remaps_every_crash() {
        let tel = Telemetry::enabled();
        let campaign = run_campaign(2, 1, &tel);
        assert_eq!(campaign.failures, Vec::<String>::new());
        // 4 configs × 2 variants × 10 injections, all remapped.
        assert_eq!(campaign.crashes(), 80);
        assert_eq!(campaign.remapped(), 80);
        assert_eq!(campaign.accuracy_pct(), 100);
        assert_eq!(campaign.ledger_records, 8);
        // Every config saw its negative control miss.
        assert!(campaign.configs.iter().all(|c| c.negative_misses == 1));
        // Transform sets come from the ledger, not hardcoded labels.
        let by_label: Vec<(&str, &str)> = campaign
            .configs
            .iter()
            .map(|c| (c.label, c.transforms.as_str()))
            .collect();
        assert_eq!(
            by_label,
            vec![
                ("nop", "nop"),
                ("subst", "subst"),
                ("shift", "shift"),
                ("full", "nop+subst+shift+regrand"),
            ]
        );
        // Stack exhaustion produced capped, fully-symbolicated frames.
        for c in &campaign.configs {
            assert_eq!(c.frames, 2 * MAX_BACKTRACE_FRAMES);
            assert_eq!(c.frames_remapped, c.frames);
        }
    }

    #[test]
    fn the_report_is_deterministic_and_timing_free() {
        let a = run_campaign(2, 1, &Telemetry::enabled());
        let b = run_campaign(2, 4, &Telemetry::enabled());
        let (ra, rb) = (a.report_json(), b.report_json());
        assert_eq!(ra, rb, "report must not depend on thread count");
        assert!(ra.contains("\"accuracy_pct\":100"));
        assert!(ra.contains("\"kind\":\"pgsd-fleet-report\""));
        assert!(!ra.contains("secs"), "timings must stay out of the report");
    }

    #[test]
    fn injections_cover_the_full_fault_taxonomy() {
        let baseline = Session::from_source(FLEET_WORKLOAD, FLEET_SOURCE)
            .build()
            .expect("baseline builds");
        let injs = injections(&baseline);
        let mut classes: Vec<&str> = injs.iter().map(|i| i.class.label()).collect();
        classes.push("not_executable"); // the negative control
        classes.sort_unstable();
        classes.dedup();
        let mut all: Vec<&str> = CrashClass::ALL.iter().map(|c| c.label()).collect();
        all.sort_unstable();
        assert_eq!(classes, all);
    }
}
