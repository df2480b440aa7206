//! Build configuration, the seed-dependent pipeline stages, and emulator
//! glue for running images.
//!
//! [`crate::Session`] is the one build path: its cached build runs the
//! stages below in order, memoizing the seed-independent prefix.
//!
//! ```text
//! source ─frontend─► IR ─┬─lower─► LIR ─apply_diversity─► LIR ─emit─► image ─validate_pair
//!                        └─instrument─► IR ─lower─► LIR ─emit─► image ─run(train)─► profile
//! ```
//!
//! # Configuring a build
//!
//! [`BuildConfig`] describes one build. Start from a preset —
//! [`BuildConfig::baseline`] (no diversification),
//! [`BuildConfig::diversified`] (NOP insertion, the paper's main
//! configuration), or [`BuildConfig::full_diversity`] (NOPs plus all
//! three §6 extensions: block shifting, instruction substitution,
//! register randomization) — then refine it with the chainable
//! modifiers: [`BuildConfig::validated`] makes the build prove the
//! variant equivalent to its baseline with `pgsd-analysis`'s `divcheck`
//! and fail otherwise, and [`BuildConfig::with_telemetry`] records
//! spans and counters for every stage into a [`Telemetry`] handle.
//! Hand the result to a [`crate::Session`]:
//!
//! ```
//! use pgsd_core::{BuildConfig, Input, Session, Strategy};
//! use pgsd_telemetry::Telemetry;
//!
//! let tel = Telemetry::enabled();
//! let config = BuildConfig::full_diversity(Strategy::range(0.0, 0.5), 42)
//!     .validated()
//!     .with_telemetry(tel.clone());
//! let session = Session::from_source(
//!     "demo",
//!     "int main(int n) { int s = 0; for (int i = 0; i < n; i++) { s += i; } return s; }",
//! )
//! .config(config);
//! session.train(&[Input::args(&[30])], 1_000_000)?; // range strategy needs a profile
//! let image = session.build()?; // diversified, validated, fully traced
//! assert!(session.run(&image, &Input::args(&[10]), 1_000_000, "run").status() == Some(45));
//! # Ok::<(), pgsd_cc::error::CompileError>(())
//! ```
//!
//! Parallel work goes through [`crate::Session`] too: `Session::train`,
//! `Session::population`, and `Session::audit` fan out on the session's
//! worker count (`Session::threads`), merging per-job telemetry in job
//! order so results and metrics are byte-identical at any thread count.

use rand::rngs::StdRng;
use rand::SeedableRng;

use pgsd_analysis::divcheck::Transforms;
use pgsd_cc::emit::{Image, STACK_TOP};
use pgsd_cc::error::{CompileError, Result};
use pgsd_cc::lir::MFunction;
use pgsd_emu::{Emulator, Exit, InstClass, RunStats};
use pgsd_profile::Profile;
use pgsd_telemetry::Telemetry;
use pgsd_x86::nop::NopTable;

use crate::curve::Strategy;
use crate::nop_pass::insert_nops_with;
use crate::shift_pass::shift_blocks;
use crate::subst_pass::substitute;

/// Default instruction budget for emulated runs (generous for the
/// synthetic workloads, small enough to catch runaways).
pub const DEFAULT_GAS: u64 = 500_000_000;

/// Configuration of one diversified build.
#[derive(Debug, Clone, PartialEq)]
pub struct BuildConfig {
    /// The NOP-insertion strategy, or `None` for a baseline build.
    pub strategy: Option<Strategy>,
    /// Include the bus-locking `xchg` candidates in the NOP table
    /// (paper's compile-time opt-in).
    pub with_xchg: bool,
    /// Also apply basic-block shifting (§6) with this maximum pad size.
    pub shift_max_pad: Option<usize>,
    /// Also apply equivalent-instruction substitution (§6) with this
    /// probability strategy.
    pub substitution: Option<Strategy>,
    /// Also randomize the register-allocation order per function (§6).
    pub reg_randomize: bool,
    /// RNG seed; distinct seeds produce distinct program versions.
    pub seed: u64,
    /// After a diversified build, statically validate the variant against
    /// a freshly built baseline with `pgsd-analysis`'s `divcheck` and fail
    /// the build if the proof does not go through.
    pub validate: bool,
    /// Telemetry handle: spans and counters for every stage of the build
    /// are recorded here. Defaults to disabled (no overhead).
    pub telemetry: Telemetry,
}

impl BuildConfig {
    /// A baseline (undiversified) build.
    pub fn baseline() -> BuildConfig {
        BuildConfig {
            strategy: None,
            with_xchg: false,
            shift_max_pad: None,
            substitution: None,
            reg_randomize: false,
            seed: 0,
            validate: false,
            telemetry: Telemetry::disabled(),
        }
    }

    /// A diversified build with `strategy` and `seed` (NOP insertion
    /// only — the paper's main configuration).
    pub fn diversified(strategy: Strategy, seed: u64) -> BuildConfig {
        BuildConfig {
            strategy: Some(strategy),
            seed,
            ..BuildConfig::baseline()
        }
    }

    /// Everything on: NOP insertion plus all three §6 extensions with the
    /// same probability strategy (see the [module docs](self) for how
    /// the presets and modifiers compose).
    pub fn full_diversity(strategy: Strategy, seed: u64) -> BuildConfig {
        BuildConfig {
            strategy: Some(strategy),
            with_xchg: false,
            shift_max_pad: Some(24),
            substitution: Some(strategy),
            reg_randomize: true,
            seed,
            validate: false,
            telemetry: Telemetry::disabled(),
        }
    }

    /// The build a `pgsd` request asks for, from the CLI's flags or a
    /// serve daemon's `DiversifyRequest`: NOP insertion with `strategy`,
    /// plus each §6 extension the request switches on — block shifting
    /// with a 24-byte maximum pad, substitution at the NOP strategy's
    /// probabilities, register randomization — and, with `validate`,
    /// the post-build proof. One mapping, so the CLI and the daemon
    /// build the same bytes for the same request.
    pub fn requested(
        strategy: Strategy,
        seed: u64,
        shift: bool,
        subst: bool,
        regrand: bool,
        validate: bool,
    ) -> BuildConfig {
        BuildConfig {
            strategy: Some(strategy),
            with_xchg: false,
            shift_max_pad: shift.then_some(24),
            substitution: subst.then_some(strategy),
            reg_randomize: regrand,
            seed,
            validate,
            telemetry: Telemetry::disabled(),
        }
    }

    /// Whether a session must train before this build: a profile-guided
    /// NOP strategy needs the profile, and substitution reads it too.
    pub fn needs_training(&self) -> bool {
        self.strategy.is_some_and(|s| s.needs_profile()) || self.substitution.is_some()
    }

    /// Returns this configuration with post-build validation enabled
    /// (see the [module docs](self)).
    pub fn validated(mut self) -> BuildConfig {
        self.validate = true;
        self
    }

    /// Returns this configuration recording into `tel` (see the
    /// [module docs](self)).
    pub fn with_telemetry(mut self, tel: Telemetry) -> BuildConfig {
        self.telemetry = tel;
        self
    }

    /// The transform declaration `divcheck` validates against.
    pub fn transforms(&self) -> Transforms {
        Transforms {
            nops: self.strategy.is_some(),
            shift: self.shift_max_pad.is_some(),
            subst: self.substitution.is_some(),
            regrand: self.reg_randomize,
            with_xchg: self.with_xchg,
        }
    }
}

impl Default for BuildConfig {
    fn default() -> BuildConfig {
        BuildConfig::baseline()
    }
}

/// Fails if a configured strategy needs profile data and none is given.
pub(crate) fn require_profile(config: &BuildConfig, profile: Option<&Profile>) -> Result<()> {
    for s in config.strategy.iter().chain(config.substitution.iter()) {
        if s.needs_profile() && profile.is_none() {
            return Err(CompileError::new(format!(
                "strategy {s} requires profile data; run training first"
            )));
        }
    }
    Ok(())
}

/// Whether `config` applies any diversifying transform at all.
pub(crate) fn is_diversifying(config: &BuildConfig) -> bool {
    config.strategy.is_some()
        || config.substitution.is_some()
        || config.shift_max_pad.is_some()
        || config.reg_randomize
}

/// The seed-dependent delta of a diversified build: shift, substitution
/// and NOP passes over already-lowered functions, in pipeline order,
/// from one RNG seeded with `config.seed`. Telemetry goes to
/// `config.telemetry`.
///
/// This is the production diversify stage; it is public so that the
/// differential fuzzer can inject a miscompilation after exactly the
/// passes a shipped build runs.
pub fn apply_diversity(funcs: &mut [MFunction], profile: Option<&Profile>, config: &BuildConfig) {
    let tel = &config.telemetry;
    let table = if config.with_xchg {
        NopTable::with_xchg()
    } else {
        NopTable::new()
    };
    let mut rng = StdRng::seed_from_u64(config.seed);
    if let Some(max_pad) = config.shift_max_pad {
        let _s = tel.span("shift_pass");
        shift_blocks(funcs, max_pad, &table, &mut rng, tel);
    }
    if let Some(strategy) = &config.substitution {
        let _s = tel.span("subst_pass");
        substitute(funcs, strategy, profile, &mut rng, tel);
    }
    if let Some(strategy) = &config.strategy {
        let _s = tel.span("nop_pass");
        insert_nops_with(funcs, strategy, profile, &table, &mut rng, tel);
    }
}

/// Checks `image` against `baseline` under the transforms `config`
/// declares, recording verdict counters; a refused proof is an error.
pub(crate) fn validate_pair(baseline: &Image, image: &Image, config: &BuildConfig) -> Result<()> {
    let tel = &config.telemetry;
    match pgsd_analysis::check_images(baseline, image, &config.transforms()) {
        Ok(_) => {
            tel.add("validate.passed", 1);
            Ok(())
        }
        Err(diags) => {
            tel.add("validate.failed", 1);
            tel.add("validate.findings", diags.len() as u64);
            let rendered: Vec<String> = diags.iter().map(|d| d.to_string()).collect();
            Err(CompileError::new(format!(
                "variant failed static validation:\n{}",
                rendered.join("\n")
            )))
        }
    }
}

/// A training or measurement input: arguments to `main` plus optional
/// data-section pokes (written into named globals before the run —
/// workload data such as the PHP VM's bytecode arrives this way).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Input {
    /// Arguments passed to `main`.
    pub args: Vec<i32>,
    /// `(global name, words)` pairs written before execution.
    pub pokes: Vec<(String, Vec<i32>)>,
}

impl Input {
    /// An input with arguments only.
    pub fn args(args: &[i32]) -> Input {
        Input {
            args: args.to_vec(),
            pokes: Vec::new(),
        }
    }

    /// Adds a data poke.
    pub fn poke(mut self, global: &str, words: &[i32]) -> Input {
        self.pokes.push((global.to_owned(), words.to_vec()));
        self
    }
}

/// Loads `image` into a fresh emulator. The image's text and data
/// buffers are `Arc`-shared with the emulator's segments (copy-on-write
/// in [`pgsd_emu`]'s memory), so repeated loads across seeds or inputs
/// never copy the binary.
pub fn load(image: &Image) -> Emulator {
    Emulator::new(
        image.base,
        std::sync::Arc::clone(&image.text),
        image.data_base,
        std::sync::Arc::clone(&image.data),
        STACK_TOP,
    )
}

/// Runs `image` with `args` passed to `main`, up to `gas` instructions.
///
/// Returns the exit reason and execution statistics (cycles, instruction
/// count, printed output).
pub fn run(image: &Image, args: &[i32], gas: u64) -> (Exit, RunStats) {
    let (exit, stats, _) = run_reported(
        image,
        &Input::args(args),
        gas,
        &Telemetry::disabled(),
        "run",
    );
    (exit, stats)
}

/// Runs `image` like [`run`], additionally capturing the deterministic
/// [`pgsd_emu::CrashReport`] — fault class, faulting pc, register file,
/// frame-pointer backtrace — when the exit is abnormal (`None` for
/// clean exits and gas exhaustion). Every abnormal exit also counts a
/// `crash.reports{class=…}` telemetry event.
pub fn run_reported(
    image: &Image,
    input: &Input,
    gas: u64,
    tel: &Telemetry,
    label: &str,
) -> (Exit, RunStats, Option<pgsd_emu::CrashReport>) {
    let _span = tel.span("execute");
    let mut emu = load(image);
    apply_pokes(image, &mut emu, input);
    emu.call_entry(image.main_addr, image.exit_addr, &input.args);
    let exit = emu.run(gas);
    record_run(tel, label, &emu.stats);
    let report = emu.crash_report(&exit);
    if let Some(r) = &report {
        tel.add_labeled("crash.reports", &[("class", r.class.label())], 1);
    }
    (exit, emu.stats, report)
}

/// Records one run's [`RunStats`] as `emu.*` counters labeled
/// `{run=label}`: cycles, instructions, retired NOPs, the data-cache
/// hit/miss split, the branch taken/not-taken split, slack-hidden
/// instructions, and the per-class instruction mix.
pub fn record_run(tel: &Telemetry, label: &str, stats: &RunStats) {
    if !tel.is_enabled() {
        return;
    }
    let run = [("run", label)];
    tel.add_labeled("emu.cycles", &run, stats.cycles);
    tel.add_labeled("emu.instructions", &run, stats.instructions);
    tel.add_labeled("emu.nops_retired", &run, stats.nops_retired);
    tel.add_labeled("emu.dcache_hits", &run, stats.dcache_hits);
    tel.add_labeled("emu.dcache_misses", &run, stats.dcache_misses);
    tel.add_labeled("emu.dcache_accesses", &run, stats.dcache_accesses);
    tel.add_labeled("emu.branch_taken", &run, stats.branch_taken);
    tel.add_labeled("emu.branch_not_taken", &run, stats.branch_not_taken);
    tel.add_labeled("emu.slack_hidden", &run, stats.slack_hidden);
    tel.add_labeled("emu.output_values", &run, stats.output.len() as u64);
    for class in InstClass::ALL {
        let n = stats.mix(class);
        if n > 0 {
            tel.add_labeled(
                "emu.inst_mix",
                &[("run", label), ("class", class.label())],
                n,
            );
        }
    }
}

pub(crate) fn apply_pokes(image: &Image, emu: &mut Emulator, input: &Input) {
    for (name, words) in &input.pokes {
        let addr = image
            .global_addr(name)
            .unwrap_or_else(|| panic!("poke target `{name}` is not a global of this image"));
        let mut bytes = Vec::with_capacity(words.len() * 4);
        for w in words {
            bytes.extend_from_slice(&w.to_le_bytes());
        }
        emu.mem
            .write_bytes(addr, &bytes)
            .expect("poke within the data segment");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Session;

    const SRC: &str = "int main(int n) {
        int s = 0;
        for (int i = 1; i <= n; i++) { s += i; }
        return s;
    }";

    #[test]
    fn baseline_runs_correctly() {
        let image = Session::from_source("t", SRC).build().unwrap();
        let (exit, _) = run(&image, &[10], 1_000_000);
        assert_eq!(exit, Exit::Exited(55));
    }

    #[test]
    fn uniform_diversified_builds_preserve_semantics() {
        let session = Session::from_source("t", SRC);
        for seed in 0..5 {
            let config = BuildConfig::diversified(Strategy::uniform(0.5), seed);
            let image = session.build_with(&config).unwrap();
            let (exit, _) = run(&image, &[10], 1_000_000);
            assert_eq!(exit, Exit::Exited(55), "seed {seed}");
        }
    }

    #[test]
    fn requested_builds_map_the_request_flags() {
        let s = Strategy::uniform(0.5);
        assert_eq!(
            BuildConfig::requested(s, 9, true, true, true, false),
            BuildConfig::full_diversity(s, 9)
        );
        assert_eq!(
            BuildConfig::requested(s, 9, false, false, false, true),
            BuildConfig::diversified(s, 9).validated()
        );
        assert_eq!(Strategy::default(), Strategy::range(0.0, 0.30));
        // Training: a profile-guided strategy, or any substitution.
        assert!(!BuildConfig::requested(s, 1, true, false, true, false).needs_training());
        assert!(BuildConfig::requested(s, 1, false, true, false, false).needs_training());
        let profiled = BuildConfig::requested(Strategy::default(), 1, false, false, false, false);
        assert!(profiled.needs_training());
    }

    #[test]
    fn profiled_strategy_requires_profile() {
        let config = BuildConfig::diversified(Strategy::range(0.1, 0.5), 1);
        let err = Session::from_source("t", SRC)
            .build_with(&config)
            .unwrap_err();
        assert!(err.message.contains("requires profile"));
    }

    #[test]
    fn training_produces_sane_counts() {
        let session = Session::from_source("t", SRC);
        let profile = session.train(&[Input::args(&[100])], DEFAULT_GAS).unwrap();
        let main = profile.func("main").expect("main profiled");
        assert_eq!(main.invocations, 1);
        // The loop body ran 100 times; x_max reflects it.
        assert!(profile.max_count() >= 100, "{profile}");
    }

    #[test]
    fn profile_guided_build_runs_and_is_faster_than_uniform() {
        let plain = Session::from_source("t", SRC);
        let trained = Session::from_source("t", SRC);
        trained.train(&[Input::args(&[50])], DEFAULT_GAS).unwrap();

        let base = plain.build_with(&BuildConfig::baseline()).unwrap();
        let (e0, s0) = run(&base, &[200], 10_000_000);
        assert_eq!(e0, Exit::Exited(20100));

        // Average over a few seeds to dodge per-seed luck.
        let mut uni_cycles = 0u64;
        let mut pgo_cycles = 0u64;
        let seeds = 6;
        for seed in 0..seeds {
            let uni = plain
                .build_with(&BuildConfig::diversified(Strategy::uniform(0.5), seed))
                .unwrap();
            let (e1, s1) = run(&uni, &[200], 10_000_000);
            assert_eq!(e1, Exit::Exited(20100));
            uni_cycles += s1.cycles;

            let pgo = trained
                .build_with(&BuildConfig::diversified(Strategy::range(0.0, 0.5), seed))
                .unwrap();
            let (e2, s2) = run(&pgo, &[200], 10_000_000);
            assert_eq!(e2, Exit::Exited(20100));
            pgo_cycles += s2.cycles;
        }
        let base_total = s0.cycles * seeds;
        assert!(uni_cycles > base_total, "uniform NOPs must cost cycles");
        assert!(
            pgo_cycles < uni_cycles,
            "profile guidance must reduce overhead: pgo={pgo_cycles} uni={uni_cycles}"
        );
    }

    #[test]
    fn population_versions_differ_in_text() {
        let images = Session::from_source("t", SRC)
            .config(BuildConfig::diversified(Strategy::uniform(0.5), 100))
            .population(5)
            .unwrap();
        for w in images.windows(2) {
            assert_ne!(w[0].text, w[1].text);
        }
        // All versions still compute the same result.
        for img in &images {
            let (exit, _) = run(img, &[7], 1_000_000);
            assert_eq!(exit, Exit::Exited(28));
        }
    }

    #[test]
    fn validated_builds_pass_divcheck() {
        let session = Session::from_source("t", SRC);
        for seed in 0..4 {
            let nop_only = BuildConfig::diversified(Strategy::uniform(0.5), seed).validated();
            session.build_with(&nop_only).unwrap_or_else(|e| {
                panic!("nop-only seed {seed} failed validation:\n{}", e.message)
            });
            let full = BuildConfig::full_diversity(Strategy::uniform(0.5), seed).validated();
            session.build_with(&full).unwrap_or_else(|e| {
                panic!(
                    "full-diversity seed {seed} failed validation:\n{}",
                    e.message
                )
            });
        }
    }

    #[test]
    fn validation_rejects_undeclared_transforms() {
        // Build with substitution but validate as if only NOPs were
        // declared: the checker must refuse the proof.
        let session = Session::from_source("t", SRC);
        let config = BuildConfig::full_diversity(Strategy::uniform(1.0), 3);
        let variant = session.build_with(&config).unwrap();
        let baseline = session.build_with(&BuildConfig::baseline()).unwrap();
        let narrow = pgsd_analysis::Transforms {
            nops: true,
            ..pgsd_analysis::Transforms::none()
        };
        assert!(pgsd_analysis::check_images(&baseline, &variant, &narrow).is_err());
    }
}
