//! The [`Session`] API: one handle over module, profile, configuration,
//! parallelism and cache for the whole diversification workflow.
//!
//! A session is the one build path: its cached build is the only code
//! that runs lower → diversify → emit → validate in order, and training,
//! runs and populations go through the same handle:
//!
//! ```
//! use pgsd_core::{BuildConfig, Input, Session, Strategy};
//!
//! let session = Session::from_source(
//!     "demo",
//!     "int main(int n) { int s = 0; for (int i = 0; i < n; i++) { s += i; } return s; }",
//! )
//! .config(BuildConfig::diversified(Strategy::range(0.0, 0.5), 7));
//! session.train(&[Input::args(&[30])], 1_000_000)?;
//! let image = session.build()?;
//! let outcome = session.run(&image, &Input::args(&[10]), 1_000_000, "run");
//! assert_eq!(outcome.status(), Some(45));
//! # Ok::<(), pgsd_cc::error::CompileError>(())
//! ```
//!
//! # Incremental builds
//!
//! Every session owns a [`Cache`] (in-memory by default; pass
//! [`Cache::persistent`] to keep artifacts across processes, or
//! [`Cache::disabled`] to opt out). Pipeline artifacts are memoized
//! under content-derived keys:
//!
//! * the **seed-independent prefix** — source → optimized IR →
//!   baseline LIR (lowering + register allocation + frames) — is keyed
//!   by source hash × pipeline version, so [`Session::population`]
//!   pays frontend + optimizer + regalloc once and stamps out per-seed
//!   variants via the diversifying passes only;
//! * the **baseline image** is keyed by prefix-key alone;
//! * **validation verdicts** are keyed by prefix-key × build-configuration
//!   fingerprint (seed, strategy, transforms) × profile fingerprint. The
//!   diversified image itself is not stored: it re-derives from the
//!   memoized LIR, and its verdict and ledger record spare the re-proof;
//! * **profiles** are keyed by prefix-key × training inputs × gas.
//!
//! Cached and cold builds are byte-identical (tests/cache.rs and the CI
//! `cache-smoke` job enforce this), and any key ingredient change —
//! source edit, config change, pipeline version bump — misses and
//! rebuilds. See DESIGN.md "Incremental variant production".
//!
//! # Determinism
//!
//! Parallel sections ([`Session::train`], [`Session::population`],
//! [`Session::audit`]) record telemetry into per-job child handles
//! merged in job order, and `population`/`audit` pre-warm the shared
//! baseline LIR *before* fanning out, so metrics, produced images, and
//! audit reports are byte-identical at any thread count.

use std::sync::{Arc, Mutex, OnceLock};

use pgsd_analysis::{
    audit_image, check_images_mapped, ImageAudit, Severity, SurvivorAuditReport, Transforms,
};
use pgsd_cache::artifact::{decode_addr_map, encode_addr_map};
use pgsd_cache::{fnv64, Cache, Fnv64, Key, LedgerRecord};
use pgsd_cc::driver::{emit_image_with, frontend_with, lower_module_seeded_with};
use pgsd_cc::emit::Image;
use pgsd_cc::error::{CompileError, Result};
use pgsd_cc::ir::Module;
use pgsd_cc::lir::MFunction;
use pgsd_emu::{Exit, RunStats};
use pgsd_gadget::{find_gadgets, survivor, ScanConfig};
use pgsd_profile::{instrument, reconstruct, Profile};
use pgsd_telemetry::json::quote;
use pgsd_telemetry::Telemetry;
use pgsd_x86::nop::NopTable;

use crate::driver::{
    apply_diversity, apply_pokes, is_diversifying, load, require_profile, BuildConfig, Input,
    SHIFT_MAX_PAD,
};

/// Version of the pipeline as far as cache keys are concerned. Folded
/// into every key: bump it whenever codegen, lowering, or the
/// diversifying passes change output for the same input, and every old
/// cache entry silently misses.
pub const PIPELINE_VERSION: u32 = 1;

fn keyer(kind: &str) -> Fnv64 {
    let mut h = Fnv64::new();
    h.write_u32(PIPELINE_VERSION);
    h.write_str(kind);
    h
}

/// Key of the optimized IR produced from `source` (the root of the
/// seed-independent prefix).
fn module_key_from_source(name: &str, source: &str) -> Key {
    let mut h = keyer("module/source");
    h.write_str(name);
    h.write_str(source);
    h.key()
}

/// Key of lowered + register-allocated + framed LIR.
fn lir_key(module_key: Key, reg_seed: Option<u64>, instrumented: bool) -> Key {
    let mut h = keyer("lir");
    h.write_u64(module_key.0);
    match reg_seed {
        None => h.write_u64(0),
        Some(s) => {
            h.write_u64(1);
            h.write_u64(s);
        }
    }
    h.write_u64(u64::from(instrumented));
    h.key()
}

/// Everything about a config that can change emitted bytes. For a
/// non-diversifying config that is nothing at all (the seed and
/// transform fields are dead), so every baseline build shares one key.
/// Shifting renders as its maximum pad, `Some(24)` or `None`: the text
/// every existing image key and ledger `config` key was derived from.
fn config_fingerprint(h: &mut Fnv64, config: &BuildConfig) {
    use std::fmt::Write as _;
    if !is_diversifying(config) {
        h.write_str("baseline");
        return;
    }
    write!(
        h,
        "{:?}|{:?}|{:?}|{}|{}|{}",
        config.strategy,
        config.substitution,
        config.shift.then_some(SHIFT_MAX_PAD),
        config.with_xchg,
        config.reg_randomize,
        config.seed
    )
    .expect("infallible");
}

/// Key of an emitted image: a baseline's cache key, and the root of a
/// variant's verdict key. The profile fingerprint participates
/// whenever a profile is present for a diversifying build — a coarser
/// rule than "the strategy consults it", which can only cause extra
/// misses, never stale hits.
fn image_key(module_key: Key, config: &BuildConfig, profile: Option<&Guide>) -> Key {
    let mut h = keyer("image");
    h.write_u64(module_key.0);
    config_fingerprint(&mut h, config);
    match profile {
        Some(g) if is_diversifying(config) => {
            h.write_u64(1);
            h.write_u64(g.key.0);
        }
        _ => h.write_u64(0),
    }
    h.key()
}

/// A profile together with its content fingerprint, which is computed
/// once when the profile is set: serializing a large profile costs
/// milliseconds, and every profile-guided build needs the fingerprint
/// for its image key and ledger record.
#[derive(Clone)]
struct Guide {
    profile: Arc<Profile>,
    /// `profile/content` key of the profile's text rendering.
    key: Key,
}

impl Guide {
    fn new(profile: Arc<Profile>) -> Guide {
        let mut h = keyer("profile/content");
        h.write_str(&profile.to_text());
        Guide {
            key: h.key(),
            profile,
        }
    }
}

/// Key of a training profile: module × inputs × gas.
fn profile_key(module_key: Key, inputs: &[Input], gas: u64) -> Key {
    let mut h = keyer("profile");
    h.write_u64(module_key.0);
    h.write_u64(gas);
    h.write_u64(inputs.len() as u64);
    for input in inputs {
        h.write_u64(input.args.len() as u64);
        for a in &input.args {
            h.write(&a.to_le_bytes());
        }
        h.write_u64(input.pokes.len() as u64);
        for (name, words) in &input.pokes {
            h.write_str(name);
            h.write_u64(words.len() as u64);
            for w in words {
                h.write(&w.to_le_bytes());
            }
        }
    }
    h.key()
}

/// Key of a validation verdict for the image under `image_key` (the
/// declared transforms are already part of the image key).
fn verdict_key(image_key: Key) -> Key {
    let mut h = keyer("verdict");
    h.write_u64(image_key.0);
    h.key()
}

/// Everything one emulator run produces: the exit, the execution
/// statistics, and — for abnormal exits — the deterministic crash
/// report ready for [`Session::symbolicate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunOutcome {
    /// Why execution stopped.
    pub exit: Exit,
    /// Instruction and cycle statistics.
    pub stats: RunStats,
    /// Crash context when the exit was abnormal, `None` on a clean
    /// [`Exit::Exited`].
    pub crash: Option<pgsd_emu::CrashReport>,
}

impl RunOutcome {
    /// The program's exit status when it terminated normally.
    pub fn status(&self) -> Option<i32> {
        match self.exit {
            Exit::Exited(code) => Some(code),
            _ => None,
        }
    }
}

type ModuleSlot = OnceLock<std::result::Result<(Arc<Module>, Key), CompileError>>;

/// A diversification session: one module (compiled lazily from
/// source), its active profile, a build configuration, a worker count,
/// and a [`Cache`].
///
/// Construct with [`Session::from_source`], configure with the
/// chainable builder methods, then call the work methods
/// ([`build`](Session::build), [`train`](Session::train),
/// [`run`](Session::run), [`population`](Session::population)). Work
/// methods take `&self`: a configured session can be shared across
/// threads.
pub struct Session {
    name: String,
    source: String,
    module: ModuleSlot,
    profile: Mutex<Option<Guide>>,
    config: BuildConfig,
    threads: usize,
    cache: Cache,
    ledger: bool,
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("name", &self.name)
            .field("threads", &self.threads)
            .field("cache", &self.cache)
            .finish()
    }
}

impl Session {
    /// A session that compiles `source` on first use (under this
    /// session's telemetry, consulting the cache).
    pub fn from_source(name: &str, source: &str) -> Session {
        Session {
            name: name.to_owned(),
            source: source.to_owned(),
            module: ModuleSlot::new(),
            profile: Mutex::new(None),
            config: BuildConfig::baseline(),
            threads: pgsd_exec::default_threads(),
            cache: Cache::in_memory(),
            ledger: false,
        }
    }

    /// Sets the active profile consulted by profile-guided strategies.
    /// ([`Session::train`] sets it automatically.)
    pub fn profile(self, profile: impl Into<Arc<Profile>>) -> Session {
        self.set_profile(profile.into());
        self
    }

    /// Makes `profile` the active one. Re-setting the profile already
    /// active (a memoized [`Session::train`], once per request in the
    /// daemon) keeps its fingerprint instead of recomputing it.
    fn set_profile(&self, profile: Arc<Profile>) {
        if self
            .guide()
            .is_some_and(|g| Arc::ptr_eq(&g.profile, &profile))
        {
            return;
        }
        let guide = Guide::new(profile);
        *self.profile.lock().unwrap() = Some(guide);
    }

    fn guide(&self) -> Option<Guide> {
        self.profile.lock().unwrap().clone()
    }

    /// Sets the build configuration ([`BuildConfig::baseline`] if never
    /// called).
    pub fn config(mut self, config: BuildConfig) -> Session {
        self.config = config;
        self
    }

    /// Routes telemetry for every stage into `tel` (shorthand for
    /// setting `config.telemetry`).
    pub fn telemetry(mut self, tel: Telemetry) -> Session {
        self.config.telemetry = tel;
        self
    }

    /// Sets the worker count for parallel sections (defaults to
    /// `PGSD_THREADS`, else available parallelism).
    pub fn threads(mut self, threads: usize) -> Session {
        self.threads = threads.max(1);
        self
    }

    /// Replaces the artifact cache (in-memory by default).
    pub fn cache(mut self, cache: Cache) -> Session {
        self.cache = cache;
        self
    }

    /// Enables the variant provenance ledger (off by default): every
    /// diversified image produced by [`Session::build`] or
    /// [`Session::population`] is recorded in the session cache's
    /// ledger — seed, transform set, pipeline keys, and the compressed
    /// baseline↔variant address map — making its crashes
    /// symbolicatable via [`Session::symbolicate`].
    pub fn ledger(mut self, enabled: bool) -> Session {
        self.ledger = enabled;
        self
    }

    /// The cache handle (cloneable; shares the store).
    pub fn cache_handle(&self) -> &Cache {
        &self.cache
    }

    /// The active profile, if trained or supplied.
    pub fn active_profile(&self) -> Option<Arc<Profile>> {
        self.guide().map(|g| g.profile)
    }

    /// The configuration of population member `i`: seed `config.seed +
    /// i`, recording into the job's child handle.
    fn seeded_config(&self, i: usize, child: &Telemetry) -> BuildConfig {
        let mut config = self.config.clone();
        config.seed += i as u64;
        config.telemetry = child.clone();
        config
    }

    fn resolve(&self) -> Result<(&Arc<Module>, Key)> {
        let slot = self.module.get_or_init(|| {
            let tel = &self.config.telemetry;
            let key = module_key_from_source(&self.name, &self.source);
            if let Some(module) = self.cache.get_module(key, tel) {
                return Ok((module, key));
            }
            let module = Arc::new(frontend_with(&self.name, &self.source, tel)?);
            self.cache.put_module(key, Arc::clone(&module), tel);
            Ok((module, key))
        });
        match slot {
            Ok((module, key)) => Ok((module, *key)),
            Err(e) => Err(e.clone()),
        }
    }

    /// The session's optimized IR module, compiling it on first use.
    ///
    /// # Errors
    ///
    /// Propagates frontend errors.
    pub fn module(&self) -> Result<&Module> {
        Ok(self.resolve()?.0)
    }

    /// The lowered, register-allocated, framed LIR for `reg_seed`
    /// (`None` = the deterministic baseline allocation) — the tail of
    /// the seed-independent pipeline prefix, memoized in the cache.
    ///
    /// # Errors
    ///
    /// Propagates frontend and lowering errors.
    pub fn lowered(&self, reg_seed: Option<u64>) -> Result<Arc<Vec<MFunction>>> {
        let (module, mkey) = self.resolve()?;
        lowered_cached(module, mkey, reg_seed, &self.cache, &self.config.telemetry)
    }

    /// Builds one image under the session's configuration.
    ///
    /// # Errors
    ///
    /// Propagates compilation errors; fails if a profile-guided
    /// strategy is configured and no profile is set, or if validation
    /// is enabled and fails.
    pub fn build(&self) -> Result<Image> {
        self.build_with(&self.config)
    }

    /// Builds one image under an alternate configuration, sharing this
    /// session's module, profile, and cache. The configuration's own
    /// telemetry handle is used (set one with
    /// [`BuildConfig::with_telemetry`]).
    ///
    /// # Errors
    ///
    /// As [`Session::build`].
    pub fn build_with(&self, config: &BuildConfig) -> Result<Image> {
        let (module, mkey) = self.resolve()?;
        let profile = self.guide();
        let image = build_cached(
            module,
            mkey,
            profile.as_ref(),
            config,
            &self.cache,
            self.ledger,
        )?;
        if self.ledger && is_diversifying(config) {
            self.cache.flush_ledger(&config.telemetry);
        }
        Ok(image)
    }

    /// Compiles an instrumented build, runs it on each training input
    /// (in parallel on the session's worker count), reconstructs the
    /// profile from the accumulated edge counters (paper §3.1), sets it
    /// as the session's active profile, and returns it.
    ///
    /// The profile is memoized under module × inputs × gas: a warm
    /// cache skips the instrumented build and every training run.
    ///
    /// # Errors
    ///
    /// Fails if compilation fails or any training run does not exit
    /// cleanly; with several failed runs, the earliest input's error
    /// wins (matching the serial loop).
    pub fn train(&self, train_inputs: &[Input], gas: u64) -> Result<Arc<Profile>> {
        let (module, mkey) = self.resolve()?;
        let tel = self.config.telemetry.clone();
        let _span = tel.span("train");
        let pkey = profile_key(mkey, train_inputs, gas);
        if let Some(profile) = self.cache.get_profile(pkey, &tel) {
            self.set_profile(Arc::clone(&profile));
            return Ok(profile);
        }
        let profile = Arc::new(train_cold(
            module,
            mkey,
            train_inputs,
            gas,
            &tel,
            self.threads,
            &self.cache,
        )?);
        self.cache.put_profile(pkey, Arc::clone(&profile), &tel);
        self.set_profile(Arc::clone(&profile));
        Ok(profile)
    }

    /// Runs an already-built image on `input`, recording an `execute`
    /// span and `emu.*{run=label}` counters into the session telemetry.
    ///
    /// The returned [`RunOutcome`] carries everything a run can
    /// produce: the exit, the statistics, and — for abnormal exits —
    /// the deterministic [`pgsd_emu::CrashReport`] (fault class,
    /// faulting pc, register snapshot, frame-pointer backtrace) ready
    /// to feed to [`Session::symbolicate`].
    ///
    /// # Panics
    ///
    /// Panics if a poke names a global the image does not have — a
    /// workload definition bug.
    pub fn run(&self, image: &Image, input: &Input, gas: u64, label: &str) -> RunOutcome {
        let (exit, stats, crash) =
            crate::driver::run_reported(image, input, gas, &self.config.telemetry, label);
        RunOutcome { exit, stats, crash }
    }

    /// Builds a population of `n` diversified versions with seeds
    /// `config.seed .. config.seed + n`, in parallel on the session's
    /// worker count.
    ///
    /// Unless register randomization makes the allocation
    /// seed-dependent, the shared baseline LIR is warmed *before* the
    /// fan-out, so a population build performs exactly one frontend +
    /// optimize + regalloc pass regardless of `n` — and zero with a
    /// warm cache. Each build records into a child telemetry handle;
    /// children merge in seed order, so images and metrics are
    /// byte-identical at any thread count.
    ///
    /// # Errors
    ///
    /// Propagates failures from any build; with several failures, the
    /// one with the lowest seed wins (matching the serial loop).
    pub fn population(&self, n: usize) -> Result<Vec<Image>> {
        let (module, mkey) = self.resolve()?;
        let tel = &self.config.telemetry;
        let _span = tel.span("population");
        let profile = self.guide();
        if !self.config.reg_randomize {
            lowered_cached(module, mkey, None, &self.cache, tel)?;
        }
        let diversifying = is_diversifying(&self.config);
        if diversifying && (self.ledger || self.config.validate) {
            // Pre-warm the shared baseline image so every job's proof
            // hits the cache identically regardless of which job would
            // otherwise have built it first.
            baseline_cached(module, mkey, &self.cache, tel)?;
        }
        let images = traced_jobs(tel, self.threads, n, |i, child| {
            let config = self.seeded_config(i, child);
            build_cached(
                module,
                mkey,
                profile.as_ref(),
                &config,
                &self.cache,
                self.ledger,
            )
        })?;
        if self.ledger && diversifying {
            self.cache.flush_ledger(tel);
        }
        Ok(images)
    }

    /// Remaps a variant-space crash address to the baseline: looks up
    /// `variant_id` in the session cache's provenance ledger, decodes
    /// the stored address map, resolves `fault_addr` to the baseline
    /// instruction and function, and renders the instruction.
    ///
    /// Returns `Ok(None)` — counting `symbolicate.misses` — when the
    /// variant id is unknown, was ledgered for a different module, its
    /// stored map is corrupt, or the address falls outside every mapped
    /// function. A successful remap counts `symbolicate.hits`.
    ///
    /// # Errors
    ///
    /// Propagates baseline build failures only.
    pub fn symbolicate(&self, variant_id: &str, fault_addr: u32) -> Result<Option<Symbolicated>> {
        let (module, mkey) = self.resolve()?;
        let tel = &self.config.telemetry;
        let miss = |tel: &Telemetry| {
            tel.add("symbolicate.misses", 1);
            Ok(None)
        };
        let Some(record) = self.cache.ledger_get(variant_id) else {
            return miss(tel);
        };
        if record.module_key != mkey.hex() {
            return miss(tel);
        }
        let Ok(map) = decode_addr_map(&record.addr_map) else {
            return miss(tel);
        };
        let Some(loc) = map.variant_to_baseline(fault_addr) else {
            return miss(tel);
        };
        let baseline = baseline_cached(module, mkey, &self.cache, tel)?;
        let window = loc
            .addr
            .checked_sub(baseline.base)
            .and_then(|off| baseline.text.get(off as usize..));
        let inst = match window {
            Some(window) => match pgsd_x86::decode(window) {
                Ok(d) => match d.body {
                    pgsd_x86::Body::Known(i) => format!("{i:?}"),
                    pgsd_x86::Body::Other(o) => o.name.to_string(),
                },
                Err(_) => "<undecodable>".to_string(),
            },
            None => "<outside text>".to_string(),
        };
        tel.add("symbolicate.hits", 1);
        Ok(Some(Symbolicated {
            variant_id: variant_id.to_string(),
            variant_addr: fault_addr,
            baseline_addr: loc.addr,
            function: loc.function,
            line: None,
            inst,
            seed: record.seed,
            transforms: record.transforms,
        }))
    }

    /// Statically audits a population of `n` diversified versions with
    /// seeds `config.seed .. config.seed + n` (paper §5.2, hardened):
    /// builds each variant, runs the Survivor comparison against the
    /// shared baseline, then recovers the variant's CFG, abstractly
    /// interprets it, and classifies every surviving gadget by
    /// reachability. See the `pgsd-analysis` crate for the analyses.
    ///
    /// Like [`Session::population`], builds fan out on the session's
    /// worker count with per-job telemetry children merged in seed
    /// order, so the resulting [`AuditOutcome`] — including its JSON
    /// rendering — is byte-identical at any thread count.
    ///
    /// # Errors
    ///
    /// Propagates failures from the baseline or any variant build; with
    /// several failures, the one with the lowest seed wins. Audit
    /// *findings* are not errors — inspect
    /// [`AuditOutcome::error_findings`] for a verdict.
    pub fn audit(&self, n: usize) -> Result<AuditOutcome> {
        let (module, mkey) = self.resolve()?;
        let tel = &self.config.telemetry;
        let _span = tel.span("audit");
        let profile = self.guide();
        let baseline = baseline_cached(module, mkey, &self.cache, tel)?;
        let scan = ScanConfig::default();
        let table = if self.config.with_xchg {
            NopTable::with_xchg()
        } else {
            NopTable::new()
        };
        let baseline_gadgets = find_gadgets(&baseline.text, &scan).len();
        if !self.config.reg_randomize {
            lowered_cached(module, mkey, None, &self.cache, tel)?;
        }
        let audits = traced_jobs(tel, self.threads, n, |i, child| {
            let config = self.seeded_config(i, child);
            let image = build_cached(module, mkey, profile.as_ref(), &config, &self.cache, false)?;
            let rep = survivor(&baseline.text, &image.text, &table, &scan);
            let audit = audit_image(&image, &rep.survivors);
            child.add("audit.variants", 1);
            child.add(
                "audit.survivors.reachable",
                audit.survivors.reachable as u64,
            );
            child.add(
                "audit.survivors.unintended",
                audit.survivors.unintended as u64,
            );
            child.add("audit.survivors.dead", audit.survivors.dead as u64);
            child.add("audit.findings", audit.findings.len() as u64);
            child.add("audit.wx_violations", audit.wx_violations as u64);
            child.add(
                "audit.unresolved_indirects",
                audit.unresolved_indirects as u64,
            );
            Ok(audit)
        })?;
        let mut survivors = SurvivorAuditReport {
            baseline_gadgets,
            ..SurvivorAuditReport::default()
        };
        for audit in &audits {
            survivors.add_variant(&audit.survivors);
        }
        Ok(AuditOutcome {
            name: self.name.clone(),
            seed_base: self.config.seed,
            baseline_gadgets,
            audits,
            survivors,
        })
    }
}

/// Result of [`Session::audit`]: one static audit per variant plus the
/// aggregated survivor classification across the population.
#[derive(Debug, Clone)]
pub struct AuditOutcome {
    /// Module / benchmark name.
    pub name: String,
    /// Seed of the first variant (variant *i* used `seed_base + i`).
    pub seed_base: u64,
    /// Gadgets found in the undiversified baseline text.
    pub baseline_gadgets: usize,
    /// Per-variant audits, in seed order.
    pub audits: Vec<ImageAudit>,
    /// Per-class survivor totals aggregated over all variants.
    pub survivors: SurvivorAuditReport,
}

impl AuditOutcome {
    /// Error-severity findings summed over every variant (the CI gate:
    /// nonzero means the audit failed).
    pub fn error_findings(&self) -> usize {
        self.audits
            .iter()
            .map(|a| a.findings_at_least(Severity::Error))
            .sum()
    }

    /// Total findings (any severity) summed over every variant.
    pub fn total_findings(&self) -> usize {
        self.audits.iter().map(|a| a.findings.len()).sum()
    }

    /// Deterministic JSON document for the whole audit: schema-versioned,
    /// fixed key order, no floats, no timestamps — byte-identical across
    /// thread counts and repeat runs.
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let c = &self.survivors.counts;
        let mut out = format!(
            "{{\"schema_version\":{},\"tool\":\"pgsd-audit\",\"target\":{},\
             \"seed_base\":{},\"variants\":{},\"baseline_gadgets\":{},\
             \"survivors\":{{\"total\":{},\"reachable\":{},\"unintended_boundary\":{},\
             \"dead_bytes\":{}}},\"error_findings\":{},\"images\":[",
            pgsd_analysis::DIAG_SCHEMA_VERSION,
            quote(&self.name),
            self.seed_base,
            self.audits.len(),
            self.baseline_gadgets,
            c.total(),
            c.reachable,
            c.unintended,
            c.dead,
            self.error_findings(),
        );
        for (i, audit) in self.audits.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write!(out, "{}", audit.to_json()).expect("infallible");
        }
        out.push_str("]}");
        out
    }
}

/// A variant-space crash address remapped to the baseline build by
/// [`Session::symbolicate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Symbolicated {
    /// The variant's ledger identity (content hash of its text).
    pub variant_id: String,
    /// The crash address, in variant address space.
    pub variant_addr: u32,
    /// The baseline instruction the crash address maps to.
    pub baseline_addr: u32,
    /// Name of the containing function.
    pub function: String,
    /// Baseline source line, when the toolchain records one. The MiniC
    /// pipeline keeps no line table yet, so this is currently always
    /// `None` — the field pins the schema for when it does.
    pub line: Option<u32>,
    /// Rendering of the baseline instruction at `baseline_addr`.
    pub inst: String,
    /// Diversification seed the variant was built with.
    pub seed: u64,
    /// Transform set the variant was built with.
    pub transforms: String,
}

impl Symbolicated {
    /// Deterministic JSON rendering: fixed field order, hex addresses,
    /// no floats or timestamps.
    pub fn to_json(&self) -> String {
        let line = match self.line {
            Some(l) => l.to_string(),
            None => "null".to_string(),
        };
        format!(
            "{{\"variant_id\":{},\"variant_addr\":\"{:#010x}\",\
             \"baseline_addr\":\"{:#010x}\",\"function\":{},\"line\":{},\
             \"inst\":{},\"seed\":{},\"transforms\":{}}}",
            quote(&self.variant_id),
            self.variant_addr,
            self.baseline_addr,
            quote(&self.function),
            line,
            quote(&self.inst),
            self.seed,
            quote(&self.transforms),
        )
    }
}

/// The fleet-wide identity of an image: a content hash of its text
/// segment, as recorded in the provenance ledger and carried by crash
/// reports.
pub fn variant_id(image: &Image) -> String {
    format!("{:016x}", fnv64(&image.text))
}

/// Stable `+`-joined label for a transform set, e.g.
/// `"nop+subst+shift+regrand"`; `"none"` when empty. The provenance
/// ledger records it, and `pgsd diversify --json` prints it.
pub fn transforms_label(t: &Transforms) -> String {
    let mut parts = Vec::new();
    if t.nops {
        parts.push("nop");
    }
    if t.subst {
        parts.push("subst");
    }
    if t.shift {
        parts.push("shift");
    }
    if t.regrand {
        parts.push("regrand");
    }
    if t.with_xchg {
        parts.push("xchg");
    }
    if parts.is_empty() {
        "none".to_string()
    } else {
        parts.join("+")
    }
}

/// The seed-independent prefix tail: memoized lowering.
fn lowered_cached(
    module: &Module,
    mkey: Key,
    reg_seed: Option<u64>,
    cache: &Cache,
    tel: &Telemetry,
) -> Result<Arc<Vec<MFunction>>> {
    let key = lir_key(mkey, reg_seed, false);
    if let Some(funcs) = cache.get_lir(key, tel) {
        return Ok(funcs);
    }
    let funcs = Arc::new(lower_module_seeded_with(module, reg_seed, tel)?);
    cache.put_lir(key, Arc::clone(&funcs), tel);
    Ok(funcs)
}

/// One cached build: the baseline image is memoized; a diversified
/// image is not, since it is a deterministic function of module,
/// profile and config that re-derives from the memoized LIR in a
/// fraction of a millisecond. Its verdict and ledger record stay cached,
/// so a rebuilt variant is not proven again (see [`prove`]). This is the
/// only function that runs lower → diversify → emit → prove in order; a
/// session with [`Cache::disabled`] runs it cold and produces the same
/// bytes.
fn build_cached(
    module: &Module,
    mkey: Key,
    profile: Option<&Guide>,
    config: &BuildConfig,
    cache: &Cache,
    ledger: bool,
) -> Result<Image> {
    let tel = &config.telemetry;
    let _build_span = tel.span("build");
    let consulted = profile.map(|g| &*g.profile);
    require_profile(config, consulted)?;
    let ikey = image_key(mkey, config, profile);
    if !is_diversifying(config) {
        if let Some(hit) = cache.get_image(ikey, tel) {
            return Ok((*hit).clone());
        }
        let lowered = lowered_cached(module, mkey, None, cache, tel)?;
        let image = emit_image_with(&lowered, module, tel)?;
        cache.put_image(ikey, Arc::new(image.clone()), tel);
        return Ok(image);
    }
    let reg_seed = config.reg_randomize.then_some(config.seed);
    let mut funcs = (*lowered_cached(module, mkey, reg_seed, cache, tel)?).clone();
    apply_diversity(&mut funcs, consulted, config);
    let image = emit_image_with(&funcs, module, tel)?;
    prove(module, mkey, profile, config, &image, ikey, cache, ledger)?;
    Ok(image)
}

/// The baseline image of `module`, built or fetched from `cache`, with
/// telemetry recorded into `tel`.
fn baseline_cached(module: &Module, mkey: Key, cache: &Cache, tel: &Telemetry) -> Result<Image> {
    let config = BuildConfig::baseline().with_telemetry(tel.clone());
    build_cached(module, mkey, None, &config, cache, false)
}

/// The one translation-validation proof of a diversified build. A
/// single `divcheck` run proves `image` equivalent to the baseline under
/// the declared transforms and recovers the baseline↔variant address
/// map. It yields the two facts a build may need: the verdict, stored
/// when `config.validate` is set, and the provenance-ledger record
/// carrying the map, stored when `ledger` is set. The proof runs only
/// if the cache lacks one of the needed facts, so a variant is proven
/// once however often it is rebuilt or re-served. A refused proof is an
/// error listing every finding.
#[allow(clippy::too_many_arguments)]
fn prove(
    module: &Module,
    mkey: Key,
    profile: Option<&Guide>,
    config: &BuildConfig,
    image: &Image,
    ikey: Key,
    cache: &Cache,
    ledger: bool,
) -> Result<()> {
    let tel = &config.telemetry;
    let vkey = verdict_key(ikey);
    let need_verdict = config.validate && !cache.has_verdict(vkey, tel);
    let record_id = ledger
        .then(|| variant_id(image))
        .filter(|id| cache.ledger_get(id).is_none());
    if need_verdict || record_id.is_some() {
        let _span = tel.span("validate");
        let baseline = baseline_cached(module, mkey, cache, tel)?;
        let t = config.transforms();
        let (_, map) = check_images_mapped(&baseline, image, &t).map_err(|diags| {
            tel.add("validate.failed", 1);
            tel.add("validate.findings", diags.len() as u64);
            let rendered: Vec<String> = diags.iter().map(ToString::to_string).collect();
            CompileError::new(format!(
                "variant failed static validation:\n{}",
                rendered.join("\n")
            ))
        })?;
        if need_verdict {
            cache.put_verdict(vkey, tel);
        }
        if let Some(variant_id) = record_id {
            let mut ckey = keyer("config");
            config_fingerprint(&mut ckey, config);
            cache.ledger_put(
                LedgerRecord {
                    variant_id,
                    seed: config.seed,
                    transforms: transforms_label(&t),
                    module_key: mkey.hex(),
                    config: ckey.key().hex(),
                    profile: profile.map_or(String::new(), |g| g.key.hex()),
                    addr_map: encode_addr_map(&map),
                },
                tel,
            );
        }
    }
    if config.validate {
        tel.add("validate.passed", 1);
    }
    Ok(())
}

/// The one traced fan-out: runs `job(0) .. job(n - 1)` on `threads`
/// workers, each recording into its own child of `tel`, and merges the
/// children into `tel` in job order. On failure the children up to and
/// including the lowest-index failing job are merged and that job's
/// error is returned, exactly as the serial loop would leave things —
/// so results, errors and metrics are the same at any thread count.
fn traced_jobs<R: Send>(
    tel: &Telemetry,
    threads: usize,
    n: usize,
    job: impl Fn(usize, &Telemetry) -> Result<R> + Sync,
) -> Result<Vec<R>> {
    let jobs = pgsd_exec::run_jobs(threads, n, |i| {
        let child = tel.child();
        (job(i, &child), child)
    });
    let mut results = Vec::with_capacity(n);
    for (result, child) in jobs {
        tel.merge_from(&child);
        results.push(result?);
    }
    Ok(results)
}

/// Cold training: instrumented build (LIR memoized — instrumentation is
/// seed-independent too) plus parallel training runs.
fn train_cold(
    module: &Module,
    mkey: Key,
    train_inputs: &[Input],
    gas: u64,
    tel: &Telemetry,
    threads: usize,
    cache: &Cache,
) -> Result<Profile> {
    let mut instrumented = module.clone();
    let plan = instrument(&mut instrumented);
    let ikey = lir_key(mkey, None, true);
    let funcs = match cache.get_lir(ikey, tel) {
        Some(f) => f,
        None => {
            let f = Arc::new(lower_module_seeded_with(&instrumented, None, tel)?);
            cache.put_lir(ikey, Arc::clone(&f), tel);
            f
        }
    };
    let image = emit_image_with(&funcs, &instrumented, tel)?;

    tel.add("train.inputs", train_inputs.len() as u64);
    tel.add("train.counters", u64::from(plan.num_counters));
    let runs = traced_jobs(tel, threads, train_inputs.len(), |i, child| {
        let input = &train_inputs[i];
        let _run_span = child.span("train_run");
        let mut emu = load(&image);
        apply_pokes(&image, &mut emu, input);
        emu.call_entry(image.main_addr, image.exit_addr, &input.args);
        let exit = emu.run(gas);
        if exit.status().is_none() {
            return Err(CompileError::new(format!(
                "training run with args {:?} did not exit cleanly: {exit:?}",
                input.args
            )));
        }
        (0..plan.num_counters)
            .map(|c| {
                emu.mem
                    .read_u32(image.counter_addr(c))
                    .map(u64::from)
                    .map_err(|f| CompileError::new(format!("counter readback failed: {f}")))
            })
            .collect::<Result<Vec<u64>>>()
    })?;
    let mut counters = vec![0u64; plan.num_counters as usize];
    for run_counters in &runs {
        for (c, r) in counters.iter_mut().zip(run_counters) {
            *c += r;
        }
    }
    let profile = reconstruct(&plan, &counters);
    #[allow(clippy::cast_precision_loss)]
    tel.set_gauge("train.x_max", profile.max_count() as f64);
    Ok(profile)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::curve::Strategy;
    use crate::driver::{run, DEFAULT_GAS};
    use pgsd_analysis::{AddrMap, FuncEntry};

    const SRC: &str = "int main(int n) {
        int s = 0;
        for (int i = 1; i <= n; i++) { s += i; }
        return s;
    }";

    /// A build that memoizes nothing: the reference the cached path
    /// must reproduce byte for byte.
    fn cold_build(config: &BuildConfig) -> Image {
        Session::from_source("t", SRC)
            .cache(Cache::disabled())
            .build_with(config)
            .unwrap()
    }

    #[test]
    fn session_build_matches_uncached_build() {
        for seed in 0..4 {
            let config = BuildConfig::diversified(Strategy::uniform(0.5), seed);
            let cold = cold_build(&config);
            let session = Session::from_source("t", SRC).config(config.clone());
            let a = session.build().unwrap();
            let b = session.build().unwrap(); // cache hit
            assert_eq!(a, cold, "seed {seed}");
            assert_eq!(b, cold, "seed {seed} (warm)");
        }
    }

    #[test]
    fn from_source_compiles_lazily_and_runs() {
        let session = Session::from_source("t", SRC);
        let image = session.build().unwrap();
        let outcome = session.run(&image, &Input::args(&[10]), 1_000_000, "run");
        assert_eq!(outcome.exit, Exit::Exited(55));
        assert_eq!(outcome.crash, None);
    }

    #[test]
    fn from_source_propagates_frontend_errors() {
        let session = Session::from_source("t", "int main( {");
        assert!(session.build().is_err());
        // And keeps failing on reuse (the error is memoized).
        assert!(session.module().is_err());
    }

    #[test]
    fn train_memoizes_profiles() {
        let tel = Telemetry::enabled();
        let session = Session::from_source("t", SRC).telemetry(tel.clone());
        let p1 = session.train(&[Input::args(&[100])], DEFAULT_GAS).unwrap();
        let p2 = session.train(&[Input::args(&[100])], DEFAULT_GAS).unwrap();
        assert!(Arc::ptr_eq(&p1, &p2), "second train must be a cache hit");
        let snap = tel.snapshot();
        assert_eq!(snap.counters.get("cache.hits{kind=profile}"), Some(&1));
        assert_eq!(snap.counters.get("train.inputs"), Some(&1), "trained once");
        // Different inputs are a different profile.
        let p3 = session.train(&[Input::args(&[5])], DEFAULT_GAS).unwrap();
        assert!(!Arc::ptr_eq(&p1, &p3));
    }

    #[test]
    fn train_reports_the_earliest_failing_input_at_any_thread_count() {
        // A gas budget only the smallest argument fits: the last two
        // inputs both run out, and the earlier of them must be named.
        // Telemetry merges up to and including that input's run.
        let inputs = [Input::args(&[3]), Input::args(&[500]), Input::args(&[900])];
        let train = |threads| {
            let tel = Telemetry::enabled();
            let session = Session::from_source("t", SRC)
                .telemetry(tel.clone())
                .threads(threads);
            let err = session.train(&inputs, 2_000).unwrap_err();
            let runs = tel.spans().iter().filter(|s| s.name == "train_run").count();
            (err.message, runs, tel.snapshot().counters)
        };
        let (serial, serial_runs, serial_counters) = train(1);
        let (parallel, parallel_runs, parallel_counters) = train(4);
        assert!(serial.contains("args [500]"), "{serial}");
        assert_eq!(serial_runs, 2, "the passing run and the first failure");
        assert_eq!((serial, serial_runs), (parallel, parallel_runs));
        assert_eq!(serial_counters, parallel_counters);
    }

    #[test]
    fn the_profile_fingerprint_keys_images_and_ledger_records() {
        let session = Session::from_source("t", SRC)
            .config(BuildConfig::diversified(Strategy::range(0.0, 0.3), 2))
            .ledger(true);
        let p1 = session.train(&[Input::args(&[100])], DEFAULT_GAS).unwrap();
        let image = session.build().unwrap();
        let record = session
            .cache_handle()
            .ledger_get(&variant_id(&image))
            .unwrap();
        let mut content = keyer("profile/content");
        content.write_str(&p1.to_text());
        assert_eq!(record.profile, content.key().hex());
        // Another profile is another image key, so the build is not a
        // stale hit; returning to the first profile hits again.
        session.train(&[Input::args(&[5])], DEFAULT_GAS).unwrap();
        let other = session.build().unwrap();
        assert_ne!(other, image);
        session.train(&[Input::args(&[100])], DEFAULT_GAS).unwrap();
        assert_eq!(session.build().unwrap(), image);
        let cold = Session::from_source("t", SRC)
            .config(BuildConfig::diversified(Strategy::range(0.0, 0.3), 2))
            .cache(Cache::disabled())
            .profile(p1);
        assert_eq!(cold.build().unwrap(), image, "keys change no image byte");
    }

    #[test]
    fn profiled_strategy_requires_profile() {
        let session = Session::from_source("t", SRC)
            .config(BuildConfig::diversified(Strategy::range(0.1, 0.5), 1));
        let err = session.build().unwrap_err();
        assert!(err.message.contains("requires profile"));
    }

    #[test]
    fn population_matches_per_seed_builds() {
        let session = Session::from_source("t", SRC)
            .config(BuildConfig::diversified(Strategy::uniform(0.5), 100));
        let images = session.population(5).unwrap();
        for (i, img) in images.iter().enumerate() {
            let config = BuildConfig::diversified(Strategy::uniform(0.5), 100 + i as u64);
            let cold = cold_build(&config);
            assert_eq!(*img, cold, "seed {}", 100 + i);
            let (exit, _) = run(img, &[7], 1_000_000);
            assert_eq!(exit, Exit::Exited(28));
        }
    }

    #[test]
    fn population_with_reg_randomize_matches_uncached() {
        let session = Session::from_source("t", SRC)
            .config(BuildConfig::full_diversity(Strategy::uniform(0.4), 9));
        let images = session.population(3).unwrap();
        for (i, img) in images.iter().enumerate() {
            let config = BuildConfig::full_diversity(Strategy::uniform(0.4), 9 + i as u64);
            assert_eq!(*img, cold_build(&config));
        }
    }

    #[test]
    fn validated_builds_cache_verdicts() {
        let tel = Telemetry::enabled();
        let config = BuildConfig::diversified(Strategy::uniform(0.5), 3)
            .validated()
            .with_telemetry(tel.clone());
        let session = Session::from_source("t", SRC).config(config);
        let a = session.build().unwrap();
        let b = session.build().unwrap();
        assert_eq!(a, b);
        let snap = tel.snapshot();
        assert_eq!(
            snap.counters.get("validate.passed"),
            Some(&2),
            "both builds report validation"
        );
        assert_eq!(
            snap.counters.get("cache.hits{kind=verdict}"),
            Some(&1),
            "second build reuses the verdict"
        );
    }

    #[test]
    fn a_ledgered_validated_variant_is_proven_once() {
        let tel = Telemetry::enabled();
        let config = BuildConfig::diversified(Strategy::uniform(0.5), 4)
            .validated()
            .with_telemetry(tel.clone());
        let session = Session::from_source("t", SRC).config(config).ledger(true);
        let proofs = || tel.spans().iter().filter(|s| s.name == "validate").count();
        let a = session.build().unwrap();
        assert_eq!(proofs(), 1, "a fresh build runs one proof");
        let b = session.build().unwrap();
        assert_eq!(proofs(), 1, "a rebuild re-derives the image and runs none");
        assert_eq!(a, b);
        assert!(session.cache_handle().ledger_get(&variant_id(&a)).is_some());
        assert_eq!(tel.snapshot().counters["validate.passed"], 2);
    }

    #[test]
    fn audit_is_thread_count_invariant_and_total() {
        let mk = |threads| {
            Session::from_source("t", SRC)
                .config(BuildConfig::diversified(Strategy::uniform(0.3), 42))
                .threads(threads)
        };
        let a = mk(1).audit(4).unwrap();
        let b = mk(4).audit(4).unwrap();
        assert_eq!(a.to_json(), b.to_json(), "audit must not depend on threads");
        assert_eq!(a.audits.len(), 4);
        assert_eq!(a.survivors.variants, 4);
        // Classification is total: per-variant classes sum to the
        // aggregate, and every survivor offset landed in some class.
        let per_variant: usize = a.audits.iter().map(|x| x.survivors.total()).sum();
        assert_eq!(per_variant, a.survivors.counts.total());
        assert!(a.baseline_gadgets > 0);
        assert_eq!(a.error_findings(), 0, "clean builds audit clean");
    }

    const SRC_DIV: &str = "int main(int n) { return 7 / n; }";

    #[test]
    fn ledger_symbolicates_variant_crashes_to_the_baseline_instruction() {
        let tel = Telemetry::enabled();
        let session = Session::from_source("t", SRC_DIV)
            .config(
                BuildConfig::full_diversity(Strategy::uniform(0.5), 5).with_telemetry(tel.clone()),
            )
            .ledger(true);
        let images = session.population(3).unwrap();
        let baseline = session.build_with(&BuildConfig::baseline()).unwrap();
        let base = session.run(&baseline, &Input::args(&[0]), 1_000_000, "base");
        let Exit::DivideError { addr: baseline_pc } = base.exit else {
            panic!("baseline should divide by zero: {:?}", base.exit);
        };
        assert!(base.crash.is_some(), "abnormal exit carries a report");
        for img in &images {
            let outcome = session.run(img, &Input::args(&[0]), 1_000_000, "var");
            let Exit::DivideError { addr: pc } = outcome.exit else {
                panic!("variant should divide by zero: {:?}", outcome.exit);
            };
            let sym = session
                .symbolicate(&variant_id(img), pc)
                .unwrap()
                .expect("ledgered variant symbolicates");
            assert_eq!(sym.baseline_addr, baseline_pc, "remap hits the exact idiv");
            assert_eq!(sym.function, "main");
            assert!(sym.inst.contains("Idiv"), "inst was {}", sym.inst);
            assert_eq!(sym.transforms, "nop+subst+shift+regrand");
            assert!(sym.to_json().starts_with("{\"variant_id\":\""));
        }
        // Unknown variant id: a clean miss, not an error.
        assert!(session
            .symbolicate("ffffffffffffffff", 0x1000)
            .unwrap()
            .is_none());
        let snap = tel.snapshot();
        assert_eq!(snap.counters.get("ledger.records"), Some(&3));
        assert_eq!(snap.counters.get("symbolicate.hits"), Some(&3));
        assert_eq!(snap.counters.get("symbolicate.misses"), Some(&1));
        assert_eq!(
            snap.counters.get("crash.reports{class=divide_error}"),
            Some(&4),
            "baseline + 3 variants all crashed"
        );
    }

    #[test]
    fn corrupt_ledger_map_degrades_to_a_symbolicate_miss() {
        let session = Session::from_source("t", SRC_DIV)
            .config(BuildConfig::diversified(Strategy::uniform(0.5), 1))
            .ledger(true);
        let image = session.build().unwrap();
        let id = variant_id(&image);
        // Overwrite the stored record with a garbage address map.
        let mut rec = session.cache_handle().ledger_get(&id).unwrap();
        rec.addr_map = vec![0xde, 0xad];
        rec.variant_id = "0000000000000bad".into();
        session
            .cache_handle()
            .ledger_put(rec, &Telemetry::disabled());
        assert!(
            session
                .symbolicate("0000000000000bad", image.main_addr)
                .unwrap()
                .is_none(),
            "corrupt map must miss, not panic"
        );
        // The intact record still works.
        assert!(session.symbolicate(&id, image.main_addr).unwrap().is_some());
    }

    #[test]
    fn a_map_below_the_image_base_renders_outside_text() {
        let session = Session::from_source("t", SRC_DIV)
            .config(BuildConfig::diversified(Strategy::uniform(0.5), 1))
            .ledger(true);
        let image = session.build().unwrap();
        // A well-formed map (valid checksum, matching module key) whose
        // one function sends the fault address below the image base.
        let mut rec = session
            .cache_handle()
            .ledger_get(&variant_id(&image))
            .unwrap();
        rec.addr_map = encode_addr_map(&AddrMap {
            funcs: vec![FuncEntry::linear("main", 0x10, 0x20, image.main_addr)],
        });
        rec.variant_id = "00000000000000b5".into();
        session
            .cache_handle()
            .ledger_put(rec, &Telemetry::disabled());
        let sym = session
            .symbolicate("00000000000000b5", image.main_addr)
            .unwrap()
            .expect("the map resolves the address");
        assert_eq!(sym.baseline_addr, 0x10);
        assert_eq!(sym.inst, "<outside text>");
    }

    #[test]
    fn ledger_json_is_thread_count_invariant() {
        let mk = |threads: usize, tag: &str| {
            let dir = std::env::temp_dir()
                .join(format!("pgsd-session-ledger-{tag}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            let session = Session::from_source("t", SRC_DIV)
                .config(BuildConfig::diversified(Strategy::uniform(0.5), 40))
                .cache(Cache::persistent(&dir).unwrap())
                .ledger(true)
                .threads(threads);
            session.population(6).unwrap();
            let text = std::fs::read_to_string(dir.join(pgsd_cache::LEDGER_FILE)).unwrap();
            std::fs::remove_dir_all(&dir).unwrap();
            text
        };
        assert_eq!(
            mk(1, "t1"),
            mk(4, "t4"),
            "ledger.json must be byte-identical at any thread count"
        );
    }

    #[test]
    fn a_v1_ledger_migrates_and_still_symbolicates() {
        let dir =
            std::env::temp_dir().join(format!("pgsd-session-ledger-v1-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let open = || {
            Session::from_source("t", SRC_DIV)
                .config(BuildConfig::diversified(Strategy::uniform(0.5), 3))
                .cache(Cache::persistent(&dir).unwrap())
                .ledger(true)
        };
        let image = open().build().unwrap();
        let id = variant_id(&image);
        let r = open().cache_handle().ledger_get(&id).unwrap();
        // Replace the ledger with the single document version 1 wrote.
        let hex: String = r.addr_map.iter().map(|b| format!("{b:02x}")).collect();
        let v1 = format!(
            "{{\"schema_version\":1,\"kind\":\"pgsd-variant-ledger\",\"records\":[\
             {{\"variant_id\":\"{}\",\"seed\":{},\"transforms\":\"{}\",\"module_key\":\"{}\",\
             \"config\":\"{}\",\"profile\":\"{}\",\"addr_map\":\"{hex}\"}}]}}\n",
            r.variant_id, r.seed, r.transforms, r.module_key, r.config, r.profile
        );
        let path = dir.join(pgsd_cache::LEDGER_FILE);
        std::fs::write(&path, v1).unwrap();
        let session = open();
        let crash = session.run(&image, &Input::args(&[0]), 1_000_000, "var");
        let Exit::DivideError { addr: pc } = crash.exit else {
            panic!("variant should divide by zero: {:?}", crash.exit);
        };
        let sym = session
            .symbolicate(&id, pc)
            .unwrap()
            .expect("migrated record symbolicates");
        assert_eq!(sym.seed, 3);
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(
            text.starts_with("{\"schema_version\":2,"),
            "migrated: {text}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn disabled_cache_still_builds_correctly() {
        let session = Session::from_source("t", SRC)
            .config(BuildConfig::diversified(Strategy::uniform(0.5), 1))
            .cache(Cache::disabled());
        let a = session.build().unwrap();
        let cold = cold_build(&BuildConfig::diversified(Strategy::uniform(0.5), 1));
        assert_eq!(a, cold);
    }
}
