//! pgsd-cache: content-addressed artifact cache for the pgsd pipeline.
//!
//! Variant fleets make redundant recompilation the dominant cost: the
//! diversifying passes are cheap, but every build pays frontend +
//! optimizer + register allocation from scratch. This crate memoizes
//! pipeline artifacts under content-derived keys so the seed-independent
//! prefix (source → AST → optimized IR → baseline LIR) is computed once
//! and per-seed variants are stamped out from the cached baseline LIR.
//!
//! # Two levels
//!
//! * **Memory** — every artifact kind ([`Kind`]), held as `Arc`
//!   snapshots in a byte-capped FIFO map. Always on (unless the cache
//!   is [`Cache::disabled`]); shared by cloning the handle.
//! * **Disk** — only self-contained final products (images, profiles),
//!   as hash-named checksummed files under a cache directory (by
//!   convention [`DEFAULT_DIR`]). There is no manifest: opening the
//!   cache scans the directory once to index the files, and a put
//!   writes one file (temp file + rename), however many are stored. A
//!   corrupt or unreadable artifact file is *never* an error: the entry
//!   is treated as absent and the build falls back to a cold compile.
//!
//! Key derivation lives with the pipeline (`pgsd_core::session`); this
//! crate only stores blobs under [`Key`]s. Hits, misses, evictions,
//! corruption and bytes written are reported through [`pgsd_telemetry`]
//! counters (`cache.hits{kind=..}`, `cache.misses{kind=..}`,
//! `cache.disk_hits{kind=..}`, `cache.evictions`, `cache.corrupt`,
//! `cache.bytes_written{kind=..}`), so `pgsd report` surfaces cache
//! behaviour alongside the rest of the pipeline metrics.
//!
//! Counters are recorded on the [`Telemetry`] handle *passed to each
//! operation* (not one captured at construction) so parallel sections
//! can route them into per-job child handles and keep merged metrics
//! deterministic at any thread count.
//!
//! # Provenance ledger
//!
//! Alongside the artifact store, a disk-backed cache carries a variant
//! provenance [`ledger`] (`ledger.json`): per content-hash variant id,
//! the seed, transform set, pipeline keys, and compressed
//! baseline↔variant address map needed to symbolicate fleet crashes.
//! It is an append-only JSON-lines log: a flush appends only the new
//! records, and a torn or corrupt line is a miss that the next open
//! compacts away. It reports through the `ledger.records` /
//! `ledger.bytes` counters and `cache.bytes_written{kind=ledger}`.

pub mod artifact;
pub mod hash;
pub mod ledger;

pub use hash::{fnv64, Fnv64, Key};
pub use ledger::{LedgerRecord, LEDGER_FILE, LEDGER_KIND, LEDGER_SCHEMA_VERSION};

use ledger::LedgerStore;

use std::collections::{HashMap, VecDeque};
use std::fs;
use std::io;
use std::mem;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use pgsd_cc::emit::Image;
use pgsd_cc::ir::Module;
use pgsd_cc::lir::{MFunction, MInst};
use pgsd_profile::Profile;
use pgsd_telemetry::Telemetry;

/// File name of the artifact manifest that older versions kept in a
/// cache directory. It is never read; [`Cache::clear_dir`] removes it.
pub const MANIFEST_FILE: &str = "manifest.json";

/// Conventional cache directory name (`pgsd --cache-dir` default).
pub const DEFAULT_DIR: &str = ".pgsd-cache";

/// Default in-memory byte cap. Generous on purpose: eviction order
/// under parallel insertion is schedule-dependent, so the cap is a
/// safety valve against unbounded growth, not a tuning knob.
pub const DEFAULT_MEM_CAP: u64 = 256 * 1024 * 1024;

/// What kind of artifact a key names. Keys of different kinds live in
/// disjoint namespaces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Kind {
    /// Optimized IR module (frontend output).
    Module,
    /// Baseline (or per-reg-seed) LIR: lowered, allocated, framed.
    Lir,
    /// Emitted executable image.
    Image,
    /// Execution profile from a training run.
    Profile,
    /// Translation-validation verdict for an image.
    Verdict,
}

impl Kind {
    /// Stable lowercase label (telemetry `kind=` value).
    pub fn label(self) -> &'static str {
        match self {
            Kind::Module => "module",
            Kind::Lir => "lir",
            Kind::Image => "image",
            Kind::Profile => "profile",
            Kind::Verdict => "verdict",
        }
    }

    /// File name of this artifact inside the cache directory, or `None`
    /// if the kind is memory-only.
    fn file_name(self, key: Key) -> Option<String> {
        match self {
            Kind::Image => Some(format!("img-{}.bin", key.hex())),
            Kind::Profile => Some(format!("prof-{}.bin", key.hex())),
            _ => None,
        }
    }

    /// The inverse of [`Kind::file_name`]: `None` for any other name.
    fn of_file_name(name: &str) -> Option<(Kind, Key)> {
        let (kind, rest) = match name.strip_prefix("img-") {
            Some(rest) => (Kind::Image, rest),
            None => (Kind::Profile, name.strip_prefix("prof-")?),
        };
        let key = Key::from_hex(rest.strip_suffix(".bin")?)?;
        (kind.file_name(key)? == name).then_some((kind, key))
    }
}

/// One cached artifact (cheaply cloneable snapshot).
#[derive(Debug, Clone)]
enum Slot {
    Module(Arc<Module>),
    Lir(Arc<Vec<MFunction>>),
    Image(Arc<Image>),
    Profile(Arc<Profile>),
    /// A passed validation: only passes are stored, so presence is the
    /// verdict.
    Verdict,
}

/// Approximate retained size, for the memory cap. Estimates only —
/// accounting needs to be monotone in content size, not exact.
fn slot_bytes(slot: &Slot) -> u64 {
    match slot {
        Slot::Module(m) => {
            let mut n = 256u64;
            for f in &m.funcs {
                n += 512;
                for b in &f.blocks {
                    n += 32 + 24 * b.instrs.len() as u64;
                }
            }
            n + 64 * m.globals.len() as u64
        }
        Slot::Lir(funcs) => {
            let mut n = 64u64;
            for f in funcs.iter() {
                n += 128 + f.name.len() as u64;
                for b in &f.blocks {
                    n += 48 + (mem::size_of::<MInst>() * b.instrs.len()) as u64;
                }
            }
            n
        }
        Slot::Image(img) => {
            let mut n = 128 + img.text.len() as u64 + img.data.len() as u64;
            for f in &img.funcs {
                n += 64 + f.name.len() as u64 + 4 * f.block_addrs.len() as u64;
            }
            n + 48 * img.globals.len() as u64
        }
        Slot::Profile(p) => {
            let mut n = 64u64;
            for (name, fp) in &p.funcs {
                n += 48 + name.len() as u64 + 8 * fp.block_counts.len() as u64;
            }
            n
        }
        Slot::Verdict => 16,
    }
}

struct MemStore {
    map: HashMap<(Kind, Key), Slot>,
    /// Insertion order, for FIFO eviction.
    order: VecDeque<(Kind, Key)>,
    bytes: u64,
    cap: u64,
    evictions: u64,
}

impl MemStore {
    fn new(cap: u64) -> MemStore {
        MemStore {
            map: HashMap::new(),
            order: VecDeque::new(),
            bytes: 0,
            cap,
            evictions: 0,
        }
    }

    fn get(&self, kind: Kind, key: Key) -> Option<Slot> {
        self.map.get(&(kind, key)).cloned()
    }

    /// Inserts, evicting oldest-first if over the cap. Returns the
    /// number of evictions performed.
    fn put(&mut self, kind: Kind, key: Key, slot: Slot) -> u64 {
        let sz = slot_bytes(&slot);
        if let Some(old) = self.map.insert((kind, key), slot) {
            // Overwrite in place: adjust accounting, keep FIFO position.
            self.bytes = self.bytes - slot_bytes(&old) + sz;
            return 0;
        }
        self.order.push_back((kind, key));
        self.bytes += sz;
        let mut evicted = 0;
        while self.bytes > self.cap && self.order.len() > 1 {
            let oldest = self.order.pop_front().expect("len > 1");
            if let Some(gone) = self.map.remove(&oldest) {
                self.bytes -= slot_bytes(&gone);
                evicted += 1;
            }
        }
        self.evictions += evicted;
        evicted
    }
}

/// The disk layer: artifact files, indexed in memory by one directory
/// scan at open. There is no manifest: every file is a self-checking
/// envelope (tag + checksum, see [`artifact`]) written by temp file +
/// rename under a pipeline-versioned key, so a file that is present
/// is either intact or caught as corrupt when read.
struct DiskStore {
    dir: PathBuf,
    /// Size of each artifact file, by kind and key.
    index: Mutex<HashMap<(Kind, Key), u64>>,
}

impl DiskStore {
    fn open(dir: &Path) -> io::Result<DiskStore> {
        fs::create_dir_all(dir)?;
        let mut index = HashMap::new();
        for entry in fs::read_dir(dir)?.flatten() {
            let Some(slot) = entry.file_name().to_str().and_then(Kind::of_file_name) else {
                continue;
            };
            if let Ok(meta) = entry.metadata() {
                if meta.is_file() {
                    index.insert(slot, meta.len());
                }
            }
        }
        Ok(DiskStore {
            dir: dir.to_path_buf(),
            index: Mutex::new(index),
        })
    }

    /// Reads and decodes `kind/key`, dropping the entry on any failure.
    /// Returns `Ok(None)` when absent, `Err(())` when present but
    /// corrupt (so the caller can count it).
    fn get(&self, kind: Kind, key: Key) -> Result<Option<Slot>, ()> {
        let file = match kind.file_name(key) {
            Some(f) => f,
            None => return Ok(None),
        };
        if !self.index.lock().unwrap().contains_key(&(kind, key)) {
            return Ok(None);
        }
        let path = self.dir.join(&file);
        let decoded = fs::read(&path)
            .map_err(|e| e.to_string())
            .and_then(|bytes| {
                Ok(match kind {
                    Kind::Image => Slot::Image(Arc::new(artifact::decode_image(&bytes)?)),
                    Kind::Profile => Slot::Profile(Arc::new(artifact::decode_profile(&bytes)?)),
                    _ => unreachable!("kind has a file name"),
                })
            });
        match decoded {
            Ok(slot) => Ok(Some(slot)),
            Err(_) => {
                // Unreadable or corrupt: forget it so the slot can be
                // refilled by the cold rebuild.
                if self.index.lock().unwrap().remove(&(kind, key)).is_some() {
                    let _ = fs::remove_file(&path);
                }
                Err(())
            }
        }
    }

    /// Encodes and writes `kind/key` if not already present. Returns
    /// bytes written (0 if already present or kind is memory-only).
    /// Best-effort: an IO error degrades to "not cached".
    fn put(&self, kind: Kind, key: Key, slot: &Slot) -> u64 {
        let file = match kind.file_name(key) {
            Some(f) => f,
            None => return 0,
        };
        let bytes = match slot {
            Slot::Image(img) => artifact::encode_image(img),
            Slot::Profile(p) => artifact::encode_profile(p),
            _ => return 0,
        };
        let mut index = self.index.lock().unwrap();
        if index.contains_key(&(kind, key)) {
            return 0;
        }
        let path = self.dir.join(&file);
        let tmp = self.dir.join(format!("{file}.tmp"));
        if fs::write(&tmp, &bytes).is_err() || fs::rename(&tmp, &path).is_err() {
            return 0;
        }
        let n = bytes.len() as u64;
        index.insert((kind, key), n);
        n
    }

    fn stats(&self) -> (usize, u64) {
        let index = self.index.lock().unwrap();
        (index.len(), index.values().sum())
    }
}

struct Inner {
    mem: Mutex<MemStore>,
    disk: Option<DiskStore>,
    ledger: Mutex<LedgerStore>,
}

/// Point-in-time cache occupancy, for `pgsd cache stats`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Entries in the in-memory layer.
    pub mem_entries: usize,
    /// Approximate bytes retained in memory.
    pub mem_bytes: u64,
    /// Total in-memory evictions so far.
    pub evictions: u64,
    /// Artifact files in the cache directory: found by the scan at
    /// open or written since.
    pub disk_entries: usize,
    /// Bytes of those artifact files.
    pub disk_bytes: u64,
    /// Variant records in the provenance ledger.
    pub ledger_records: usize,
    /// Address-map payload bytes held by the ledger.
    pub ledger_bytes: u64,
}

/// Shared handle to a two-level artifact cache.
///
/// Cloning is cheap and shares the store ([`Telemetry`]-style). A
/// [`Cache::disabled`] handle stores nothing, returns nothing, and
/// records no telemetry — one branch per operation, zero overhead.
#[derive(Clone)]
pub struct Cache {
    inner: Option<Arc<Inner>>,
}

impl std::fmt::Debug for Cache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            None => f.write_str("Cache(disabled)"),
            Some(inner) => f
                .debug_struct("Cache")
                .field("dir", &inner.disk.as_ref().map(|d| d.dir.clone()))
                .finish(),
        }
    }
}

impl Default for Cache {
    fn default() -> Self {
        Cache::in_memory()
    }
}

impl Cache {
    /// A no-op cache: every get is a miss, every put is dropped, and
    /// nothing is counted.
    pub fn disabled() -> Cache {
        Cache { inner: None }
    }

    /// A memory-only cache with the default byte cap.
    pub fn in_memory() -> Cache {
        Cache::in_memory_capped(DEFAULT_MEM_CAP)
    }

    /// A memory-only cache with an explicit byte cap (FIFO eviction).
    fn in_memory_capped(max_bytes: u64) -> Cache {
        Cache {
            inner: Some(Arc::new(Inner {
                mem: Mutex::new(MemStore::new(max_bytes)),
                disk: None,
                ledger: Mutex::new(LedgerStore::default()),
            })),
        }
    }

    /// A two-level cache backed by `dir` (created if absent). One scan
    /// of the directory indexes its artifact files, and the ledger log
    /// is loaded (and compacted if irregular, see [`ledger`]). Corrupt
    /// files are not an error: they read as misses.
    pub fn persistent(dir: &Path) -> io::Result<Cache> {
        let disk = DiskStore::open(dir)?;
        let ledger = LedgerStore::open(&disk.dir);
        Ok(Cache {
            inner: Some(Arc::new(Inner {
                mem: Mutex::new(MemStore::new(DEFAULT_MEM_CAP)),
                disk: Some(disk),
                ledger: Mutex::new(ledger),
            })),
        })
    }

    /// Whether this handle stores anything at all.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The backing directory, if this cache has a disk layer.
    pub fn dir(&self) -> Option<&Path> {
        self.inner
            .as_ref()
            .and_then(|i| i.disk.as_ref())
            .map(|d| d.dir.as_path())
    }

    fn get_slot(&self, kind: Kind, key: Key, tel: &Telemetry) -> Option<Slot> {
        let inner = self.inner.as_ref()?;
        if let Some(slot) = inner.mem.lock().unwrap().get(kind, key) {
            tel.add_labeled("cache.hits", &[("kind", kind.label())], 1);
            return Some(slot);
        }
        if let Some(disk) = &inner.disk {
            match disk.get(kind, key) {
                Ok(Some(slot)) => {
                    // Promote so later gets stay in memory.
                    let evicted = inner.mem.lock().unwrap().put(kind, key, slot.clone());
                    if evicted > 0 {
                        tel.add("cache.evictions", evicted);
                    }
                    tel.add_labeled("cache.hits", &[("kind", kind.label())], 1);
                    tel.add_labeled("cache.disk_hits", &[("kind", kind.label())], 1);
                    return Some(slot);
                }
                Ok(None) => {}
                Err(()) => tel.add("cache.corrupt", 1),
            }
        }
        tel.add_labeled("cache.misses", &[("kind", kind.label())], 1);
        None
    }

    fn put_slot(&self, kind: Kind, key: Key, slot: Slot, tel: &Telemetry) {
        let inner = match &self.inner {
            Some(i) => i,
            None => return,
        };
        let mut written = 0;
        if let Some(disk) = &inner.disk {
            written = disk.put(kind, key, &slot);
        }
        let evicted = inner.mem.lock().unwrap().put(kind, key, slot);
        if evicted > 0 {
            tel.add("cache.evictions", evicted);
        }
        if written > 0 {
            tel.add_labeled("cache.bytes_written", &[("kind", kind.label())], written);
        }
    }

    /// Looks up an optimized IR module.
    pub fn get_module(&self, key: Key, tel: &Telemetry) -> Option<Arc<Module>> {
        match self.get_slot(Kind::Module, key, tel)? {
            Slot::Module(m) => Some(m),
            _ => None,
        }
    }

    /// Stores an optimized IR module.
    pub fn put_module(&self, key: Key, module: Arc<Module>, tel: &Telemetry) {
        self.put_slot(Kind::Module, key, Slot::Module(module), tel);
    }

    /// Looks up baseline LIR (lowered + allocated + framed functions).
    pub fn get_lir(&self, key: Key, tel: &Telemetry) -> Option<Arc<Vec<MFunction>>> {
        match self.get_slot(Kind::Lir, key, tel)? {
            Slot::Lir(l) => Some(l),
            _ => None,
        }
    }

    /// Stores baseline LIR.
    pub fn put_lir(&self, key: Key, lir: Arc<Vec<MFunction>>, tel: &Telemetry) {
        self.put_slot(Kind::Lir, key, Slot::Lir(lir), tel);
    }

    /// Looks up an emitted image (memory first, then disk).
    pub fn get_image(&self, key: Key, tel: &Telemetry) -> Option<Arc<Image>> {
        match self.get_slot(Kind::Image, key, tel)? {
            Slot::Image(i) => Some(i),
            _ => None,
        }
    }

    /// Stores an emitted image (and persists it when disk-backed).
    pub fn put_image(&self, key: Key, image: Arc<Image>, tel: &Telemetry) {
        self.put_slot(Kind::Image, key, Slot::Image(image), tel);
    }

    /// Looks up a training profile (memory first, then disk).
    pub fn get_profile(&self, key: Key, tel: &Telemetry) -> Option<Arc<Profile>> {
        match self.get_slot(Kind::Profile, key, tel)? {
            Slot::Profile(p) => Some(p),
            _ => None,
        }
    }

    /// Stores a training profile (and persists it when disk-backed).
    pub fn put_profile(&self, key: Key, profile: Arc<Profile>, tel: &Telemetry) {
        self.put_slot(Kind::Profile, key, Slot::Profile(profile), tel);
    }

    /// Whether the image under `key` has passed validation.
    pub fn has_verdict(&self, key: Key, tel: &Telemetry) -> bool {
        self.get_slot(Kind::Verdict, key, tel).is_some()
    }

    /// Records that the image under `key` passed validation.
    pub fn put_verdict(&self, key: Key, tel: &Telemetry) {
        self.put_slot(Kind::Verdict, key, Slot::Verdict, tel);
    }

    /// Records one variant in the provenance ledger. First insertion of
    /// an id counts `ledger.records` and `ledger.bytes`; re-recording
    /// the same variant (a cache hit rebuilding the same image) is a
    /// no-op, so counters stay deterministic across warm and cold runs.
    pub fn ledger_put(&self, record: LedgerRecord, tel: &Telemetry) {
        let inner = match &self.inner {
            Some(i) => i,
            None => return,
        };
        let mut ledger = inner.ledger.lock().unwrap();
        if ledger.records.contains_key(&record.variant_id) {
            return;
        }
        tel.add("ledger.records", 1);
        tel.add("ledger.bytes", record.addr_map.len() as u64);
        if inner.disk.is_some() {
            ledger.pending.insert(record.variant_id.clone());
        }
        ledger.records.insert(record.variant_id.clone(), record);
    }

    /// Looks up one variant's provenance by id.
    pub fn ledger_get(&self, variant_id: &str) -> Option<LedgerRecord> {
        let inner = self.inner.as_ref()?;
        let ledger = inner.ledger.lock().unwrap();
        ledger.records.get(variant_id).cloned()
    }

    /// If this cache is disk-backed, appends the records put since the
    /// last flush to the ledger log, sorted by id, in one write. Counts
    /// the bytes written (the open-time compaction's included) as
    /// `cache.bytes_written{kind=ledger}`. Best-effort: an IO failure
    /// degrades to "not persisted", never an error.
    pub fn flush_ledger(&self, tel: &Telemetry) {
        let Some(inner) = &self.inner else { return };
        let Some(disk) = &inner.disk else { return };
        let written = inner.ledger.lock().unwrap().flush(&disk.dir);
        if written > 0 {
            tel.add_labeled("cache.bytes_written", &[("kind", "ledger")], written);
        }
    }

    /// Current occupancy of both levels.
    pub fn stats(&self) -> CacheStats {
        let inner = match &self.inner {
            Some(i) => i,
            None => return CacheStats::default(),
        };
        let mem = inner.mem.lock().unwrap();
        let (disk_entries, disk_bytes) = inner.disk.as_ref().map(|d| d.stats()).unwrap_or((0, 0));
        let ledger = inner.ledger.lock().unwrap();
        CacheStats {
            mem_entries: mem.map.len(),
            mem_bytes: mem.bytes,
            evictions: mem.evictions,
            disk_entries,
            disk_bytes,
            ledger_records: ledger.records.len(),
            ledger_bytes: ledger.bytes(),
        }
    }

    /// Deletes every cache-owned file in `dir` (artifact files, the
    /// ledger, a legacy manifest, stray temp files); the directory
    /// itself is kept.
    /// Returns the number of files removed. A missing directory counts
    /// as already clear.
    pub fn clear_dir(dir: &Path) -> io::Result<usize> {
        let entries = match fs::read_dir(dir) {
            Ok(e) => e,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(0),
            Err(e) => return Err(e),
        };
        let mut removed = 0;
        for entry in entries {
            let entry = entry?;
            let name = entry.file_name();
            let name = name.to_string_lossy();
            let ours = name == MANIFEST_FILE
                || name == LEDGER_FILE
                || ((name.starts_with("img-") || name.starts_with("prof-"))
                    && name.ends_with(".bin"))
                || name.ends_with(".tmp");
            if ours && entry.file_type()?.is_file() {
                fs::remove_file(entry.path())?;
                removed += 1;
            }
        }
        Ok(removed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgsd_profile::FuncProfile;

    fn tdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("pgsd-cache-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn sample_image(byte: u8) -> Arc<Image> {
        Arc::new(Image {
            base: 0x0804_8000,
            text: Arc::new(vec![byte; 8]),
            data_base: 0x0810_0000,
            data: Arc::new(vec![]),
            main_addr: 0x0804_8000,
            exit_addr: 0x0804_8000,
            funcs: vec![],
            globals: vec![],
            counter_base: 0x0810_0000,
            num_counters: 0,
        })
    }

    fn sample_profile() -> Arc<Profile> {
        let mut p = Profile::default();
        p.funcs.insert(
            "main".into(),
            FuncProfile {
                block_counts: vec![4, 2],
                invocations: 4,
            },
        );
        Arc::new(p)
    }

    #[test]
    fn disabled_cache_is_inert() {
        let tel = Telemetry::enabled();
        let c = Cache::disabled();
        assert!(!c.is_enabled());
        c.put_image(Key(1), sample_image(1), &tel);
        assert!(c.get_image(Key(1), &tel).is_none());
        assert_eq!(c.stats(), CacheStats::default());
        let snap = tel.snapshot();
        assert!(
            snap.counters.is_empty(),
            "disabled cache must not count: {:?}",
            snap.counters
        );
    }

    #[test]
    fn memory_hit_miss_and_kind_namespacing() {
        let tel = Telemetry::enabled();
        let c = Cache::in_memory();
        assert!(c.get_image(Key(7), &tel).is_none());
        c.put_image(Key(7), sample_image(7), &tel);
        assert_eq!(c.get_image(Key(7), &tel).unwrap().text[0], 7);
        // Same key, different kind: disjoint namespace.
        assert!(c.get_profile(Key(7), &tel).is_none());
        let snap = tel.snapshot();
        assert_eq!(snap.counters.get("cache.hits{kind=image}"), Some(&1));
        assert_eq!(snap.counters.get("cache.misses{kind=image}"), Some(&1));
        assert_eq!(snap.counters.get("cache.misses{kind=profile}"), Some(&1));
    }

    #[test]
    fn verdicts_round_trip() {
        let tel = Telemetry::disabled();
        let c = Cache::in_memory();
        c.put_verdict(Key(3), &tel);
        assert!(c.has_verdict(Key(3), &tel));
        assert!(!c.has_verdict(Key(4), &tel));
    }

    #[test]
    fn fifo_eviction_respects_byte_cap() {
        let tel = Telemetry::enabled();
        let c = Cache::in_memory_capped(300);
        for i in 0..4u64 {
            c.put_image(Key(i), sample_image(i as u8), &tel);
        }
        let stats = c.stats();
        assert!(stats.mem_bytes <= 300, "cap exceeded: {stats:?}");
        assert!(stats.evictions > 0);
        // Newest entry survives; oldest was evicted.
        assert!(c.get_image(Key(3), &tel).is_some());
        assert!(c.get_image(Key(0), &tel).is_none());
        let snap = tel.snapshot();
        assert!(snap.counters.get("cache.evictions").copied().unwrap_or(0) > 0);
    }

    #[test]
    fn persistent_cache_survives_reopen() {
        let dir = tdir("reopen");
        let tel = Telemetry::enabled();
        {
            let c = Cache::persistent(&dir).unwrap();
            c.put_image(Key(11), sample_image(11), &tel);
            c.put_profile(Key(12), sample_profile(), &tel);
            assert_eq!(c.stats().disk_entries, 2);
        }
        let c = Cache::persistent(&dir).unwrap();
        let tel2 = Telemetry::enabled();
        let img = c.get_image(Key(11), &tel2).expect("disk hit");
        assert_eq!(img.text[0], 11);
        let p = c.get_profile(Key(12), &tel2).expect("disk hit");
        assert_eq!(p.funcs["main"].invocations, 4);
        let snap = tel2.snapshot();
        assert_eq!(snap.counters.get("cache.disk_hits{kind=image}"), Some(&1));
        assert_eq!(snap.counters.get("cache.disk_hits{kind=profile}"), Some(&1));
        // Promoted: the second get is a pure memory hit.
        let tel3 = Telemetry::enabled();
        assert!(c.get_image(Key(11), &tel3).is_some());
        assert!(!tel3
            .snapshot()
            .counters
            .contains_key("cache.disk_hits{kind=image}"));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_artifact_file_degrades_to_miss() {
        let dir = tdir("corrupt");
        let tel = Telemetry::disabled();
        {
            let c = Cache::persistent(&dir).unwrap();
            c.put_image(Key(5), sample_image(5), &tel);
        }
        // Bit-flip the stored artifact.
        let file = dir.join(format!("img-{}.bin", Key(5).hex()));
        let mut bytes = fs::read(&file).unwrap();
        bytes[20] ^= 0xff;
        fs::write(&file, &bytes).unwrap();

        let c = Cache::persistent(&dir).unwrap();
        let tel2 = Telemetry::enabled();
        assert!(c.get_image(Key(5), &tel2).is_none(), "corrupt entry served");
        let snap = tel2.snapshot();
        assert_eq!(snap.counters.get("cache.corrupt"), Some(&1));
        assert_eq!(snap.counters.get("cache.misses{kind=image}"), Some(&1));
        // The entry was dropped: refill works and subsequent opens are clean.
        c.put_image(Key(5), sample_image(5), &tel);
        assert!(c.get_image(Key(5), &Telemetry::disabled()).is_some());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn legacy_manifest_is_ignored_and_artifacts_hit_by_scan() {
        let dir = tdir("legacy-manifest");
        let tel = Telemetry::disabled();
        {
            let c = Cache::persistent(&dir).unwrap();
            c.put_image(Key(9), sample_image(9), &tel);
        }
        // The manifest older versions wrote, listing one file that is
        // present and one that is not.
        fs::write(
            dir.join(MANIFEST_FILE),
            format!(
                "{{\"schema_version\":1,\"kind\":\"pgsd-cache-manifest\",\"entries\":[\
                 {{\"kind\":\"image\",\"key\":\"{}\",\"bytes\":1}},\
                 {{\"kind\":\"image\",\"key\":\"{}\",\"bytes\":1}}]}}\n",
                Key(9).hex(),
                Key(10).hex()
            ),
        )
        .unwrap();
        // Stray temp files and look-alike names are not artifacts.
        fs::write(dir.join(format!("img-{}.bin.tmp", Key(11).hex())), "x").unwrap();
        fs::write(dir.join("img-nothex.bin"), "x").unwrap();
        let c = Cache::persistent(&dir).unwrap();
        assert_eq!(c.get_image(Key(9), &tel).unwrap().text[0], 9);
        assert!(c.get_image(Key(10), &tel).is_none());
        assert!(c.get_image(Key(11), &tel).is_none());
        let stats = c.stats();
        assert_eq!(stats.disk_entries, 1);
        let file = dir.join(format!("img-{}.bin", Key(9).hex()));
        assert_eq!(stats.disk_bytes, fs::metadata(file).unwrap().len());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn clear_dir_removes_cache_files_only() {
        let dir = tdir("clear");
        let tel = Telemetry::disabled();
        {
            let c = Cache::persistent(&dir).unwrap();
            c.put_image(Key(1), sample_image(1), &tel);
            c.put_profile(Key(2), sample_profile(), &tel);
        }
        fs::write(dir.join("unrelated.txt"), "keep me").unwrap();
        // A manifest left by an older version.
        fs::write(dir.join(MANIFEST_FILE), "{}").unwrap();
        let removed = Cache::clear_dir(&dir).unwrap();
        assert_eq!(removed, 3, "2 artifacts + legacy manifest");
        assert!(dir.join("unrelated.txt").exists());
        assert_eq!(Cache::clear_dir(&dir).unwrap(), 0);
        // Clearing a directory that never existed is fine.
        assert_eq!(Cache::clear_dir(&dir.join("nope")).unwrap(), 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    fn sample_record(id: &str, seed: u64) -> LedgerRecord {
        LedgerRecord {
            variant_id: id.to_string(),
            seed,
            transforms: "nop".into(),
            module_key: "00000000deadbeef".into(),
            config: "0000000012345678".into(),
            profile: String::new(),
            addr_map: vec![1, 2, 3, 4],
        }
    }

    #[test]
    fn ledger_survives_reopen_and_counts_once() {
        let dir = tdir("ledger");
        let tel = Telemetry::enabled();
        {
            let c = Cache::persistent(&dir).unwrap();
            c.ledger_put(sample_record("aa", 7), &tel);
            c.ledger_put(sample_record("aa", 7), &tel); // duplicate: no-op
            c.ledger_put(sample_record("bb", 8), &tel);
            c.flush_ledger(&tel);
            c.flush_ledger(&tel); // clean: skipped
        }
        let snap = tel.snapshot();
        assert_eq!(snap.counters.get("ledger.records"), Some(&2));
        assert_eq!(snap.counters.get("ledger.bytes"), Some(&8));
        let file_len = fs::metadata(dir.join(LEDGER_FILE)).unwrap().len();
        assert_eq!(
            snap.counters.get("cache.bytes_written{kind=ledger}"),
            Some(&file_len),
            "one append wrote the whole file"
        );
        let c = Cache::persistent(&dir).unwrap();
        assert_eq!(c.ledger_get("aa").unwrap().seed, 7);
        assert_eq!(c.ledger_get("bb").unwrap().seed, 8);
        assert_eq!(c.ledger_get("cc"), None, "unknown id is a clean miss");
        let stats = c.stats();
        assert_eq!(stats.ledger_records, 2);
        assert_eq!(stats.ledger_bytes, 8);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_or_mismatched_ledger_falls_back_cold() {
        let dir = tdir("ledger-corrupt");
        let tel = Telemetry::disabled();
        {
            let c = Cache::persistent(&dir).unwrap();
            c.ledger_put(sample_record("aa", 1), &tel);
            c.flush_ledger(&tel);
        }
        let path = dir.join(LEDGER_FILE);
        let text = fs::read_to_string(&path).unwrap();
        let version = format!("\"schema_version\":{LEDGER_SCHEMA_VERSION}");
        assert!(text.contains(&version));
        for bad in [
            "{truncated".to_string(),
            text[..text.len() / 2].to_string(),
            text.replace(&version, "\"schema_version\":42"),
            text.replace(LEDGER_KIND, "wrong-kind"),
        ] {
            fs::write(&path, &bad).unwrap();
            let c = Cache::persistent(&dir).unwrap();
            assert_eq!(c.ledger_get("aa"), None, "must load cold, not serve junk");
            assert_eq!(c.stats().ledger_records, 0);
            // And the cold ledger can be refilled + reflushed.
            c.ledger_put(sample_record("aa", 1), &tel);
            c.flush_ledger(&tel);
        }
        let c = Cache::persistent(&dir).unwrap();
        assert_eq!(c.ledger_get("aa").unwrap().seed, 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn memory_only_ledger_works_without_a_disk_layer() {
        let tel = Telemetry::disabled();
        let c = Cache::in_memory();
        c.ledger_put(sample_record("aa", 3), &tel);
        c.flush_ledger(&tel); // no disk: no-op, no panic
        assert_eq!(c.ledger_get("aa").unwrap().seed, 3);
        let d = Cache::disabled();
        d.ledger_put(sample_record("aa", 3), &tel);
        assert_eq!(d.ledger_get("aa"), None);
    }

    #[test]
    fn clear_dir_removes_the_ledger_too() {
        let dir = tdir("ledger-clear");
        let tel = Telemetry::disabled();
        {
            let c = Cache::persistent(&dir).unwrap();
            c.ledger_put(sample_record("aa", 1), &tel);
            c.flush_ledger(&tel);
        }
        assert!(dir.join(LEDGER_FILE).exists());
        // Only ledger.json: no artifact was stored.
        assert_eq!(Cache::clear_dir(&dir).unwrap(), 1);
        assert!(!dir.join(LEDGER_FILE).exists());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_v1_ledger_document_migrates_to_the_log() {
        let dir = tdir("ledger-v1");
        fs::create_dir_all(&dir).unwrap();
        // What version 1 wrote: one document holding every record.
        fs::write(
            dir.join(LEDGER_FILE),
            "{\"schema_version\":1,\"kind\":\"pgsd-variant-ledger\",\"records\":[\
             {\"variant_id\":\"aa\",\"seed\":7,\"transforms\":\"nop\",\
             \"module_key\":\"00000000deadbeef\",\"config\":\"0000000012345678\",\
             \"profile\":\"\",\"addr_map\":\"01020304\"}]}\n",
        )
        .unwrap();
        let tel = Telemetry::enabled();
        let c = Cache::persistent(&dir).unwrap();
        assert_eq!(c.ledger_get("aa"), Some(sample_record("aa", 7)));
        let text = fs::read_to_string(dir.join(LEDGER_FILE)).unwrap();
        assert!(
            text.starts_with("{\"schema_version\":2,\"kind\":\"pgsd-variant-ledger\"}\n"),
            "rewritten as a log: {text}"
        );
        assert_eq!(text.lines().count(), 2, "header + one record");
        // The compaction is counted with the next flush.
        c.ledger_put(sample_record("bb", 8), &tel);
        c.flush_ledger(&tel);
        let len = fs::metadata(dir.join(LEDGER_FILE)).unwrap().len();
        assert_eq!(
            tel.snapshot()
                .counters
                .get("cache.bytes_written{kind=ledger}"),
            Some(&len)
        );
        let c = Cache::persistent(&dir).unwrap();
        assert_eq!(c.ledger_get("aa"), Some(sample_record("aa", 7)));
        assert_eq!(c.ledger_get("bb"), Some(sample_record("bb", 8)));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn flushing_one_record_at_a_time_writes_each_byte_once() {
        let dir = tdir("ledger-amplification");
        let tel = Telemetry::enabled();
        let c = Cache::persistent(&dir).unwrap();
        for i in 0..200u64 {
            c.ledger_put(sample_record(&format!("{i:04x}"), i), &tel);
            c.flush_ledger(&tel);
        }
        let written = tel.snapshot().counters["cache.bytes_written{kind=ledger}"];
        let size = fs::metadata(dir.join(LEDGER_FILE)).unwrap().len();
        assert!(
            written * 10 <= size * 11,
            "{written} bytes written for a {size}-byte ledger"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    /// The truncation gate: a ledger log cut at every byte offset
    /// reopens without panicking, keeps exactly its complete records
    /// (each equal to what was put), and takes clean appends after the
    /// open's compaction.
    #[test]
    fn a_ledger_log_truncated_anywhere_keeps_its_complete_records() {
        let dir = tdir("ledger-truncate");
        let tel = Telemetry::disabled();
        let records: Vec<LedgerRecord> = (0..5u8)
            .map(|i| LedgerRecord {
                addr_map: vec![i; 3 + i as usize],
                ..sample_record(&format!("{i:02x}"), u64::from(i))
            })
            .collect();
        {
            let c = Cache::persistent(&dir).unwrap();
            for r in &records {
                c.ledger_put(r.clone(), &tel);
                c.flush_ledger(&tel);
            }
        }
        let path = dir.join(LEDGER_FILE);
        let full = fs::read(&path).unwrap();
        // Offset just past each line: the header's, then each record's.
        let ends: Vec<usize> = (0..full.len())
            .filter(|&i| full[i] == b'\n')
            .map(|i| i + 1)
            .collect();
        assert_eq!(ends.len(), 1 + records.len());
        let extra = sample_record("ff", 99);
        for cut in 0..=full.len() {
            fs::write(&path, &full[..cut]).unwrap();
            let c = Cache::persistent(&dir).unwrap();
            let mut kept = 0;
            for (r, &end) in records.iter().zip(&ends[1..]) {
                let got = c.ledger_get(&r.variant_id);
                if end <= cut {
                    assert_eq!(got.as_ref(), Some(r), "cut at {cut}");
                    kept += 1;
                } else {
                    assert_eq!(got, None, "cut at {cut}: torn record served");
                }
            }
            c.ledger_put(extra.clone(), &tel);
            c.flush_ledger(&tel);
            let appended = fs::read(&path).unwrap();
            let c = Cache::persistent(&dir).unwrap();
            assert_eq!(c.ledger_get("ff"), Some(extra.clone()), "cut at {cut}");
            assert_eq!(c.stats().ledger_records, kept + 1, "cut at {cut}");
            assert_eq!(
                fs::read(&path).unwrap(),
                appended,
                "cut at {cut}: the append left a clean log"
            );
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn shared_handle_shares_the_store() {
        let tel = Telemetry::disabled();
        let a = Cache::in_memory();
        let b = a.clone();
        a.put_verdict(Key(1), &tel);
        assert!(b.has_verdict(Key(1), &tel));
    }
}
