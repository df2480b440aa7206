//! Variant provenance ledger: who is this binary, and how do I read
//! its crashes?
//!
//! A fleet of diversified variants is unsupportable unless every crash
//! can be mapped back to the baseline build (the paper's massive-scale
//! distribution scenario; ΔBreakpad's diversified crash reporting). The
//! ledger records, per variant — keyed by a content hash of its text
//! segment — the provenance needed to do that: the diversification seed,
//! the transform set, the module/config/profile keys that produced it,
//! and the compressed baseline↔variant address map computed by the
//! translation validator.
//!
//! # Log format
//!
//! `ledger.json` is an append-only JSON-lines log: a header line
//! `{"schema_version":2,"kind":"pgsd-variant-ledger"}`, then one record
//! per line. A flush appends only the records added since the last
//! one, sorted by id, in one write, so recording a variant costs
//! O(record) disk work however long the ledger already is.
//!
//! Opening keeps every newline-terminated line that parses as a record;
//! on a duplicate id the first line wins. A torn tail, a bad line, a
//! duplicate, an unrecognized header or a version-1 single-document
//! ledger makes the open rewrite the file compacted (header plus
//! records sorted by id, via temp file + rename), so later appends
//! start on a clean line. A version-1 ledger is read through the old
//! document loader, so its records survive the migration; any other
//! unreadable file loads empty. A torn or corrupt record is therefore a
//! miss, never a misattribution, and the records regenerate on the next
//! build of their variants. Records live in a `BTreeMap` keyed by
//! variant id, so each batch serializes byte-identically no matter how
//! many threads raced to insert.

use std::collections::{BTreeMap, BTreeSet};
use std::fs::{self, OpenOptions};
use std::io::{self, Write as _};
use std::path::Path;

use pgsd_telemetry::json::{parse, Value};

/// Schema version of the ledger log's header line. Version 1 was a
/// single JSON document; it is migrated on open. Any other version is
/// ignored wholesale (cold rebuild), never misinterpreted.
pub const LEDGER_SCHEMA_VERSION: u64 = 2;

/// The `kind` tag of ledger files.
pub const LEDGER_KIND: &str = "pgsd-variant-ledger";

/// File name of the ledger inside a cache directory.
pub const LEDGER_FILE: &str = "ledger.json";

/// Provenance of one diversified variant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LedgerRecord {
    /// Content hash of the variant's text segment (hex) — the fleet-wide
    /// identity a crash report carries.
    pub variant_id: String,
    /// Diversification seed the variant was built with.
    pub seed: u64,
    /// Declared transform set, e.g. `"nop+subst+shift+regrand"`.
    pub transforms: String,
    /// Module key (source content hash, hex).
    pub module_key: String,
    /// Build-config fingerprint (hex).
    pub config: String,
    /// Profile key (hex), or empty when the build was unprofiled.
    pub profile: String,
    /// Encoded address-map artifact ([`crate::artifact::encode_addr_map`]),
    /// stored hex-armored in JSON. The ledger treats it as an opaque
    /// blob: decoding (and decode-failure handling) belongs to the
    /// symbolication layer.
    pub addr_map: Vec<u8>,
}

/// In-memory ledger state: every record, plus what the log still lacks.
#[derive(Debug, Default)]
pub(crate) struct LedgerStore {
    pub(crate) records: BTreeMap<String, LedgerRecord>,
    /// Ids recorded since the last flush; only a disk-backed cache
    /// fills it.
    pub(crate) pending: BTreeSet<String>,
    /// The log on disk is not a clean prefix of `records` (irregular at
    /// open, or a failed write may have torn it): the next flush
    /// rewrites it whole instead of appending.
    rewrite: bool,
    /// Bytes the compaction at open wrote, counted by the next flush.
    unreported: u64,
}

impl LedgerStore {
    /// Loads the log in `dir` (see the module docs), compacting it when
    /// it is irregular. Never fails: an unreadable log loads empty.
    pub(crate) fn open(dir: &Path) -> LedgerStore {
        let Ok(bytes) = fs::read(dir.join(LEDGER_FILE)) else {
            return LedgerStore::default();
        };
        let (records, clean) = read_log(&bytes);
        let mut store = LedgerStore {
            records,
            rewrite: !clean,
            ..LedgerStore::default()
        };
        if store.rewrite {
            store.unreported = store.flush(dir);
        }
        store
    }

    /// Total hex-armored payload bytes (the `addr_map` columns) — the
    /// quantity the `ledger.bytes` counter tracks.
    pub(crate) fn bytes(&self) -> u64 {
        self.records.values().map(|r| r.addr_map.len() as u64).sum()
    }

    /// Brings the log in `dir` up to date: appends the pending records
    /// in one write, or rewrites the whole log when it is irregular.
    /// Returns the bytes written since the last call, compaction at
    /// open included. Best-effort: an IO failure leaves the records
    /// pending and the next flush rewrites the log.
    pub(crate) fn flush(&mut self, dir: &Path) -> u64 {
        let written = if self.rewrite {
            write_compacted(dir, &self.records)
        } else if self.pending.is_empty() {
            Ok(0)
        } else {
            self.append(dir)
        };
        match written {
            Ok(n) => {
                self.pending.clear();
                self.rewrite = false;
                n + std::mem::take(&mut self.unreported)
            }
            Err(_) => {
                self.rewrite = true;
                0
            }
        }
    }

    fn append(&self, dir: &Path) -> io::Result<u64> {
        let mut file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(dir.join(LEDGER_FILE))?;
        let mut text = String::new();
        if file.metadata()?.len() == 0 {
            text.push_str(&header());
        }
        for id in &self.pending {
            push_record(&self.records[id], &mut text);
        }
        file.write_all(text.as_bytes())?;
        Ok(text.len() as u64)
    }
}

fn header() -> String {
    format!("{{\"schema_version\":{LEDGER_SCHEMA_VERSION},\"kind\":\"{LEDGER_KIND}\"}}\n")
}

/// Appends one record line (fixed field order) to `out`.
fn push_record(r: &LedgerRecord, out: &mut String) {
    Value::Obj(vec![
        ("variant_id".into(), Value::Str(r.variant_id.clone())),
        ("seed".into(), Value::u64(r.seed)),
        ("transforms".into(), Value::Str(r.transforms.clone())),
        ("module_key".into(), Value::Str(r.module_key.clone())),
        ("config".into(), Value::Str(r.config.clone())),
        ("profile".into(), Value::Str(r.profile.clone())),
        ("addr_map".into(), Value::Str(hex_encode(&r.addr_map))),
    ])
    .write(out);
    out.push('\n');
}

/// Writes header plus every record, sorted by id, over the log (temp
/// file + rename). Returns the bytes written.
fn write_compacted(dir: &Path, records: &BTreeMap<String, LedgerRecord>) -> io::Result<u64> {
    let mut text = header();
    for r in records.values() {
        push_record(r, &mut text);
    }
    let tmp = dir.join(format!("{LEDGER_FILE}.tmp"));
    fs::write(&tmp, &text)?;
    fs::rename(&tmp, dir.join(LEDGER_FILE))?;
    Ok(text.len() as u64)
}

/// Parses a ledger file's bytes into its records, and whether the file
/// was a clean log (no compaction needed).
fn read_log(bytes: &[u8]) -> (BTreeMap<String, LedgerRecord>, bool) {
    let mut lines = bytes.split_inclusive(|&b| b == b'\n');
    let is_log = lines.next().and_then(parse_line).is_some_and(|doc| {
        doc.get("schema_version").and_then(Value::as_u64) == Some(LEDGER_SCHEMA_VERSION)
            && doc.get("kind").and_then(Value::as_str) == Some(LEDGER_KIND)
    });
    if !is_log {
        return (load_v1(bytes), false);
    }
    let mut records = BTreeMap::new();
    let mut clean = true;
    for line in lines {
        match parse_line(line).as_ref().and_then(record_of) {
            Some(rec) if !records.contains_key(&rec.variant_id) => {
                records.insert(rec.variant_id.clone(), rec);
            }
            // A torn tail, a bad line, or a duplicate (first wins).
            _ => clean = false,
        }
    }
    (records, clean)
}

/// The JSON of one complete line; `None` for a torn tail (no newline),
/// invalid UTF-8 or a parse error.
fn parse_line(line: &[u8]) -> Option<Value> {
    let body = line.strip_suffix(b"\n")?;
    parse(std::str::from_utf8(body).ok()?).ok()
}

/// Parses a version-1 ledger: one document holding every record.
/// *Any* irregularity — parse error, wrong `kind`, wrong
/// `schema_version`, malformed record — yields an empty ledger.
fn load_v1(bytes: &[u8]) -> BTreeMap<String, LedgerRecord> {
    let mut out = BTreeMap::new();
    let Some(doc) = std::str::from_utf8(bytes).ok().and_then(|t| parse(t).ok()) else {
        return out;
    };
    if doc.get("schema_version").and_then(Value::as_u64) != Some(1)
        || doc.get("kind").and_then(Value::as_str) != Some(LEDGER_KIND)
    {
        return out;
    }
    let Some(rows) = doc.get("records").and_then(Value::as_arr) else {
        return out;
    };
    for row in rows {
        let Some(rec) = record_of(row) else {
            // One malformed record poisons the whole file: a partially
            // loaded ledger could silently mis-symbolicate.
            return BTreeMap::new();
        };
        out.insert(rec.variant_id.clone(), rec);
    }
    out
}

fn record_of(row: &Value) -> Option<LedgerRecord> {
    let field = |name: &str| row.get(name).and_then(Value::as_str).map(str::to_string);
    Some(LedgerRecord {
        variant_id: field("variant_id")?,
        seed: row.get("seed").and_then(Value::as_u64)?,
        transforms: field("transforms")?,
        module_key: field("module_key")?,
        config: field("config")?,
        profile: field("profile")?,
        addr_map: hex_decode(&field("addr_map")?)?,
    })
}

fn hex_encode(bytes: &[u8]) -> String {
    use std::fmt::Write as _;
    let mut s = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        write!(s, "{b:02x}").expect("infallible");
    }
    s
}

fn hex_decode(s: &str) -> Option<Vec<u8>> {
    if !s.len().is_multiple_of(2) {
        return None;
    }
    s.as_bytes()
        .chunks(2)
        .map(|pair| {
            let hi = (pair[0] as char).to_digit(16)?;
            let lo = (pair[1] as char).to_digit(16)?;
            Some((hi * 16 + lo) as u8)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    pub(crate) fn sample_record(id: &str, seed: u64) -> LedgerRecord {
        LedgerRecord {
            variant_id: id.to_string(),
            seed,
            transforms: "nop+subst".into(),
            module_key: "00000000deadbeef".into(),
            config: "0000000012345678".into(),
            profile: String::new(),
            addr_map: vec![0x50, 0x47, 0x53, 0x44, 0x00, 0xff],
        }
    }

    fn tdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("pgsd-ledger-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn store_of(ids: &[(&str, u64)]) -> LedgerStore {
        let mut store = LedgerStore::default();
        for &(id, seed) in ids {
            store
                .records
                .insert(id.to_string(), sample_record(id, seed));
            store.pending.insert(id.to_string());
        }
        store
    }

    #[test]
    fn ledger_json_round_trips_and_is_deterministic() {
        let dir = tdir("rt");
        let mut store = store_of(&[("bb", 2), ("aa", 1), ("cc", 3)]);
        let written = store.flush(&dir);
        let text = fs::read_to_string(dir.join(LEDGER_FILE)).unwrap();
        assert_eq!(written, text.len() as u64);
        assert!(text.starts_with("{\"schema_version\":2,\"kind\":\"pgsd-variant-ledger\"}\n"));
        // Insertion order does not leak: a batch serializes sorted by id.
        assert!(text.find("\"aa\"").unwrap() < text.find("\"bb\"").unwrap());
        assert_eq!(store.flush(&dir), 0, "nothing pending: no write");
        let loaded = LedgerStore::open(&dir);
        assert_eq!(loaded.records, store.records);
        assert_eq!(
            fs::read_to_string(dir.join(LEDGER_FILE)).unwrap(),
            text,
            "a clean log is not rewritten on open"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn flush_appends_only_new_records() {
        let dir = tdir("append");
        let mut store = store_of(&[("bb", 2)]);
        store.flush(&dir);
        let before = fs::read(dir.join(LEDGER_FILE)).unwrap();
        store.records.insert("aa".into(), sample_record("aa", 1));
        store.pending.insert("aa".into());
        let written = store.flush(&dir);
        let after = fs::read(dir.join(LEDGER_FILE)).unwrap();
        assert!(after.starts_with(&before), "earlier bytes untouched");
        assert_eq!(written, (after.len() - before.len()) as u64);
        assert_eq!(LedgerStore::open(&dir).records, store.records);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn duplicates_keep_the_first_line_and_compact() {
        let dir = tdir("dup");
        let mut text = header();
        push_record(&sample_record("bb", 1), &mut text);
        push_record(&sample_record("aa", 2), &mut text);
        push_record(&sample_record("bb", 9), &mut text);
        fs::write(dir.join(LEDGER_FILE), &text).unwrap();
        let store = LedgerStore::open(&dir);
        assert_eq!(store.records["bb"].seed, 1, "first line wins");
        let mut compacted = header();
        push_record(&sample_record("aa", 2), &mut compacted);
        push_record(&sample_record("bb", 1), &mut compacted);
        assert_eq!(
            fs::read_to_string(dir.join(LEDGER_FILE)).unwrap(),
            compacted
        );
        assert_eq!(
            store.unreported,
            compacted.len() as u64,
            "the compaction is counted by the next flush"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn irregular_ledgers_load_empty_never_panic() {
        let dir = tdir("bad");
        let path = dir.join(LEDGER_FILE);
        // Missing file.
        assert!(LedgerStore::open(&dir).records.is_empty());
        let mut text = header();
        push_record(&sample_record("aa", 1), &mut text);
        for bad in [
            "{not json at all".to_string(),
            String::new(),
            // Torn inside the record line.
            text[..text.len() / 2].to_string(),
            text.replace("\"schema_version\":2", "\"schema_version\":999"),
            text.replace(LEDGER_KIND, "some-other-kind"),
            // Malformed record (bad hex) is a bad line.
            text.replace(&hex_encode(&[0x50]), "zz"),
            // So is a line nested too deep to parse.
            format!("{}{}\n", header(), "[".repeat(1_000_000)),
        ] {
            fs::write(&path, &bad).unwrap();
            let store = LedgerStore::open(&dir);
            let head = &bad[..bad.len().min(60)];
            assert!(store.records.is_empty(), "loaded from {head:?}");
            assert_eq!(
                fs::read_to_string(&path).unwrap(),
                header(),
                "compacted to an empty log"
            );
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn hex_codec_round_trips() {
        let bytes: Vec<u8> = (0..=255).collect();
        assert_eq!(hex_decode(&hex_encode(&bytes)).unwrap(), bytes);
        assert!(hex_decode("0").is_none(), "odd length");
        assert!(hex_decode("zz").is_none(), "non-hex");
    }
}
