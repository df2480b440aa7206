//! Binary codecs for the artifacts that can live on disk.
//!
//! Three formats are persisted: [`Image`]s and [`Profile`]s in the
//! artifact store, and the [`AddrMap`] each provenance-ledger record
//! carries. Everything else (IR modules, baseline LIR, validation
//! verdicts) is cheap enough to recompute that it stays in the
//! in-memory layer. All three share one self-checking envelope:
//!
//! ```text
//! [8-byte magic+version tag] [payload] [8-byte FNV-1a of tag+payload, LE]
//! ```
//!
//! and one payload reader. Decoding verifies the tag and the trailing
//! checksum before touching the payload, every field read is
//! bounds-checked, and a declared element count is refused unless that
//! many elements could fit in the bytes left, so no decoder reserves
//! more than its input can encode. A truncated, bit-flipped,
//! wrong-version or hostile file decodes to `Err` — which the store
//! treats as a miss (cold rebuild) and symbolication as an unknown
//! variant, never as data. The checksum only catches accidents: anyone
//! can compute it, so the reader alone stands between a crafted payload
//! and the caller.
//!
//! The image payload encodes *every* field of [`Image`], so
//! `decode(encode(img)) == img` by full structural equality — the
//! property the byte-identical cold-vs-warm guarantee rests on.
//! Profiles reuse the line-oriented [`Profile::to_text`] format inside
//! the same envelope. An address map is stored as the runs it is kept
//! in (see `pgsd_analysis::addrmap`): per function a varint name
//! length, the name, the four bounds as `u32`s and a linear flag, then
//! for a diversified function the pair count and one varint `(n, db,
//! dh, pad)` group per run. [`decode_addr_map`] also enforces the map's
//! invariants, so a map that decodes answers only true lookups.

use std::sync::Arc;

use pgsd_analysis::{AddrMap, FuncEntry, Run};
use pgsd_cc::emit::{DataSymbol, FuncLayout, Image};
use pgsd_profile::Profile;

use crate::hash::Fnv64;

/// Tag (magic + format version) of serialized images.
pub const IMAGE_TAG: &[u8; 8] = b"PGSDIMG1";
/// Tag (magic + format version) of serialized profiles.
pub const PROFILE_TAG: &[u8; 8] = b"PGSDPRF1";
/// Tag (magic + format version) of serialized address maps.
pub const ADDR_MAP_TAG: &[u8; 8] = b"PGSDAMP1";

fn seal(mut out: Vec<u8>) -> Vec<u8> {
    let mut h = Fnv64::new();
    h.write(&out);
    out.extend_from_slice(&h.finish().to_le_bytes());
    out
}

/// Strips and verifies the envelope; returns the payload.
fn open<'a>(tag: &[u8; 8], bytes: &'a [u8]) -> Result<&'a [u8], String> {
    if bytes.len() < 16 {
        return Err("artifact too short".into());
    }
    let (body, sum) = bytes.split_at(bytes.len() - 8);
    let mut h = Fnv64::new();
    h.write(body);
    if sum != h.finish().to_le_bytes() {
        return Err("artifact checksum mismatch".into());
    }
    if &body[..8] != tag {
        return Err(format!(
            "artifact tag mismatch: expected {:?}",
            String::from_utf8_lossy(tag)
        ));
    }
    Ok(&body[8..])
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Reader<'a> {
        Reader { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or("artifact truncated")?;
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u32(&mut self) -> Result<u32, String> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// An LEB128 varint of at most five bytes that fits a `u32`.
    fn varint(&mut self) -> Result<u32, String> {
        let mut v = 0u32;
        for shift in (0..35).step_by(7) {
            let b = self.take(1)?[0];
            let low = u32::from(b & 0x7f);
            if shift == 28 && low > 0xf {
                return Err("artifact varint overflows u32".into());
            }
            v |= low << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err("artifact varint too long".into())
    }

    /// A `u32` element count, refused unless that many elements of at
    /// least `min_encoded_size` bytes each fit in the bytes left. The
    /// caller may then reserve `count` elements: allocation stays
    /// bounded by the input.
    fn count(&mut self, min_encoded_size: usize) -> Result<usize, String> {
        let n = self.u32()? as usize;
        match n.checked_mul(min_encoded_size) {
            Some(size) if size <= self.bytes.len() - self.pos => Ok(n),
            _ => Err("artifact count exceeds the bytes left".into()),
        }
    }

    fn bytes(&mut self) -> Result<&'a [u8], String> {
        let n = self.count(1)?;
        self.take(n)
    }

    fn utf8(&mut self, n: usize) -> Result<String, String> {
        String::from_utf8(self.take(n)?.to_vec()).map_err(|_| "artifact string not UTF-8".into())
    }

    fn str(&mut self) -> Result<String, String> {
        let n = self.count(1)?;
        self.utf8(n)
    }

    fn bool(&mut self) -> Result<bool, String> {
        match self.take(1)?[0] {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err("artifact bool out of range".into()),
        }
    }

    fn done(&self) -> Result<(), String> {
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err("trailing bytes after artifact payload".into())
        }
    }
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_varint(out: &mut Vec<u8>, mut v: u32) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    put_u32(out, b.len() as u32);
    out.extend_from_slice(b);
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_bytes(out, s.as_bytes());
}

/// Serializes an image, envelope included.
pub fn encode_image(img: &Image) -> Vec<u8> {
    let mut out = Vec::with_capacity(img.text.len() + img.data.len() + 256);
    out.extend_from_slice(IMAGE_TAG);
    put_u32(&mut out, img.base);
    put_u32(&mut out, img.data_base);
    put_u32(&mut out, img.main_addr);
    put_u32(&mut out, img.exit_addr);
    put_u32(&mut out, img.counter_base);
    put_u32(&mut out, img.num_counters);
    put_bytes(&mut out, &img.text);
    put_bytes(&mut out, &img.data);
    put_u32(&mut out, img.funcs.len() as u32);
    for f in &img.funcs {
        put_str(&mut out, &f.name);
        put_u32(&mut out, f.start);
        put_u32(&mut out, f.end);
        out.push(u8::from(f.diversified));
        put_u32(&mut out, f.block_addrs.len() as u32);
        for a in &f.block_addrs {
            put_u32(&mut out, *a);
        }
    }
    put_u32(&mut out, img.globals.len() as u32);
    for g in &img.globals {
        put_str(&mut out, &g.name);
        put_u32(&mut out, g.addr);
        put_u32(&mut out, g.words);
    }
    seal(out)
}

/// Deserializes an image; any corruption or version mismatch is `Err`.
pub fn decode_image(bytes: &[u8]) -> Result<Image, String> {
    let payload = open(IMAGE_TAG, bytes)?;
    let mut r = Reader::new(payload);
    let base = r.u32()?;
    let data_base = r.u32()?;
    let main_addr = r.u32()?;
    let exit_addr = r.u32()?;
    let counter_base = r.u32()?;
    let num_counters = r.u32()?;
    let text = r.bytes()?.to_vec();
    let data = r.bytes()?.to_vec();
    // Name length, start, end, flag and block count.
    let nfuncs = r.count(17)?;
    let mut funcs = Vec::with_capacity(nfuncs);
    for _ in 0..nfuncs {
        let name = r.str()?;
        let start = r.u32()?;
        let end = r.u32()?;
        let diversified = r.bool()?;
        let nblocks = r.count(4)?;
        let mut block_addrs = Vec::with_capacity(nblocks);
        for _ in 0..nblocks {
            block_addrs.push(r.u32()?);
        }
        funcs.push(FuncLayout {
            name,
            start,
            end,
            block_addrs,
            diversified,
        });
    }
    // Name length, address and size.
    let nglobals = r.count(12)?;
    let mut globals = Vec::with_capacity(nglobals);
    for _ in 0..nglobals {
        let name = r.str()?;
        let addr = r.u32()?;
        let words = r.u32()?;
        globals.push(DataSymbol { name, addr, words });
    }
    r.done()?;
    Ok(Image {
        base,
        text: Arc::new(text),
        data_base,
        data: Arc::new(data),
        main_addr,
        exit_addr,
        funcs,
        globals,
        counter_base,
        num_counters,
    })
}

/// Serializes a profile, envelope included.
pub fn encode_profile(profile: &Profile) -> Vec<u8> {
    let text = profile.to_text();
    let mut out = Vec::with_capacity(text.len() + 24);
    out.extend_from_slice(PROFILE_TAG);
    put_str(&mut out, &text);
    seal(out)
}

/// Deserializes a profile; any corruption or version mismatch is `Err`.
pub fn decode_profile(bytes: &[u8]) -> Result<Profile, String> {
    let payload = open(PROFILE_TAG, bytes)?;
    let mut r = Reader::new(payload);
    let text = r.str()?;
    r.done()?;
    Profile::from_text(&text)
}

/// Serializes an address map, envelope included.
pub fn encode_addr_map(map: &AddrMap) -> Vec<u8> {
    let mut out = Vec::with_capacity(64 + map.funcs.len() * 32);
    out.extend_from_slice(ADDR_MAP_TAG);
    put_varint(&mut out, map.funcs.len() as u32);
    for f in &map.funcs {
        put_varint(&mut out, f.name.len() as u32);
        out.extend_from_slice(f.name.as_bytes());
        for v in [f.base_start, f.base_end, f.var_start, f.var_end] {
            put_u32(&mut out, v);
        }
        out.push(u8::from(f.linear));
        if f.linear {
            continue;
        }
        put_varint(&mut out, f.runs.iter().map(|r| r.n).sum());
        for r in &f.runs {
            for v in [r.n, r.db, r.dh, r.pad] {
                put_varint(&mut out, v);
            }
        }
    }
    seal(out)
}

/// Deserializes an address map; any corruption, version mismatch or
/// broken map invariant is `Err`.
pub fn decode_addr_map(bytes: &[u8]) -> Result<AddrMap, String> {
    let mut r = Reader::new(open(ADDR_MAP_TAG, bytes)?);
    let nfuncs = r.varint()?;
    let mut funcs = Vec::new();
    for _ in 0..nfuncs {
        let nlen = r.varint()? as usize;
        let name = r.utf8(nlen)?;
        let (base_start, base_end, var_start, var_end) = (r.u32()?, r.u32()?, r.u32()?, r.u32()?);
        let linear = r.bool()?;
        if base_start > base_end
            || var_start > var_end
            || (linear && base_end - base_start != var_end - var_start)
        {
            return Err("addr map function bounds inconsistent".into());
        }
        let mut f = FuncEntry {
            name,
            base_start,
            base_end,
            var_start,
            var_end,
            linear,
            runs: Vec::new(),
        };
        if !linear {
            decode_runs(&mut r, &mut f)?;
        }
        funcs.push(f);
    }
    r.done()?;
    Ok(AddrMap { funcs })
}

/// Reads a diversified function's runs, each stored as read, checking
/// every pair against the invariants the lookups rely on.
fn decode_runs(r: &mut Reader<'_>, f: &mut FuncEntry) -> Result<(), String> {
    let mut left = r.varint()?;
    // The previous pair's `(baseline, hi)`; the function start before
    // the first pair.
    let (mut base, mut hi) = (f.base_start, f.var_start);
    while left > 0 {
        let (n, db, dh, pad) = (r.varint()?, r.varint()?, r.varint()?, r.varint()?);
        // The first pair may sit at the function start, its span reaching
        // down to `var_start`; every later pair advances on both sides,
        // and its span starts past the previous instruction.
        let later = !f.runs.is_empty() || n > 1;
        if n == 0 || n > left || pad > dh || (later && (db == 0 || dh == 0 || pad == dh)) {
            return Err("addr map run breaks monotonicity".into());
        }
        let step = |from: u32, d: u32, k: u32| k.checked_mul(d).and_then(|d| from.checked_add(d));
        let (last_base, last_hi) = match (step(base, db, n), step(hi, dh, n)) {
            (Some(b), Some(h)) if b < f.base_end && h < f.var_end => (b, h),
            _ => return Err("addr map pair outside its function".into()),
        };
        f.runs.push(Run {
            base: base + db,
            hi: hi + dh,
            n,
            db,
            dh,
            pad,
        });
        (base, hi, left) = (last_base, last_hi, left - n);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgsd_profile::FuncProfile;
    use proptest::prelude::*;

    fn sample_image() -> Image {
        Image {
            base: 0x0804_8000,
            text: Arc::new(vec![0x90, 0xc3, 0x31, 0xc0]),
            data_base: 0x0810_0000,
            data: Arc::new(vec![1, 0, 0, 0, 2, 0, 0, 0]),
            main_addr: 0x0804_8001,
            exit_addr: 0x0804_8000,
            funcs: vec![FuncLayout {
                name: "main".into(),
                start: 0x0804_8000,
                end: 0x0804_8004,
                block_addrs: vec![0x0804_8000, 0x0804_8002],
                diversified: true,
            }],
            globals: vec![DataSymbol {
                name: "g".into(),
                addr: 0x0810_0000,
                words: 2,
            }],
            counter_base: 0x0810_0008,
            num_counters: 3,
        }
    }

    #[test]
    fn image_round_trips_by_full_equality() {
        let img = sample_image();
        let decoded = decode_image(&encode_image(&img)).expect("decodes");
        assert_eq!(decoded, img);
    }

    #[test]
    fn image_corruption_is_rejected() {
        let img = sample_image();
        let good = encode_image(&img);
        // Flip every byte position in turn: each single-bit fault must
        // be caught by the checksum (or the tag check).
        for i in 0..good.len() {
            let mut bad = good.clone();
            bad[i] ^= 0x40;
            assert!(decode_image(&bad).is_err(), "flip at {i} was accepted");
        }
        // Truncations too.
        assert!(decode_image(&good[..good.len() - 1]).is_err());
        assert!(decode_image(&good[..4]).is_err());
        assert!(decode_image(b"").is_err());
    }

    #[test]
    fn image_tag_version_is_enforced() {
        let mut bytes = encode_image(&sample_image());
        // Pretend a future format version wrote this file: tag differs,
        // checksum is still valid.
        bytes[7] = b'9';
        let len = bytes.len();
        let mut h = Fnv64::new();
        h.write(&bytes[..len - 8]);
        bytes[len - 8..].copy_from_slice(&h.finish().to_le_bytes());
        assert!(decode_image(&bytes).is_err());
    }

    #[test]
    fn profile_round_trips() {
        let mut p = Profile::default();
        p.funcs.insert(
            "main".into(),
            FuncProfile {
                block_counts: vec![10, 0, 7],
                invocations: 10,
            },
        );
        let decoded = decode_profile(&encode_profile(&p)).expect("decodes");
        assert_eq!(decoded.to_text(), p.to_text());
    }

    #[test]
    fn profile_corruption_is_rejected() {
        let mut p = Profile::default();
        p.funcs.insert(
            "f".into(),
            FuncProfile {
                block_counts: vec![1],
                invocations: 1,
            },
        );
        let good = encode_profile(&p);
        for i in 0..good.len() {
            let mut bad = good.clone();
            bad[i] ^= 0x01;
            assert!(decode_profile(&bad).is_err(), "flip at {i} was accepted");
        }
    }

    fn sample_profile() -> Profile {
        let mut p = Profile::default();
        p.funcs.insert(
            "main".into(),
            FuncProfile {
                block_counts: vec![10, 0, 7],
                invocations: 10,
            },
        );
        p
    }

    /// The map `pgsd_analysis::addrmap`'s lookup tests use.
    fn sample_map() -> AddrMap {
        AddrMap {
            funcs: vec![
                FuncEntry::linear("memset", 0x1000, 0x1010, 0x1000),
                FuncEntry::mapped(
                    "main",
                    (0x1010, 0x1020),
                    (0x1010, 0x1030),
                    [
                        (0x1010, 0x1012, 0x1014),
                        (0x1012, 0x1016, 0x1016),
                        (0x1015, 0x1019, 0x101b),
                        (0x101a, 0x1020, 0x1020),
                    ],
                ),
            ],
        }
    }

    /// A sealed one-function map (named `f`) with the given bounds
    /// `[base_start, base_end, var_start, var_end]`, linear flag,
    /// declared pair count and `[n, db, dh, pad]` runs.
    fn one_func_map(bounds: [u32; 4], linear: bool, npairs: u32, runs: &[[u32; 4]]) -> Vec<u8> {
        let mut out = ADDR_MAP_TAG.to_vec();
        put_varint(&mut out, 1);
        put_varint(&mut out, 1);
        out.push(b'f');
        for v in bounds {
            put_u32(&mut out, v);
        }
        out.push(u8::from(linear));
        if !linear {
            put_varint(&mut out, npairs);
        }
        for &v in runs.iter().flatten() {
            put_varint(&mut out, v);
        }
        seal(out)
    }

    #[test]
    fn image_count_beyond_the_bytes_left_is_rejected() {
        // Six header words and empty text and data, then a function
        // count equal to the bytes left. Each function takes at least 17
        // bytes, so the count is refused before anything is reserved.
        let mut payload = IMAGE_TAG.to_vec();
        for _ in 0..6 {
            put_u32(&mut payload, 0);
        }
        put_bytes(&mut payload, &[]);
        put_bytes(&mut payload, &[]);
        put_u32(&mut payload, 64);
        payload.extend_from_slice(&[0; 64]);
        let err = decode_image(&seal(payload)).unwrap_err();
        assert!(err.contains("count"), "{err}");
    }

    #[test]
    fn addr_map_round_trips() {
        let m = sample_map();
        let enc = encode_addr_map(&m);
        let dec = decode_addr_map(&enc).expect("decodes");
        assert_eq!(dec, m);
        assert_eq!(
            encode_addr_map(&dec),
            enc,
            "encode∘decode∘encode is identity"
        );
    }

    #[test]
    fn addr_map_wire_format_is_pinned() {
        // Written by the encoder that expanded every pair in memory, so
        // ledgers from before maps were kept as runs still decode.
        const PINNED: &str = "50475344414d503102066d656d73657400100000101000000010000010100000\
                              01046d61696e101000002010000010100000301000000004010004020102020001\
                              030502010505009bbb62e9189a6d04";
        let enc = encode_addr_map(&sample_map());
        let hex: String = enc.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(hex, PINNED);
        assert_eq!(decode_addr_map(&enc), Ok(sample_map()));
    }

    #[test]
    fn addr_map_corruption_is_rejected() {
        let enc = encode_addr_map(&sample_map());
        assert!(decode_addr_map(&[]).is_err());
        assert!(decode_addr_map(&enc[..enc.len() - 1]).is_err(), "truncated");
        for i in 0..enc.len() {
            let mut bad = enc.clone();
            bad[i] ^= 0x40;
            assert!(decode_addr_map(&bad).is_err(), "flip at {i} was accepted");
        }
    }

    #[test]
    fn addr_map_zero_delta_run_is_rejected() {
        // 47 bytes with a valid checksum asking for ten million copies
        // of one pair: not strictly increasing, so not a map.
        let bytes = one_func_map(
            [0x1000, 0x2000, 0x1000, 0x2000],
            false,
            10_000_000,
            &[[10_000_000, 0, 0, 0]],
        );
        assert_eq!(bytes.len(), 47);
        assert!(decode_addr_map(&bytes).is_err());
    }

    #[test]
    fn addr_map_long_run_is_stored_as_one_run() {
        // Thirty million 2-byte instructions, each after one NOP byte.
        const N: u32 = 30_000_000;
        let bytes = one_func_map(
            [0x1000, 0x1001 + N, 0x1000, 0x1001 + 2 * N],
            false,
            N,
            &[[N, 1, 2, 1]],
        );
        let map = decode_addr_map(&bytes).expect("a valid long run decodes");
        assert_eq!(map.funcs[0].runs.len(), 1);
        let first = (0x1001, 0x1001, 0x1002);
        let last = (0x1000 + N, 0x1000 + 2 * N - 1, 0x1000 + 2 * N);
        for (b, lo, hi) in [first, last] {
            assert_eq!(map.baseline_to_variant(b), Some((lo, hi)));
            for v in [lo, hi] {
                assert_eq!(map.variant_to_baseline(v).unwrap().addr, b);
            }
        }
    }

    #[test]
    fn addr_map_invariants_are_enforced() {
        let ok = [0x1000, 0x1010, 0x2000, 0x2020];
        // A first pair at the function start, then a run of three.
        let valid = one_func_map(ok, false, 4, &[[1, 0, 0, 0], [3, 2, 3, 1]]);
        assert!(decode_addr_map(&valid).is_ok());
        let runs = |npairs, runs: &[[u32; 4]]| one_func_map(ok, false, npairs, runs);
        let bad = [
            (
                "base start past end",
                one_func_map([0x1010, 0x1000, 0x2000, 0x2020], false, 0, &[]),
            ),
            (
                "variant start past end",
                one_func_map([0x1000, 0x1010, 0x2020, 0x2000], false, 0, &[]),
            ),
            ("linear spans differ", one_func_map(ok, true, 0, &[])),
            ("empty run", runs(1, &[[0, 1, 1, 0], [1, 1, 1, 0]])),
            ("run past the pair count", runs(1, &[[2, 1, 1, 0]])),
            ("baseline stalls", runs(2, &[[1, 1, 2, 0], [1, 0, 2, 0]])),
            ("variant stalls", runs(2, &[[1, 1, 2, 0], [1, 1, 0, 0]])),
            ("span reaches back", runs(2, &[[1, 1, 2, 0], [1, 1, 2, 2]])),
            ("first span below the function", runs(1, &[[1, 0, 1, 2]])),
            ("first pair repeated", runs(2, &[[2, 0, 0, 0]])),
            ("pair past the baseline end", runs(1, &[[1, 0x10, 1, 0]])),
            ("pair past the variant end", runs(1, &[[1, 1, 0x20, 0]])),
            ("step overflows", runs(2, &[[2, u32::MAX, 1, 0]])),
        ];
        for (what, bytes) in bad {
            assert!(decode_addr_map(&bytes).is_err(), "{what} was accepted");
        }
    }

    /// `good` with `remove` payload bytes at `at` replaced by `patch`,
    /// sealed again: a crafted input behind a valid checksum.
    fn crafted(good: &[u8], at: usize, remove: usize, patch: &[u8]) -> Vec<u8> {
        let mut body = good[..good.len() - 8].to_vec();
        let at = 8 + at % (body.len() - 7);
        let end = (at + remove).min(body.len());
        body.splice(at..end, patch.iter().copied());
        seal(body)
    }

    /// Mostly small bytes: they read as short varints, lengths, counts
    /// and flags, so the reader gets past the first field.
    fn payload_bytes(max: usize) -> impl Strategy<Value = Vec<u8>> {
        prop::collection::vec(prop_oneof![0u8..4, any::<u8>()], 0..max)
    }

    proptest! {
        #[test]
        fn sealed_arbitrary_payloads_never_panic(payload in payload_bytes(96)) {
            for tag in [IMAGE_TAG, PROFILE_TAG, ADDR_MAP_TAG] {
                let mut bytes = tag.to_vec();
                bytes.extend_from_slice(&payload);
                let bytes = seal(bytes);
                let _ = decode_image(&bytes);
                let _ = decode_profile(&bytes);
                if let Ok(map) = decode_addr_map(&bytes) {
                    prop_assert_eq!(decode_addr_map(&encode_addr_map(&map)), Ok(map));
                }
            }
        }

        #[test]
        fn sealed_crafted_payloads_never_panic(
            at in any::<usize>(),
            remove in 0usize..12,
            patch in payload_bytes(12),
        ) {
            let image = encode_image(&sample_image());
            let _ = decode_image(&crafted(&image, at, remove, &patch));
            let profile = encode_profile(&sample_profile());
            let _ = decode_profile(&crafted(&profile, at, remove, &patch));
            let map = encode_addr_map(&sample_map());
            if let Ok(m) = decode_addr_map(&crafted(&map, at, remove, &patch)) {
                prop_assert_eq!(decode_addr_map(&encode_addr_map(&m)), Ok(m));
            }
        }
    }
}
