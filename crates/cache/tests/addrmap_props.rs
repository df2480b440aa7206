//! Property tests for the [`AddrMap`] artifact: the binary encoding
//! round-trips exactly, and the two lookup directions invert each other
//! on every recorded instruction pair. Crafted payloads behind a valid
//! checksum are covered beside the codec, in `artifact.rs`.

use pgsd_analysis::{AddrMap, FuncEntry};
use pgsd_cache::artifact::{decode_addr_map, encode_addr_map};
use proptest::prelude::*;

/// Generates one structurally valid function entry starting at the given
/// `(base, var)` layout cursor, returning the entry, its pairs and the
/// advanced cursor. Deltas are kept small so run-length groups actually
/// form.
fn entry_from(
    name_id: u32,
    base_start: u32,
    var_start: u32,
    linear: bool,
    deltas: &[(u32, u32, u32)],
) -> (FuncEntry, Vec<Pair>, u32, u32) {
    let name = format!("f{name_id}");
    if linear {
        let len = 16 + (name_id % 64);
        let e = FuncEntry::linear(&name, base_start, base_start + len, var_start);
        return (e, Vec::new(), base_start + len, var_start + len);
    }
    let mut pairs = Vec::new();
    let (mut b, mut v) = (base_start, var_start);
    for &(db, dh, pad) in deltas {
        // Monotonic walk: each delta is at least 1, pad never reaches
        // below the previous variant position.
        let db = 1 + (db % 8);
        let dh = 1 + (dh % 12);
        let pad = pad % dh;
        b += db;
        v += dh;
        pairs.push((b, v - pad, v));
    }
    let e = FuncEntry::mapped(
        &name,
        (base_start, b + 8),
        (var_start, v + 8),
        pairs.clone(),
    );
    (e, pairs, b + 8, v + 8)
}

/// One `(baseline, lo, hi)` instruction pair.
type Pair = (u32, u32, u32);

/// One generated function shape: `(linear, per-instruction deltas)`.
type Shape = (bool, Vec<(u32, u32, u32)>);

/// Builds a whole map from generated shape data, with each function's
/// pairs (empty for a linear one).
fn build_map_with_pairs(shapes: Vec<Shape>) -> (AddrMap, Vec<Vec<Pair>>) {
    let (mut funcs, mut all_pairs) = (Vec::new(), Vec::new());
    let (mut b, mut v) = (0x1000u32, 0x1000u32);
    for (i, (linear, deltas)) in shapes.into_iter().enumerate() {
        let (e, pairs, nb, nv) = entry_from(i as u32, b, v, linear, &deltas);
        funcs.push(e);
        all_pairs.push(pairs);
        b = nb;
        v = nv;
    }
    (AddrMap { funcs }, all_pairs)
}

fn build_map(shapes: Vec<Shape>) -> AddrMap {
    build_map_with_pairs(shapes).0
}

proptest! {
    #[test]
    fn encode_decode_encode_is_identity(
        shapes in prop::collection::vec(
            (any::<bool>(), prop::collection::vec((0u32..64, 0u32..64, 0u32..64), 0..24)),
            0..8,
        ),
    ) {
        let map = build_map(shapes);
        let enc = encode_addr_map(&map);
        let dec = decode_addr_map(&enc).expect("valid encoding decodes");
        prop_assert_eq!(&dec, &map);
        prop_assert_eq!(encode_addr_map(&dec), enc);
    }

    #[test]
    fn forward_and_reverse_lookups_invert_on_every_pair(
        shapes in prop::collection::vec(
            (any::<bool>(), prop::collection::vec((0u32..64, 0u32..64, 0u32..64), 1..24)),
            1..8,
        ),
    ) {
        let (map, pairs) = build_map_with_pairs(shapes);
        for (f, pairs) in map.funcs.iter().zip(&pairs) {
            if f.linear {
                // Every byte of a linear function maps both ways.
                for off in [0, (f.base_end - f.base_start) / 2] {
                    let b = f.base_start + off;
                    let (lo, hi) = map.baseline_to_variant(b).expect("linear hit");
                    prop_assert_eq!((lo, hi), (f.var_start + off, f.var_start + off));
                    let back = map.variant_to_baseline(hi).expect("reverse hit");
                    prop_assert_eq!(back.addr, b);
                    prop_assert_eq!(back.function.as_str(), f.name.as_str());
                }
                continue;
            }
            for &(b, lo, hi) in pairs {
                prop_assert_eq!(map.baseline_to_variant(b), Some((lo, hi)));
                // The matched instruction address and every byte of the
                // NOP run falling into it resolve back to the pair.
                for v in [lo, hi] {
                    let back = map.variant_to_baseline(v).expect("reverse hit");
                    prop_assert_eq!(back.addr, b);
                    prop_assert_eq!(back.function.as_str(), f.name.as_str());
                }
            }
        }
    }

    #[test]
    fn decode_never_panics_on_mutated_bytes(
        shapes in prop::collection::vec(
            (any::<bool>(), prop::collection::vec((0u32..64, 0u32..64, 0u32..64), 0..12)),
            0..4,
        ),
        flip_at in any::<u32>(),
        flip_bits in 1u8..=255,
        truncate_to in any::<u32>(),
    ) {
        let map = build_map(shapes);
        let enc = encode_addr_map(&map);
        // Bit-flip anywhere: must decode to the original or error — the
        // checksum makes "decodes to something else" effectively
        // impossible, and nothing may panic.
        let mut mutated = enc.clone();
        let at = (flip_at as usize) % mutated.len();
        mutated[at] ^= flip_bits;
        if let Ok(dec) = decode_addr_map(&mutated) {
            prop_assert_eq!(dec, map.clone());
        }
        // Truncation at any length errors cleanly.
        let cut = (truncate_to as usize) % enc.len();
        prop_assert!(decode_addr_map(&enc[..cut]).is_err());
    }
}
