//! The NOP-insertion pass — the paper's Algorithm 1, with the
//! profile-guided probability extension of §3.1.
//!
//! The pass runs on the fully lowered LIR, after register allocation and
//! frame lowering and immediately before byte emission — the insertion
//! point the paper selects in §4, where every LIR instruction maps
//! one-to-one to a native instruction. For every instruction (including
//! block terminators) a Bernoulli trial with the block's probability
//! decides whether to *prepend* a NOP; on success a candidate is drawn
//! uniformly from the NOP table. Two sources of randomness, exactly as in
//! the paper: whether to insert, and what to insert.
//!
//! Functions with `diversify == false` (the runtime library, modeling the
//! undiversified libc) are skipped.

use pgsd_telemetry::{HeatBucket, Telemetry};
use pgsd_x86::nop::{NopKind, NopTable};
use rand::Rng;

use pgsd_cc::lir::{MFunction, MInst};
use pgsd_profile::Profile;

use crate::curve::Strategy;

/// Summary of one insertion run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NopReport {
    /// Instructions (including terminators) that were insertion
    /// candidates.
    pub sites: u64,
    /// NOPs actually inserted.
    pub inserted: u64,
    /// Code bytes added by the inserted NOPs.
    pub bytes: u64,
}

/// Runs NOP insertion over every diversifiable function.
///
/// `profile` supplies per-block execution counts for the
/// [`Strategy::Profiled`] strategies (ignored by uniform strategies;
/// `None` means every block is treated as cold).
pub fn insert_nops(
    funcs: &mut [MFunction],
    strategy: &Strategy,
    profile: Option<&Profile>,
    table: &NopTable,
    rng: &mut impl Rng,
) -> NopReport {
    insert_nops_with(funcs, strategy, profile, table, rng, &Telemetry::disabled())
}

/// Like [`insert_nops`], recording per-heat-bucket site/insertion/byte
/// counters, a `nop.p_pct` histogram of the curve's probability
/// decisions, and per-function insertion counts into `tel`.
pub fn insert_nops_with(
    funcs: &mut [MFunction],
    strategy: &Strategy,
    profile: Option<&Profile>,
    table: &NopTable,
    rng: &mut impl Rng,
    tel: &Telemetry,
) -> NopReport {
    assert!(!table.is_empty(), "NOP table must not be empty");
    let x_max = profile.map(|p| p.max_count()).unwrap_or(0);
    let mut report = NopReport::default();
    for func in funcs.iter_mut() {
        if !func.diversify {
            continue;
        }
        let fn_inserted_before = report.inserted;
        for block in &mut func.blocks {
            let count = match (profile, block.ir_block) {
                (Some(p), Some(ir)) => p.block_count(&func.name, ir as usize),
                _ => 0,
            };
            let p = strategy.probability(count, x_max);
            let heat = [("heat", HeatBucket::of(count, x_max).label())];
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            tel.observe("nop.p_pct", (p * 100.0).round() as u64);
            let block_sites_before = report.sites;
            let block_inserted_before = report.inserted;
            let block_bytes_before = report.bytes;
            let old = std::mem::take(&mut block.instrs);
            let mut new = Vec::with_capacity(old.len() + old.len() / 2);
            for inst in old {
                report.sites += 1;
                maybe_insert(&mut new, p, table, rng, &mut report);
                new.push(inst);
            }
            // The terminator is an instruction too; a NOP may precede it.
            report.sites += 1;
            maybe_insert(&mut new, p, table, rng, &mut report);
            block.instrs = new;
            tel.add_labeled("nop.sites", &heat, report.sites - block_sites_before);
            tel.add_labeled(
                "nop.inserted",
                &heat,
                report.inserted - block_inserted_before,
            );
            tel.add_labeled("nop.bytes_added", &heat, report.bytes - block_bytes_before);
        }
        if tel.is_enabled() {
            tel.add_labeled(
                "nop.inserted",
                &[("fn", &func.name)],
                report.inserted - fn_inserted_before,
            );
        }
    }
    tel.add("nop.sites", report.sites);
    tel.add("nop.inserted", report.inserted);
    tel.add("nop.bytes_added", report.bytes);
    report
}

fn maybe_insert(
    out: &mut Vec<MInst>,
    p: f64,
    table: &NopTable,
    rng: &mut impl Rng,
    report: &mut NopReport,
) -> Option<NopKind> {
    // Algorithm 1: roll ← random(0,1); if roll < pNOP then pick a
    // candidate uniformly.
    let roll: f64 = rng.gen();
    if roll < p {
        let idx = rng.gen_range(0..table.len());
        let kind = table.kind(idx);
        out.push(MInst::Nop { kind });
        report.inserted += 1;
        report.bytes += kind.bytes().len() as u64;
        Some(kind)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgsd_cc::driver::{frontend, lower_module_seeded};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn lowered(src: &str) -> Vec<MFunction> {
        lower_module_seeded(&frontend("t", src).unwrap(), None).unwrap()
    }

    fn count_nops(funcs: &[MFunction]) -> u64 {
        funcs
            .iter()
            .flat_map(|f| &f.blocks)
            .flat_map(|b| &b.instrs)
            .filter(|i| matches!(i, MInst::Nop { .. }))
            .count() as u64
    }

    const SRC: &str =
        "int main(int n) { int s = 0; for (int i = 0; i < n; i++) { s += i; } return s; }";

    #[test]
    fn zero_probability_inserts_nothing() {
        let mut funcs = lowered(SRC);
        let mut rng = StdRng::seed_from_u64(1);
        let rep = insert_nops(
            &mut funcs,
            &Strategy::uniform(0.0),
            None,
            &NopTable::new(),
            &mut rng,
        );
        assert_eq!(rep.inserted, 0);
        assert_eq!(count_nops(&funcs), 0);
    }

    #[test]
    fn certainty_inserts_everywhere() {
        let mut funcs = lowered(SRC);
        let mut rng = StdRng::seed_from_u64(1);
        let rep = insert_nops(
            &mut funcs,
            &Strategy::uniform(1.0),
            None,
            &NopTable::new(),
            &mut rng,
        );
        assert_eq!(rep.inserted, rep.sites);
        assert_eq!(count_nops(&funcs), rep.inserted);
    }

    #[test]
    fn insertion_rate_tracks_probability() {
        let mut funcs = lowered(
            "int main(int n) { int s = 0;
             for (int i = 0; i < n; i++) { s += i * 3; s -= i / 2; s ^= i; }
             for (int j = 0; j < n; j++) { s += j; }
             return s; }",
        );
        let mut rng = StdRng::seed_from_u64(7);
        let rep = insert_nops(
            &mut funcs,
            &Strategy::uniform(0.5),
            None,
            &NopTable::new(),
            &mut rng,
        );
        let rate = rep.inserted as f64 / rep.sites as f64;
        assert!((rate - 0.5).abs() < 0.25, "rate {rate} far from 0.5");
    }

    #[test]
    fn runtime_functions_are_never_diversified() {
        let mut funcs = lowered(SRC);
        let mut rng = StdRng::seed_from_u64(1);
        insert_nops(
            &mut funcs,
            &Strategy::uniform(1.0),
            None,
            &NopTable::new(),
            &mut rng,
        );
        for f in funcs.iter().filter(|f| !f.diversify) {
            for b in &f.blocks {
                assert!(
                    b.instrs.iter().all(|i| !matches!(i, MInst::Nop { .. })),
                    "NOP in undiversified function {}",
                    f.name
                );
            }
        }
    }

    #[test]
    fn seeds_give_different_insertions_deterministically() {
        let build = |seed: u64| {
            let mut funcs = lowered(SRC);
            let mut rng = StdRng::seed_from_u64(seed);
            insert_nops(
                &mut funcs,
                &Strategy::uniform(0.5),
                None,
                &NopTable::new(),
                &mut rng,
            );
            funcs
        };
        assert_eq!(build(1), build(1), "same seed must reproduce");
        assert_ne!(build(1), build(2), "different seeds must diverge");
    }

    #[test]
    fn profile_guidance_spares_hot_blocks() {
        use pgsd_profile::{FuncProfile, Profile};
        // Build a synthetic profile: mark every block of main hot except
        // block 0.
        let funcs_probe = lowered(SRC);
        let main = funcs_probe.iter().find(|f| f.name == "main").unwrap();
        let n_ir_blocks = main.blocks.iter().filter_map(|b| b.ir_block).max().unwrap() as usize + 1;
        let mut counts = vec![1_000_000u64; n_ir_blocks];
        counts[0] = 0;
        let mut profile = Profile::default();
        profile.funcs.insert(
            "main".into(),
            FuncProfile {
                block_counts: counts,
                invocations: 1,
            },
        );

        let mut funcs = lowered(SRC);
        let mut rng = StdRng::seed_from_u64(3);
        insert_nops(
            &mut funcs,
            &Strategy::range(0.0, 1.0),
            Some(&profile),
            &NopTable::new(),
            &mut rng,
        );
        let main = funcs.iter().find(|f| f.name == "main").unwrap();
        for block in &main.blocks {
            let nops = block
                .instrs
                .iter()
                .filter(|i| matches!(i, MInst::Nop { .. }))
                .count();
            match block.ir_block {
                Some(0) => assert!(nops > 0, "cold block should be stuffed with NOPs"),
                Some(_) => assert_eq!(nops, 0, "hot block must stay clean"),
                None => {}
            }
        }
    }
}
