//! Property tests for the `divcheck` translation validator: every variant
//! the diversifying build can produce must be statically provable against
//! its baseline (zero false positives across generated workloads, seeds,
//! and transform combinations), while corrupted or mis-declared variants
//! must be rejected (the checker actually checks something).

use proptest::prelude::*;

use pgsd::analysis::{check_images, Transforms};
use pgsd::cc::emit::Image;
use pgsd::core::driver::BuildConfig;
use pgsd::core::{Session, Strategy};
use pgsd::workloads::gen::{generate_program, support_layer, GenConfig};
use pgsd::x86::decode;

/// The four declared-transform combinations the issue requires: nop-only,
/// +shift, +subst, and the full stack including register randomization.
fn combos(seed: u64) -> Vec<(&'static str, BuildConfig)> {
    let s = Strategy::uniform(0.5);
    vec![
        ("nop-only", BuildConfig::diversified(s, seed)),
        (
            "nop+shift",
            BuildConfig {
                shift: true,
                ..BuildConfig::diversified(s, seed)
            },
        ),
        (
            "nop+subst",
            BuildConfig {
                substitution: Some(s),
                ..BuildConfig::diversified(s, seed)
            },
        ),
        ("full", BuildConfig::full_diversity(s, seed)),
    ]
}

fn check_all_combos(session: &Session, seed: u64, ctx: &str) {
    let baseline = session.build_with(&BuildConfig::baseline()).unwrap();
    for (name, config) in combos(seed) {
        let variant = session
            .build_with(&config)
            .unwrap_or_else(|e| panic!("{ctx}: {name} seed {seed} failed to build: {e}"));
        if let Err(diags) = check_images(&baseline, &variant, &config.transforms()) {
            let rendered: Vec<String> = diags.iter().map(|d| d.to_string()).collect();
            panic!(
                "{ctx}: false positive for {name} seed {seed}:\n{}",
                rendered.join("\n")
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// Random generated workloads × ≥3 seeds × 4 transform combinations
    /// all pass validation.
    #[test]
    fn generated_workloads_validate(
        gen_seed in 0u64..500,
        functions in 3usize..9,
        seed_base in 0u64..10_000,
    ) {
        let src = generate_program(&GenConfig {
            functions,
            seed: gen_seed,
            active_per_iter: 2,
        });
        let session = Session::from_source("val", &src);
        for seed in seed_base..seed_base + 3 {
            check_all_combos(&session, seed, "gen");
        }
    }
}

#[test]
fn support_layer_workload_validates() {
    // A hand-written hot kernel plus the cold generated support layer —
    // the shape the gadget experiments use.
    let src = format!(
        "int main(int n) {{ int s = 0; for (int i = 0; i < n; i++) {{ s += i * 3; }} return s; }}\n{}",
        support_layer(6, 11)
    );
    let session = Session::from_source("sup", &src);
    for seed in 0..3 {
        check_all_combos(&session, seed, "support");
    }
}

/// Overwrites the first single-byte `nop` (0x90) in a diversified function
/// with `inc eax` (0x40) — still decodable, but no longer an identity.
fn corrupt_a_nop(img: &mut Image) -> bool {
    let base = img.base;
    for f in img.funcs.clone().iter().filter(|f| f.diversified) {
        let mut off = (f.start - base) as usize;
        let end = (f.end - base) as usize;
        while off < end {
            let d = decode(&img.text[off..]).expect("variant text decodes");
            if d.len == 1 && img.text[off] == 0x90 {
                std::sync::Arc::make_mut(&mut img.text)[off] = 0x40;
                return true;
            }
            off += d.len;
        }
    }
    false
}

#[test]
fn corrupted_variant_is_rejected() {
    let src = generate_program(&GenConfig {
        functions: 4,
        seed: 3,
        active_per_iter: 2,
    });
    let session = Session::from_source("mut", &src);
    let baseline = session.build_with(&BuildConfig::baseline()).unwrap();
    let config = BuildConfig::diversified(Strategy::uniform(1.0), 5);
    let mut variant = session.build_with(&config).unwrap();
    check_images(&baseline, &variant, &config.transforms()).expect("uncorrupted variant passes");
    assert!(
        corrupt_a_nop(&mut variant),
        "p=1.0 build must contain a one-byte nop"
    );
    assert!(
        check_images(&baseline, &variant, &config.transforms()).is_err(),
        "corrupted nop must be rejected"
    );
}

#[test]
fn undeclared_transforms_are_rejected() {
    let src = generate_program(&GenConfig {
        functions: 4,
        seed: 8,
        active_per_iter: 2,
    });
    let session = Session::from_source("dec", &src);
    let baseline = session.build_with(&BuildConfig::baseline()).unwrap();
    let full = BuildConfig::full_diversity(Strategy::uniform(1.0), 2);
    let variant = session.build_with(&full).unwrap();
    // Declaring only NOP insertion must not be enough to prove a variant
    // that also shifted blocks, substituted, and remapped registers.
    let narrow = Transforms {
        nops: true,
        ..Transforms::none()
    };
    assert!(check_images(&baseline, &variant, &narrow).is_err());
}

#[test]
fn cross_seed_variants_do_not_validate_against_each_other() {
    // Two different variants are both provable against the baseline, but
    // not against each other: the NOP runs land in different places.
    let src = generate_program(&GenConfig {
        functions: 4,
        seed: 21,
        active_per_iter: 2,
    });
    let session = Session::from_source("x", &src);
    let config_a = BuildConfig::diversified(Strategy::uniform(0.9), 1);
    let config_b = BuildConfig::diversified(Strategy::uniform(0.9), 2);
    let a = session.build_with(&config_a).unwrap();
    let b = session.build_with(&config_b).unwrap();
    assert_ne!(a.text, b.text);
    assert!(check_images(&a, &b, &config_a.transforms()).is_err());
}
