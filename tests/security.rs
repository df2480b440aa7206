//! Security-analysis integration tests: gadget scanning, the Survivor
//! comparison, population survival and attack feasibility on real
//! compiled binaries.

use pgsd::cc::emit::Image;
use pgsd::core::driver::BuildConfig;
use pgsd::core::{Session, Strategy};
use pgsd::gadget::{
    check_attack, find_gadgets, population_survival, survivor, AttackTemplate, Flow, ScanConfig,
    TextIndex,
};
use pgsd::x86::decode;
use pgsd::x86::nop::NopTable;

const PROGRAM: &str = r#"
int table[256];

int mix(int a, int b) { return (a * 31) ^ (b << 3) ^ (b >> 2); }

int churn(int n) {
    int acc = 0;
    for (int i = 0; i < n; i++) {
        table[i & 255] = mix(i, acc);
        acc = acc + table[(i * 7) & 255];
    }
    return acc;
}

int main(int n) { return churn(n) & 0xffff; }
"#;

fn baseline_and_session() -> (Session, Image) {
    let session = Session::from_source("sec", PROGRAM);
    let image = session.build().unwrap();
    (session, image)
}

#[test]
fn gadgets_exist_and_are_valid_ranges() {
    let (_, image) = baseline_and_session();
    let cfg = ScanConfig::default();
    let gadgets = find_gadgets(&image.text, &cfg);
    assert!(gadgets.len() > 30, "even small binaries have many gadgets");
    for g in &gadgets {
        assert!(g.len >= 1 && g.len <= cfg.max_back + 1);
        assert!(g.offset + g.len <= image.text.len());
        // Each reported gadget must re-validate.
        assert!(
            pgsd::gadget::gadget_at(&image.text, g.offset, &cfg).is_some(),
            "offset {:#x} does not re-validate",
            g.offset
        );
    }
}

#[test]
fn survivor_is_reflexive_and_anti_monotone_in_pnop() {
    let (session, image) = baseline_and_session();
    let cfg = ScanConfig::default();
    let table = NopTable::new();

    // Identity: everything survives against itself.
    let rep = survivor(&image.text, &image.text, &table, &cfg);
    assert_eq!(rep.count(), rep.baseline);

    // More NOPs → no more survivors (averaged over seeds to dodge
    // per-seed noise).
    let avg = |p: f64| {
        let total: usize = (0..8u64)
            .map(|seed| {
                let div = session
                    .build_with(&BuildConfig::diversified(Strategy::uniform(p), seed))
                    .unwrap();
                survivor(&image.text, &div.text, &table, &cfg).count()
            })
            .sum();
        total as f64 / 8.0
    };
    let low = avg(0.05);
    let high = avg(0.6);
    assert!(
        high <= low,
        "survivors must not increase with insertion probability: p=0.05 → {low}, p=0.6 → {high}"
    );
}

#[test]
fn runtime_tail_is_constant_across_population() {
    let (session, image) = baseline_and_session();
    let cfg = ScanConfig::default();
    let table = NopTable::new();
    let session = session.config(BuildConfig::diversified(Strategy::uniform(0.5), 0));
    let texts: Vec<Vec<u8>> = session
        .population(9)
        .unwrap()
        .into_iter()
        .map(|i| i.text.to_vec())
        .collect();
    let rep = population_survival(&texts, &table, &cfg);
    // The undiversified runtime prefix is identical in every version, so
    // its gadgets appear in all 9.
    let shared_all = rep.surviving_in_at_least(9);
    assert!(shared_all > 0, "the runtime tail must be shared");
    // And the shared set shrinks as the threshold grows.
    assert!(rep.surviving_in_at_least(2) >= rep.surviving_in_at_least(5));
    assert!(rep.surviving_in_at_least(5) >= shared_all);
    // Shared-by-all gadgets live in the undiversified prefix.
    let user_start = image
        .funcs
        .iter()
        .filter(|f| f.diversified)
        .map(|f| (f.start - image.base) as usize)
        .min()
        .unwrap();
    for ((offset, _), &n) in &rep.occurrence {
        if n == 9 {
            assert!(
                *offset < user_start,
                "gadget at {offset:#x} shared by all versions outside the runtime"
            );
        }
    }
}

#[test]
fn diversification_reduces_attack_surface_monotonically() {
    // Not a feasibility claim (tiny binaries vary); checks that the
    // Survivor fraction for user code decreases sharply under the
    // paper's weakest setting.
    let (session, image) = baseline_and_session();
    let cfg = ScanConfig::default();
    let table = NopTable::new();
    let user_start = image
        .funcs
        .iter()
        .filter(|f| f.diversified)
        .map(|f| (f.start - image.base) as usize)
        .min()
        .unwrap();
    let user_baseline = find_gadgets(&image.text, &cfg)
        .iter()
        .filter(|g| g.offset >= user_start)
        .count();
    assert!(user_baseline > 10);
    let div = session
        .build_with(&BuildConfig::diversified(Strategy::uniform(0.30), 3))
        .unwrap();
    let rep = survivor(&image.text, &div.text, &table, &cfg);
    let user_survivors = rep.survivors.iter().filter(|&&o| o >= user_start).count();
    assert!(
        (user_survivors as f64) < 0.5 * user_baseline as f64,
        "user-code survivors {user_survivors} of {user_baseline}"
    );
}

#[test]
fn attack_templates_agree_with_gadget_richness() {
    // The PHP-like interpreter (large, unintended-gadget-rich) must be
    // attackable; checked here once so the php_casestudy bench's
    // precondition is covered by the test suite too.
    let image = Session::from_source("php", &pgsd::workloads::php_source())
        .build()
        .unwrap();
    for tpl in [AttackTemplate::ropgadget(), AttackTemplate::microgadgets()] {
        let verdict = check_attack(&image.text, &tpl);
        assert!(
            verdict.feasible(),
            "{} should be feasible on the undiversified interpreter: missing regs {:?}, prims {:?}",
            verdict.template,
            verdict.missing_regs,
            verdict.missing_prims
        );
    }
}

#[test]
fn text_index_agrees_with_decode_on_every_workload() {
    // Each workload's baseline and one variant with every transform on:
    // the index must hold `decode`'s length and class at every offset.
    let full = BuildConfig::full_diversity(Strategy::uniform(0.5), 1);
    for w in pgsd::workloads::spec_suite() {
        let session = Session::from_source(w.name, &w.source);
        for config in [BuildConfig::baseline(), full.clone()] {
            let text = session.build_with(&config).unwrap().text;
            let index = TextIndex::new(&text);
            assert_eq!(index.len(), text.len());
            for t in 0..text.len() {
                let expected = decode(&text[t..]).ok().map(|d| (d.len, Flow::of(&d)));
                assert_eq!(index.at(t), expected, "{} offset {t:#x}", w.name);
            }
        }
    }
}
