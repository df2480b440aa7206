//! Cross-crate integration tests: the full pipeline from MiniC source to
//! emulated execution, with and without profiling and diversification.

use pgsd::core::driver::{run, BuildConfig, Input, DEFAULT_GAS};
use pgsd::core::{Curve, Session, Strategy};
use pgsd::emu::Exit;

/// A program exercising most language and backend features at once:
/// recursion, global and local arrays, all the operators, short-circuit
/// logic, nested loops, early returns.
const KITCHEN_SINK: &str = r#"
int memo[64];

int fib(int n) {
    if (n < 2) { return n; }
    if (n < 64 && memo[n] != 0) { return memo[n]; }
    int r = fib(n - 1) + fib(n - 2);
    if (n < 64) { memo[n] = r; }
    return r;
}

int sort_and_sum(int seed) {
    int v[12];
    for (int i = 0; i < 12; i++) { v[i] = (seed * (i + 7)) % 100 - 50; }
    for (int i = 1; i < 12; i++) {
        int key = v[i];
        int j = i - 1;
        while (j >= 0 && v[j] > key) { v[j + 1] = v[j]; j--; }
        v[j + 1] = key;
    }
    int s = 0;
    for (int i = 0; i < 12; i++) { s = s * 3 ^ v[i]; }
    return s;
}

int bits(int x) {
    int n = 0;
    while (x != 0) { x = x & (x - 1); n++; }
    return n;
}

int main(int a, int b) {
    int acc = fib(a % 30);
    acc += sort_and_sum(b);
    acc ^= bits(a * b) << 4;
    if (a > 0 || b > 0) { acc += a / (bits(b) + 1); }
    do { acc -= 4999; } while (acc > 1000000);
    print(acc);
    return acc & 0xffffff;
}
"#;

fn expected_for(a: i32, b: i32) -> (i32, Vec<i32>) {
    // Rust mirror of the program above.
    fn fib(n: i32, memo: &mut [i32; 64]) -> i32 {
        if n < 2 {
            return n;
        }
        if n < 64 && memo[n as usize] != 0 {
            return memo[n as usize];
        }
        let r = fib(n - 1, memo).wrapping_add(fib(n - 2, memo));
        if n < 64 {
            memo[n as usize] = r;
        }
        r
    }
    fn sort_and_sum(seed: i32) -> i32 {
        let mut v = [0i32; 12];
        for (i, slot) in v.iter_mut().enumerate() {
            *slot = (seed.wrapping_mul(i as i32 + 7)).wrapping_rem(100) - 50;
        }
        v.sort_unstable();
        let mut s = 0i32;
        for x in v {
            s = s.wrapping_mul(3) ^ x;
        }
        s
    }
    fn bits(mut x: i32) -> i32 {
        let mut n = 0;
        while x != 0 {
            x &= x.wrapping_sub(1);
            n += 1;
        }
        n
    }
    let mut memo = [0i32; 64];
    let mut acc = fib(a.wrapping_rem(30), &mut memo);
    acc = acc.wrapping_add(sort_and_sum(b));
    acc ^= bits(a.wrapping_mul(b)).wrapping_shl(4);
    if a > 0 || b > 0 {
        acc = acc.wrapping_add(a.wrapping_div(bits(b) + 1));
    }
    loop {
        acc = acc.wrapping_sub(4999);
        if acc <= 1_000_000 {
            break;
        }
    }
    (acc & 0xffffff, vec![acc])
}

#[test]
fn kitchen_sink_matches_rust_reference() {
    let image = Session::from_source("sink", KITCHEN_SINK).build().unwrap();
    for (a, b) in [(10, 3), (25, -17), (0, 0), (29, 99), (7, 123456)] {
        let (want, out) = expected_for(a, b);
        let (exit, stats) = run(&image, &[a, b], DEFAULT_GAS);
        assert_eq!(exit, Exit::Exited(want), "args ({a},{b})");
        assert_eq!(stats.output, out, "print output for ({a},{b})");
    }
}

#[test]
fn every_strategy_preserves_semantics() {
    let session = Session::from_source("sink", KITCHEN_SINK);
    session
        .train(&[Input::args(&[12, 34])], DEFAULT_GAS)
        .unwrap();
    let (want, _) = expected_for(25, -17);
    for (label, strategy) in Strategy::paper_configs() {
        for seed in [1u64, 99] {
            let config = BuildConfig::diversified(strategy, seed);
            let image = session.build_with(&config).unwrap();
            let (exit, _) = run(&image, &[25, -17], DEFAULT_GAS);
            assert_eq!(exit, Exit::Exited(want), "{label} seed {seed}");
        }
    }
}

#[test]
fn xchg_table_and_shifting_preserve_semantics() {
    let session = Session::from_source("sink", KITCHEN_SINK);
    session
        .train(&[Input::args(&[12, 34])], DEFAULT_GAS)
        .unwrap();
    let (want, _) = expected_for(29, 7);
    let config = BuildConfig {
        strategy: Some(Strategy::with_curve(0.10, 0.50, Curve::Linear)),
        with_xchg: true,
        shift: true,
        ..BuildConfig::baseline()
    };
    let config = BuildConfig { seed: 5, ..config };
    let image = session.build_with(&config).unwrap();
    let (exit, _) = run(&image, &[29, 7], DEFAULT_GAS);
    assert_eq!(exit, Exit::Exited(want));
}

#[test]
fn full_diversity_stack_preserves_semantics() {
    // NOP insertion + substitution + block shifting + register
    // randomization all at once, across seeds.
    let session = Session::from_source("sink", KITCHEN_SINK);
    session
        .train(&[Input::args(&[12, 34])], DEFAULT_GAS)
        .unwrap();
    let (want, _) = expected_for(17, 41);
    let mut texts = Vec::new();
    for seed in 0..6 {
        let config = BuildConfig::full_diversity(Strategy::range(0.0, 0.5), seed);
        let image = session.build_with(&config).unwrap();
        let (exit, _) = run(&image, &[17, 41], DEFAULT_GAS);
        assert_eq!(exit, Exit::Exited(want), "seed {seed}");
        texts.push(image.text);
    }
    for (i, a) in texts.iter().enumerate() {
        for b in texts.iter().skip(i + 1) {
            assert_ne!(a, b);
        }
    }
}

#[test]
fn register_randomization_alone_diversifies_and_preserves() {
    let session = Session::from_source("sink", KITCHEN_SINK);
    let (want, _) = expected_for(9, 2);
    let cfg = |seed| BuildConfig {
        reg_randomize: true,
        seed,
        ..BuildConfig::baseline()
    };
    let a = session.build_with(&cfg(1)).unwrap();
    let b = session.build_with(&cfg(2)).unwrap();
    // A fresh session compiles from scratch rather than hitting the cache.
    let a2 = Session::from_source("sink", KITCHEN_SINK)
        .build_with(&cfg(1))
        .unwrap();
    assert_eq!(a.text, a2.text, "same seed reproduces");
    assert_ne!(a.text, b.text, "different seeds shuffle registers");
    for img in [&a, &b] {
        let (exit, _) = run(img, &[9, 2], DEFAULT_GAS);
        assert_eq!(exit, Exit::Exited(want));
    }
}

#[test]
fn substitution_alone_diversifies_and_preserves() {
    let session = Session::from_source("sink", KITCHEN_SINK);
    let (want, _) = expected_for(13, -8);
    let cfg = |seed| BuildConfig {
        substitution: Some(Strategy::uniform(0.8)),
        seed,
        ..BuildConfig::baseline()
    };
    let baseline = session.build_with(&BuildConfig::baseline()).unwrap();
    let a = session.build_with(&cfg(1)).unwrap();
    let b = session.build_with(&cfg(2)).unwrap();
    assert_ne!(a.text, baseline.text);
    assert_ne!(a.text, b.text);
    for img in [&a, &b] {
        let (exit, _) = run(img, &[13, -8], DEFAULT_GAS);
        assert_eq!(exit, Exit::Exited(want));
    }
}

#[test]
fn populations_are_pairwise_distinct_and_reproducible() {
    let session = Session::from_source("sink", KITCHEN_SINK)
        .config(BuildConfig::diversified(Strategy::uniform(0.4), 7));
    let images = session.population(6).unwrap();
    for (i, a) in images.iter().enumerate() {
        for b in images.iter().skip(i + 1) {
            assert_ne!(a.text, b.text, "two versions share identical text");
        }
    }
    let again = session.population(6).unwrap();
    for (a, b) in images.iter().zip(&again) {
        assert_eq!(a.text, b.text, "same seeds must reproduce identical builds");
    }
}

#[test]
fn spilled_two_address_destination_regression() {
    // Regression for a register-allocator bug found by the 450.soplex
    // workload: under register pressure, the spilled destination of a
    // two-address ALU operation lost its store-back because the spill
    // rewriter consumed the operand's use visit before seeing the def.
    let src = "int tab[4096];
    int f(int pivot, int col, int a, int b, int c) {
        int k0 = a + b; int k1 = b + c; int k2 = a + c; int k3 = a - b;
        int row = (pivot * 31) & 63;
        int idx = row * 64 + col;
        tab[idx] = k0 + k1 + k2 + k3;
        return tab[idx] + k0 + k1 + k2 + k3;
    }
    int main() { return f(70, 3, 1, 2, 4); }";
    let image = pgsd::cc::driver::compile("regress", src).unwrap();
    let (exit, _) = run(&image, &[], 1_000_000);
    // row = (70*31) & 63 = 58; idx = 58*64+3 = 3715; sums = 13 → 26.
    assert_eq!(exit, Exit::Exited(26));
}

#[test]
fn deep_recursion_and_stack_discipline() {
    let src = "int depth(int n) { if (n == 0) { return 0; } return 1 + depth(n - 1); }
               int main(int n) { return depth(n); }";
    let image = Session::from_source("deep", src).build().unwrap();
    let (exit, _) = run(&image, &[5000], DEFAULT_GAS);
    assert_eq!(exit, Exit::Exited(5000));
    // Blowing the 1 MiB stack faults instead of corrupting memory.
    let (exit, _) = run(&image, &[10_000_000], DEFAULT_GAS);
    assert!(matches!(exit, Exit::Fault { .. }), "{exit:?}");
}

#[test]
fn division_traps_are_observable() {
    let src = "int main(int a, int b) { return a / b; }";
    let image = Session::from_source("div", src).build().unwrap();
    assert_eq!(run(&image, &[12, 3], DEFAULT_GAS).0, Exit::Exited(4));
    assert!(matches!(
        run(&image, &[12, 0], DEFAULT_GAS).0,
        Exit::DivideError { .. }
    ));
    assert!(matches!(
        run(&image, &[i32::MIN, -1], DEFAULT_GAS).0,
        Exit::DivideError { .. }
    ));
}

#[test]
fn profiles_survive_text_round_trip_and_guide_builds() {
    let session = Session::from_source("sink", KITCHEN_SINK);
    let profile = session
        .train(&[Input::args(&[12, 34])], DEFAULT_GAS)
        .unwrap();
    let text = profile.to_text();
    let parsed = pgsd::profile::Profile::from_text(&text).unwrap();
    assert_eq!(parsed, *profile);
    // A build guided by the round-tripped profile is byte-identical.
    let config = BuildConfig::diversified(Strategy::range(0.0, 0.3), 3);
    let a = session.build_with(&config).unwrap();
    let b = Session::from_source("sink", KITCHEN_SINK)
        .profile(parsed)
        .build_with(&config)
        .unwrap();
    assert_eq!(a.text, b.text);
}
