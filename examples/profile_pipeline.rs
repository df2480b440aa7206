//! A tour of the profile-guided pipeline (the paper's Figure 3 with the
//! profiling loop of §3.1/§4): instrument → train → reconstruct → inspect
//! the per-block probabilities → diversify → measure.
//!
//! ```sh
//! cargo run --release --example profile_pipeline
//! ```

use pgsd::cc::driver::{emit_image, frontend, lower_module_seeded};
use pgsd::core::driver::{BuildConfig, Input, DEFAULT_GAS};
use pgsd::core::{Curve, Session, Strategy};
use pgsd::profile::instrument;

const SOURCE: &str = r#"
int histogram[256];

int classify(int v) {
    if (v < 0) { return 0; }        // cold: inputs are non-negative
    if (v > 10000) { return 255; }  // cold: inputs are small
    return (v * 7) % 256;
}

int main(int n) {
    // Hot: the bucketing loop. Cold: everything behind the guards.
    int seed = 1;
    for (int i = 0; i < n; i++) {
        seed = (seed * 1103515245 + 12345) & 0x3fff;
        int b = classify(seed);
        histogram[b] += 1;
    }
    int best = 0;
    for (int b = 0; b < 256; b++) {
        if (histogram[b] > histogram[best]) { best = b; }
    }
    return best;
}
"#;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Stage 1: frontend (lex → parse → IR → optimizations).
    let module = frontend("histogram", SOURCE)?;
    println!(
        "IR: {} functions, {} globals",
        module.funcs.len(),
        module.globals.len()
    );

    // Stage 2: instrumentation — only the spanning-tree complement gets
    // counters (the paper: "LLVM only inserts counters for the minimal
    // required subset of edges").
    let mut instrumented = module;
    let plan = instrument(&mut instrumented);
    let total_edges: usize = plan.funcs.iter().map(|f| f.graph.edges.len()).sum();
    println!(
        "instrumentation: {} counters for {} augmented-CFG edges",
        plan.num_counters, total_edges
    );
    // The instrumented module compiles like any other.
    let funcs = lower_module_seeded(&instrumented, None)?;
    let image = emit_image(&funcs, &instrumented)?;
    println!("instrumented image: {} bytes of text", image.text.len());

    // Stage 3: the training run reconstructs every block count from the
    // minimal counter set by flow conservation. The session keeps the
    // profile active for every later diversified build.
    let session = Session::from_source("histogram", SOURCE);
    let profile = session.train(&[Input::args(&[2_000])], DEFAULT_GAS)?;
    let x_max = profile.max_count();
    println!(
        "\ntraining profile: x_max = {x_max}, median = {}",
        profile.median_count()
    );

    // Inspect per-block probabilities for `classify`.
    let strategy = Strategy::range(0.10, 0.50);
    let linear = Strategy::with_curve(0.10, 0.50, Curve::Linear);
    let fp = profile.func("classify").expect("classify profiled");
    println!("\nper-block NOP probabilities for `classify` (range 10-50%):");
    println!(
        "{:>6} {:>12} {:>10} {:>10}",
        "block", "count", "log", "linear"
    );
    for (b, &count) in fp.block_counts.iter().enumerate() {
        println!(
            "{b:>6} {count:>12} {:>9.1}% {:>9.1}%",
            strategy.probability(count, x_max) * 100.0,
            linear.probability(count, x_max) * 100.0
        );
    }

    // Stage 4: measure what profile guidance buys on the reference input.
    let baseline = session.build()?;
    let input = Input::args(&[200_000]);
    let base = session.run(&baseline, &input, DEFAULT_GAS, "baseline");
    let (expected, base_stats) = (base.status().expect("baseline runs"), base.stats);
    let report = |label: &str, strat: Strategy, profiled: bool| {
        let cfg = BuildConfig::diversified(strat, 42);
        let image = if profiled {
            session.build_with(&cfg).expect("builds")
        } else {
            // A throwaway session over the same module: no profile set.
            Session::from_source("histogram", SOURCE)
                .build_with(&cfg)
                .expect("builds")
        };
        let out = session.run(&image, &input, DEFAULT_GAS, label);
        assert_eq!(out.status(), Some(expected));
        println!(
            "  {label:<22} {:>8} cycles  ({:+.2}%)",
            out.stats.cycles,
            (out.stats.cycles as f64 / base_stats.cycles as f64 - 1.0) * 100.0
        );
    };
    println!(
        "\noverhead on the reference input (baseline {} cycles):",
        base_stats.cycles
    );
    report("uniform pNOP=50%", Strategy::uniform(0.5), false);
    report("profiled pNOP=10-50%", strategy, true);
    report("profiled pNOP=0-30%", Strategy::range(0.0, 0.30), true);
    Ok(())
}
