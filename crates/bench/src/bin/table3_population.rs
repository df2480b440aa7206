//! Regenerates the paper's **Table 3**: gadgets surviving *across the
//! diversified population itself* — how many `(offset, content)` gadgets
//! appear identically in at least 2, 5 and 12 of the `PGSD_VERSIONS`
//! (default 25) versions, per benchmark and strategy. This models an
//! attacker content with compromising a subset of targets (§5.2).
//!
//! The raw counts are paired with a *reachable* variant: the same
//! cross-version survival, but counting only gadgets whose start offset
//! the static audit (`pgsd-analysis`) places on an intended instruction
//! boundary of reachable code in that version — the population an
//! attacker can actually pivot through.

use std::collections::{HashMap, HashSet};

use pgsd_analysis::{audit::classify_offset, recover, SurvivorClass};
use pgsd_bench::{
    paper_builds, prepare, row, selected_suite, sweep, versions, write_csv, ProgressTimer,
};
use pgsd_cc::emit::Image;
use pgsd_core::Strategy;
use pgsd_gadget::{find_gadgets, normalized_gadgets, population_survival, ScanConfig};
use pgsd_x86::nop::NopTable;

/// Cross-version occurrence counts restricted to survivors classified
/// [`SurvivorClass::Reachable`] in the version they appear in.
fn reachable_survival(
    images: &[Image],
    table: &NopTable,
    cfg: &ScanConfig,
) -> HashMap<(usize, Vec<u8>), usize> {
    let mut occurrence: HashMap<(usize, Vec<u8>), usize> = HashMap::new();
    for image in images {
        let recovered = recover(image);
        let mut seen: HashSet<(usize, Vec<u8>)> = HashSet::new();
        for key in normalized_gadgets(&image.text, table, cfg) {
            if classify_offset(&recovered, key.0) == SurvivorClass::Reachable
                && seen.insert(key.clone())
            {
                *occurrence.entry(key).or_insert(0) += 1;
            }
        }
    }
    occurrence
}

fn main() {
    let configs = Strategy::paper_configs();
    let n_versions = versions();
    let threads = pgsd_bench::threads();
    // Paper thresholds 2/5/12 are ~10%/20%/50% of 25; scale for smaller
    // populations so quick runs stay meaningful.
    let ks = if n_versions == 25 {
        vec![2usize, 5, 12]
    } else {
        vec![
            (n_versions / 10).max(2),
            (n_versions / 5).max(2),
            n_versions.div_ceil(2),
        ]
    };
    let t = ProgressTimer::start(format!(
        "table 3: {} benchmarks × {} strategies × {n_versions} versions (k = {ks:?}, {threads} threads)",
        selected_suite().len(),
        configs.len()
    ));
    let cfg = ScanConfig::default();
    let table = NopTable::new();

    struct Row {
        name: &'static str,
        baseline: usize,
        counts: Vec<Vec<usize>>,       // [config][threshold]
        counts_reach: Vec<Vec<usize>>, // [config][threshold]
    }
    let mut rows = Vec::new();
    for w in selected_suite() {
        let name = w.name;
        let p = prepare(w);
        let baseline = find_gadgets(&p.baseline.text, &cfg).len();
        let mut counts = Vec::new();
        let mut counts_reach = Vec::new();
        for images in sweep(&p.session, &paper_builds(), n_versions, threads, |i| i) {
            let texts: Vec<Vec<u8>> = images.iter().map(|i| i.text.to_vec()).collect();
            let report = population_survival(&texts, &table, &cfg);
            counts.push(report.thresholds(&ks));
            let reach = reachable_survival(&images, &table, &cfg);
            counts_reach.push(
                ks.iter()
                    .map(|&k| reach.values().filter(|&&n| n >= k).count())
                    .collect(),
            );
        }
        eprintln!("[pgsd-bench]   {name} done");
        rows.push(Row {
            name,
            baseline,
            counts,
            counts_reach,
        });
    }
    rows.sort_by_key(|r| r.baseline);

    for (ti, k) in ks.iter().enumerate() {
        println!("\ngadgets surviving in at least {k} of {n_versions} versions (raw/reachable):");
        let mut widths = vec![16usize];
        widths.extend(std::iter::repeat_n(12, configs.len()));
        let mut header = vec!["benchmark".to_string()];
        header.extend(configs.iter().map(|(l, _)| l.replace("pNOP=", "")));
        println!("{}", row(&header, &widths));
        for r in &rows {
            let mut cells = vec![r.name.to_string()];
            cells.extend(
                r.counts
                    .iter()
                    .zip(&r.counts_reach)
                    .map(|(c, cr)| format!("{}/{}", c[ti], cr[ti])),
            );
            println!("{}", row(&cells, &widths));
        }
    }

    let mut csv = Vec::new();
    for r in &rows {
        for (ci, (label, _)) in configs.iter().enumerate() {
            for (ti, k) in ks.iter().enumerate() {
                csv.push(format!(
                    "{},{},{},{},{}",
                    r.name,
                    label.replace("pNOP=", ""),
                    k,
                    r.counts[ci][ti],
                    r.counts_reach[ci][ti]
                ));
            }
        }
    }
    let path = write_csv(
        "table3_population.csv",
        "benchmark,strategy,at_least_k,gadgets,reachable_gadgets",
        &csv,
    );
    t.done();
    println!("\npaper shape checks:");
    println!(
        "  • the ≥{} column is essentially constant — the undiversified runtime tail",
        ks[2]
    );
    println!(
        "  • counts at ≥{} can exceed the baseline (one gadget, several offsets)",
        ks[0]
    );
    println!("  • higher pNOP ranges shrink the shared sets");
    println!("  • reachable shared gadgets are far fewer than raw shared gadgets");
    println!("csv: {}", path.display());
}
