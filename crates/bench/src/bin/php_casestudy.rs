//! Regenerates the paper's **§5.2 concrete-attack experiment**: the PHP
//! case study.
//!
//! 1. verify the undiversified interpreter binary is vulnerable — both
//!    attack scanners (ROPgadget-style and microgadgets-style) find all
//!    the primitives and controlled registers their payloads need;
//! 2. for each of the seven CLBG profiling programs, train a profile,
//!    build `PGSD_VERSIONS` (default 25) diversified versions at the
//!    paper's weakest setting (`pNOP = 0–30%`), run Survivor against the
//!    original, and re-check attack feasibility **on the surviving
//!    gadgets** — the attacker's view: a payload written against the
//!    original only works if its gadgets survive at their offsets;
//! 3. report whether any diversified version remains attackable.

use pgsd_bench::{sweep, versions, write_csv, ProgressTimer};
use pgsd_core::driver::{BuildConfig, DEFAULT_GAS};
use pgsd_core::{Session, Strategy};
use pgsd_gadget::{
    attack_scan_config, check_attack, check_attack_on_gadgets, gadget_at, survivor, AttackTemplate,
    Gadget,
};
use pgsd_workloads::phpvm::{clbg_programs, php_source};
use pgsd_x86::nop::NopTable;

/// Survivor under the attack scanner's gadget definition: the original
/// gadgets that survive (same offset, NOP-normalized equality), as
/// `Gadget`s into the *original* text.
fn surviving_attack_gadgets(original: &[u8], diversified: &[u8], table: &NopTable) -> Vec<Gadget> {
    let cfg = attack_scan_config();
    survivor(original, diversified, table, &cfg)
        .survivors
        .into_iter()
        .map(|offset| Gadget {
            offset,
            len: gadget_at(original, offset, &cfg).expect("a survivor is a baseline gadget"),
        })
        .collect()
}

fn main() {
    let n_versions = versions();
    let threads = pgsd_bench::threads();
    let t = ProgressTimer::start(format!(
        "php case study: 7 profiles × {n_versions} versions at pNOP=0-30% ({threads} threads)"
    ));
    let source = php_source();
    let session = Session::from_source("php", &source);
    let baseline = session
        .build_with(&BuildConfig::baseline())
        .expect("baseline builds");
    let templates = [AttackTemplate::ropgadget(), AttackTemplate::microgadgets()];
    let table = NopTable::new();

    println!(
        "undiversified PHP-like interpreter ({} bytes of text):",
        baseline.text.len()
    );
    for tpl in &templates {
        let verdict = check_attack(&baseline.text, tpl);
        println!(
            "  {:<14} feasible: {}   (controlled regs: {:?})",
            verdict.template,
            verdict.feasible(),
            verdict.controlled
        );
        assert!(
            verdict.feasible(),
            "the undiversified binary must be attackable for the experiment to be meaningful"
        );
    }

    let config = [BuildConfig::diversified(Strategy::range(0.0, 0.30), 0)];
    let mut csv = Vec::new();
    let mut any_attackable = 0usize;
    let mut total = 0usize;
    for program in clbg_programs() {
        // Train on this benchmark, as the paper profiles PHP with each
        // CLBG program separately.
        let fuel = 400_000;
        session
            .train(&[program.input(fuel)], DEFAULT_GAS)
            .unwrap_or_else(|e| panic!("training on {} failed: {e}", program.name));
        // Each seed's build + survivor scan + attack checks is one job;
        // counts are summed in seed order.
        let per_seed = sweep(&session, &config, n_versions, threads, |image| {
            let survivors = surviving_attack_gadgets(&baseline.text, &image.text, &table);
            let feasible: Vec<bool> = templates
                .iter()
                .map(|tpl| check_attack_on_gadgets(&baseline.text, &survivors, tpl).feasible())
                .collect();
            (survivors.len(), feasible)
        })
        .remove(0);
        let mut feasible_counts = [0usize; 2];
        let mut survivor_total = 0usize;
        for (count, feasible) in &per_seed {
            survivor_total += count;
            for (ti, &f) in feasible.iter().enumerate() {
                if f {
                    feasible_counts[ti] += 1;
                    any_attackable += 1;
                }
            }
            total += 1;
        }
        println!(
            "profile {:<14} avg surviving attack gadgets {:>6.1}   ROPgadget-attackable {}/{}   microgadgets-attackable {}/{}",
            program.name,
            survivor_total as f64 / n_versions as f64,
            feasible_counts[0],
            n_versions,
            feasible_counts[1],
            n_versions
        );
        csv.push(format!(
            "{},{:.2},{},{},{}",
            program.name,
            survivor_total as f64 / n_versions as f64,
            feasible_counts[0],
            feasible_counts[1],
            n_versions
        ));
    }
    let path = write_csv(
        "php_casestudy.csv",
        "profile,avg_surviving_attack_gadgets,ropgadget_feasible,microgadgets_feasible,versions",
        &csv,
    );
    t.done();

    println!();
    if any_attackable == 0 {
        println!(
            "RESULT: none of the {total} diversified interpreter builds is attackable by either scanner"
        );
        println!(
            "        (paper: \"a ROP-based attack was no longer possible\" on all 25 versions"
        );
        println!("         of PHP, for every profile)");
    } else {
        println!(
            "RESULT: {any_attackable} of {total} checks remained attackable — shape NOT reproduced"
        );
    }
    println!("csv: {}", path.display());
}
