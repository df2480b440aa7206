//! IR optimization passes.
//!
//! The pipeline mirrors the role of LLVM's mid-end in the paper's Figure 3:
//! all IR optimizations run *before* lowering, so the NOP-insertion point
//! (in the low-level representation, just before emission) sees final code.
//!
//! Passes are pure functions `fn(&mut Function) -> bool` returning whether
//! they changed anything; [`optimize`] runs them to a fixpoint.

mod constfold;
mod copyprop;
mod dce;
mod simplifycfg;

pub use constfold::const_fold;
pub use copyprop::copy_propagate;
pub use dce::eliminate_dead_code;
pub use simplifycfg::simplify_cfg;

use super::{Function, Module};
use pgsd_telemetry::Telemetry;

/// Maximum number of fixpoint iterations; generous — typical functions
/// settle in 2–3.
const MAX_PIPELINE_ITERS: usize = 16;

/// Runs the full optimization pipeline on one function until nothing
/// changes, with each pass invocation recorded as a telemetry span (and
/// a `ir.pass_changed{pass=…}` counter when it changed anything).
///
/// Returns the number of iterations performed.
pub fn optimize_function(func: &mut Function, tel: &Telemetry) -> usize {
    for iter in 0..MAX_PIPELINE_ITERS {
        let mut changed = false;
        changed |= run_pass(tel, "constfold", func, const_fold);
        changed |= run_pass(tel, "copyprop", func, copy_propagate);
        changed |= run_pass(tel, "dce", func, eliminate_dead_code);
        changed |= run_pass(tel, "simplifycfg", func, simplify_cfg);
        if !changed {
            return iter + 1;
        }
    }
    MAX_PIPELINE_ITERS
}

fn run_pass(
    tel: &Telemetry,
    name: &str,
    func: &mut Function,
    pass: fn(&mut Function) -> bool,
) -> bool {
    let _span = tel.span(name);
    let changed = pass(func);
    if changed {
        tel.add_labeled("ir.pass_changed", &[("pass", name)], 1);
    }
    changed
}

/// Runs the optimization pipeline on every function of `module`,
/// recording one `optimize:<fn>` span per function and an
/// `ir.fixpoint_iters` histogram observation into `tel`.
pub fn optimize(module: &mut Module, tel: &Telemetry) {
    for f in &mut module.funcs {
        let _span = if tel.is_enabled() {
            Some(tel.span(&format!("optimize:{}", f.name)))
        } else {
            None
        };
        let iters = optimize_function(f, tel);
        tel.observe("ir.fixpoint_iters", iters as u64);
    }
    debug_assert!(
        super::verify::verify(module).is_ok(),
        "pass pipeline broke the IR"
    );
}

/// Computes how many times each value is defined (parameters count as one
/// implicit definition each). Used by passes that must restrict themselves
/// to single-definition values — the safe subset in this non-SSA IR.
pub(crate) fn def_counts(func: &Function) -> Vec<u32> {
    let mut counts = vec![0u32; func.num_values as usize];
    for p in 0..func.params {
        counts[p as usize] += 1;
    }
    for b in &func.blocks {
        for i in &b.instrs {
            if let Some(d) = i.dst() {
                counts[d.0 as usize] += 1;
            }
        }
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::super::builder::build;
    use super::super::{Instr, Module, Operand, Term};
    use super::*;
    use crate::frontend::{lexer::lex, parser::parse};

    fn optimized(src: &str) -> Module {
        let mut m = build("t", &parse(lex(src).unwrap()).unwrap()).unwrap();
        optimize(&mut m, &Telemetry::disabled());
        m
    }

    /// End-to-end: constant program folds to a single `ret const`.
    #[test]
    fn whole_pipeline_folds_constants() {
        let m = optimized("int f() { int a = 2; int b = 3; return a * b + 4; }");
        let f = &m.funcs[0];
        assert_eq!(f.blocks.len(), 1);
        assert!(f.blocks[0].instrs.is_empty(), "{f}");
        assert_eq!(f.blocks[0].term, Term::Ret(Some(Operand::Const(10))));
    }

    #[test]
    fn pipeline_removes_constant_branch() {
        let m = optimized("int f() { if (1 < 2) { return 5; } return 6; }");
        let f = &m.funcs[0];
        assert_eq!(f.blocks.len(), 1, "{f}");
        assert_eq!(f.blocks[0].term, Term::Ret(Some(Operand::Const(5))));
    }

    #[test]
    fn pipeline_keeps_side_effects() {
        let m = optimized("int g; int f() { g = 1; int dead = g + 2; return 0; }");
        let f = &m.funcs[0];
        let stores = f
            .blocks
            .iter()
            .flat_map(|b| &b.instrs)
            .filter(|i| matches!(i, Instr::StoreG { .. }))
            .count();
        assert_eq!(stores, 1);
        // The dead load+add must be gone.
        assert_eq!(
            f.blocks.iter().map(|b| b.instrs.len()).sum::<usize>(),
            1,
            "{f}"
        );
    }

    #[test]
    fn loops_survive_optimization() {
        let m =
            optimized("int f(int n) { int s = 0; while (n > 0) { s += n; n -= 1; } return s; }");
        let f = &m.funcs[0];
        assert!(
            f.blocks
                .iter()
                .any(|b| matches!(b.term, Term::CondBr { .. })),
            "{f}"
        );
    }

    #[test]
    fn def_counts_include_params() {
        let m = build(
            "t",
            &parse(lex("int f(int a) { a = a + 1; return a; }").unwrap()).unwrap(),
        )
        .unwrap();
        let counts = def_counts(&m.funcs[0]);
        assert_eq!(counts[0], 2); // param + reassignment
    }
}
