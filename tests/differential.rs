//! Differential testing of the whole compiler + emulator stack: random
//! MiniC expression programs are compiled to machine code and executed in
//! the emulator, and the result is compared against a direct evaluation of
//! the same expression tree in Rust. Any disagreement means a bug in the
//! frontend, optimizer, instruction selection, register allocation,
//! emitter, or emulator — this is the test that caught the spilled
//! two-address-destination bug during development.

use proptest::prelude::*;

use pgsd::core::driver::{run, BuildConfig};
use pgsd::core::{Session, Strategy as NopStrategy};

/// A small expression AST mirrored in both MiniC text and Rust semantics.
#[derive(Debug, Clone)]
enum Expr {
    Const(i32),
    /// One of three parameters `a`, `b`, `c`.
    Param(u8),
    Add(Box<Expr>, Box<Expr>),
    Sub(Box<Expr>, Box<Expr>),
    Mul(Box<Expr>, Box<Expr>),
    /// Division guarded against zero and the i32::MIN/-1 trap, as the
    /// generated source does: `x / ((y & 15) + 1)`.
    Div(Box<Expr>, Box<Expr>),
    Rem(Box<Expr>, Box<Expr>),
    And(Box<Expr>, Box<Expr>),
    Or(Box<Expr>, Box<Expr>),
    Xor(Box<Expr>, Box<Expr>),
    /// Shift guarded to 0..16: `x << (y & 15)`.
    Shl(Box<Expr>, Box<Expr>),
    Shr(Box<Expr>, Box<Expr>),
    Neg(Box<Expr>),
    Not(Box<Expr>),
    Lt(Box<Expr>, Box<Expr>),
    Eq(Box<Expr>, Box<Expr>),
}

impl Expr {
    fn to_minic(&self) -> String {
        match self {
            Expr::Const(c) => {
                if *c < 0 {
                    format!("(0 - {})", (*c as i64).unsigned_abs().min(2147483647))
                } else {
                    format!("{c}")
                }
            }
            Expr::Param(i) => ["a", "b", "c"][*i as usize % 3].to_string(),
            Expr::Add(l, r) => format!("({} + {})", l.to_minic(), r.to_minic()),
            Expr::Sub(l, r) => format!("({} - {})", l.to_minic(), r.to_minic()),
            Expr::Mul(l, r) => format!("({} * {})", l.to_minic(), r.to_minic()),
            Expr::Div(l, r) => format!("({} / (({} & 15) + 1))", l.to_minic(), r.to_minic()),
            Expr::Rem(l, r) => format!("({} % (({} & 15) + 1))", l.to_minic(), r.to_minic()),
            Expr::And(l, r) => format!("({} & {})", l.to_minic(), r.to_minic()),
            Expr::Or(l, r) => format!("({} | {})", l.to_minic(), r.to_minic()),
            Expr::Xor(l, r) => format!("({} ^ {})", l.to_minic(), r.to_minic()),
            Expr::Shl(l, r) => format!("({} << ({} & 15))", l.to_minic(), r.to_minic()),
            Expr::Shr(l, r) => format!("({} >> ({} & 15))", l.to_minic(), r.to_minic()),
            Expr::Neg(e) => format!("(-{})", e.to_minic()),
            Expr::Not(e) => format!("(~{})", e.to_minic()),
            Expr::Lt(l, r) => format!("({} < {})", l.to_minic(), r.to_minic()),
            Expr::Eq(l, r) => format!("({} == {})", l.to_minic(), r.to_minic()),
        }
    }

    fn eval(&self, args: [i32; 3]) -> i32 {
        match self {
            Expr::Const(c) => {
                if *c < 0 {
                    0i32.wrapping_sub((*c as i64).unsigned_abs().min(2147483647) as i32)
                } else {
                    *c
                }
            }
            Expr::Param(i) => args[*i as usize % 3],
            Expr::Add(l, r) => l.eval(args).wrapping_add(r.eval(args)),
            Expr::Sub(l, r) => l.eval(args).wrapping_sub(r.eval(args)),
            Expr::Mul(l, r) => l.eval(args).wrapping_mul(r.eval(args)),
            Expr::Div(l, r) => {
                let d = (r.eval(args) & 15) + 1;
                l.eval(args).wrapping_div(d)
            }
            Expr::Rem(l, r) => {
                let d = (r.eval(args) & 15) + 1;
                l.eval(args).wrapping_rem(d)
            }
            Expr::And(l, r) => l.eval(args) & r.eval(args),
            Expr::Or(l, r) => l.eval(args) | r.eval(args),
            Expr::Xor(l, r) => l.eval(args) ^ r.eval(args),
            Expr::Shl(l, r) => l.eval(args).wrapping_shl((r.eval(args) & 15) as u32),
            Expr::Shr(l, r) => l.eval(args).wrapping_shr((r.eval(args) & 15) as u32),
            Expr::Neg(e) => e.eval(args).wrapping_neg(),
            Expr::Not(e) => !e.eval(args),
            Expr::Lt(l, r) => i32::from(l.eval(args) < r.eval(args)),
            Expr::Eq(l, r) => i32::from(l.eval(args) == r.eval(args)),
        }
    }
}

fn expr() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        (-1000i32..1000).prop_map(Expr::Const),
        (0u8..3).prop_map(Expr::Param),
    ];
    leaf.prop_recursive(5, 48, 3, |inner| {
        let bin = (inner.clone(), inner.clone());
        prop_oneof![
            bin.clone()
                .prop_map(|(l, r)| Expr::Add(Box::new(l), Box::new(r))),
            bin.clone()
                .prop_map(|(l, r)| Expr::Sub(Box::new(l), Box::new(r))),
            bin.clone()
                .prop_map(|(l, r)| Expr::Mul(Box::new(l), Box::new(r))),
            bin.clone()
                .prop_map(|(l, r)| Expr::Div(Box::new(l), Box::new(r))),
            bin.clone()
                .prop_map(|(l, r)| Expr::Rem(Box::new(l), Box::new(r))),
            bin.clone()
                .prop_map(|(l, r)| Expr::And(Box::new(l), Box::new(r))),
            bin.clone()
                .prop_map(|(l, r)| Expr::Or(Box::new(l), Box::new(r))),
            bin.clone()
                .prop_map(|(l, r)| Expr::Xor(Box::new(l), Box::new(r))),
            bin.clone()
                .prop_map(|(l, r)| Expr::Shl(Box::new(l), Box::new(r))),
            bin.clone()
                .prop_map(|(l, r)| Expr::Shr(Box::new(l), Box::new(r))),
            bin.clone()
                .prop_map(|(l, r)| Expr::Lt(Box::new(l), Box::new(r))),
            bin.prop_map(|(l, r)| Expr::Eq(Box::new(l), Box::new(r))),
            inner.clone().prop_map(|e| Expr::Neg(Box::new(e))),
            inner.prop_map(|e| Expr::Not(Box::new(e))),
        ]
    })
}

fn cases() -> usize {
    // Emulated runs are cheap, but debug-mode compilation of many random
    // programs adds up; keep CI snappy.
    if cfg!(debug_assertions) {
        48
    } else {
        256
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases() as u32))]

    /// Compiled-and-emulated result == direct Rust evaluation, for the
    /// baseline build and for a diversified build (NOPs must never change
    /// semantics).
    #[test]
    fn compiled_expression_matches_reference(
        e in expr(),
        a in -10_000i32..10_000,
        b in -10_000i32..10_000,
        c in -10_000i32..10_000,
        seed in 0u64..4,
    ) {
        let source = format!(
            "int f(int a, int b, int c) {{ return {}; }}\n\
             int main(int a, int b, int c) {{ return f(a, b, c); }}",
            e.to_minic()
        );
        let session = Session::from_source("diff", &source);
        let expected = e.eval([a, b, c]);

        let baseline = session.build_with(&BuildConfig::baseline()).unwrap();
        let (exit, _) = run(&baseline, &[a, b, c], 10_000_000);
        prop_assert_eq!(exit.status(), Some(expected), "baseline mismatch on {}", source);

        let config = BuildConfig::diversified(NopStrategy::uniform(0.5), seed);
        let diversified = session.build_with(&config).unwrap();
        let (exit, _) = run(&diversified, &[a, b, c], 10_000_000);
        prop_assert_eq!(exit.status(), Some(expected), "diversified mismatch on {}", source);

        // The full diversity stack (NOPs + substitution + shifting +
        // register randomization) must also agree.
        let config = BuildConfig::full_diversity(NopStrategy::uniform(0.5), seed);
        let full = session.build_with(&config).unwrap();
        let (exit, _) = run(&full, &[a, b, c], 10_000_000);
        prop_assert_eq!(exit.status(), Some(expected), "full-diversity mismatch on {}", source);
    }
}
