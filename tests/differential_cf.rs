//! Control-flow differential fuzzing: random MiniC programs with loops,
//! branches, globals and arrays are compiled to machine code and executed
//! in the emulator, and the result is compared against a direct
//! interpretation of the *parsed AST* — so the AST is the single source of
//! semantics, and any disagreement indicts the IR builder, the optimizer,
//! instruction selection, register allocation, the emitter, or the
//! emulator (the expression-only `differential.rs` cannot reach layout or
//! branch bugs; this one can). Its first run caught a real miscompile:
//! instruction selection loaded a variable shift count into `cl` and then
//! let the spill rewriter allocate `ecx` as a scratch register for the
//! instruction in between, clobbering the count.

use std::collections::HashMap;

use proptest::prelude::*;

use pgsd::cc::frontend::ast::{BinOp, Expr, LValue, Program, Stmt, UnOp};
use pgsd::cc::frontend::{lex, parse};
use pgsd::core::driver::{run, BuildConfig};
use pgsd::core::{Session, Strategy as NopStrategy};

// ---------------------------------------------------------------------
// Program generator: emits MiniC *source text*. Loops are always bounded
// by construction (`for` over a fresh counter), divisions are guarded by
// the source shape, array indices are masked.
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
enum GExpr {
    Const(i32),
    Var(usize),
    Global,
    Elem(Box<GExpr>),
    Bin(&'static str, Box<GExpr>, Box<GExpr>),
    Not(Box<GExpr>),
}

impl GExpr {
    fn emit(&self, nvars: usize) -> String {
        match self {
            GExpr::Const(c) => {
                if *c < 0 {
                    format!("(0 - {})", -(*c as i64))
                } else {
                    format!("{c}")
                }
            }
            GExpr::Var(i) => format!("x{}", i % nvars.max(1)),
            GExpr::Global => "g".to_string(),
            GExpr::Elem(i) => format!("arr[({}) & 7]", i.emit(nvars)),
            GExpr::Bin(op, l, r) => match *op {
                "/" | "%" => format!(
                    "(({}) {} ((({}) & 7) + 1))",
                    l.emit(nvars),
                    op,
                    r.emit(nvars)
                ),
                "<<" | ">>" => format!("(({}) {} (({}) & 15))", l.emit(nvars), op, r.emit(nvars)),
                _ => format!("(({}) {} ({}))", l.emit(nvars), op, r.emit(nvars)),
            },
            GExpr::Not(e) => format!("(!({}))", e.emit(nvars)),
        }
    }
}

#[derive(Debug, Clone)]
enum GStmt {
    Assign(usize, GExpr),
    StoreGlobal(GExpr),
    StoreElem(GExpr, GExpr),
    If(GExpr, Vec<GStmt>, Vec<GStmt>),
    /// Bounded loop: body runs `bound & 15` times.
    Loop(GExpr, Vec<GStmt>),
}

impl GStmt {
    fn emit(&self, nvars: usize, depth: usize, counter: &mut usize) -> String {
        let pad = "    ".repeat(depth + 1);
        match self {
            GStmt::Assign(v, e) => {
                format!("{pad}x{} = {};\n", v % nvars.max(1), e.emit(nvars))
            }
            GStmt::StoreGlobal(e) => format!("{pad}g = {};\n", e.emit(nvars)),
            GStmt::StoreElem(i, e) => {
                format!("{pad}arr[({}) & 7] = {};\n", i.emit(nvars), e.emit(nvars))
            }
            GStmt::If(c, t, f) => {
                let mut s = format!("{pad}if ({}) {{\n", c.emit(nvars));
                for st in t {
                    s.push_str(&st.emit(nvars, depth + 1, counter));
                }
                s.push_str(&format!("{pad}}} else {{\n"));
                for st in f {
                    s.push_str(&st.emit(nvars, depth + 1, counter));
                }
                s.push_str(&format!("{pad}}}\n"));
                s
            }
            GStmt::Loop(bound, body) => {
                let c = *counter;
                *counter += 1;
                let mut s = format!(
                    "{pad}for (int c{c} = 0; c{c} < (({}) & 15); c{c}++) {{\n",
                    bound.emit(nvars)
                );
                for st in body {
                    s.push_str(&st.emit(nvars, depth + 1, counter));
                }
                s.push_str(&format!("{pad}}}\n"));
                s
            }
        }
    }
}

fn emit_program(stmts: &[GStmt], nvars: usize) -> String {
    let mut src = String::from("int g;\nint arr[8];\nint main(int a, int b) {\n");
    for i in 0..nvars {
        src.push_str(&format!(
            "    int x{i} = {};\n",
            ["a", "b", "a + b", "a - b"][i % 4]
        ));
    }
    let mut counter = 0;
    for s in stmts {
        src.push_str(&s.emit(nvars, 0, &mut counter));
    }
    src.push_str("    int acc = g;\n");
    for i in 0..nvars {
        src.push_str(&format!("    acc = acc * 31 ^ x{i};\n"));
    }
    src.push_str("    for (int i = 0; i < 8; i++) { acc = acc * 31 ^ arr[i]; }\n");
    src.push_str("    return acc;\n}\n");
    src
}

fn gexpr() -> impl Strategy<Value = GExpr> {
    let leaf = prop_oneof![
        (-100i32..100).prop_map(GExpr::Const),
        (0usize..4).prop_map(GExpr::Var),
        Just(GExpr::Global),
    ];
    leaf.prop_recursive(3, 16, 2, |inner| {
        prop_oneof![
            (
                prop::sample::select(vec![
                    "+", "-", "*", "/", "%", "&", "|", "^", "<<", ">>", "<", "<=", ">", ">=", "==",
                    "!=", "&&", "||"
                ]),
                inner.clone(),
                inner.clone()
            )
                .prop_map(|(op, l, r)| GExpr::Bin(op, Box::new(l), Box::new(r))),
            inner.clone().prop_map(|e| GExpr::Elem(Box::new(e))),
            inner.prop_map(|e| GExpr::Not(Box::new(e))),
        ]
    })
}

fn gstmt(depth: u32) -> BoxedStrategy<GStmt> {
    let assign = (0usize..4, gexpr()).prop_map(|(v, e)| GStmt::Assign(v, e));
    let store_g = gexpr().prop_map(GStmt::StoreGlobal);
    let store_e = (gexpr(), gexpr()).prop_map(|(i, e)| GStmt::StoreElem(i, e));
    if depth == 0 {
        prop_oneof![assign, store_g, store_e].boxed()
    } else {
        let body = prop::collection::vec(gstmt(depth - 1), 0..4);
        prop_oneof![
            3 => assign,
            1 => store_g,
            1 => store_e,
            1 => (gexpr(), body.clone(), prop::collection::vec(gstmt(depth - 1), 0..3))
                .prop_map(|(c, t, f)| GStmt::If(c, t, f)),
            1 => (gexpr(), body).prop_map(|(b, s)| GStmt::Loop(b, s)),
        ]
        .boxed()
    }
}

// ---------------------------------------------------------------------
// Reference semantics: interpret the *parsed AST* directly.
// ---------------------------------------------------------------------

struct AstInterp<'a> {
    program: &'a Program,
    globals: HashMap<String, Vec<i32>>,
    steps: u64,
}

enum Flow {
    Normal,
    Return(i32),
}

impl<'a> AstInterp<'a> {
    fn new(program: &'a Program) -> AstInterp<'a> {
        let mut globals = HashMap::new();
        for g in &program.globals {
            globals.insert(
                g.name.clone(),
                match g.len {
                    Some(n) => vec![0; n as usize],
                    None => vec![g.init],
                },
            );
        }
        AstInterp {
            program,
            globals,
            steps: 0,
        }
    }

    fn call(&mut self, name: &str, args: &[i32]) -> i32 {
        let func = self
            .program
            .funcs
            .iter()
            .find(|f| f.name == name)
            .unwrap_or_else(|| panic!("function {name}"));
        let mut locals: HashMap<String, Vec<i32>> = HashMap::new();
        for (p, v) in func.params.iter().zip(args) {
            locals.insert(p.clone(), vec![*v]);
        }
        let body = func.body.clone();
        match self.block(&body, &mut locals) {
            Flow::Return(v) => v,
            Flow::Normal => 0,
        }
    }

    fn block(&mut self, stmts: &[Stmt], locals: &mut HashMap<String, Vec<i32>>) -> Flow {
        for s in stmts {
            self.steps += 1;
            assert!(self.steps < 3_000_000, "reference interpreter ran away");
            match s {
                Stmt::DeclScalar { name, init, .. } => {
                    let v = init.as_ref().map(|e| self.eval(e, locals)).unwrap_or(0);
                    locals.insert(name.clone(), vec![v]);
                }
                Stmt::DeclArray { name, len, .. } => {
                    locals.insert(name.clone(), vec![0; *len as usize]);
                }
                Stmt::Assign { target, value, .. } => {
                    let v = self.eval(value, locals);
                    self.store(target, v, locals);
                }
                Stmt::Expr { value, .. } => {
                    self.eval(value, locals);
                }
                Stmt::If {
                    cond,
                    then_body,
                    else_body,
                    ..
                } => {
                    let branch = if self.eval(cond, locals) != 0 {
                        then_body
                    } else {
                        else_body
                    };
                    if let Flow::Return(v) = self.block(branch, locals) {
                        return Flow::Return(v);
                    }
                }
                Stmt::While { cond, body, .. } => {
                    while self.eval(cond, locals) != 0 {
                        if let Flow::Return(v) = self.block(body, locals) {
                            return Flow::Return(v);
                        }
                    }
                }
                Stmt::DoWhile { body, cond, .. } => loop {
                    if let Flow::Return(v) = self.block(body, locals) {
                        return Flow::Return(v);
                    }
                    if self.eval(cond, locals) == 0 {
                        break;
                    }
                },
                Stmt::For {
                    init,
                    cond,
                    step,
                    body,
                    ..
                } => {
                    if let Flow::Return(v) = self.block(init, locals) {
                        return Flow::Return(v);
                    }
                    loop {
                        if let Some(c) = cond {
                            if self.eval(c, locals) == 0 {
                                break;
                            }
                        }
                        if let Flow::Return(v) = self.block(body, locals) {
                            return Flow::Return(v);
                        }
                        if let Flow::Return(v) = self.block(step, locals) {
                            return Flow::Return(v);
                        }
                    }
                }
                Stmt::Return { value, .. } => {
                    let v = value.as_ref().map(|e| self.eval(e, locals)).unwrap_or(0);
                    return Flow::Return(v);
                }
                Stmt::Break { .. } | Stmt::Continue { .. } => {
                    unimplemented!("generator does not emit break/continue")
                }
            }
        }
        Flow::Normal
    }

    fn store(&mut self, target: &LValue, v: i32, locals: &mut HashMap<String, Vec<i32>>) {
        match target {
            LValue::Var { name, .. } => {
                if let Some(slot) = locals.get_mut(name) {
                    slot[0] = v;
                } else {
                    self.globals.get_mut(name).expect("global")[0] = v;
                }
            }
            LValue::Index { name, index, .. } => {
                let i = self.eval(index, locals) as usize;
                if let Some(slot) = locals.get_mut(name) {
                    slot[i] = v;
                } else {
                    self.globals.get_mut(name).expect("global")[i] = v;
                }
            }
        }
    }

    fn eval(&mut self, e: &Expr, locals: &mut HashMap<String, Vec<i32>>) -> i32 {
        self.steps += 1;
        assert!(self.steps < 3_000_000, "reference interpreter ran away");
        match e {
            Expr::Int { value, .. } => *value,
            Expr::Var { name, .. } => locals
                .get(name)
                .map(|s| s[0])
                .unwrap_or_else(|| self.globals[name][0]),
            Expr::Index { name, index, .. } => {
                let i = self.eval(index, locals) as usize;
                locals
                    .get(name)
                    .map(|s| s[i])
                    .unwrap_or_else(|| self.globals[name][i])
            }
            Expr::Call { name, args, .. } => {
                let vals: Vec<i32> = args.iter().map(|a| self.eval(a, locals)).collect();
                assert_ne!(name, "print", "generator does not emit print");
                self.call(name, &vals)
            }
            Expr::Un { op, operand, .. } => {
                let v = self.eval(operand, locals);
                match op {
                    UnOp::Neg => v.wrapping_neg(),
                    UnOp::BitNot => !v,
                    UnOp::LogNot => i32::from(v == 0),
                }
            }
            Expr::Bin { op, lhs, rhs, .. } => {
                // Short-circuit first.
                match op {
                    BinOp::LogAnd => {
                        return if self.eval(lhs, locals) != 0 {
                            i32::from(self.eval(rhs, locals) != 0)
                        } else {
                            0
                        }
                    }
                    BinOp::LogOr => {
                        return if self.eval(lhs, locals) != 0 {
                            1
                        } else {
                            i32::from(self.eval(rhs, locals) != 0)
                        }
                    }
                    _ => {}
                }
                let a = self.eval(lhs, locals);
                let b = self.eval(rhs, locals);
                match op {
                    BinOp::Add => a.wrapping_add(b),
                    BinOp::Sub => a.wrapping_sub(b),
                    BinOp::Mul => a.wrapping_mul(b),
                    BinOp::Div => a.wrapping_div(b),
                    BinOp::Rem => a.wrapping_rem(b),
                    BinOp::BitAnd => a & b,
                    BinOp::BitOr => a | b,
                    BinOp::BitXor => a ^ b,
                    BinOp::Shl => a.wrapping_shl(b as u32),
                    BinOp::Shr => a.wrapping_shr(b as u32),
                    BinOp::Eq => i32::from(a == b),
                    BinOp::Ne => i32::from(a != b),
                    BinOp::Lt => i32::from(a < b),
                    BinOp::Le => i32::from(a <= b),
                    BinOp::Gt => i32::from(a > b),
                    BinOp::Ge => i32::from(a >= b),
                    BinOp::LogAnd | BinOp::LogOr => unreachable!("handled above"),
                }
            }
        }
    }
}

fn cases() -> u32 {
    if cfg!(debug_assertions) {
        32
    } else {
        192
    }
}

/// One differential case: AST interpretation vs baseline vs one
/// fully-diversified build. Shared by the property test and the promoted
/// named regressions below.
fn assert_case(stmts: &[GStmt], a: i32, b: i32, seed: u64) {
    let source = emit_program(stmts, 4);
    let program = parse(lex(&source).expect("lexes")).expect("parses");
    let expected = AstInterp::new(&program).call("main", &[a, b]);

    let session = Session::from_source("cf", &source);
    let baseline = session.build_with(&BuildConfig::baseline()).unwrap();
    let (exit, _) = run(&baseline, &[a, b], 50_000_000);
    assert_eq!(
        exit.status(),
        Some(expected),
        "baseline mismatch (a={a}, b={b}) on\n{source}"
    );

    let config = BuildConfig::full_diversity(NopStrategy::uniform(0.4), seed);
    let image = session.build_with(&config).unwrap();
    let (exit, _) = run(&image, &[a, b], 50_000_000);
    assert_eq!(
        exit.status(),
        Some(expected),
        "diversified mismatch (a={a}, b={b}, seed={seed}) on\n{source}"
    );
}

/// Promoted from `tests/differential_cf.proptest-regressions` so the case
/// stays covered even if that file is deleted: proptest shrank a past
/// failure to `x0 = (x0 << x0) | ((0 + g) / x0)` with `a = 16, b = 0,
/// seed = 0` — a variable shift count in `cl` clobbered by the spill
/// rewriter allocating `ecx` for the neighbouring division.
#[test]
fn regression_variable_shift_count_feeding_division() {
    use GExpr::{Bin, Const, Global, Var};
    let stmts = [GStmt::Assign(
        0,
        Bin(
            "|",
            Box::new(Bin("<<", Box::new(Var(0)), Box::new(Var(0)))),
            Box::new(Bin(
                "/",
                Box::new(Bin("+", Box::new(Const(0)), Box::new(Global))),
                Box::new(Var(0)),
            )),
        ),
    )];
    assert_case(&stmts, 16, 0, 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    #[test]
    fn control_flow_programs_match_ast_interpretation(
        stmts in prop::collection::vec(gstmt(2), 1..8),
        a in -1000i32..1000,
        b in -1000i32..1000,
        seed in 0u64..3,
    ) {
        assert_case(&stmts, a, b, seed);
    }
}
