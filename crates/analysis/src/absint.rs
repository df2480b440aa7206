//! Abstract interpretation over recovered binary CFGs.
//!
//! Runs two interprocedural-by-summary domains over every reachable
//! function of a [`RecoveredCfg`] (driven by the same worklist core as
//! the LIR EFLAGS liveness, [`crate::dataflow::fixpoint`]):
//!
//! * **Stack height** — `Bottom / Known(bytes) / Top`. Pushes, pops, and
//!   direct `esp` adjustments are tracked exactly; calls are height-
//!   neutral at the call site because every callee is *separately*
//!   verified to return balanced (the per-callee summary is the proof
//!   obligation, discharged when that function is interpreted). A `ret`
//!   on a path with nonzero height is a [`Rule::StackImbalance`] error;
//!   an untrackable height at `ret` is a [`Rule::StackUnbounded`]
//!   warning. The per-function maximum height is the proven stack bound.
//!
//! * **Register value ranges** — an interval per general-purpose
//!   register, with widening at joins that keep growing, used to resolve
//!   store targets: a store through `esp`/`ebp` is a stack write; a
//!   store whose address interval is known and disjoint from the text
//!   segment is a data write; a known interval intersecting text is a
//!   [`Rule::WxViolation`] error (the image is W⊕X by construction, so
//!   any hit is a real finding); an unknown interval is counted as
//!   unresolved ([`Rule::UnresolvedStore`] stays a summary counter, not a
//!   per-store diagnostic, to keep reports readable).

use std::collections::BTreeMap;

use pgsd_cc::emit::Image;
use pgsd_x86::{AluOp, Inst, Mem, Reg};

use crate::cfg::{FuncCfg, RecoveredCfg};
use crate::dataflow::fixpoint;
use crate::diag::{AnalysisDiag, Loc, Rule};

/// How many times a block's input may grow before joins widen.
const WIDEN_AFTER: u32 = 3;

/// Abstract stack height in bytes relative to function entry (0 = only
/// the return address above).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Height {
    /// No path reaches this point yet.
    Bottom,
    /// Every path agrees on this many bytes pushed.
    Known(i64),
    /// Paths disagree or `esp` was overwritten.
    Top,
}

impl Height {
    fn join(self, other: Height) -> Height {
        match (self, other) {
            (Height::Bottom, x) | (x, Height::Bottom) => x,
            (Height::Known(a), Height::Known(b)) if a == b => Height::Known(a),
            _ => Height::Top,
        }
    }

    fn add(self, d: i64) -> Height {
        match self {
            Height::Known(h) => Height::Known(h + d),
            other => other,
        }
    }
}

/// A signed-interval abstraction of one register's value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interval {
    /// Inclusive lower bound.
    pub lo: i64,
    /// Inclusive upper bound.
    pub hi: i64,
}

impl Interval {
    /// The unconstrained interval.
    pub const TOP: Interval = Interval {
        lo: i64::MIN,
        hi: i64::MAX,
    };

    /// A single known value.
    pub fn exact(v: i64) -> Interval {
        Interval { lo: v, hi: v }
    }

    fn is_top(self) -> bool {
        self == Interval::TOP
    }

    fn join(self, other: Interval, widen: bool) -> Interval {
        let grown = Interval {
            lo: self.lo.min(other.lo),
            hi: self.hi.max(other.hi),
        };
        if widen && grown != self {
            Interval {
                lo: if grown.lo < self.lo {
                    i64::MIN
                } else {
                    grown.lo
                },
                hi: if grown.hi > self.hi {
                    i64::MAX
                } else {
                    grown.hi
                },
            }
        } else {
            grown
        }
    }

    fn add(self, d: i64) -> Interval {
        if self.is_top() {
            return self;
        }
        Interval {
            lo: self.lo.saturating_add(d),
            hi: self.hi.saturating_add(d),
        }
    }

    fn add_iv(self, other: Interval) -> Interval {
        if self.is_top() || other.is_top() {
            return Interval::TOP;
        }
        Interval {
            lo: self.lo.saturating_add(other.lo),
            hi: self.hi.saturating_add(other.hi),
        }
    }

    fn sub_iv(self, other: Interval) -> Interval {
        if self.is_top() || other.is_top() {
            return Interval::TOP;
        }
        Interval {
            lo: self.lo.saturating_sub(other.hi),
            hi: self.hi.saturating_sub(other.lo),
        }
    }

    fn scale(self, k: i64) -> Interval {
        if self.is_top() {
            return self;
        }
        let a = self.lo.saturating_mul(k);
        let b = self.hi.saturating_mul(k);
        Interval {
            lo: a.min(b),
            hi: a.max(b),
        }
    }
}

/// Abstract machine state at a program point.
#[derive(Debug, Clone, PartialEq, Eq)]
struct State {
    height: Height,
    regs: [Interval; 8],
}

impl State {
    fn entry() -> State {
        State {
            height: Height::Known(0),
            regs: [Interval::TOP; 8],
        }
    }

    fn bottom() -> State {
        State {
            height: Height::Bottom,
            regs: [Interval::TOP; 8],
        }
    }

    fn join(&self, other: &State, widen: bool) -> State {
        let mut regs = [Interval::TOP; 8];
        for (i, r) in regs.iter_mut().enumerate() {
            *r = self.regs[i].join(other.regs[i], widen);
        }
        State {
            height: self.height.join(other.height),
            regs,
        }
    }

    fn reg(&self, r: Reg) -> Interval {
        self.regs[r.number() as usize]
    }

    fn set_reg(&mut self, r: Reg, v: Interval) {
        if r == Reg::Esp {
            // `esp` writes invalidate the tracked height instead.
            self.height = Height::Top;
        } else {
            self.regs[r.number() as usize] = v;
        }
    }
}

/// Classification of one store's target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StoreTarget {
    Stack,
    Data,
    Text(u32),
    Unresolved,
}

/// Per-function summary proven by the interpreter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuncSummary {
    /// Function name.
    pub name: String,
    /// Maximum stack bytes pushed above the entry frame, when bounded.
    pub stack_bound: Option<u32>,
    /// Whether every path to `ret` returns with a balanced stack.
    pub balanced: bool,
    /// Stores proven to write the stack or the data segment.
    pub checked_stores: usize,
    /// Stores whose target could not be statically resolved.
    pub unresolved_stores: usize,
}

/// Whole-image abstract-interpretation report.
#[derive(Debug, Clone, Default)]
pub struct AbsReport {
    /// Summaries for every reachable function, in image layout order.
    pub funcs: Vec<FuncSummary>,
    /// Findings (stack imbalance, unbounded stacks, W⊕X violations).
    pub diags: Vec<AnalysisDiag>,
    /// Total stores proven safe.
    pub checked_stores: usize,
    /// Total unresolved stores (W⊕X unproven for these).
    pub unresolved_stores: usize,
    /// Total stores proven to write the text segment.
    pub wx_violations: usize,
}

/// Interprets every reachable function of `cfg` and returns the report.
pub fn interpret(image: &Image, cfg: &RecoveredCfg) -> AbsReport {
    let text_range = (image.base, image.base + image.text.len() as u32);
    let mut report = AbsReport::default();
    for f in cfg.funcs.iter().filter(|f| f.reachable) {
        interpret_func(f, cfg, text_range, &mut report);
    }
    report
}

fn interpret_func(f: &FuncCfg, cfg: &RecoveredCfg, text_range: (u32, u32), report: &mut AbsReport) {
    let nb = f.blocks.len();
    if nb == 0 {
        return;
    }
    let index_of: BTreeMap<u32, usize> = f
        .blocks
        .iter()
        .enumerate()
        .map(|(i, b)| (b.start, i))
        .collect();
    let Some(&entry_idx) = index_of.get(&f.start) else {
        return; // entry failed to decode; recovery already diagnosed it
    };

    let mut entry_state: Vec<State> = vec![State::bottom(); nb];
    entry_state[entry_idx] = State::entry();
    let mut join_counts = vec![0u32; nb];

    // Forward fixpoint over block entry states. Stack bound, store
    // classification, and `ret` checks are replayed afterwards from the
    // final states, so the transfer stays side-effect free here.
    fixpoint(nb, [entry_idx], |b| {
        if entry_state[b].height == Height::Bottom {
            return Vec::new(); // not reached yet; revisited when seeded
        }
        let mut out = entry_state[b].clone();
        for (_, _, inst) in block_insts(f, cfg, b) {
            transfer(&inst, &mut out, text_range, None);
        }
        let mut changed = Vec::new();
        for &s in &f.blocks[b].succs {
            let si = index_of[&s];
            // The first state to arrive replaces Bottom outright (its TOP
            // register array is a placeholder, not a lattice bottom).
            let joined = if entry_state[si].height == Height::Bottom {
                out.clone()
            } else {
                join_counts[si] += 1;
                entry_state[si].join(&out, join_counts[si] > WIDEN_AFTER)
            };
            if joined != entry_state[si] {
                entry_state[si] = joined;
                changed.push(si);
            }
        }
        changed
    });

    // Replay with the fixpoint states to collect findings and summaries.
    let mut max_height: Option<i64> = Some(0);
    let mut balanced = true;
    let mut checked = 0usize;
    let mut unresolved = 0usize;
    let mut unbounded_warned = false;
    for (b, entry) in entry_state.iter().enumerate() {
        let mut st = entry.clone();
        if st.height == Height::Bottom {
            continue; // unreached block (e.g. only via unresolved indirect)
        }
        for (addr, _, inst) in block_insts(f, cfg, b) {
            let mut stores = Vec::new();
            transfer(&inst, &mut st, text_range, Some(&mut stores));
            for t in stores {
                match t {
                    StoreTarget::Stack | StoreTarget::Data => checked += 1,
                    StoreTarget::Unresolved => unresolved += 1,
                    StoreTarget::Text(at) => {
                        report.wx_violations += 1;
                        report.diags.push(AnalysisDiag::error(
                            Rule::WxViolation,
                            Loc::addr(&f.name, addr),
                            format!("store may write executable text at {at:#x}"),
                        ));
                    }
                }
            }
            match st.height {
                Height::Known(h) => {
                    if h < 0 {
                        balanced = false;
                        report.diags.push(AnalysisDiag::error(
                            Rule::StackImbalance,
                            Loc::addr(&f.name, addr),
                            format!("stack height {h} dips below the entry frame"),
                        ));
                    }
                    if let Some(m) = max_height.as_mut() {
                        *m = (*m).max(h);
                    }
                }
                Height::Top => max_height = None,
                Height::Bottom => {}
            }
            if matches!(inst, Inst::Ret | Inst::RetImm(_)) {
                match st.height {
                    // `ret` pops the return address from height 0; the
                    // pre-ret height must be exactly 0.
                    Height::Known(h) if h != 0 => {
                        balanced = false;
                        report.diags.push(AnalysisDiag::error(
                            Rule::StackImbalance,
                            Loc::addr(&f.name, addr),
                            format!("ret with {h} bytes still pushed"),
                        ));
                    }
                    Height::Top if !unbounded_warned => {
                        unbounded_warned = true;
                        report.diags.push(AnalysisDiag::warning(
                            Rule::StackUnbounded,
                            Loc::addr(&f.name, addr),
                            "ret reached with untrackable stack height",
                        ));
                    }
                    _ => {}
                }
            }
        }
    }

    report.checked_stores += checked;
    report.unresolved_stores += unresolved;
    report.funcs.push(FuncSummary {
        name: f.name.clone(),
        stack_bound: max_height.map(|m| u32::try_from(m).unwrap_or(u32::MAX)),
        balanced,
        checked_stores: checked,
        unresolved_stores: unresolved,
    });
}

/// The decoded instructions of block `b`, in address order.
fn block_insts<'a>(
    f: &FuncCfg,
    cfg: &'a RecoveredCfg,
    b: usize,
) -> impl Iterator<Item = (u32, usize, Inst)> + 'a {
    let blk = &f.blocks[b];
    cfg.insts
        .range(blk.start..blk.end)
        .map(|(addr, (len, inst))| (*addr, *len, *inst))
}

/// The address interval of a memory operand under `st`.
fn mem_interval(m: &Mem, st: &State) -> Option<Interval> {
    // `esp`/`ebp`-based accesses are stack traffic by construction.
    if m.base == Some(Reg::Esp) || m.base == Some(Reg::Ebp) {
        return None;
    }
    let mut iv = Interval::exact(i64::from(m.disp));
    if let Some(b) = m.base {
        iv = iv.add_iv(st.reg(b));
    }
    if let Some((r, s)) = m.index {
        iv = iv.add_iv(st.reg(r).scale(i64::from(s.factor())));
    }
    Some(iv)
}

/// Classifies a store through `m` against the text segment.
fn classify_store(m: &Mem, st: &State, text_range: (u32, u32)) -> StoreTarget {
    let Some(iv) = mem_interval(m, st) else {
        return StoreTarget::Stack;
    };
    if iv.is_top() || iv.lo == i64::MIN || iv.hi == i64::MAX {
        return StoreTarget::Unresolved;
    }
    let (lo, hi) = (i64::from(text_range.0), i64::from(text_range.1));
    // A 4-byte store starting anywhere in [iv.lo, iv.hi] overlaps text
    // when its window intersects [lo, hi).
    if iv.hi.saturating_add(4) > lo && iv.lo < hi {
        let at = iv.lo.clamp(lo, hi - 1) as u32;
        return StoreTarget::Text(at);
    }
    StoreTarget::Data
}

/// One instruction's abstract transfer. When `stores` is provided, every
/// memory write is classified into it.
fn transfer(
    inst: &Inst,
    st: &mut State,
    text_range: (u32, u32),
    mut stores: Option<&mut Vec<StoreTarget>>,
) {
    let record = |m: &Mem, st: &State, stores: &mut Option<&mut Vec<StoreTarget>>| {
        if let Some(out) = stores.as_mut() {
            out.push(classify_store(m, st, text_range));
        }
    };
    match *inst {
        Inst::MovRI(r, i) => st.set_reg(r, Interval::exact(i64::from(i))),
        Inst::MovRR(d, s) => {
            let v = st.reg(s);
            st.set_reg(d, v);
        }
        Inst::MovRM(d, _) => st.set_reg(d, Interval::TOP),
        Inst::MovMR(ref m, _) | Inst::MovMI(ref m, _) => record(m, st, &mut stores),
        Inst::AluRI(op, r, i) => {
            if r == Reg::Esp {
                match op {
                    AluOp::Sub => st.height = st.height.add(i64::from(i)),
                    AluOp::Add => st.height = st.height.add(-i64::from(i)),
                    AluOp::Cmp => {}
                    _ => st.height = Height::Top,
                }
            } else {
                let v = match op {
                    AluOp::Add => st.reg(r).add(i64::from(i)),
                    AluOp::Sub => st.reg(r).add(-i64::from(i)),
                    AluOp::Cmp => st.reg(r),
                    _ => Interval::TOP,
                };
                st.set_reg(r, v);
            }
        }
        Inst::AluRR(op, r, s) => {
            let v = match op {
                AluOp::Xor if r == s => Interval::exact(0),
                AluOp::Add => st.reg(r).add_iv(st.reg(s)),
                AluOp::Sub => st.reg(r).sub_iv(st.reg(s)),
                AluOp::Cmp => st.reg(r),
                _ => Interval::TOP,
            };
            if op != AluOp::Cmp {
                st.set_reg(r, v);
            }
        }
        Inst::AluRM(op, r, _) => {
            if op != AluOp::Cmp {
                st.set_reg(r, Interval::TOP);
            }
        }
        Inst::AluMR(op, ref m, _) | Inst::AluMI(op, ref m, _) => {
            if op != AluOp::Cmp {
                record(m, st, &mut stores);
            }
        }
        Inst::IncDecM(_, ref m) => record(m, st, &mut stores),
        Inst::TestRR(..) => {}
        Inst::ImulRR(d, _) | Inst::ImulRM(d, _) | Inst::ImulRRI(d, ..) => {
            st.set_reg(d, Interval::TOP);
        }
        Inst::Cdq => st.set_reg(Reg::Edx, Interval::TOP),
        Inst::IdivR(_) => {
            st.set_reg(Reg::Eax, Interval::TOP);
            st.set_reg(Reg::Edx, Interval::TOP);
        }
        Inst::NegR(r) | Inst::NotR(r) => st.set_reg(r, Interval::TOP),
        Inst::IncR(r) => {
            let v = st.reg(r).add(1);
            st.set_reg(r, v);
        }
        Inst::DecR(r) => {
            let v = st.reg(r).add(-1);
            st.set_reg(r, v);
        }
        Inst::ShiftRI(_, r, _) | Inst::ShiftRCl(_, r) => st.set_reg(r, Interval::TOP),
        Inst::PushR(_) | Inst::PushI(_) | Inst::PushM(_) => st.height = st.height.add(4),
        Inst::PopR(r) => {
            st.height = st.height.add(-4);
            st.set_reg(r, Interval::TOP);
        }
        Inst::Lea(d, ref m) => {
            let v = mem_interval(m, st).unwrap_or(Interval::TOP);
            st.set_reg(d, v);
        }
        Inst::XchgRR(a, b) => {
            let (va, vb) = (st.reg(a), st.reg(b));
            st.set_reg(a, vb);
            st.set_reg(b, va);
        }
        // Calls are height-neutral: each callee is separately proven to
        // return balanced. Caller-saved registers are clobbered.
        Inst::CallRel(_) | Inst::CallR(_) => {
            st.set_reg(Reg::Eax, Interval::TOP);
            st.set_reg(Reg::Ecx, Interval::TOP);
            st.set_reg(Reg::Edx, Interval::TOP);
        }
        // The syscall gate returns through `eax`.
        Inst::Int(_) => st.set_reg(Reg::Eax, Interval::TOP),
        Inst::Ret | Inst::RetImm(_) => {}
        Inst::JmpRel(_) | Inst::JmpRel8(_) | Inst::JmpR(_) | Inst::Jcc(..) | Inst::Jcc8(..) => {}
        Inst::Hlt => {}
        Inst::Nop(_) => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfg::recover;
    use pgsd_cc::driver::compile;

    fn report_of(src: &str) -> AbsReport {
        let img = compile("t", src).expect("compiles");
        let cfg = recover(&img);
        interpret(&img, &cfg)
    }

    #[test]
    fn clean_program_has_balanced_bounded_stacks_and_no_errors() {
        let r = report_of(
            "int f(int x) { return x * 3; }\n\
             int main(int n) { int i; int s; s = 0; i = 0;\n\
               while (i < n) { s = s + f(i); i = i + 1; } return s; }",
        );
        assert!(!r.funcs.is_empty());
        for f in &r.funcs {
            assert!(f.balanced, "{} unbalanced", f.name);
            assert!(f.stack_bound.is_some(), "{} unbounded", f.name);
        }
        assert_eq!(r.wx_violations, 0);
        assert!(
            r.diags
                .iter()
                .all(|d| d.severity < crate::diag::Severity::Error),
            "{:?}",
            r.diags
        );
    }

    #[test]
    fn global_stores_resolve_and_prove_wx() {
        let r = report_of("int g;\nint main(int n) { g = n; return g; }");
        assert!(r.checked_stores > 0, "global store should resolve");
        assert_eq!(r.wx_violations, 0);
    }

    #[test]
    fn interval_widening_terminates_on_loops() {
        // A counting loop forces repeated joins with a growing interval;
        // without widening this would iterate 1<<20 times.
        let r =
            report_of("int main() { int i; i = 0; while (i < 1048576) { i = i + 1; } return i; }");
        let main = r.funcs.iter().find(|f| f.name == "main").unwrap();
        assert!(main.balanced);
    }

    #[test]
    fn interval_arithmetic_is_sound() {
        let a = Interval::exact(10).add(5);
        assert_eq!(a, Interval::exact(15));
        let b = Interval { lo: 1, hi: 3 }.add_iv(Interval { lo: 10, hi: 20 });
        assert_eq!(b, Interval { lo: 11, hi: 23 });
        let c = Interval { lo: 1, hi: 3 }.sub_iv(Interval { lo: 10, hi: 20 });
        assert_eq!(c, Interval { lo: -19, hi: -7 });
        let w = Interval::exact(5).join(Interval::exact(9), true);
        assert_eq!(w.hi, i64::MAX, "widening blows the growing bound");
        assert_eq!(w.lo, 5, "stable bound survives widening");
        let t = Interval::TOP.add(4);
        assert!(t.is_top());
    }

    #[test]
    fn height_lattice_joins() {
        assert_eq!(Height::Known(4).join(Height::Known(4)), Height::Known(4));
        assert_eq!(Height::Known(4).join(Height::Known(8)), Height::Top);
        assert_eq!(Height::Bottom.join(Height::Known(4)), Height::Known(4));
        assert_eq!(Height::Top.join(Height::Bottom), Height::Top);
    }
}
