//! Binary-level CFG and call-graph recovery over emitted images.
//!
//! Recursive-descent disassembly from the image's entry points
//! (`main` and the `__exit` return trampoline), using the `x86` decoder.
//! Every byte of the text segment ends up in exactly one class of the
//! byte-classification lattice:
//!
//! * **Reachable code** — covered by an instruction on some decoded path
//!   from an entry point.
//! * **Unreachable code** — decodes as instructions but no recovered path
//!   reaches it (dead functions, code behind shift jumps).
//! * **Padding** — a maximal undecoded run consisting solely of NOP-table
//!   identities (block-shift pads, alignment).
//! * **Data** — bytes that fail to decode; never executable on any
//!   recovered path.
//!
//! The recovery is a *may*-underapproximation past unresolved indirect
//! branches (`jmp r`/`call r`): their targets are not enumerated, so code
//! only reachable through them classifies as unreachable. The compiler
//! never emits indirect branches today, making the recovery exact; every
//! indirect branch found is surfaced as a [`Rule::UnresolvedIndirect`]
//! note so the claim stays honest if that changes.

use std::collections::{BTreeMap, BTreeSet};

use pgsd_cc::emit::Image;
use pgsd_x86::nop::NopTable;
use pgsd_x86::{decode, Inst};

use crate::diag::{AnalysisDiag, Loc, Rule};

/// Classification of one text byte. See the module docs for the lattice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ByteClass {
    /// Covered by an instruction reachable from an entry point.
    ReachableCode,
    /// Decodes as instructions, but no recovered path executes it.
    UnreachableCode,
    /// A run of NOP-table identities outside reachable code.
    Padding,
    /// Fails to decode; treated as data.
    Data,
}

impl ByteClass {
    /// Stable lowercase name used in JSON reports and telemetry labels.
    pub fn name(self) -> &'static str {
        match self {
            ByteClass::ReachableCode => "reachable",
            ByteClass::UnreachableCode => "unreachable",
            ByteClass::Padding => "padding",
            ByteClass::Data => "data",
        }
    }
}

/// Byte totals per [`ByteClass`] over a whole image.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ByteCounts {
    /// Bytes classified [`ByteClass::ReachableCode`].
    pub reachable: usize,
    /// Bytes classified [`ByteClass::UnreachableCode`].
    pub unreachable: usize,
    /// Bytes classified [`ByteClass::Padding`].
    pub padding: usize,
    /// Bytes classified [`ByteClass::Data`].
    pub data: usize,
}

/// One recovered basic block: a maximal straight-line run of reachable
/// instructions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BasicBlock {
    /// Address of the first instruction.
    pub start: u32,
    /// Address one past the last instruction's bytes.
    pub end: u32,
    /// Successor block start addresses, deduplicated and sorted.
    pub succs: Vec<u32>,
    /// Number of instructions in the block.
    pub insts: usize,
}

/// Recovered control flow of one function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuncCfg {
    /// Function name from the image's layout table.
    pub name: String,
    /// Layout start address.
    pub start: u32,
    /// Layout end address (exclusive).
    pub end: u32,
    /// Whether any recovered path from an entry point reaches it.
    pub reachable: bool,
    /// Basic blocks sorted by start address; empty when unreachable.
    pub blocks: Vec<BasicBlock>,
    /// Indices (into [`RecoveredCfg::funcs`]) of statically resolved
    /// callees, deduplicated and sorted.
    pub callees: Vec<usize>,
}

/// The whole-image recovery result.
#[derive(Debug, Clone)]
pub struct RecoveredCfg {
    /// Text segment base address.
    pub base: u32,
    /// Per-byte classification, indexed by text offset.
    pub classes: Vec<ByteClass>,
    /// `true` at offsets where a reachable instruction starts (the
    /// *intended* instruction boundaries).
    pub inst_starts: Vec<bool>,
    /// Per-function recovered CFGs, in image layout order.
    pub funcs: Vec<FuncCfg>,
    /// Decoded reachable instructions: address → (length, instruction).
    pub insts: BTreeMap<u32, (usize, Inst)>,
    /// Findings produced during recovery (unresolved indirects, wasted
    /// NOPs, undecodable reachable bytes).
    pub diags: Vec<AnalysisDiag>,
    /// Count of indirect branches whose targets were not enumerated.
    pub unresolved_indirects: usize,
}

impl RecoveredCfg {
    /// The class of the byte at text offset `off` (Data when out of
    /// range).
    pub fn class_at(&self, off: usize) -> ByteClass {
        self.classes.get(off).copied().unwrap_or(ByteClass::Data)
    }

    /// Whether text offset `off` is an intended (reachable) instruction
    /// start.
    pub fn is_inst_start(&self, off: usize) -> bool {
        self.inst_starts.get(off).copied().unwrap_or(false)
    }

    /// Byte totals per class.
    pub fn byte_counts(&self) -> ByteCounts {
        let mut c = ByteCounts::default();
        for cls in &self.classes {
            match cls {
                ByteClass::ReachableCode => c.reachable += 1,
                ByteClass::UnreachableCode => c.unreachable += 1,
                ByteClass::Padding => c.padding += 1,
                ByteClass::Data => c.data += 1,
            }
        }
        c
    }

    /// Total reachable instructions.
    pub fn reachable_insts(&self) -> usize {
        self.insts.len()
    }
}

/// The absolute target of a direct relative branch ending at `next`.
fn rel_target(inst: &Inst, next: u32) -> Option<u32> {
    match *inst {
        Inst::CallRel(r) | Inst::JmpRel(r) | Inst::Jcc(_, r) => Some(next.wrapping_add(r as u32)),
        Inst::JmpRel8(r) | Inst::Jcc8(_, r) => Some(next.wrapping_add(r as i32 as u32)),
        _ => None,
    }
}

/// Recovers the CFG, call graph, and byte classification of `image`.
///
/// Entry points are `image.main_addr` (where execution starts) and
/// `image.exit_addr` (the return trampoline the runtime points `main`'s
/// return address at).
pub fn recover(image: &Image) -> RecoveredCfg {
    let base = image.base;
    let n = image.text.len();
    let mut diags = Vec::new();
    let mut insts: BTreeMap<u32, (usize, Inst)> = BTreeMap::new();
    let mut unresolved_indirects = 0usize;

    // Function lookup by entry address and by containing range.
    let entry_of: BTreeMap<u32, usize> = image
        .funcs
        .iter()
        .enumerate()
        .map(|(i, f)| (f.start, i))
        .collect();
    let func_of = |addr: u32| -> Option<usize> {
        image
            .funcs
            .iter()
            .position(|f| f.start <= addr && addr < f.end)
    };

    let mut reachable = vec![false; image.funcs.len()];
    let mut callees: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); image.funcs.len()];
    // Per-function: branch targets (block leaders) and addresses whose
    // following instruction starts a block.
    let mut leaders: Vec<BTreeSet<u32>> = vec![BTreeSet::new(); image.funcs.len()];
    // Per-function intra-procedural edges (from-instruction, to-address).
    let mut edges: Vec<Vec<(u32, u32)>> = vec![Vec::new(); image.funcs.len()];

    let mut func_queue: Vec<usize> = Vec::new();
    for root in [image.main_addr, image.exit_addr] {
        if let Some(&fi) = entry_of.get(&root) {
            if !reachable[fi] {
                reachable[fi] = true;
                func_queue.push(fi);
            }
        } else {
            diags.push(AnalysisDiag::global(
                Rule::LayoutMismatch,
                crate::diag::Severity::Warning,
                format!("entry point {root:#x} is not a function start"),
            ));
        }
    }

    while let Some(fi) = func_queue.pop() {
        let f = &image.funcs[fi];
        leaders[fi].insert(f.start);
        let mut inst_queue: Vec<u32> = vec![f.start];
        while let Some(addr) = inst_queue.pop() {
            if addr < f.start || addr >= f.end {
                // A direct branch escaping its function's range would be a
                // layout bug; record and stop the path.
                diags.push(AnalysisDiag::error(
                    Rule::BranchTargetRange,
                    Loc::addr(&f.name, addr),
                    "branch target escapes the containing function",
                ));
                continue;
            }
            if insts.contains_key(&addr) {
                continue;
            }
            let off = (addr - base) as usize;
            let d = match decode(&image.text[off..(f.end - base) as usize]) {
                Ok(d) => d,
                Err(e) => {
                    diags.push(AnalysisDiag::error(
                        Rule::Undecodable,
                        Loc::addr(&f.name, addr),
                        format!("reachable bytes fail to decode: {e:?}"),
                    ));
                    continue;
                }
            };
            let Some(inst) = d.known().cloned() else {
                diags.push(AnalysisDiag::warning(
                    Rule::Undecodable,
                    Loc::addr(&f.name, addr),
                    "reachable instruction outside the compiler's model",
                ));
                continue;
            };
            let len = d.len;
            let next = addr.wrapping_add(len as u32);
            insts.insert(addr, (len, inst));

            match inst {
                Inst::Ret | Inst::RetImm(_) | Inst::Hlt => {
                    if next < f.end {
                        leaders[fi].insert(next);
                    }
                }
                Inst::JmpRel(_) | Inst::JmpRel8(_) => {
                    let t = rel_target(&inst, next).expect("relative jump");
                    leaders[fi].insert(t);
                    edges[fi].push((addr, t));
                    inst_queue.push(t);
                    if next < f.end {
                        leaders[fi].insert(next);
                    }
                }
                Inst::Jcc(..) | Inst::Jcc8(..) => {
                    let t = rel_target(&inst, next).expect("relative jcc");
                    leaders[fi].insert(t);
                    edges[fi].push((addr, t));
                    inst_queue.push(t);
                    if next < f.end {
                        leaders[fi].insert(next);
                        edges[fi].push((addr, next));
                        inst_queue.push(next);
                    }
                }
                Inst::CallRel(_) => {
                    let t = rel_target(&inst, next).expect("relative call");
                    match entry_of.get(&t) {
                        Some(&ci) => {
                            callees[fi].insert(ci);
                            if !reachable[ci] {
                                reachable[ci] = true;
                                func_queue.push(ci);
                            }
                        }
                        None => diags.push(AnalysisDiag::error(
                            Rule::BranchTargetRange,
                            Loc::addr(&f.name, addr),
                            format!("call target {t:#x} is not a function entry"),
                        )),
                    }
                    // The callee returns here.
                    if next < f.end {
                        inst_queue.push(next);
                    }
                }
                Inst::JmpR(_) => {
                    unresolved_indirects += 1;
                    diags.push(AnalysisDiag::note(
                        Rule::UnresolvedIndirect,
                        Loc::addr(&f.name, addr),
                        "indirect jump: targets not enumerated, reachability is an \
                         underapproximation past this point",
                    ));
                    if next < f.end {
                        leaders[fi].insert(next);
                    }
                }
                Inst::CallR(_) => {
                    unresolved_indirects += 1;
                    diags.push(AnalysisDiag::note(
                        Rule::UnresolvedIndirect,
                        Loc::addr(&f.name, addr),
                        "indirect call: callee not enumerated in the call graph",
                    ));
                    if next < f.end {
                        inst_queue.push(next);
                    }
                }
                // `int` gates to the runtime and, conservatively, falls
                // through (the `__exit` stub never returns, but its
                // trailing `ret` keeps the image well-formed and is
                // harmless to walk).
                _ => {
                    if next < f.end {
                        inst_queue.push(next);
                    }
                }
            }
        }
    }

    // Byte classification: reachable instruction bytes first.
    let mut classes = vec![ByteClass::Data; n];
    let mut inst_starts = vec![false; n];
    for (&addr, &(len, _)) in &insts {
        let off = (addr - base) as usize;
        inst_starts[off] = true;
        for b in classes.iter_mut().skip(off).take(len) {
            *b = ByteClass::ReachableCode;
        }
    }

    // Gap sweep: classify every maximal unreached run as padding (pure
    // NOP-table identities), unreachable code (decodable), or data. Runs
    // are cut at function starts so findings attribute to the function
    // that owns the bytes.
    let boundaries: BTreeSet<usize> = image
        .funcs
        .iter()
        .map(|f| (f.start - base) as usize)
        .collect();
    let nop_candidates = decoded_nop_candidates();
    let mut off = 0usize;
    while off < n {
        if classes[off] == ByteClass::ReachableCode {
            off += 1;
            continue;
        }
        let run_start = off;
        off += 1;
        while off < n && classes[off] != ByteClass::ReachableCode && !boundaries.contains(&off) {
            off += 1;
        }
        classify_gap(
            image,
            base,
            run_start,
            off,
            &nop_candidates,
            &mut classes,
            &mut diags,
            &func_of,
        );
    }

    // Block partitioning per reachable function.
    let mut funcs = Vec::with_capacity(image.funcs.len());
    for (fi, f) in image.funcs.iter().enumerate() {
        let blocks = if reachable[fi] {
            build_blocks(f.start, f.end, &insts, &leaders[fi], &edges[fi])
        } else {
            Vec::new()
        };
        funcs.push(FuncCfg {
            name: f.name.clone(),
            start: f.start,
            end: f.end,
            reachable: reachable[fi],
            blocks,
            callees: callees[fi].iter().copied().collect(),
        });
    }

    RecoveredCfg {
        base,
        classes,
        inst_starts,
        funcs,
        insts,
        diags,
        unresolved_indirects,
    }
}

/// The decoded instruction forms of the full NOP table (xchg included, so
/// padding recognition is independent of the declared transform config).
fn decoded_nop_candidates() -> Vec<Inst> {
    NopTable::with_xchg()
        .iter()
        .filter_map(|k| decode(k.bytes()).ok().and_then(|d| d.known().cloned()))
        .collect()
}

/// Classifies one maximal unreached byte run `[run_start, run_end)`.
#[allow(clippy::too_many_arguments)]
fn classify_gap(
    image: &Image,
    base: u32,
    run_start: usize,
    run_end: usize,
    nop_candidates: &[Inst],
    classes: &mut [ByteClass],
    diags: &mut Vec<AnalysisDiag>,
    func_of: &dyn Fn(u32) -> Option<usize>,
) {
    // Linear decode with byte-wise resync on failure.
    let mut decoded: Vec<(usize, usize, bool)> = Vec::new(); // (off, len, is_nop)
    let mut all_decoded = true;
    let mut all_nops = true;
    let mut nop_bytes = 0usize;
    let mut p = run_start;
    while p < run_end {
        match decode(&image.text[p..run_end]) {
            Ok(d) if d.known().is_some() => {
                let is_nop = d.known().is_some_and(|inst| nop_candidates.contains(inst));
                if is_nop {
                    nop_bytes += d.len;
                } else {
                    all_nops = false;
                }
                decoded.push((p, d.len, is_nop));
                p += d.len;
            }
            _ => {
                all_decoded = false;
                all_nops = false;
                p += 1;
            }
        }
    }

    if all_decoded && all_nops && !decoded.is_empty() {
        for b in classes.iter_mut().take(run_end).skip(run_start) {
            *b = ByteClass::Padding;
        }
        return;
    }

    for &(off, len, _) in &decoded {
        for b in classes.iter_mut().skip(off).take(len) {
            *b = ByteClass::UnreachableCode;
        }
    }
    // Remaining bytes in the run stay Data.

    let addr = base.wrapping_add(run_start as u32);
    let fname = func_of(addr)
        .map(|i| image.funcs[i].name.clone())
        .unwrap_or_else(|| "<image>".to_string());
    if !decoded.is_empty() {
        diags.push(AnalysisDiag::note(
            Rule::UnreachableCode,
            Loc::addr(&fname, addr),
            format!(
                "{} bytes of unreachable code ({} instructions)",
                decoded.iter().map(|&(_, l, _)| l).sum::<usize>(),
                decoded.len()
            ),
        ));
    }
    if nop_bytes > 0 {
        diags.push(AnalysisDiag::warning(
            Rule::WastedNops,
            Loc::addr(&fname, addr),
            format!("{nop_bytes} NOP bytes inserted into unreachable code"),
        ));
    }
}

/// Partitions a function's reachable instructions into basic blocks.
fn build_blocks(
    start: u32,
    end: u32,
    insts: &BTreeMap<u32, (usize, Inst)>,
    leaders: &BTreeSet<u32>,
    edges: &[(u32, u32)],
) -> Vec<BasicBlock> {
    // Walk the function's reachable instructions in address order,
    // cutting at leaders and after control flow. `term_addr` records the
    // block-ending instruction, if the cut came from one.
    struct Raw {
        start: u32,
        end: u32,
        insts: usize,
        term_addr: Option<u32>,
    }
    let mut raws: Vec<Raw> = Vec::new();
    let mut cur: Option<Raw> = None;
    let mut prev_end: Option<u32> = None;

    for (addr, (len, inst)) in insts.range(start..end) {
        let (addr, len) = (*addr, *len);
        let inst_end = addr.wrapping_add(len as u32);
        let discontinuous = prev_end != Some(addr);
        if leaders.contains(&addr) || discontinuous || cur.is_none() {
            if let Some(r) = cur.take() {
                raws.push(r);
            }
            cur = Some(Raw {
                start: addr,
                end: inst_end,
                insts: 1,
                term_addr: None,
            });
        } else if let Some(r) = cur.as_mut() {
            r.end = inst_end;
            r.insts += 1;
        }
        prev_end = Some(inst_end);

        // Control flow ends the block (calls fall through and stay
        // inside their block).
        let ends_block = matches!(
            inst,
            Inst::Ret
                | Inst::RetImm(_)
                | Inst::Hlt
                | Inst::JmpRel(_)
                | Inst::JmpRel8(_)
                | Inst::JmpR(_)
                | Inst::Jcc(..)
                | Inst::Jcc8(..)
        );
        if ends_block {
            let mut r = cur.take().expect("current block");
            r.term_addr = Some(addr);
            raws.push(r);
            prev_end = None;
        }
    }
    if let Some(r) = cur.take() {
        raws.push(r);
    }

    // Successors: a block cut by a control-flow instruction takes that
    // instruction's recorded edges (branch target and, for conditional
    // branches, fallthrough); a block cut only by a leader falls through
    // to the contiguous next block.
    let leader_set: BTreeSet<u32> = raws.iter().map(|r| r.start).collect();
    let mut out = Vec::with_capacity(raws.len());
    for (w, r) in raws.iter().enumerate() {
        let mut succs: BTreeSet<u32> = BTreeSet::new();
        match r.term_addr {
            Some(t) => {
                for &(from, to) in edges {
                    if from == t && leader_set.contains(&to) {
                        succs.insert(to);
                    }
                }
            }
            None => {
                if let Some(next) = raws.get(w + 1) {
                    if next.start == r.end {
                        succs.insert(next.start);
                    }
                }
            }
        }
        out.push(BasicBlock {
            start: r.start,
            end: r.end,
            succs: succs.into_iter().collect(),
            insts: r.insts,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgsd_cc::driver::compile;

    fn image_of(src: &str) -> Image {
        compile("t", src).expect("compiles")
    }

    #[test]
    fn straight_line_program_is_fully_classified() {
        let img = image_of("int main() { return 41; }");
        let cfg = recover(&img);
        assert_eq!(cfg.classes.len(), img.text.len());
        let c = cfg.byte_counts();
        assert_eq!(
            c.reachable + c.unreachable + c.padding + c.data,
            img.text.len(),
            "every byte classified exactly once"
        );
        assert!(c.reachable > 0);
        let main = cfg
            .funcs
            .iter()
            .find(|f| f.name == "main")
            .expect("main recovered");
        assert!(main.reachable);
        assert!(!main.blocks.is_empty());
    }

    #[test]
    fn branches_split_blocks_and_link_successors() {
        let img = image_of(
            "int main(int n) { int s; s = 0; while (n > 0) { s = s + n; n = n - 1; } return s; }",
        );
        let cfg = recover(&img);
        let main = cfg.funcs.iter().find(|f| f.name == "main").unwrap();
        assert!(main.blocks.len() >= 3, "loop yields multiple blocks");
        // Some block must have two successors (the loop condition).
        assert!(
            main.blocks.iter().any(|b| b.succs.len() == 2),
            "{:?}",
            main.blocks
        );
        // Every successor is a block leader.
        let starts: BTreeSet<u32> = main.blocks.iter().map(|b| b.start).collect();
        for b in &main.blocks {
            for s in &b.succs {
                assert!(starts.contains(s), "succ {s:#x} is not a leader");
            }
        }
    }

    #[test]
    fn call_graph_links_caller_to_callee() {
        let img = image_of("int f(int x) { return x + 1; }\nint main() { return f(1); }");
        let cfg = recover(&img);
        let main_idx = cfg.funcs.iter().position(|f| f.name == "main").unwrap();
        let f_idx = cfg.funcs.iter().position(|f| f.name == "f").unwrap();
        assert!(cfg.funcs[f_idx].reachable, "callee is reachable");
        assert!(
            cfg.funcs[main_idx].callees.contains(&f_idx),
            "call graph edge main -> f"
        );
    }

    #[test]
    fn uncalled_function_is_unreachable() {
        let img = image_of("int dead(int x) { return x * 2; }\nint main() { return 7; }");
        let cfg = recover(&img);
        let dead = cfg.funcs.iter().find(|f| f.name == "dead").unwrap();
        assert!(!dead.reachable);
        // Its bytes classify as unreachable code, not data.
        let s = (dead.start - cfg.base) as usize;
        assert_eq!(cfg.class_at(s), ByteClass::UnreachableCode);
        assert!(cfg
            .diags
            .iter()
            .any(|d| d.rule == Rule::UnreachableCode && d.loc.as_ref().unwrap().func == "dead"));
    }

    #[test]
    fn no_diags_worse_than_note_on_clean_baseline() {
        let img = image_of("int main(int n) { return n + 1; }");
        let cfg = recover(&img);
        for d in &cfg.diags {
            assert!(
                d.severity < crate::diag::Severity::Error,
                "unexpected error on clean build: {d}"
            );
        }
    }
}
