//! `divcheck` — translation validation of diversified variants.
//!
//! Given a **baseline** image and a **diversified** image built from the
//! same source, plus a declaration of which transforms ran, this module
//! statically proves the variant is equivalent to the baseline *modulo
//! exactly those transforms*:
//!
//! * **Inserted bytes** must decode to entries of the declared NOP table,
//!   and each entry is independently proven harmless: it is an
//!   architectural identity ([`Inst::is_identity`]) that neither reads
//!   nor writes EFLAGS or memory, so it cannot clobber live state at any
//!   insertion point.
//! * **Substituted instructions** must fall into the machine-level image
//!   of `subst_pass`'s equivalence classes (`mov r,0` ↔ `xor r,r`,
//!   `mov d,s` ↔ `lea d,[s]` ↔ `push s; pop d`, `add r,i` ↔ `sub r,−i`,
//!   `inc/dec` ↔ `add/sub 1`, `shl r,1` ↔ `add r,r`), with inserted NOPs
//!   permitted between the pattern's instructions (NOP insertion runs
//!   after substitution).
//! * **Block shifting** must show up as exactly one entry jump over a
//!   run of NOP-table padding, and nothing else.
//! * **Register randomization** must be a per-function *bijection* on the
//!   allocatable set (`ebx`/`esi`/`edi`); all other registers must match
//!   identically. Frame save/restore `push`/`pop` of identical
//!   callee-saved registers are matched without constraining the
//!   bijection, since frame lowering uses fixed physical registers even
//!   under randomization.
//! * Everything else — non-NOP instruction counts, opcodes, immediates,
//!   memory-operand shapes, displacements — must match one-for-one, and
//!   every relative branch must target the image of its baseline target
//!   (calls through the function table, jumps through the per-function
//!   instruction correspondence, with landing anywhere in a preceding
//!   NOP run accepted because the run provably falls through).
//!
//! Undiversified functions (the runtime library) must be byte-identical;
//! a structural fallback handles the legal case where address shifts
//! change only relative call displacements.

use std::collections::BTreeMap;

use pgsd_cc::emit::{FuncLayout, Image};
use pgsd_cc::lir::regalloc::ALLOCATABLE;
use pgsd_x86::nop::NopTable;
use pgsd_x86::{decode, AluOp, Body, Inst, Reg, ShiftOp};

use crate::addrmap::{AddrMap, FuncEntry};
use crate::diag::{AnalysisDiag, Loc, Rule, Severity};

/// Which diversifying transforms the variant build declares.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Transforms {
    /// Profile-guided NOP insertion ran.
    pub nops: bool,
    /// Basic-block shifting ran.
    pub shift: bool,
    /// Equivalent-instruction substitution ran.
    pub subst: bool,
    /// Register-allocation randomization ran.
    pub regrand: bool,
    /// The NOP table includes the bus-locking `xchg` candidates.
    pub with_xchg: bool,
}

impl Transforms {
    /// No transforms: the variant must match the baseline exactly
    /// (modulo nothing).
    pub fn none() -> Transforms {
        Transforms::default()
    }
}

/// Statistics from a successful validation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckReport {
    /// Functions compared.
    pub functions: usize,
    /// Directly matched instructions.
    pub matched: u64,
    /// Inserted NOP-table instructions accepted (including shift padding).
    pub inserted_nops: u64,
    /// Substituted instruction groups accepted.
    pub substitutions: u64,
    /// Shift entry jumps accepted.
    pub shift_jumps: u64,
}

/// One decoded instruction at an absolute address.
#[derive(Debug, Clone, Copy)]
struct DInst {
    addr: u32,
    len: usize,
    inst: Inst,
}

impl DInst {
    fn next(&self) -> u32 {
        self.addr.wrapping_add(self.len as u32)
    }
}

/// Candidate register bijection for one function pair.
#[derive(Debug, Clone)]
struct RegMap {
    regrand: bool,
    fwd: [Option<Reg>; 8],
    rev: [Option<Reg>; 8],
}

impl RegMap {
    fn new(regrand: bool) -> RegMap {
        RegMap {
            regrand,
            fwd: [None; 8],
            rev: [None; 8],
        }
    }

    /// Requires baseline register `b` to correspond to variant register
    /// `v`, extending the bijection if consistent.
    fn unify(&mut self, b: Reg, v: Reg) -> bool {
        if !self.regrand || !ALLOCATABLE.contains(&b) {
            return b == v;
        }
        if !ALLOCATABLE.contains(&v) {
            return false;
        }
        match (self.fwd[b.number() as usize], self.rev[v.number() as usize]) {
            (Some(x), _) => x == v,
            (None, Some(_)) => false,
            (None, None) => {
                self.fwd[b.number() as usize] = Some(v);
                self.rev[v.number() as usize] = Some(b);
                true
            }
        }
    }
}

/// Normalizes an instruction so that structural equality ignores exactly
/// the parts a declared transform may change: register names (unified
/// separately through the [`RegMap`]) and relative branch displacements
/// (verified separately through the address correspondence).
fn skeleton(inst: &Inst) -> Inst {
    let s = inst.map_regs(|_| Reg::Eax);
    match s {
        Inst::CallRel(_) => Inst::CallRel(0),
        Inst::JmpRel(_) => Inst::JmpRel(0),
        Inst::JmpRel8(_) => Inst::JmpRel8(0),
        Inst::Jcc(c, _) => Inst::Jcc(c, 0),
        Inst::Jcc8(c, _) => Inst::Jcc8(c, 0),
        other => other,
    }
}

/// The absolute target of a relative branch, with `true` for calls.
fn branch_target(d: &DInst) -> Option<(bool, u32)> {
    match d.inst {
        Inst::CallRel(r) => Some((true, d.next().wrapping_add(r as u32))),
        Inst::JmpRel(r) => Some((false, d.next().wrapping_add(r as u32))),
        Inst::JmpRel8(r) => Some((false, d.next().wrapping_add(r as i32 as u32))),
        Inst::Jcc(_, r) => Some((false, d.next().wrapping_add(r as u32))),
        Inst::Jcc8(_, r) => Some((false, d.next().wrapping_add(r as i32 as u32))),
        _ => None,
    }
}

/// Tries to match baseline instruction `b` against variant instruction
/// `v` modulo the register bijection; returns the extended map.
fn unify_inst(b: &Inst, v: &Inst, pi: &RegMap) -> Option<RegMap> {
    if pi.regrand {
        // Frame save/restore pushes/popss use fixed physical registers
        // even under register randomization; an identical push/pop pair
        // matches without constraining the bijection.
        match (b, v) {
            (Inst::PushR(a), Inst::PushR(c)) | (Inst::PopR(a), Inst::PopR(c)) if a == c => {
                return Some(pi.clone());
            }
            _ => {}
        }
    }
    if skeleton(b) != skeleton(v) {
        return None;
    }
    let (br, vr) = (b.regs(), v.regs());
    debug_assert_eq!(br.len(), vr.len());
    let mut m = pi.clone();
    for (rb, rv) in br.into_iter().zip(vr) {
        if !m.unify(rb, rv) {
            return None;
        }
    }
    Some(m)
}

/// The machine-level image of `subst_pass`'s equivalence classes:
/// alternative instruction sequences (in baseline register space) the
/// variant may legally carry in place of `b`.
fn machine_equivalents(b: &Inst) -> Vec<Vec<Inst>> {
    use Inst::*;
    let esp = Reg::Esp;
    let mut out = Vec::new();
    match *b {
        MovRI(r, 0) if r != esp => out.push(vec![AluRR(AluOp::Xor, r, r)]),
        AluRR(AluOp::Xor, r, s) if r == s => out.push(vec![MovRI(r, 0)]),
        MovRR(d, s) if d != s && d != esp => {
            if s != esp {
                out.push(vec![Lea(d, pgsd_x86::Mem::base_disp(s, 0))]);
            }
            out.push(vec![PushR(s), PopR(d)]);
        }
        Lea(d, m) if m.index.is_none() && m.disp == 0 && d != esp => {
            if let Some(base) = m.base {
                if base != d && base != esp {
                    out.push(vec![MovRR(d, base)]);
                }
            }
        }
        AluRI(AluOp::Add, r, i) if r != esp && i != i32::MIN => {
            out.push(vec![AluRI(AluOp::Sub, r, -i)]);
            if i == 1 {
                out.push(vec![IncR(r)]);
            }
        }
        AluRI(AluOp::Sub, r, i) if r != esp && i != i32::MIN => {
            out.push(vec![AluRI(AluOp::Add, r, -i)]);
            if i == 1 {
                out.push(vec![DecR(r)]);
            }
        }
        IncR(r) if r != esp => out.push(vec![AluRI(AluOp::Add, r, 1)]),
        DecR(r) if r != esp => out.push(vec![AluRI(AluOp::Sub, r, 1)]),
        ShiftRI(ShiftOp::Shl, r, 1) if r != esp => out.push(vec![AluRR(AluOp::Add, r, r)]),
        _ => {}
    }
    out
}

/// The decoded forms of the declared NOP table, each re-proven harmless
/// from its *bytes* (not from the generator's intent).
fn decoded_candidates(table: &NopTable) -> Vec<Inst> {
    table
        .iter()
        .map(|k| {
            let d = decode(k.bytes()).expect("NOP candidate must decode");
            match d.body {
                Body::Known(inst) => {
                    assert!(inst.is_identity(), "NOP candidate {k:?} is not an identity");
                    inst
                }
                Body::Other(_) => panic!("NOP candidate {k:?} decodes outside the model"),
            }
        })
        .collect()
}

/// Validates `variant` against `baseline` given the declared transforms.
///
/// # Errors
///
/// Returns every [`AnalysisDiag`] found; an empty `Ok` report means the
/// variant is proven equivalent modulo the declared transforms.
pub fn check_images(
    baseline: &Image,
    variant: &Image,
    t: &Transforms,
) -> Result<CheckReport, Vec<AnalysisDiag>> {
    check_images_impl(baseline, variant, t, None)
}

/// Like [`check_images`], but also returns the baseline↔variant
/// [`AddrMap`] the structural walk computes as a byproduct — the
/// artifact the provenance ledger persists for crash symbolication.
///
/// # Errors
///
/// Same contract as [`check_images`]; no map is produced for a variant
/// that fails validation.
pub fn check_images_mapped(
    baseline: &Image,
    variant: &Image,
    t: &Transforms,
) -> Result<(CheckReport, AddrMap), Vec<AnalysisDiag>> {
    let mut map = AddrMap::default();
    let report = check_images_impl(baseline, variant, t, Some(&mut map))?;
    Ok((report, map))
}

fn check_images_impl(
    baseline: &Image,
    variant: &Image,
    t: &Transforms,
    mut map: Option<&mut AddrMap>,
) -> Result<CheckReport, Vec<AnalysisDiag>> {
    let mut diags = Vec::new();
    let mut report = CheckReport::default();

    if baseline.funcs.len() != variant.funcs.len() {
        diags.push(AnalysisDiag::global(
            Rule::LayoutMismatch,
            Severity::Error,
            format!(
                "function count differs: baseline {} vs variant {}",
                baseline.funcs.len(),
                variant.funcs.len()
            ),
        ));
        return Err(diags);
    }
    if baseline.base != variant.base {
        diags.push(AnalysisDiag::global(
            Rule::LayoutMismatch,
            Severity::Error,
            "text base address differs",
        ));
    }
    if baseline.data_base != variant.data_base || baseline.data != variant.data {
        diags.push(AnalysisDiag::global(
            Rule::LayoutMismatch,
            Severity::Error,
            "data section differs (diversity must not touch data)",
        ));
    }
    if baseline.num_counters != variant.num_counters {
        diags.push(AnalysisDiag::global(
            Rule::LayoutMismatch,
            Severity::Error,
            "profiling counter count differs",
        ));
    }

    let table = if t.with_xchg {
        NopTable::with_xchg()
    } else {
        NopTable::new()
    };
    let candidates = decoded_candidates(&table);

    for k in 0..baseline.funcs.len() {
        check_function(
            k,
            baseline,
            variant,
            t,
            &candidates,
            &mut report,
            &mut diags,
            map.as_mut().map(|m| &mut m.funcs),
        );
    }

    if diags.iter().any(|d| d.severity == Severity::Error) {
        Err(diags)
    } else {
        Ok(report)
    }
}

fn func_bytes<'a>(image: &'a Image, f: &FuncLayout) -> &'a [u8] {
    let s = (f.start - image.base) as usize;
    let e = (f.end - image.base) as usize;
    &image.text[s..e]
}

fn decode_stream(
    bytes: &[u8],
    start: u32,
    fname: &str,
    diags: &mut Vec<AnalysisDiag>,
) -> Option<Vec<DInst>> {
    let mut out = Vec::new();
    let mut pos = 0usize;
    while pos < bytes.len() {
        let addr = start.wrapping_add(pos as u32);
        match decode(&bytes[pos..]) {
            Ok(d) => match d.body {
                Body::Known(inst) => {
                    out.push(DInst {
                        addr,
                        len: d.len,
                        inst,
                    });
                    pos += d.len;
                }
                Body::Other(o) => {
                    diags.push(AnalysisDiag::error(
                        Rule::Undecodable,
                        Loc::addr(fname, addr),
                        format!("instruction outside the compiler's model: {o:?}"),
                    ));
                    return None;
                }
            },
            Err(e) => {
                diags.push(AnalysisDiag::error(
                    Rule::Undecodable,
                    Loc::addr(fname, addr),
                    format!("undecodable bytes: {e:?}"),
                ));
                return None;
            }
        }
    }
    Some(out)
}

#[allow(clippy::too_many_arguments)]
fn check_function(
    k: usize,
    baseline: &Image,
    variant: &Image,
    t: &Transforms,
    candidates: &[Inst],
    report: &mut CheckReport,
    diags: &mut Vec<AnalysisDiag>,
    map_out: Option<&mut Vec<FuncEntry>>,
) {
    let bl = &baseline.funcs[k];
    let vl = &variant.funcs[k];
    if bl.name != vl.name {
        diags.push(AnalysisDiag::global(
            Rule::LayoutMismatch,
            Severity::Error,
            format!("function {k} renamed: {} vs {}", bl.name, vl.name),
        ));
        return;
    }
    if bl.diversified != vl.diversified {
        diags.push(AnalysisDiag::error(
            Rule::LayoutMismatch,
            Loc::func(&bl.name),
            "diversified flag differs between baseline and variant",
        ));
        return;
    }

    let bb = func_bytes(baseline, bl);
    let vb = func_bytes(variant, vl);

    // Undiversified functions: byte-identical is the common, fast case.
    // Address shifts can legally alter relative call displacements, so
    // fall through to the structural walk with no transforms declared.
    let ft = if bl.diversified {
        *t
    } else {
        Transforms {
            regrand: t.regrand,
            ..Transforms::none()
        }
    };
    if !bl.diversified && bb == vb {
        // Byte-identical: the address map is the identity shifted by the
        // layout delta, recorded as a single linear entry.
        if let Some(m) = map_out {
            m.push(FuncEntry::linear(&bl.name, bl.start, bl.end, vl.start));
        }
        report.functions += 1;
        return;
    }

    let Some(bd) = decode_stream(bb, bl.start, &bl.name, diags) else {
        return;
    };
    let Some(vd) = decode_stream(vb, vl.start, &vl.name, diags) else {
        return;
    };

    let mut pi = RegMap::new(ft.regrand);
    let mut i = 0usize;
    let mut j = 0usize;
    // Start of the current run of stripped NOPs on the variant side, if
    // any: a branch may legally land anywhere inside such a run.
    let mut run_start: Option<u32> = None;
    // Baseline instruction address -> (lo, hi): the variant address of
    // the corresponding instruction (`hi`), extended down to `lo` when a
    // NOP run immediately precedes it.
    let mut addr_map: BTreeMap<u32, (u32, u32)> = BTreeMap::new();
    let mut jumps: Vec<(u32, u32, u32)> = Vec::new();
    let mut calls: Vec<(u32, u32, u32)> = Vec::new();

    // Shift prologue: NOPs (from the NOP pass) may precede the entry
    // jump; the jump's target is checked like any branch to the baseline
    // entry, and the padding behind it is consumed by the main loop.
    if ft.shift {
        while j < vd.len() && candidates.contains(&vd[j].inst) {
            if !ft.nops {
                diags.push(AnalysisDiag::error(
                    Rule::ValidationMismatch,
                    Loc::addr(&vl.name, vd[j].addr),
                    format!("inserted {:?} without declared NOP insertion", vd[j].inst),
                ));
                return;
            }
            report.inserted_nops += 1;
            j += 1;
        }
        match vd.get(j).and_then(branch_target) {
            Some((false, target)) if matches!(vd[j].inst, Inst::JmpRel(_) | Inst::JmpRel8(_)) => {
                jumps.push((vd[j].addr, bl.start, target));
                report.shift_jumps += 1;
                j += 1;
            }
            _ => {
                diags.push(AnalysisDiag::error(
                    Rule::ValidationMismatch,
                    Loc::func(&vl.name),
                    "block shifting declared but entry jump over padding is missing",
                ));
                return;
            }
        }
    }

    loop {
        // 1. Direct match (modulo register bijection and branch widths).
        if i < bd.len() && j < vd.len() {
            if let Some(m) = unify_inst(&bd[i].inst, &vd[j].inst, &pi) {
                pi = m;
                let lo = run_start.take().unwrap_or(vd[j].addr);
                addr_map.insert(bd[i].addr, (lo, vd[j].addr));
                if let Some((is_call, bt)) = branch_target(&bd[i]) {
                    // Skeleton equality guarantees the variant side is the
                    // same branch kind.
                    let (_, vt) = branch_target(&vd[j]).expect("matched branch");
                    if is_call {
                        calls.push((bd[i].addr, bt, vt));
                    } else {
                        jumps.push((bd[i].addr, bt, vt));
                    }
                }
                report.matched += 1;
                i += 1;
                j += 1;
                continue;
            }
        }
        // 2. Inserted NOP-table instruction.
        if j < vd.len() && candidates.contains(&vd[j].inst) {
            let in_pad = ft.shift && i == 0;
            if !ft.nops && !in_pad {
                diags.push(AnalysisDiag::error(
                    Rule::ValidationMismatch,
                    Loc::addr(&vl.name, vd[j].addr),
                    format!("inserted {:?} without declared NOP insertion", vd[j].inst),
                ));
                return;
            }
            run_start.get_or_insert(vd[j].addr);
            report.inserted_nops += 1;
            j += 1;
            continue;
        }
        // 3. Substituted equivalence class.
        if ft.subst && i < bd.len() && j < vd.len() {
            if let Some((nj, m, skipped)) = try_subst(&bd[i].inst, &vd, j, &pi, &ft, candidates) {
                pi = m;
                let lo = run_start.take().unwrap_or(vd[j].addr);
                addr_map.insert(bd[i].addr, (lo, vd[j].addr));
                report.inserted_nops += skipped;
                report.substitutions += 1;
                i += 1;
                j = nj;
                continue;
            }
        }
        // 4. Done or mismatch.
        if i >= bd.len() && j >= vd.len() {
            break;
        }
        let msg = match (bd.get(i), vd.get(j)) {
            (Some(b), Some(v)) => format!(
                "instruction mismatch: baseline {:?} at {:#x} vs variant {:?} at {:#x}",
                b.inst, b.addr, v.inst, v.addr
            ),
            (Some(b), None) => {
                format!(
                    "variant ends early: baseline {:?} at {:#x} unmatched",
                    b.inst, b.addr
                )
            }
            (None, Some(v)) => {
                format!("variant has trailing {:?} at {:#x}", v.inst, v.addr)
            }
            (None, None) => unreachable!(),
        };
        diags.push(AnalysisDiag::error(
            Rule::ValidationMismatch,
            Loc::func(&bl.name),
            msg,
        ));
        return;
    }

    // Branch-target verification. Jumps are intra-function: the baseline
    // target must be a matched baseline address and the variant target
    // must land on the matched variant instruction or inside the NOP run
    // directly before it (the run falls through).
    for (site, bt, vt) in jumps {
        if bt < bl.start || bt >= bl.end.max(bl.start + 1) {
            diags.push(AnalysisDiag::error(
                Rule::BranchRetarget,
                Loc::addr(&bl.name, site),
                format!("jump target {bt:#x} leaves the function"),
            ));
            continue;
        }
        match addr_map.get(&bt) {
            Some(&(lo, hi)) if lo <= vt && vt <= hi => {}
            Some(&(lo, hi)) => diags.push(AnalysisDiag::error(
                Rule::BranchRetarget,
                Loc::addr(&bl.name, site),
                format!(
                    "jump retargeted incorrectly: baseline {bt:#x} maps to \
                     [{lo:#x}, {hi:#x}] but variant jumps to {vt:#x}"
                ),
            )),
            None => diags.push(AnalysisDiag::error(
                Rule::BranchRetarget,
                Loc::addr(&bl.name, site),
                format!("jump target {bt:#x} is not an instruction boundary"),
            )),
        }
    }
    // Calls are inter-function: the baseline target must be a function
    // start, and the variant must call the same function's start.
    for (site, bt, vt) in calls {
        match baseline.funcs.iter().position(|f| f.start == bt) {
            Some(idx) => {
                let want = variant.funcs[idx].start;
                if vt != want {
                    diags.push(AnalysisDiag::error(
                        Rule::BranchRetarget,
                        Loc::addr(&bl.name, site),
                        format!(
                            "call retargeted incorrectly: baseline calls {} at {bt:#x}, \
                             variant should call {want:#x} but calls {vt:#x}",
                            baseline.funcs[idx].name
                        ),
                    ));
                }
            }
            None => diags.push(AnalysisDiag::error(
                Rule::BranchRetarget,
                Loc::addr(&bl.name, site),
                format!("call target {bt:#x} is not a function entry"),
            )),
        }
    }

    if let Some(m) = map_out {
        m.push(FuncEntry::mapped(
            &bl.name,
            (bl.start, bl.end),
            (vl.start, vl.end),
            addr_map.into_iter().map(|(b, (lo, hi))| (b, lo, hi)),
        ));
    }
    report.functions += 1;
}

/// Tries every machine-level equivalent of baseline instruction `b`
/// against the variant stream at `j`, allowing inserted NOPs between (but
/// not before) the pattern's instructions. Returns the next variant
/// index, the extended register map, and the NOPs skipped inside the
/// pattern.
fn try_subst(
    b: &Inst,
    vd: &[DInst],
    j0: usize,
    pi: &RegMap,
    t: &Transforms,
    candidates: &[Inst],
) -> Option<(usize, RegMap, u64)> {
    'alts: for alt in machine_equivalents(b) {
        let mut m = pi.clone();
        let mut j = j0;
        let mut skipped = 0u64;
        for (n, expected) in alt.iter().enumerate() {
            // NOP insertion runs after substitution, so candidates may sit
            // between the instructions of a substituted pattern.
            while n > 0
                && t.nops
                && j < vd.len()
                && unify_inst(expected, &vd[j].inst, &m).is_none()
                && candidates.contains(&vd[j].inst)
            {
                skipped += 1;
                j += 1;
            }
            let Some(v) = vd.get(j) else { continue 'alts };
            let Some(m2) = unify_inst(expected, &v.inst, &m) else {
                continue 'alts;
            };
            m = m2;
            j += 1;
        }
        return Some((j, m, skipped));
    }
    None
}
