//! The fixed runtime library linked at the front of every image.
//!
//! Two hand-written stubs (`__exit`, `__print`) provide the syscall gate,
//! and a set of MiniC support routines (compiled through the normal
//! pipeline) models the *undiversified C library* of the paper's
//! evaluation: §5.2 attributes the constant tail of surviving gadgets —
//! roughly 40 per binary, independent of diversification parameters — to
//! "the small C library object files that the linker adds to the binary".
//! Because these functions are marked `diversify = false` and are laid out
//! at fixed offsets before any user code, their bytes are identical in
//! every diversified version, reproducing that effect.

use std::sync::OnceLock;

use pgsd_x86::Reg;

use crate::frontend::{lex, parse};
use crate::ir::builder::build;
use crate::ir::passes::optimize;
use crate::lir::frame::lower_frame;
use crate::lir::isel::{select, LowerCtx};
use crate::lir::regalloc::allocate;
use crate::lir::{MAddr, MBlock, MFunction, MInst, MReg, MRhs, MTerm};
use pgsd_telemetry::Telemetry;

/// Syscall number for `exit` (status in `ebx`) — mirrors Linux.
pub const SYS_EXIT: u8 = 1;
/// Syscall number for "print integer" (value in `ebx`) — takes the slot
/// Linux uses for `write`.
pub const SYS_PRINT: u8 = 4;

/// The `int` vector used for syscalls.
pub const SYSCALL_VECTOR: u8 = 0x80;

/// Index of `__exit` in the emitted function list.
pub const EXIT_INDEX: usize = 0;
/// Index of `__print` in the emitted function list.
pub const PRINT_INDEX: usize = 1;

/// MiniC source of the support routines. None of them reference globals
/// (the data section belongs to the user module) and they only call each
/// other, so their lowered call indices stay correct when prepended to any
/// user program.
const FILLER_SOURCE: &str = r#"
// Deliberately ordinary systems-code shapes: loops over buffers,
// comparisons, division helpers — the kind of code crt0/libc contributes.

int __rt_abs(int x) {
    if (x < 0) { return -x; }
    return x;
}

int __rt_min(int a, int b) { if (a < b) { return a; } return b; }
int __rt_max(int a, int b) { if (a > b) { return a; } return b; }

int __rt_clamp(int x, int lo, int hi) {
    if (x < lo) { return lo; }
    if (x > hi) { return hi; }
    return x;
}

// Software divide helper in the spirit of libgcc's __divsi3 wrappers.
int __rt_divmod(int a, int b, int want_mod) {
    if (b == 0) { return 0; }
    int q = a / b;
    int r = a % b;
    if (want_mod != 0) { return r; }
    return q;
}

// Hashing loop (FNV-ish) over synthesized bytes.
int __rt_hash(int seed, int n) {
    int h = 0x1003;
    int i = 0;
    while (i < n) {
        h = (h ^ (seed + i)) * 31;
        i = i + 1;
    }
    return h;
}
"#;

/// Builds the runtime function list: `[__exit, __print, filler…]`, all
/// fully lowered (allocated + framed) and marked non-diversifiable.
///
/// The result is deterministic; callers receive a clone of a cached copy.
pub fn runtime_functions() -> Vec<MFunction> {
    static CACHE: OnceLock<Vec<MFunction>> = OnceLock::new();
    CACHE
        .get_or_init(|| {
            let mut out = vec![exit_stub(), print_stub()];
            out.extend(filler_functions());
            out
        })
        .clone()
}

/// `__exit`: receives the program result in `eax` (main's return value,
/// reached via the return address the loader pushes) and performs the exit
/// syscall with it in `ebx`.
fn exit_stub() -> MFunction {
    MFunction {
        name: "__exit".into(),
        params: 0,
        blocks: vec![MBlock {
            instrs: vec![
                MInst::MovRR {
                    dst: MReg::P(Reg::Ebx),
                    src: MReg::P(Reg::Eax),
                },
                MInst::MovRI {
                    dst: MReg::P(Reg::Eax),
                    imm: i32::from(SYS_EXIT),
                },
                MInst::Int { n: SYSCALL_VECTOR },
            ],
            term: MTerm::Ret, // unreachable; keeps the image well-formed
            ir_block: None,
        }],
        num_vregs: 0,
        slot_words: Vec::new(),
        diversify: false,
        raw: true,
    }
}

/// `__print(value)`: prints a 32-bit integer through the syscall gate,
/// preserving all registers except `eax` (caller-saved anyway).
fn print_stub() -> MFunction {
    MFunction {
        name: "__print".into(),
        params: 1,
        blocks: vec![MBlock {
            instrs: vec![
                MInst::Push {
                    rhs: MRhs::Reg(MReg::P(Reg::Ebx)),
                },
                // After the push, the argument sits at [esp + 8]
                // (saved ebx, return address, arg).
                MInst::Load {
                    dst: MReg::P(Reg::Ebx),
                    addr: MAddr::base_imm(MReg::P(Reg::Esp), 8),
                },
                MInst::MovRI {
                    dst: MReg::P(Reg::Eax),
                    imm: i32::from(SYS_PRINT),
                },
                MInst::Int { n: SYSCALL_VECTOR },
                MInst::Pop {
                    dst: MReg::P(Reg::Ebx),
                },
            ],
            term: MTerm::Ret,
            ir_block: None,
        }],
        num_vregs: 0,
        slot_words: Vec::new(),
        diversify: false,
        raw: true,
    }
}

fn filler_functions() -> Vec<MFunction> {
    let program =
        parse(lex(FILLER_SOURCE).expect("runtime filler lexes")).expect("runtime filler parses");
    let mut module = build("__runtime", &program).expect("runtime filler builds");
    assert!(
        module.globals.is_empty(),
        "runtime filler must not declare globals (data belongs to the user module)"
    );
    optimize(&mut module, &Telemetry::disabled());
    let ctx = LowerCtx {
        print_index: PRINT_INDEX as u32,
        user_func_base: 2, // filler functions follow the two stubs
    };
    module
        .funcs
        .iter()
        .map(|f| {
            let mut mf = select(f, &ctx).expect("runtime filler lowers");
            allocate(&mut mf).expect("runtime filler allocates");
            lower_frame(&mut mf);
            mf.diversify = false;
            mf
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runtime_layout_is_stable() {
        let rt = runtime_functions();
        assert_eq!(rt[EXIT_INDEX].name, "__exit");
        assert_eq!(rt[PRINT_INDEX].name, "__print");
        assert!(rt.len() > 5, "filler routines present");
        assert!(rt.iter().all(|f| !f.diversify));
        // Deterministic across calls.
        assert_eq!(rt, runtime_functions());
    }

    #[test]
    fn stubs_are_raw_and_filler_is_lowered() {
        let rt = runtime_functions();
        assert!(rt[EXIT_INDEX].raw);
        assert!(rt[PRINT_INDEX].raw);
        for f in &rt[2..] {
            assert!(!f.raw);
            for b in &f.blocks {
                for i in &b.instrs {
                    i.for_each_reg(|r, _| {
                        assert!(matches!(r, MReg::P(_)), "unallocated register in runtime");
                    });
                }
            }
        }
    }

    #[test]
    fn filler_has_substance() {
        let rt = runtime_functions();
        let instrs: usize = rt[2..].iter().map(|f| f.num_instrs()).sum();
        assert!(
            instrs > 50,
            "filler should be dozens of instructions, got {instrs}"
        );
    }
}
