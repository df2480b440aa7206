//! The PHP-interpreter stand-in and its benchmark programs.
//!
//! The paper's concrete-attack experiment (§5.2) targets PHP 5.3.16, a
//! large network-facing interpreter, profiled with seven programs from the
//! Computer Language Benchmarks Game. This module provides the analogue:
//!
//! * a stack-based **bytecode VM written in MiniC** (dispatch loop,
//!   variables, an addressable heap, printing), wrapped in a generated
//!   "extension layer" so the compiled binary has interpreter-like bulk;
//! * a Rust-side **bytecode assembler** with labels;
//! * seven **CLBG-flavoured bytecode programs** (binarytrees,
//!   fannkuchredux, mandelbrot, nbody, pidigits, spectralnorm, fasta) that
//!   stress different parts of the VM, used as profiling inputs;
//! * a Rust **reference interpreter** with identical semantics, so tests
//!   can cross-validate the compiled VM against an oracle.
//!
//! Bytecode programs are delivered at run time by poking the `code`
//! global — the binary is the *same* for every profile, as in the paper.

use pgsd_core::driver::Input;

use crate::gen::{generate_program, GenConfig};
use crate::suite::Workload;

/// Maximum bytecode length in (op, arg) pairs.
pub const CODE_CAPACITY: usize = 1024;

/// Bytecode operations of the VM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(i32)]
pub enum Op {
    /// Stop; `vars[0]` is the program result.
    Halt = 0,
    /// Push the immediate argument.
    Push = 1,
    /// Push `vars[arg]`.
    LoadV = 2,
    /// Pop into `vars[arg]`.
    StoreV = 3,
    /// Pop b, pop a, push a+b.
    Add = 4,
    /// Pop b, pop a, push a−b.
    Sub = 5,
    /// Pop b, pop a, push a·b.
    Mul = 6,
    /// Pop b, pop a, push a/b (0 when b = 0, like PHP's warning path).
    Div = 7,
    /// Pop b, pop a, push a mod b (0 when b = 0).
    Mod = 8,
    /// Negate the top of stack.
    Neg = 9,
    /// Pop b, pop a, push (a<b).
    Lt = 10,
    /// Pop b, pop a, push (a==b).
    Eq = 11,
    /// Unconditional jump to pair index `arg`.
    Jmp = 12,
    /// Pop; jump to `arg` when zero.
    Jz = 13,
    /// Pop and print.
    Print = 14,
    /// Pop index, push `heap[index & 4095]`.
    ALoad = 15,
    /// Pop index, pop value, `heap[index & 4095] = value`.
    AStore = 16,
    /// Duplicate the top of stack.
    Dup = 17,
    /// Pop b, pop a, push a&b.
    BAnd = 18,
    /// Pop b, pop a, push a^b.
    BXor = 19,
    /// Pop b, pop a, push a<<(b&31).
    Shl = 20,
    /// Pop b, pop a, push a>>(b&31) (arithmetic).
    Shr = 21,
    /// Swap the two top stack entries.
    Swap = 22,
}

/// A forward-referencable jump label.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Label(usize);

/// Bytecode assembler with labels.
#[derive(Debug, Default)]
pub struct Assembler {
    code: Vec<(i32, i32)>,
    labels: Vec<Option<usize>>,
    fixups: Vec<(usize, Label)>,
}

impl Assembler {
    /// Creates an empty assembler.
    pub fn new() -> Assembler {
        Assembler::default()
    }

    /// Emits an operation with an immediate argument.
    pub fn op(&mut self, op: Op, arg: i32) -> &mut Assembler {
        self.code.push((op as i32, arg));
        self
    }

    /// Emits an argument-less operation.
    pub fn o(&mut self, op: Op) -> &mut Assembler {
        self.op(op, 0)
    }

    /// Creates an unbound label.
    pub fn label(&mut self) -> Label {
        self.labels.push(None);
        Label(self.labels.len() - 1)
    }

    /// Binds `label` to the current position.
    pub fn bind(&mut self, label: Label) -> &mut Assembler {
        self.labels[label.0] = Some(self.code.len());
        self
    }

    /// Emits a jump to `label`.
    pub fn jmp(&mut self, label: Label) -> &mut Assembler {
        self.fixups.push((self.code.len(), label));
        self.op(Op::Jmp, -1)
    }

    /// Emits a jump-if-zero to `label`.
    pub fn jz(&mut self, label: Label) -> &mut Assembler {
        self.fixups.push((self.code.len(), label));
        self.op(Op::Jz, -1)
    }

    /// Finalizes the program as a flat `i32` word list (op, arg pairs).
    ///
    /// # Panics
    ///
    /// Panics on unbound labels or if the program exceeds
    /// [`CODE_CAPACITY`].
    pub fn finish(mut self) -> Vec<i32> {
        for (site, label) in std::mem::take(&mut self.fixups) {
            let target = self.labels[label.0].expect("label bound before finish");
            self.code[site].1 = target as i32;
        }
        assert!(
            self.code.len() <= CODE_CAPACITY,
            "program too long: {}",
            self.code.len()
        );
        self.code
            .into_iter()
            .flat_map(|(op, arg)| [op, arg])
            .collect()
    }
}

/// The MiniC source of the PHP-like interpreter binary.
///
/// `main(len, fuel)` interprets `code[0 .. 2·len]` with a step budget.
pub fn php_source() -> String {
    let mut src = String::from(
        r#"
int code[2048];
int vars[64];
int heap[4096];
int stk[256];

// Leaf helpers, as a real interpreter has: the shift and heap opcodes
// dispatch through them.
int vm_shl(int a, int n) { return a << n; }
int vm_shr(int a, int n) { return a >> n; }
int vm_peek(int i) { return heap[i & 4095]; }
int vm_poke(int i, int v) { heap[i & 4095] = v; return v; }

int vm_run(int len, int fuel) {
    int pc = 0;
    int sp = 0;
    for (int steps = 0; steps < fuel; steps++) {
        if (pc >= len) { break; }
        int op = code[2 * pc];
        int arg = code[2 * pc + 1];
        pc += 1;
        if (op == 0) { break; }
        else if (op == 1) { stk[sp & 255] = arg; sp += 1; }
        else if (op == 2) { stk[sp & 255] = vars[arg & 63]; sp += 1; }
        else if (op == 3) { sp -= 1; vars[arg & 63] = stk[sp & 255]; }
        else if (op == 4) { sp -= 1; stk[(sp - 1) & 255] += stk[sp & 255]; }
        else if (op == 5) { sp -= 1; stk[(sp - 1) & 255] -= stk[sp & 255]; }
        else if (op == 6) { sp -= 1; stk[(sp - 1) & 255] *= stk[sp & 255]; }
        else if (op == 7) {
            sp -= 1;
            int d = stk[sp & 255];
            if (d == 0) { stk[(sp - 1) & 255] = 0; }
            else { stk[(sp - 1) & 255] /= d; }
        }
        else if (op == 8) {
            sp -= 1;
            int d = stk[sp & 255];
            if (d == 0) { stk[(sp - 1) & 255] = 0; }
            else { stk[(sp - 1) & 255] %= d; }
        }
        else if (op == 9) { stk[(sp - 1) & 255] = -stk[(sp - 1) & 255]; }
        else if (op == 10) {
            sp -= 1;
            if (stk[(sp - 1) & 255] < stk[sp & 255]) { stk[(sp - 1) & 255] = 1; }
            else { stk[(sp - 1) & 255] = 0; }
        }
        else if (op == 11) {
            sp -= 1;
            if (stk[(sp - 1) & 255] == stk[sp & 255]) { stk[(sp - 1) & 255] = 1; }
            else { stk[(sp - 1) & 255] = 0; }
        }
        else if (op == 12) { pc = arg; }
        else if (op == 13) { sp -= 1; if (stk[sp & 255] == 0) { pc = arg; } }
        else if (op == 14) { sp -= 1; print(stk[sp & 255]); }
        else if (op == 15) {
            int i = stk[(sp - 1) & 255];
            stk[(sp - 1) & 255] = vm_peek(i);
        }
        else if (op == 16) {
            sp -= 2;
            vm_poke(stk[(sp + 1) & 255], stk[sp & 255]);
        }
        else if (op == 17) { stk[sp & 255] = stk[(sp - 1) & 255]; sp += 1; }
        else if (op == 18) { sp -= 1; stk[(sp - 1) & 255] &= stk[sp & 255]; }
        else if (op == 19) { sp -= 1; stk[(sp - 1) & 255] ^= stk[sp & 255]; }
        else if (op == 20) {
            sp -= 1;
            stk[(sp - 1) & 255] = vm_shl(stk[(sp - 1) & 255], stk[sp & 255] & 31);
        }
        else if (op == 21) {
            sp -= 1;
            stk[(sp - 1) & 255] = vm_shr(stk[(sp - 1) & 255], stk[sp & 255] & 31);
        }
        else if (op == 22) {
            int t = stk[(sp - 1) & 255];
            stk[(sp - 1) & 255] = stk[(sp - 2) & 255];
            stk[(sp - 2) & 255] = t;
        }
    }
    return vars[0];
}

int main(int len, int fuel) {
    return vm_run(len, fuel);
}
"#,
    );
    // Interpreter binaries are big: emulate PHP's extension surface with a
    // generated layer (never executed by the benchmarks, but very much
    // present in .text — where the attacker hunts for gadgets).
    let ext = generate_program(&GenConfig {
        functions: 220,
        seed: 5316,
        active_per_iter: 12,
    })
    .replace("int main(int n) {", "int php_ext_gate(int n) {")
    .replace("tab[", "ext_tab[")
    .replace("acc_g", "ext_acc");
    src.push_str(&ext);
    src
}

/// A named benchmark bytecode program.
#[derive(Debug, Clone)]
pub struct BytecodeProgram {
    /// CLBG benchmark name.
    pub name: &'static str,
    /// Flattened (op, arg) words.
    pub words: Vec<i32>,
}

impl BytecodeProgram {
    /// Length in (op, arg) pairs — the VM's `len` argument.
    pub fn pairs(&self) -> i32 {
        (self.words.len() / 2) as i32
    }

    /// The [`Input`] that runs this program on the VM image with the
    /// given step budget.
    pub fn input(&self, fuel: i32) -> Input {
        Input::args(&[self.pairs(), fuel]).poke("code", &self.words)
    }
}

/// The seven Computer Language Benchmarks Game programs (paper §5.2),
/// expressed in VM bytecode. Each stresses a different interpreter area:
/// arithmetic, the heap, branches, loops.
pub fn clbg_programs() -> Vec<BytecodeProgram> {
    vec![
        binarytrees(),
        fannkuchredux(),
        mandelbrot(),
        nbody(),
        pidigits(),
        spectralnorm(),
        fasta(),
    ]
}

/// Looks up a CLBG program by name.
pub fn clbg_by_name(name: &str) -> Option<BytecodeProgram> {
    clbg_programs().into_iter().find(|p| p.name == name)
}

/// The PHP-like VM as a [`Workload`] (profiled with `fasta` by default).
pub fn php_workload() -> Workload {
    let fasta = clbg_by_name("fasta").expect("fasta exists");
    Workload {
        name: "php",
        description: "PHP-like bytecode interpreter with a generated extension layer",
        source: php_source(),
        train: vec![fasta.input(120_000)],
        reference: fasta.input(1_200_000),
    }
}

// --- the seven benchmark programs -------------------------------------

// Register conventions: v0 = result, v1..v9 scratch.

/// Tree-checksum loop: models binarytrees' allocate/walk pattern with
/// heap writes and reads at power-of-two strides.
fn binarytrees() -> BytecodeProgram {
    let mut a = Assembler::new();
    // v1 = node counter, v2 = checksum, v3 = depth stride
    a.op(Op::Push, 0).op(Op::StoreV, 2);
    a.op(Op::Push, 1).op(Op::StoreV, 1);
    let loop_top = a.label();
    let done = a.label();
    a.bind(loop_top);
    // while (v1 < 600)
    a.op(Op::LoadV, 1).op(Op::Push, 600).o(Op::Lt).jz(done);
    // heap[v1] = v1*2+1  (build)
    a.op(Op::LoadV, 1)
        .op(Op::Push, 2)
        .o(Op::Mul)
        .op(Op::Push, 1)
        .o(Op::Add);
    a.op(Op::LoadV, 1).o(Op::AStore);
    // checksum += heap[v1] ^ heap[v1/2]
    a.op(Op::LoadV, 1).o(Op::ALoad);
    a.op(Op::LoadV, 1).op(Op::Push, 2).o(Op::Div).o(Op::ALoad);
    a.o(Op::BXor);
    a.op(Op::LoadV, 2).o(Op::Add).op(Op::StoreV, 2);
    // v1 += 1
    a.op(Op::LoadV, 1)
        .op(Op::Push, 1)
        .o(Op::Add)
        .op(Op::StoreV, 1);
    a.jmp(loop_top);
    a.bind(done);
    a.op(Op::LoadV, 2).op(Op::StoreV, 0);
    a.o(Op::Halt);
    BytecodeProgram {
        name: "binarytrees",
        words: a.finish(),
    }
}

/// Permutation flipping on an 8-element heap prefix.
fn fannkuchredux() -> BytecodeProgram {
    let mut a = Assembler::new();
    // init heap[0..8] = 1..8 rotated by v1 each round
    a.op(Op::Push, 0).op(Op::StoreV, 2); // flips total
    a.op(Op::Push, 0).op(Op::StoreV, 1); // round
    let round_top = a.label();
    let rounds_done = a.label();
    a.bind(round_top);
    a.op(Op::LoadV, 1)
        .op(Op::Push, 120)
        .o(Op::Lt)
        .jz(rounds_done);
    // fill: heap[i] = ((i + round) % 8) + 1
    a.op(Op::Push, 0).op(Op::StoreV, 3);
    let fill_top = a.label();
    let fill_done = a.label();
    a.bind(fill_top);
    a.op(Op::LoadV, 3).op(Op::Push, 8).o(Op::Lt).jz(fill_done);
    a.op(Op::LoadV, 3)
        .op(Op::LoadV, 1)
        .o(Op::Add)
        .op(Op::Push, 8)
        .o(Op::Mod)
        .op(Op::Push, 1)
        .o(Op::Add);
    a.op(Op::LoadV, 3).o(Op::AStore);
    a.op(Op::LoadV, 3)
        .op(Op::Push, 1)
        .o(Op::Add)
        .op(Op::StoreV, 3);
    a.jmp(fill_top);
    a.bind(fill_done);
    // flip until heap[0] == 1: reverse prefix of length heap[0]
    let flip_top = a.label();
    let flip_done = a.label();
    a.bind(flip_top);
    a.op(Op::Push, 0).o(Op::ALoad).op(Op::Push, 1).o(Op::Eq);
    let keep = a.label();
    a.jz(keep);
    a.jmp(flip_done);
    a.bind(keep);
    // swap heap[0] and heap[heap[0]-1]; count a flip
    a.op(Op::Push, 0).o(Op::ALoad).op(Op::StoreV, 4); // k = heap[0]
    a.op(Op::LoadV, 4).op(Op::Push, 1).o(Op::Sub).o(Op::ALoad); // heap[k-1]
    a.op(Op::Push, 0).o(Op::ALoad); // heap[0]
    a.op(Op::LoadV, 4).op(Op::Push, 1).o(Op::Sub).o(Op::AStore); // heap[k-1]=heap[0]
    a.op(Op::Push, 0).o(Op::AStore); // heap[0] = old heap[k-1]
    a.op(Op::LoadV, 2)
        .op(Op::Push, 1)
        .o(Op::Add)
        .op(Op::StoreV, 2);
    a.jmp(flip_top);
    a.bind(flip_done);
    a.op(Op::LoadV, 1)
        .op(Op::Push, 1)
        .o(Op::Add)
        .op(Op::StoreV, 1);
    a.jmp(round_top);
    a.bind(rounds_done);
    a.op(Op::LoadV, 2).op(Op::StoreV, 0);
    a.o(Op::Halt);
    BytecodeProgram {
        name: "fannkuchredux",
        words: a.finish(),
    }
}

/// Fixed-point (scale 64) escape-time iteration over a small grid.
fn mandelbrot() -> BytecodeProgram {
    let mut a = Assembler::new();
    a.op(Op::Push, 0).op(Op::StoreV, 0); // inside-count
    a.op(Op::Push, 0).op(Op::StoreV, 1); // pixel
    let px_top = a.label();
    let px_done = a.label();
    a.bind(px_top);
    a.op(Op::LoadV, 1).op(Op::Push, 400).o(Op::Lt).jz(px_done);
    // cx = (pixel % 20) * 12 - 128 ; cy = (pixel / 20) * 12 - 120  (scale 64)
    a.op(Op::LoadV, 1)
        .op(Op::Push, 20)
        .o(Op::Mod)
        .op(Op::Push, 12)
        .o(Op::Mul)
        .op(Op::Push, 128)
        .o(Op::Sub)
        .op(Op::StoreV, 2);
    a.op(Op::LoadV, 1)
        .op(Op::Push, 20)
        .o(Op::Div)
        .op(Op::Push, 12)
        .o(Op::Mul)
        .op(Op::Push, 120)
        .o(Op::Sub)
        .op(Op::StoreV, 3);
    // z = 0
    a.op(Op::Push, 0)
        .op(Op::StoreV, 4)
        .op(Op::Push, 0)
        .op(Op::StoreV, 5);
    a.op(Op::Push, 0).op(Op::StoreV, 6); // iter
    let it_top = a.label();
    let it_done = a.label();
    a.bind(it_top);
    a.op(Op::LoadV, 6).op(Op::Push, 24).o(Op::Lt).jz(it_done);
    // zx2 = zx*zx/64, zy2 = zy*zy/64; escape if zx2+zy2 > 256
    a.op(Op::LoadV, 4)
        .op(Op::LoadV, 4)
        .o(Op::Mul)
        .op(Op::Push, 64)
        .o(Op::Div)
        .op(Op::StoreV, 7);
    a.op(Op::LoadV, 5)
        .op(Op::LoadV, 5)
        .o(Op::Mul)
        .op(Op::Push, 64)
        .o(Op::Div)
        .op(Op::StoreV, 8);
    a.op(Op::Push, 256)
        .op(Op::LoadV, 7)
        .op(Op::LoadV, 8)
        .o(Op::Add)
        .o(Op::Lt);
    let no_escape = a.label();
    a.jz(no_escape);
    a.jmp(it_done);
    a.bind(no_escape);
    // zy = 2*zx*zy/64 + cy ; zx = zx2 - zy2 + cx
    a.op(Op::LoadV, 4)
        .op(Op::LoadV, 5)
        .o(Op::Mul)
        .op(Op::Push, 32)
        .o(Op::Div)
        .op(Op::LoadV, 3)
        .o(Op::Add)
        .op(Op::StoreV, 5);
    a.op(Op::LoadV, 7)
        .op(Op::LoadV, 8)
        .o(Op::Sub)
        .op(Op::LoadV, 2)
        .o(Op::Add)
        .op(Op::StoreV, 4);
    a.op(Op::LoadV, 6)
        .op(Op::Push, 1)
        .o(Op::Add)
        .op(Op::StoreV, 6);
    a.jmp(it_top);
    a.bind(it_done);
    // count iterations
    a.op(Op::LoadV, 0)
        .op(Op::LoadV, 6)
        .o(Op::Add)
        .op(Op::StoreV, 0);
    a.op(Op::LoadV, 1)
        .op(Op::Push, 1)
        .o(Op::Add)
        .op(Op::StoreV, 1);
    a.jmp(px_top);
    a.bind(px_done);
    a.o(Op::Halt);
    BytecodeProgram {
        name: "mandelbrot",
        words: a.finish(),
    }
}

/// Two-body fixed-point orbit integration.
fn nbody() -> BytecodeProgram {
    let mut a = Assembler::new();
    // v1=x, v2=y (position), v3=vx, v4=vy, scale 256
    a.op(Op::Push, 2560).op(Op::StoreV, 1);
    a.op(Op::Push, 0).op(Op::StoreV, 2);
    a.op(Op::Push, 0).op(Op::StoreV, 3);
    a.op(Op::Push, 40).op(Op::StoreV, 4);
    a.op(Op::Push, 0).op(Op::StoreV, 5); // step
    let top = a.label();
    let done = a.label();
    a.bind(top);
    a.op(Op::LoadV, 5).op(Op::Push, 900).o(Op::Lt).jz(done);
    // r2 = (x*x + y*y)/256 + 16
    a.op(Op::LoadV, 1).op(Op::LoadV, 1).o(Op::Mul);
    a.op(Op::LoadV, 2).op(Op::LoadV, 2).o(Op::Mul);
    a.o(Op::Add)
        .op(Op::Push, 256)
        .o(Op::Div)
        .op(Op::Push, 16)
        .o(Op::Add)
        .op(Op::StoreV, 6);
    // vx -= x*3000/r2/16 ; vy -= y*3000/r2/16
    a.op(Op::LoadV, 1)
        .op(Op::Push, 3000)
        .o(Op::Mul)
        .op(Op::LoadV, 6)
        .o(Op::Div)
        .op(Op::Push, 16)
        .o(Op::Div);
    a.op(Op::LoadV, 3).o(Op::Swap).o(Op::Sub).op(Op::StoreV, 3);
    a.op(Op::LoadV, 2)
        .op(Op::Push, 3000)
        .o(Op::Mul)
        .op(Op::LoadV, 6)
        .o(Op::Div)
        .op(Op::Push, 16)
        .o(Op::Div);
    a.op(Op::LoadV, 4).o(Op::Swap).o(Op::Sub).op(Op::StoreV, 4);
    // x += vx/4 ; y += vy/4
    a.op(Op::LoadV, 1)
        .op(Op::LoadV, 3)
        .op(Op::Push, 4)
        .o(Op::Div)
        .o(Op::Add)
        .op(Op::StoreV, 1);
    a.op(Op::LoadV, 2)
        .op(Op::LoadV, 4)
        .op(Op::Push, 4)
        .o(Op::Div)
        .o(Op::Add)
        .op(Op::StoreV, 2);
    a.op(Op::LoadV, 5)
        .op(Op::Push, 1)
        .o(Op::Add)
        .op(Op::StoreV, 5);
    a.jmp(top);
    a.bind(done);
    // energy-ish checksum
    a.op(Op::LoadV, 1)
        .op(Op::LoadV, 2)
        .o(Op::BXor)
        .op(Op::LoadV, 3)
        .o(Op::Add)
        .op(Op::LoadV, 4)
        .o(Op::BXor)
        .op(Op::StoreV, 0);
    a.o(Op::Halt);
    BytecodeProgram {
        name: "nbody",
        words: a.finish(),
    }
}

/// Spigot-flavoured digit production with long division chains.
fn pidigits() -> BytecodeProgram {
    let mut a = Assembler::new();
    a.op(Op::Push, 1).op(Op::StoreV, 1); // numerator-ish
    a.op(Op::Push, 1).op(Op::StoreV, 2); // denominator-ish
    a.op(Op::Push, 0).op(Op::StoreV, 0); // digit checksum
    a.op(Op::Push, 0).op(Op::StoreV, 3); // produced
    let top = a.label();
    let done = a.label();
    a.bind(top);
    a.op(Op::LoadV, 3).op(Op::Push, 700).o(Op::Lt).jz(done);
    // v1 = v1*10 + v3 ; v2 = v2*3 + 1 ; digit = v1 / v2 % 10
    a.op(Op::LoadV, 1)
        .op(Op::Push, 10)
        .o(Op::Mul)
        .op(Op::LoadV, 3)
        .o(Op::Add)
        .op(Op::Push, 99991)
        .o(Op::Mod)
        .op(Op::StoreV, 1);
    a.op(Op::LoadV, 2)
        .op(Op::Push, 3)
        .o(Op::Mul)
        .op(Op::Push, 1)
        .o(Op::Add)
        .op(Op::Push, 9973)
        .o(Op::Mod)
        .op(Op::Push, 1)
        .o(Op::Add)
        .op(Op::StoreV, 2);
    a.op(Op::LoadV, 1)
        .op(Op::LoadV, 2)
        .o(Op::Div)
        .op(Op::Push, 10)
        .o(Op::Mod)
        .op(Op::StoreV, 4);
    // checksum = checksum*10 + digit (mod large)
    a.op(Op::LoadV, 0)
        .op(Op::Push, 10)
        .o(Op::Mul)
        .op(Op::LoadV, 4)
        .o(Op::Add)
        .op(Op::Push, 1000000007)
        .o(Op::Mod)
        .op(Op::StoreV, 0);
    a.op(Op::LoadV, 3)
        .op(Op::Push, 1)
        .o(Op::Add)
        .op(Op::StoreV, 3);
    a.jmp(top);
    a.bind(done);
    a.o(Op::Halt);
    BytecodeProgram {
        name: "pidigits",
        words: a.finish(),
    }
}

/// Nested-loop fixed-point matrix-free norm estimation.
fn spectralnorm() -> BytecodeProgram {
    let mut a = Assembler::new();
    a.op(Op::Push, 0).op(Op::StoreV, 0);
    a.op(Op::Push, 0).op(Op::StoreV, 1); // i
    let i_top = a.label();
    let i_done = a.label();
    a.bind(i_top);
    a.op(Op::LoadV, 1).op(Op::Push, 40).o(Op::Lt).jz(i_done);
    a.op(Op::Push, 0).op(Op::StoreV, 2); // j
    let j_top = a.label();
    let j_done = a.label();
    a.bind(j_top);
    a.op(Op::LoadV, 2).op(Op::Push, 40).o(Op::Lt).jz(j_done);
    // a(i,j) = 65536 / ((i+j)(i+j+1)/2 + i + 1)
    a.op(Op::LoadV, 1)
        .op(Op::LoadV, 2)
        .o(Op::Add)
        .op(Op::StoreV, 3);
    a.op(Op::LoadV, 3)
        .op(Op::LoadV, 3)
        .op(Op::Push, 1)
        .o(Op::Add)
        .o(Op::Mul)
        .op(Op::Push, 2)
        .o(Op::Div)
        .op(Op::LoadV, 1)
        .o(Op::Add)
        .op(Op::Push, 1)
        .o(Op::Add)
        .op(Op::StoreV, 4);
    a.op(Op::Push, 65536).op(Op::LoadV, 4).o(Op::Div);
    a.op(Op::LoadV, 0).o(Op::Add).op(Op::StoreV, 0);
    a.op(Op::LoadV, 2)
        .op(Op::Push, 1)
        .o(Op::Add)
        .op(Op::StoreV, 2);
    a.jmp(j_top);
    a.bind(j_done);
    a.op(Op::LoadV, 1)
        .op(Op::Push, 1)
        .o(Op::Add)
        .op(Op::StoreV, 1);
    a.jmp(i_top);
    a.bind(i_done);
    a.o(Op::Halt);
    BytecodeProgram {
        name: "spectralnorm",
        words: a.finish(),
    }
}

/// LCG-driven sequence generation with cumulative-table selection.
fn fasta() -> BytecodeProgram {
    let mut a = Assembler::new();
    a.op(Op::Push, 42).op(Op::StoreV, 1); // seed
    a.op(Op::Push, 0).op(Op::StoreV, 0);
    a.op(Op::Push, 0).op(Op::StoreV, 2); // produced
    let top = a.label();
    let done = a.label();
    a.bind(top);
    a.op(Op::LoadV, 2).op(Op::Push, 1500).o(Op::Lt).jz(done);
    // seed = (seed*3877 + 29573) % 139968 ; r = seed % 64
    a.op(Op::LoadV, 1)
        .op(Op::Push, 3877)
        .o(Op::Mul)
        .op(Op::Push, 29573)
        .o(Op::Add)
        .op(Op::Push, 139968)
        .o(Op::Mod)
        .op(Op::StoreV, 1);
    a.op(Op::LoadV, 1)
        .op(Op::Push, 64)
        .o(Op::Mod)
        .op(Op::StoreV, 3);
    // select symbol: if r < 20 s=1 elif r<40 s=2 elif r<55 s=3 else s=4
    let s2 = a.label();
    let s3 = a.label();
    let s4 = a.label();
    let sel_done = a.label();
    a.op(Op::LoadV, 3).op(Op::Push, 20).o(Op::Lt).jz(s2);
    a.op(Op::Push, 1).op(Op::StoreV, 4).jmp(sel_done);
    a.bind(s2);
    a.op(Op::LoadV, 3).op(Op::Push, 40).o(Op::Lt).jz(s3);
    a.op(Op::Push, 2).op(Op::StoreV, 4).jmp(sel_done);
    a.bind(s3);
    a.op(Op::LoadV, 3).op(Op::Push, 55).o(Op::Lt).jz(s4);
    a.op(Op::Push, 3).op(Op::StoreV, 4).jmp(sel_done);
    a.bind(s4);
    a.op(Op::Push, 4).op(Op::StoreV, 4);
    a.bind(sel_done);
    // histogram in heap + rolling checksum
    a.op(Op::LoadV, 4)
        .o(Op::Dup)
        .o(Op::ALoad)
        .op(Op::Push, 1)
        .o(Op::Add)
        .o(Op::Swap)
        .o(Op::AStore);
    a.op(Op::LoadV, 0)
        .op(Op::Push, 31)
        .o(Op::Mul)
        .op(Op::LoadV, 4)
        .o(Op::Add)
        .op(Op::Push, 1000000007)
        .o(Op::Mod)
        .op(Op::StoreV, 0);
    a.op(Op::LoadV, 2)
        .op(Op::Push, 1)
        .o(Op::Add)
        .op(Op::StoreV, 2);
    a.jmp(top);
    a.bind(done);
    a.o(Op::Halt);
    BytecodeProgram {
        name: "fasta",
        words: a.finish(),
    }
}

/// Reference interpreter with semantics identical to the MiniC VM, used
/// as a test oracle.
pub fn interpret_reference(words: &[i32], fuel: i32) -> (i32, Vec<i32>) {
    let len = (words.len() / 2) as i32;
    let mut vars = [0i32; 64];
    let mut heap = vec![0i32; 4096];
    let mut stk = [0i32; 256];
    let mut output = Vec::new();
    let mut pc: i32 = 0;
    let mut sp: i32 = 0;
    let idx = |v: i32| (v & 255) as usize;
    for _ in 0..fuel {
        if pc >= len {
            break;
        }
        let op = words[(2 * pc) as usize];
        let arg = words[(2 * pc + 1) as usize];
        pc += 1;
        match op {
            0 => break,
            1 => {
                stk[idx(sp)] = arg;
                sp += 1;
            }
            2 => {
                stk[idx(sp)] = vars[(arg & 63) as usize];
                sp += 1;
            }
            3 => {
                sp -= 1;
                vars[(arg & 63) as usize] = stk[idx(sp)];
            }
            4..=8 | 10 | 11 | 18..=21 => {
                sp -= 1;
                let b = stk[idx(sp)];
                let a = stk[idx(sp - 1)];
                stk[idx(sp - 1)] = match op {
                    4 => a.wrapping_add(b),
                    5 => a.wrapping_sub(b),
                    6 => a.wrapping_mul(b),
                    7 => {
                        if b == 0 {
                            0
                        } else {
                            a.wrapping_div(b)
                        }
                    }
                    8 => {
                        if b == 0 {
                            0
                        } else {
                            a.wrapping_rem(b)
                        }
                    }
                    10 => i32::from(a < b),
                    11 => i32::from(a == b),
                    18 => a & b,
                    19 => a ^ b,
                    20 => a.wrapping_shl((b & 31) as u32),
                    21 => a.wrapping_shr((b & 31) as u32),
                    _ => unreachable!(),
                };
            }
            9 => stk[idx(sp - 1)] = stk[idx(sp - 1)].wrapping_neg(),
            12 => pc = arg,
            13 => {
                sp -= 1;
                if stk[idx(sp)] == 0 {
                    pc = arg;
                }
            }
            14 => {
                sp -= 1;
                output.push(stk[idx(sp)]);
            }
            15 => {
                let i = stk[idx(sp - 1)];
                stk[idx(sp - 1)] = heap[(i & 4095) as usize];
            }
            16 => {
                sp -= 2;
                heap[(stk[idx(sp + 1)] & 4095) as usize] = stk[idx(sp)];
            }
            17 => {
                stk[idx(sp)] = stk[idx(sp - 1)];
                sp += 1;
            }
            22 => {
                stk.swap(idx(sp - 1), idx(sp - 2));
            }
            _ => break,
        }
    }
    (vars[0], output)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgsd_core::driver::DEFAULT_GAS;
    use pgsd_core::Session;

    #[test]
    fn all_seven_programs_exist_and_fit() {
        let progs = clbg_programs();
        assert_eq!(progs.len(), 7);
        for p in &progs {
            assert!(p.words.len() / 2 <= CODE_CAPACITY, "{} too long", p.name);
            assert!(p.words.len() > 20, "{} suspiciously small", p.name);
        }
    }

    #[test]
    fn reference_interpreter_terminates_on_all() {
        for p in clbg_programs() {
            let (result, _) = interpret_reference(&p.words, 2_000_000);
            // Every benchmark should produce a nonzero checksum.
            assert_ne!(result, 0, "{} produced 0 — did it run?", p.name);
        }
    }

    #[test]
    fn compiled_vm_matches_reference_on_every_benchmark() {
        let session = Session::from_source("php", &php_source());
        // Debug-mode emulation is ~50× slower; a reduced step budget still
        // exercises every opcode (the fuel cap is part of the VM
        // semantics, so the oracle agrees at any budget).
        let fuel = if cfg!(debug_assertions) {
            60_000
        } else {
            2_000_000
        };
        let image = session.build().expect("interpreter compiles");
        for p in clbg_programs() {
            let (expected, _) = interpret_reference(&p.words, fuel);
            let outcome = session.run(&image, &p.input(fuel), DEFAULT_GAS, "run");
            assert_eq!(
                outcome.status(),
                Some(expected),
                "VM disagrees with reference on {}",
                p.name
            );
        }
    }

    #[test]
    fn assembler_labels_resolve() {
        let mut a = Assembler::new();
        let skip = a.label();
        a.op(Op::Push, 1)
            .jz(skip)
            .op(Op::Push, 99)
            .op(Op::StoreV, 0);
        a.bind(skip);
        a.o(Op::Halt);
        let words = a.finish();
        // The jz target must be the Halt pair index (4).
        assert_eq!(words[3], 4);
        let (r, _) = interpret_reference(&words, 100);
        assert_eq!(r, 99);
    }

    #[test]
    #[should_panic(expected = "label bound")]
    fn unbound_label_panics() {
        let mut a = Assembler::new();
        let l = a.label();
        a.jmp(l);
        let _ = a.finish();
    }

    #[test]
    fn php_binary_is_interpreter_sized() {
        let image = pgsd_cc::driver::compile("php", &php_source()).unwrap();
        assert!(
            image.text.len() > 30_000,
            "text only {} bytes",
            image.text.len()
        );
    }

    #[test]
    fn benchmarks_exercise_different_vm_areas() {
        // Profiles must differ across inputs: compare heap-op counts.
        let heap_heavy = clbg_by_name("fannkuchredux").unwrap();
        let arith_heavy = clbg_by_name("pidigits").unwrap();
        let count_ops = |p: &BytecodeProgram, ops: &[i32]| {
            p.words.chunks(2).filter(|c| ops.contains(&c[0])).count()
        };
        let aload_astore = [Op::ALoad as i32, Op::AStore as i32];
        assert!(count_ops(&heap_heavy, &aload_astore) > count_ops(&arith_heavy, &aload_astore));
    }
}
