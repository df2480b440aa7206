//! The execution engine.
//!
//! A pre-decoding block interpreter over the modeled instruction subset.
//! The first time execution enters the text segment at an address, the
//! straight-line run of instructions from there — up to and including the
//! first control transfer, `int` or `hlt`, at most 64 — is decoded once
//! into a *block* of µops: operands resolved to register-file slots,
//! branch targets made absolute, and each instruction's class, base cost,
//! slack behaviour and length moved into a static per-µop charge. A flat table indexed by text offset maps each entry
//! address to its block; an address outside the text segment is a fetch
//! fault, since text is the only executable segment.
//!
//! Executing a block is one tight loop over its µops. Only what depends
//! on the run is charged as it happens: NOPs hiding in banked stall
//! slack, d-cache accesses, and taken or fall-through branches. Everything
//! else a block costs is charged in bulk, by counting its complete
//! executions and folding the counts into [`RunStats`] when [`Emulator::run`]
//! returns. A run that stops inside a block — a fault, `hlt`, the exit or
//! a bad syscall, or the gas running out — retires exactly the µops up to
//! and including the stopping one (none past the last gas allows) and
//! leaves `eip` after it, as per-instruction stepping would. The cycle
//! count is the substitute for the paper's wall-clock SPEC measurements.
//!
//! W⊕X makes the decoding sound: text is never writable, so a block can
//! only go stale if something pierces protection with
//! `Memory::write_bytes_unchecked` between runs. A block is decoded whole
//! on its first entry, so such a write is seen by code first entered
//! after it and missed by blocks already decoded, instructions not yet
//! executed included.

use std::sync::Arc;

use pgsd_x86::nop::NopKind;
use pgsd_x86::{decode, AluOp, Body, Cond, Inst, Mem, Reg, ShiftOp};

use crate::cost::CostModel;
use crate::cpu::{Cpu, ZERO};
use crate::mem::{Fault, Memory};

/// Why execution stopped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Exit {
    /// The program exited via the exit syscall.
    Exited(i32),
    /// A memory access or W⊕X fault.
    Fault {
        /// Address of the faulting instruction. For a fetch fault
        /// (jumping outside executable memory) this is the unfetchable
        /// address itself — `eip` at fault time in every case.
        pc: u32,
        /// The memory-level fault, carrying the offending data address.
        fault: Fault,
    },
    /// Bytes at `addr` do not decode to a valid instruction.
    InvalidInstruction {
        /// Faulting instruction address.
        addr: u32,
    },
    /// A valid instruction outside the emulated subset.
    Unsupported {
        /// Faulting instruction address.
        addr: u32,
        /// Mnemonic of the unsupported instruction.
        name: &'static str,
    },
    /// `idiv` by zero or overflowing quotient (#DE).
    DivideError {
        /// Faulting instruction address.
        addr: u32,
    },
    /// The gas limit was reached before the program exited.
    OutOfGas,
    /// `hlt` executed.
    Halted {
        /// Address of the `hlt`.
        addr: u32,
    },
    /// `int` with an unknown vector or syscall number.
    BadSyscall {
        /// Address of the `int`.
        addr: u32,
        /// Value of `eax` at the gate.
        eax: u32,
    },
}

impl Exit {
    /// The exit status, if the program terminated normally.
    pub fn status(&self) -> Option<i32> {
        match self {
            Exit::Exited(s) => Some(*s),
            _ => None,
        }
    }
}

/// Coarse instruction classes for the retired-instruction mix histogram.
///
/// The classes follow the [`CostModel`]'s cost structure, so the mix
/// explains the cycle count: a run dominated by [`InstClass::Load`] and
/// [`InstClass::Div`] is memory/latency-bound (and hides inserted NOPs in
/// slack), one dominated by [`InstClass::Alu`] pays full price for them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum InstClass {
    /// Register/immediate moves.
    Mov,
    /// Memory loads (`mov r, [m]` and ALU-with-memory-source).
    Load,
    /// Memory stores.
    Store,
    /// Read-modify-write memory operations.
    Rmw,
    /// Register ALU work (add/sub/logic/test/neg/not/inc/dec/cdq).
    Alu,
    /// Multiplies.
    Mul,
    /// Divides.
    Div,
    /// Shifts and rotates.
    Shift,
    /// `push`/`pop`.
    Stack,
    /// `lea`.
    Lea,
    /// `xchg` (bus-locking).
    Xchg,
    /// `call`.
    Call,
    /// `ret`.
    Ret,
    /// Unconditional jumps.
    Jump,
    /// Conditional branches.
    CondBranch,
    /// `int` syscall gates.
    Syscall,
    /// Recognized NOP-table forms.
    Nop,
    /// Everything else (`hlt`).
    Other,
}

impl InstClass {
    /// Number of classes (length of [`RunStats::inst_mix`]).
    pub const COUNT: usize = 18;

    /// All classes, in `inst_mix` index order.
    pub const ALL: [InstClass; InstClass::COUNT] = [
        InstClass::Mov,
        InstClass::Load,
        InstClass::Store,
        InstClass::Rmw,
        InstClass::Alu,
        InstClass::Mul,
        InstClass::Div,
        InstClass::Shift,
        InstClass::Stack,
        InstClass::Lea,
        InstClass::Xchg,
        InstClass::Call,
        InstClass::Ret,
        InstClass::Jump,
        InstClass::CondBranch,
        InstClass::Syscall,
        InstClass::Nop,
        InstClass::Other,
    ];

    /// The class of a decoded instruction.
    pub fn of(inst: &Inst) -> InstClass {
        match inst {
            Inst::MovRI(..) | Inst::MovRR(..) => InstClass::Mov,
            Inst::MovRM(..) | Inst::AluRM(..) => InstClass::Load,
            Inst::MovMR(..) | Inst::MovMI(..) => InstClass::Store,
            Inst::AluMR(..) | Inst::AluMI(..) | Inst::IncDecM(..) => InstClass::Rmw,
            Inst::AluRR(..)
            | Inst::AluRI(..)
            | Inst::TestRR(..)
            | Inst::NegR(..)
            | Inst::NotR(..)
            | Inst::IncR(..)
            | Inst::DecR(..)
            | Inst::Cdq => InstClass::Alu,
            Inst::ImulRR(..) | Inst::ImulRRI(..) | Inst::ImulRM(..) => InstClass::Mul,
            Inst::IdivR(..) => InstClass::Div,
            Inst::ShiftRI(..) | Inst::ShiftRCl(..) => InstClass::Shift,
            Inst::PushR(..) | Inst::PushI(..) | Inst::PushM(..) | Inst::PopR(..) => {
                InstClass::Stack
            }
            Inst::Lea(..) => InstClass::Lea,
            Inst::XchgRR(..) => InstClass::Xchg,
            Inst::CallRel(..) | Inst::CallR(..) => InstClass::Call,
            Inst::Ret | Inst::RetImm(..) => InstClass::Ret,
            Inst::JmpRel(..) | Inst::JmpRel8(..) | Inst::JmpR(..) => InstClass::Jump,
            Inst::Jcc(..) | Inst::Jcc8(..) => InstClass::CondBranch,
            Inst::Int(..) => InstClass::Syscall,
            Inst::Nop(..) => InstClass::Nop,
            Inst::Hlt => InstClass::Other,
        }
    }

    /// Stable lowercase label for metrics keys.
    pub fn label(self) -> &'static str {
        match self {
            InstClass::Mov => "mov",
            InstClass::Load => "load",
            InstClass::Store => "store",
            InstClass::Rmw => "rmw",
            InstClass::Alu => "alu",
            InstClass::Mul => "mul",
            InstClass::Div => "div",
            InstClass::Shift => "shift",
            InstClass::Stack => "stack",
            InstClass::Lea => "lea",
            InstClass::Xchg => "xchg",
            InstClass::Call => "call",
            InstClass::Ret => "ret",
            InstClass::Jump => "jump",
            InstClass::CondBranch => "cond_branch",
            InstClass::Syscall => "syscall",
            InstClass::Nop => "nop",
            InstClass::Other => "other",
        }
    }
}

/// Execution statistics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Modeled cycles consumed.
    pub cycles: u64,
    /// Instructions retired.
    pub instructions: u64,
    /// Diversifying NOP instructions retired (plain `nop` only; the
    /// two-byte candidates are indistinguishable from real code by
    /// design).
    pub nops_retired: u64,
    /// Data-cache misses.
    pub dcache_misses: u64,
    /// Data-cache hits (`dcache_hits + dcache_misses == dcache_accesses`).
    pub dcache_hits: u64,
    /// Data accesses sent through the modeled L1d.
    pub dcache_accesses: u64,
    /// Retired instructions per [`InstClass`], indexed by class
    /// discriminant; sums to `instructions`.
    pub inst_mix: [u64; InstClass::COUNT],
    /// Conditional branches that were taken.
    pub branch_taken: u64,
    /// Conditional branches that fell through.
    pub branch_not_taken: u64,
    /// Instructions retired for free inside the banked stall-slack window
    /// (the mechanism that makes NOPs cheap in memory-bound code).
    pub slack_hidden: u64,
    /// Values printed through the print syscall.
    pub output: Vec<i32>,
}

impl RunStats {
    /// Retired-instruction count for one class.
    pub fn mix(&self, class: InstClass) -> u64 {
        self.inst_mix[class as usize]
    }
}

/// The emulator: CPU, memory, cost model and statistics.
#[derive(Debug)]
pub struct Emulator {
    /// CPU state.
    pub cpu: Cpu,
    /// Address space.
    pub mem: Memory,
    /// Statistics for the current run.
    pub stats: RunStats,
    /// Cycle cost model. Decoded blocks bake its values in, so it is
    /// fixed for the emulator's lifetime.
    cost: CostModel,
    code: Code,
    fetch_accum: u32,
    slack: u64,
    /// Direct-mapped L1d tags (index = set, value = tag+1; 0 = empty).
    dcache: Box<[u32]>,
}

/// Syscall numbers understood by the `int 0x80` gate.
const SYS_EXIT: u32 = 1;
const SYS_PRINT: u32 = 4;

/// Most instructions in one block; a longer straight-line run continues
/// in the next block.
const MAX_BLOCK: usize = 64;

/// The decoded program: blocks of µops, found by their entry address.
#[derive(Debug, Default)]
struct Code {
    /// Address of `entry[0]`: the text base.
    base: u32,
    /// One slot per text byte: 1 + the index of the block entered at that
    /// address, or 0 while none has been decoded there.
    entry: Vec<u32>,
    blocks: Vec<Block>,
    /// Every block's µops, contiguous per block.
    uops: Vec<Op>,
    /// What retiring each µop charges, parallel to `uops`.
    charges: Vec<Charge>,
}

impl Code {
    /// The block entered at `pc`, decoded on first entry.
    fn block_at(&mut self, pc: u32, mem: &Memory, cost: &CostModel) -> Result<usize, Exit> {
        let off = pc.wrapping_sub(self.base) as usize;
        match self.entry.get(off) {
            Some(0) => self.decode_block(pc, off, mem, cost),
            Some(&id) => Ok(id as usize - 1),
            None => Err(Exit::Fault {
                pc,
                fault: mem
                    .fetch(pc, 1)
                    .expect_err("only the text segment is executable"),
            }),
        }
    }

    /// Decodes the block entered at `pc`, text offset `off`. Bytes that do
    /// not decode end the block before them; only when they are its first
    /// instruction is that the exit.
    #[cold]
    fn decode_block(
        &mut self,
        pc: u32,
        off: usize,
        mem: &Memory,
        cost: &CostModel,
    ) -> Result<usize, Exit> {
        let first = self.uops.len();
        let mut at = pc;
        while self.uops.len() - first < MAX_BLOCK {
            // Fails only past the end of the text segment.
            let Ok(bytes) = mem.fetch(at, 16) else {
                break;
            };
            let (inst, len) = match decode(bytes) {
                Ok(d) => match d.body {
                    Body::Known(inst) => (inst, d.len as u8),
                    Body::Other(o) if at == pc => {
                        return Err(Exit::Unsupported {
                            addr: pc,
                            name: o.name,
                        })
                    }
                    Body::Other(_) => break,
                },
                Err(_) if at == pc => return Err(Exit::InvalidInstruction { addr: pc }),
                Err(_) => break,
            };
            at = at.wrapping_add(u32::from(len));
            let op = Op::of(&inst, at, cost);
            self.uops.push(op);
            self.charges.push(Charge::of(&inst, len, cost));
            if op.ends_block() {
                break;
            }
        }
        let id = self.blocks.len();
        self.blocks.push(Block {
            pc,
            end: at,
            first: first as u32,
            len: (self.uops.len() - first) as u32,
            runs: 0,
        });
        self.entry[off] = id as u32 + 1;
        Ok(id)
    }
}

/// A straight-line run of instructions: up to and including the first
/// control transfer, `int` or `hlt`.
#[derive(Debug, Clone, Copy)]
struct Block {
    /// Address of the first instruction.
    pc: u32,
    /// Address after the last instruction, where execution falls through.
    end: u32,
    /// Index of the first µop in [`Code::uops`].
    first: u32,
    /// Number of µops, one per instruction.
    len: u32,
    /// Complete executions not yet folded into the statistics.
    runs: u64,
}

/// What retiring one instruction charges whatever values it computes.
/// Slack-hidden NOPs, d-cache accesses and branch outcomes depend on the
/// run and are charged as they happen instead.
#[derive(Debug, Clone, Copy)]
struct Charge {
    class: InstClass,
    /// Encoded length: bytes consumed from the fetch window.
    len: u8,
    /// A plain `nop`, counted in [`RunStats::nops_retired`].
    nop: bool,
    /// Base cycles; 0 for a NOP that may hide in slack.
    cycles: u64,
}

impl Charge {
    fn of(inst: &Inst, len: u8, cost: &CostModel) -> Charge {
        use Inst::*;
        Charge {
            class: InstClass::of(inst),
            len,
            nop: matches!(inst, Nop(NopKind::Nop)),
            cycles: if cost.hides_in_slack(inst) {
                0
            } else {
                cost.cost(inst)
            },
        }
    }
}

/// A memory operand with its registers resolved to register-file slots:
/// `disp + slot[base] + (slot[index] << shift)`, an absent register
/// naming the [`ZERO`] slot.
#[derive(Debug, Clone, Copy)]
struct Ea {
    disp: u32,
    base: u8,
    index: u8,
    shift: u8,
}

impl Ea {
    fn of(m: &Mem) -> Ea {
        let (index, shift) = m.index.map_or((ZERO, 0), |(r, s)| (r.number(), s as u8));
        Ea {
            disp: m.disp as u32,
            base: m.base.map_or(ZERO, Reg::number),
            index,
            shift,
        }
    }
}

/// One pre-decoded instruction: operands resolved, jump targets made
/// absolute, costs moved to its [`Charge`].
#[derive(Debug, Clone, Copy)]
enum Op {
    /// A NOP form that retires free while banked slack lasts and costs
    /// this many cycles otherwise. Every form [`CostModel::hides_in_slack`]
    /// accepts is an architectural no-op.
    Hide(u64),
    /// A NOP form that never hides (the bus-locking `xchg` forms).
    Nop,
    MovRI(Reg, u32),
    MovRR(Reg, Reg),
    Load(Reg, Ea),
    Store(Ea, Reg),
    StoreI(Ea, u32),
    AluRR(AluOp, Reg, Reg),
    AluRI(AluOp, Reg, u32),
    AluRM(AluOp, Reg, Ea),
    AluMR(AluOp, Ea, Reg),
    AluMI(AluOp, Ea, u32),
    Test(Reg, Reg),
    ImulRR(Reg, Reg),
    ImulRM(Reg, Ea),
    ImulRRI(Reg, Reg, i32),
    Cdq,
    /// `idiv` and the slack it banks.
    Idiv(Reg, u64),
    Neg(Reg),
    Not(Reg),
    Inc(Reg),
    Dec(Reg),
    IncDecM(bool, Ea),
    ShiftRI(ShiftOp, Reg, u8),
    ShiftRCl(ShiftOp, Reg),
    Push(Reg),
    PushI(u32),
    PushM(Ea),
    Pop(Reg),
    Lea(Reg, Ea),
    Xchg(Reg, Reg),
    /// Target, return address.
    Call(u32, u32),
    /// Target register, return address.
    CallR(Reg, u32),
    /// Extra bytes popped after the return address.
    Ret(u16),
    Jmp(u32),
    JmpR(Reg),
    Jcc(Cond, u32),
    Int(u8),
    Hlt,
}

impl Op {
    /// Pre-decodes `inst`, whose next instruction is at `next`.
    fn of(inst: &Inst, next: u32, cost: &CostModel) -> Op {
        use Inst::*;
        if cost.hides_in_slack(inst) {
            return Op::Hide(cost.cost(inst));
        }
        let rel = |d: i32| next.wrapping_add(d as u32);
        match *inst {
            MovRI(d, v) => Op::MovRI(d, v as u32),
            MovRR(d, s) => Op::MovRR(d, s),
            MovRM(d, ref m) => Op::Load(d, Ea::of(m)),
            MovMR(ref m, s) => Op::Store(Ea::of(m), s),
            MovMI(ref m, v) => Op::StoreI(Ea::of(m), v as u32),
            AluRR(op, d, s) => Op::AluRR(op, d, s),
            AluRI(op, d, v) => Op::AluRI(op, d, v as u32),
            AluRM(op, d, ref m) => Op::AluRM(op, d, Ea::of(m)),
            AluMR(op, ref m, s) => Op::AluMR(op, Ea::of(m), s),
            AluMI(op, ref m, v) => Op::AluMI(op, Ea::of(m), v as u32),
            TestRR(a, b) => Op::Test(a, b),
            ImulRR(d, s) => Op::ImulRR(d, s),
            ImulRM(d, ref m) => Op::ImulRM(d, Ea::of(m)),
            ImulRRI(d, s, v) => Op::ImulRRI(d, s, v),
            Cdq => Op::Cdq,
            IdivR(r) => Op::Idiv(r, cost.slack_produced(inst)),
            NegR(r) => Op::Neg(r),
            NotR(r) => Op::Not(r),
            IncR(r) => Op::Inc(r),
            DecR(r) => Op::Dec(r),
            IncDecM(inc, ref m) => Op::IncDecM(inc, Ea::of(m)),
            ShiftRI(op, r, c) => Op::ShiftRI(op, r, c),
            ShiftRCl(op, r) => Op::ShiftRCl(op, r),
            PushR(r) => Op::Push(r),
            PushI(v) => Op::PushI(v as u32),
            PushM(ref m) => Op::PushM(Ea::of(m)),
            PopR(r) => Op::Pop(r),
            Lea(r, ref m) => Op::Lea(r, Ea::of(m)),
            XchgRR(a, b) => Op::Xchg(a, b),
            CallRel(d) => Op::Call(rel(d), next),
            CallR(r) => Op::CallR(r, next),
            Ret => Op::Ret(0),
            RetImm(n) => Op::Ret(n),
            JmpRel(d) => Op::Jmp(rel(d)),
            JmpRel8(d) => Op::Jmp(rel(i32::from(d))),
            JmpR(r) => Op::JmpR(r),
            Jcc(cc, d) => Op::Jcc(cc, rel(d)),
            Jcc8(cc, d) => Op::Jcc(cc, rel(i32::from(d))),
            Int(v) => Op::Int(v),
            Nop(_) => Op::Nop,
            Hlt => Op::Hlt,
        }
    }

    /// Whether the block ends after this µop: it may transfer control,
    /// enter the kernel or halt.
    fn ends_block(self) -> bool {
        matches!(
            self,
            Op::Call(..)
                | Op::CallR(..)
                | Op::Ret(_)
                | Op::Jmp(_)
                | Op::JmpR(_)
                | Op::Jcc(..)
                | Op::Int(_)
                | Op::Hlt
        )
    }
}

/// Why a µop stopped the program; [`Trap::at`] adds its address.
enum Trap {
    Fault(Fault),
    Divide,
    Halt,
    Exit(i32),
    BadSyscall(u32),
    Unsupported(&'static str),
}

impl From<Fault> for Trap {
    fn from(f: Fault) -> Trap {
        Trap::Fault(f)
    }
}

impl Trap {
    fn at(self, addr: u32) -> Exit {
        match self {
            Trap::Fault(fault) => Exit::Fault { pc: addr, fault },
            Trap::Divide => Exit::DivideError { addr },
            Trap::Halt => Exit::Halted { addr },
            Trap::Exit(status) => Exit::Exited(status),
            Trap::BadSyscall(eax) => Exit::BadSyscall { addr, eax },
            Trap::Unsupported(name) => Exit::Unsupported { addr, name },
        }
    }
}

impl Emulator {
    /// Creates an emulator for a loaded program.
    ///
    /// `stack_top` is the initial `esp`; the stack segment extends 1 MiB
    /// below it.
    pub fn new(
        text_base: u32,
        text: impl Into<Arc<Vec<u8>>>,
        data_base: u32,
        data: impl Into<Arc<Vec<u8>>>,
        stack_top: u32,
    ) -> Emulator {
        let text = text.into();
        let text_len = text.len();
        let mem = Memory::new(text_base, text, data_base, data.into(), stack_top);
        let mut cpu = Cpu::new();
        cpu.set(Reg::Esp, stack_top);
        let cost = CostModel::default();
        Emulator {
            cpu,
            mem,
            stats: RunStats::default(),
            dcache: vec![0; 1 << cost.cache_sets_log2].into_boxed_slice(),
            cost,
            code: Code {
                base: text_base,
                entry: vec![0; text_len],
                blocks: Vec::new(),
                uops: Vec::new(),
                charges: Vec::new(),
            },
            fetch_accum: 0,
            slack: 0,
        }
    }

    /// The cycle cost model every run is charged against.
    pub fn cost(&self) -> &CostModel {
        &self.cost
    }

    /// Arranges a call: pushes `args` right-to-left, pushes `ret_addr`,
    /// and points `eip` at `entry` — exactly what the OS loader plus crt0
    /// would do before `main`.
    pub fn call_entry(&mut self, entry: u32, ret_addr: u32, args: &[i32]) {
        for &a in args.iter().rev() {
            self.push(a as u32).expect("stack is mapped");
        }
        self.push(ret_addr).expect("stack is mapped");
        self.cpu.eip = entry;
    }

    /// Whether `addr` lies inside the text segment.
    pub(crate) fn in_text(&self, addr: u32) -> bool {
        (addr.wrapping_sub(self.code.base) as usize) < self.code.entry.len()
    }

    /// Pushes a 32-bit value.
    ///
    /// # Errors
    ///
    /// Faults if the stack is exhausted.
    #[inline]
    pub fn push(&mut self, v: u32) -> Result<(), Fault> {
        let sp = self.cpu.get(Reg::Esp).wrapping_sub(4);
        self.mem.write_u32(sp, v)?;
        self.cpu.set(Reg::Esp, sp);
        Ok(())
    }

    /// Pops a 32-bit value.
    ///
    /// # Errors
    ///
    /// Faults if the stack is unmapped.
    #[inline]
    pub fn pop(&mut self) -> Result<u32, Fault> {
        let sp = self.cpu.get(Reg::Esp);
        let v = self.mem.read_u32(sp)?;
        self.cpu.set(Reg::Esp, sp.wrapping_add(4));
        Ok(v)
    }

    /// Runs until exit, fault, or `gas` retired instructions.
    pub fn run(&mut self, gas: u64) -> Exit {
        // Moved out for the run, so the µops it reads cannot alias the
        // machine state it writes.
        let mut code = std::mem::take(&mut self.code);
        let mut left = gas;
        let exit = loop {
            if left == 0 {
                break Exit::OutOfGas;
            }
            let b = match code.block_at(self.cpu.eip, &self.mem, &self.cost) {
                Ok(b) => b,
                Err(exit) => break exit,
            };
            let n = u64::from(code.blocks[b].len).min(left);
            left -= n;
            if let Some(exit) = self.exec_block(&mut code, b, n as usize) {
                break exit;
            }
        };
        self.settle(&mut code);
        self.code = code;
        exit
    }

    /// Executes the first `n` µops of block `b`: all of them, or fewer
    /// when the gas runs out inside it. Returns the exit if execution
    /// stops.
    #[inline]
    fn exec_block(&mut self, code: &mut Code, b: usize, n: usize) -> Option<Exit> {
        let Block {
            end, first, len, ..
        } = code.blocks[b];
        let first = first as usize;
        // Control transfers overwrite this; every other µop falls through.
        self.cpu.eip = end;
        for (i, &op) in code.uops[first..first + n].iter().enumerate() {
            if let Err(trap) = self.exec(op) {
                return Some(self.stop(code, b, i + 1, Some(trap)));
            }
        }
        if n == len as usize {
            code.blocks[b].runs += 1;
            None
        } else {
            Some(self.stop(code, b, n, None))
        }
    }

    /// Stops inside block `b` after its first `retired` µops: charges
    /// them, points `eip` past the last of them, and returns its trap, or
    /// [`Exit::OutOfGas`] without one.
    #[cold]
    fn stop(&mut self, code: &Code, b: usize, retired: usize, trap: Option<Trap>) -> Exit {
        let Block { pc, first, .. } = code.blocks[b];
        let first = first as usize;
        let charges = &code.charges[first..first + retired];
        let next = charges
            .iter()
            .fold(pc, |at, c| at.wrapping_add(u32::from(c.len)));
        self.retire(charges, 1);
        self.cpu.eip = next;
        match (trap, charges.last()) {
            (Some(trap), Some(last)) => trap.at(next.wrapping_sub(u32::from(last.len))),
            _ => Exit::OutOfGas,
        }
    }

    /// Charges `times` retirements of every instruction in `charges`: the
    /// instruction count, the mix, base cycles, plain NOPs and fetch
    /// windows.
    fn retire(&mut self, charges: &[Charge], times: u64) {
        let stats = &mut self.stats;
        let mut bytes = u64::from(self.fetch_accum);
        for c in charges {
            stats.inst_mix[c.class as usize] += times;
            stats.cycles += c.cycles * times;
            stats.nops_retired += u64::from(c.nop) * times;
            bytes += u64::from(c.len) * times;
        }
        stats.instructions += charges.len() as u64 * times;
        // One fetch window per 16 bytes of code consumed; the remainder
        // carries over to the next instruction.
        stats.cycles += bytes / 16 * self.cost.fetch_window;
        self.fetch_accum = (bytes % 16) as u32;
    }

    /// Folds the block executions counted since the run began into the
    /// statistics.
    fn settle(&mut self, code: &mut Code) {
        for block in code.blocks.iter_mut().filter(|b| b.runs > 0) {
            let first = block.first as usize;
            let charges = &code.charges[first..first + block.len as usize];
            self.retire(charges, block.runs);
            block.runs = 0;
        }
    }

    #[inline(always)]
    fn ea(&self, m: Ea) -> u32 {
        m.disp
            .wrapping_add(self.cpu.slot(m.base))
            .wrapping_add(self.cpu.slot(m.index) << m.shift)
    }

    /// Computes a memory operand's address and models the access through
    /// the direct-mapped L1: a miss charges the miss penalty and banks it
    /// as slack.
    #[inline(always)]
    fn touch(&mut self, m: Ea) -> u32 {
        let addr = self.ea(m);
        let line = addr >> 6;
        let set = (line as usize) & (self.dcache.len() - 1);
        let tag = (line >> self.cost.cache_sets_log2) + 1;
        self.stats.dcache_accesses += 1;
        if self.dcache[set] != tag {
            self.dcache[set] = tag;
            self.stats.cycles += self.cost.miss_penalty;
            self.stats.dcache_misses += 1;
            self.slack = (self.slack + self.cost.miss_penalty).min(self.cost.slack_window);
        } else {
            self.stats.dcache_hits += 1;
        }
        addr
    }

    #[inline(always)]
    fn load(&mut self, m: Ea) -> Result<u32, Fault> {
        let addr = self.touch(m);
        self.mem.read_u32(addr)
    }

    fn alu(&mut self, op: AluOp, a: u32, b: u32) -> u32 {
        let f = &mut self.cpu.flags;
        let cf_in = f.cf;
        let (res, cf, of) = match op {
            AluOp::Add => {
                let (r, c) = a.overflowing_add(b);
                (r, c, (a as i32).overflowing_add(b as i32).1)
            }
            AluOp::Adc => {
                let (r1, c1) = a.overflowing_add(b);
                let (r, c2) = r1.overflowing_add(cf_in as u32);
                let of = ((a ^ r) & (b ^ r) & 0x8000_0000) != 0;
                (r, c1 || c2, of)
            }
            AluOp::Sub | AluOp::Cmp => {
                let (r, c) = a.overflowing_sub(b);
                (r, c, (a as i32).overflowing_sub(b as i32).1)
            }
            AluOp::Sbb => {
                let (r1, c1) = a.overflowing_sub(b);
                let (r, c2) = r1.overflowing_sub(cf_in as u32);
                let of = ((a ^ b) & (a ^ r) & 0x8000_0000) != 0;
                (r, c1 || c2, of)
            }
            AluOp::And => (a & b, false, false),
            AluOp::Or => (a | b, false, false),
            AluOp::Xor => (a ^ b, false, false),
        };
        f.cf = cf;
        f.of = of;
        f.set_zsp(res);
        if op == AluOp::Cmp {
            a
        } else {
            res
        }
    }

    fn shift(&mut self, op: ShiftOp, val: u32, count: u8) -> Result<u32, &'static str> {
        let c = u32::from(count) & 31;
        if c == 0 {
            return Ok(val);
        }
        let f = &mut self.cpu.flags;
        let res = match op {
            ShiftOp::Shl => {
                f.cf = (val >> (32 - c)) & 1 == 1;
                let r = val.wrapping_shl(c);
                f.of = ((r >> 31) & 1 == 1) != f.cf;
                f.set_zsp(r);
                r
            }
            ShiftOp::Shr => {
                f.cf = (val >> (c - 1)) & 1 == 1;
                let r = val.wrapping_shr(c);
                f.of = (val >> 31) & 1 == 1;
                f.set_zsp(r);
                r
            }
            ShiftOp::Sar => {
                f.cf = ((val as i32) >> (c - 1)) & 1 == 1;
                let r = ((val as i32).wrapping_shr(c)) as u32;
                f.of = false;
                f.set_zsp(r);
                r
            }
            ShiftOp::Rol => {
                let r = val.rotate_left(c);
                f.cf = r & 1 == 1;
                r
            }
            ShiftOp::Ror => {
                let r = val.rotate_right(c);
                f.cf = (r >> 31) & 1 == 1;
                r
            }
            ShiftOp::Rcl | ShiftOp::Rcr => return Err("rcl/rcr"),
        };
        Ok(res)
    }

    fn imul_flags(&mut self, a: i32, b: i32) -> u32 {
        let full = i64::from(a) * i64::from(b);
        let res = full as i32;
        let overflow = i64::from(res) != full;
        self.cpu.flags.cf = overflow;
        self.cpu.flags.of = overflow;
        res as u32
    }

    /// Executes one µop. Its static charge is retired with its block;
    /// the run-dependent part (slack, d-cache accesses, branch outcome) is
    /// charged here.
    #[inline(always)]
    fn exec(&mut self, op: Op) -> Result<(), Trap> {
        match op {
            Op::Hide(cycles) => {
                if self.slack > 0 {
                    self.slack -= 1;
                    self.stats.slack_hidden += 1;
                } else {
                    self.stats.cycles += cycles;
                }
            }
            Op::Nop => {}
            Op::MovRI(d, v) => self.cpu.set(d, v),
            Op::MovRR(d, s) => self.cpu.set(d, self.cpu.get(s)),
            Op::Load(d, m) => {
                let v = self.load(m)?;
                self.cpu.set(d, v);
            }
            Op::Store(m, s) => {
                let a = self.touch(m);
                self.mem.write_u32(a, self.cpu.get(s))?;
            }
            Op::StoreI(m, v) => {
                let a = self.touch(m);
                self.mem.write_u32(a, v)?;
            }
            Op::AluRR(op, d, s) => {
                let r = self.alu(op, self.cpu.get(d), self.cpu.get(s));
                if !op.is_compare() {
                    self.cpu.set(d, r);
                }
            }
            Op::AluRI(op, d, v) => {
                let r = self.alu(op, self.cpu.get(d), v);
                if !op.is_compare() {
                    self.cpu.set(d, r);
                }
            }
            Op::AluRM(op, d, m) => {
                let b = self.load(m)?;
                let r = self.alu(op, self.cpu.get(d), b);
                if !op.is_compare() {
                    self.cpu.set(d, r);
                }
            }
            Op::AluMR(op, m, s) => {
                let a = self.touch(m);
                let x = self.mem.read_u32(a)?;
                let r = self.alu(op, x, self.cpu.get(s));
                if !op.is_compare() {
                    self.mem.write_u32(a, r)?;
                }
            }
            Op::AluMI(op, m, v) => {
                let a = self.touch(m);
                let x = self.mem.read_u32(a)?;
                let r = self.alu(op, x, v);
                if !op.is_compare() {
                    self.mem.write_u32(a, r)?;
                }
            }
            Op::Test(a, b) => {
                let v = self.cpu.get(a) & self.cpu.get(b);
                let f = &mut self.cpu.flags;
                f.cf = false;
                f.of = false;
                f.set_zsp(v);
            }
            Op::ImulRR(d, s) => {
                let r = self.imul_flags(self.cpu.get(d) as i32, self.cpu.get(s) as i32);
                self.cpu.set(d, r);
            }
            Op::ImulRM(d, m) => {
                let b = self.load(m)? as i32;
                let r = self.imul_flags(self.cpu.get(d) as i32, b);
                self.cpu.set(d, r);
            }
            Op::ImulRRI(d, s, imm) => {
                let r = self.imul_flags(self.cpu.get(s) as i32, imm);
                self.cpu.set(d, r);
            }
            Op::Cdq => {
                let v = if (self.cpu.get(Reg::Eax) as i32) < 0 {
                    u32::MAX
                } else {
                    0
                };
                self.cpu.set(Reg::Edx, v);
            }
            Op::Idiv(r, slack) => {
                self.slack = (self.slack + slack).min(self.cost.slack_window);
                let divisor = i64::from(self.cpu.get(r) as i32);
                if divisor == 0 {
                    return Err(Trap::Divide);
                }
                let dividend = ((u64::from(self.cpu.get(Reg::Edx)) << 32)
                    | u64::from(self.cpu.get(Reg::Eax))) as i64;
                let q = dividend.wrapping_div(divisor);
                let rem = dividend.wrapping_rem(divisor);
                if q > i64::from(i32::MAX) || q < i64::from(i32::MIN) {
                    return Err(Trap::Divide);
                }
                self.cpu.set(Reg::Eax, q as i32 as u32);
                self.cpu.set(Reg::Edx, rem as i32 as u32);
            }
            Op::Neg(r) => {
                let v = self.cpu.get(r);
                let res = (v as i32).wrapping_neg() as u32;
                self.cpu.flags.cf = v != 0;
                self.cpu.flags.of = v == 0x8000_0000;
                self.cpu.flags.set_zsp(res);
                self.cpu.set(r, res);
            }
            Op::Not(r) => self.cpu.set(r, !self.cpu.get(r)),
            Op::Inc(r) => {
                let v = self.cpu.get(r).wrapping_add(1);
                self.cpu.flags.of = v == 0x8000_0000;
                self.cpu.flags.set_zsp(v);
                self.cpu.set(r, v);
            }
            Op::Dec(r) => {
                let v = self.cpu.get(r).wrapping_sub(1);
                self.cpu.flags.of = v == 0x7FFF_FFFF;
                self.cpu.flags.set_zsp(v);
                self.cpu.set(r, v);
            }
            Op::IncDecM(inc, m) => {
                let a = self.touch(m);
                let v0 = self.mem.read_u32(a)?;
                let v = if inc {
                    v0.wrapping_add(1)
                } else {
                    v0.wrapping_sub(1)
                };
                self.cpu.flags.set_zsp(v);
                self.mem.write_u32(a, v)?;
            }
            Op::ShiftRI(op, r, c) => {
                let v = self
                    .shift(op, self.cpu.get(r), c)
                    .map_err(Trap::Unsupported)?;
                self.cpu.set(r, v);
            }
            Op::ShiftRCl(op, r) => {
                let c = self.cpu.get(Reg::Ecx) as u8;
                let v = self
                    .shift(op, self.cpu.get(r), c)
                    .map_err(Trap::Unsupported)?;
                self.cpu.set(r, v);
            }
            Op::Push(r) => self.push(self.cpu.get(r))?,
            Op::PushI(v) => self.push(v)?,
            Op::PushM(m) => {
                let v = self.load(m)?;
                self.push(v)?;
            }
            Op::Pop(r) => {
                let v = self.pop()?;
                self.cpu.set(r, v);
            }
            Op::Lea(r, m) => self.cpu.set(r, self.ea(m)),
            Op::Xchg(a, b) => {
                let (x, y) = (self.cpu.get(a), self.cpu.get(b));
                self.cpu.set(a, y);
                self.cpu.set(b, x);
            }
            Op::Call(target, ret) => {
                self.push(ret)?;
                self.cpu.eip = target;
            }
            Op::CallR(r, ret) => {
                let target = self.cpu.get(r);
                self.push(ret)?;
                self.cpu.eip = target;
            }
            Op::Ret(n) => {
                self.cpu.eip = self.pop()?;
                let sp = self.cpu.get(Reg::Esp).wrapping_add(u32::from(n));
                self.cpu.set(Reg::Esp, sp);
            }
            Op::Jmp(target) => self.cpu.eip = target,
            Op::JmpR(r) => self.cpu.eip = self.cpu.get(r),
            Op::Jcc(cc, target) => {
                if self.cpu.flags.cond(cc) {
                    self.cpu.eip = target;
                    self.stats.cycles += self.cost.branch_taken;
                    self.stats.branch_taken += 1;
                } else {
                    self.stats.cycles += self.cost.branch_not_taken;
                    self.stats.branch_not_taken += 1;
                }
            }
            Op::Int(vector) => {
                let eax = self.cpu.get(Reg::Eax);
                let ebx = self.cpu.get(Reg::Ebx);
                match (vector, eax) {
                    (0x80, SYS_EXIT) => return Err(Trap::Exit(ebx as i32)),
                    (0x80, SYS_PRINT) => {
                        self.stats.output.push(ebx as i32);
                        self.cpu.set(Reg::Eax, 0);
                    }
                    _ => return Err(Trap::BadSyscall(eax)),
                }
            }
            Op::Hlt => return Err(Trap::Halt),
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgsd_x86::assemble;

    fn emu(insts: &[Inst]) -> Emulator {
        let text = assemble(insts).expect("assembles");
        Emulator::new(0x1000, text, 0x0010_0000, vec![0; 256], 0x0100_0000)
    }

    fn run_to_exit(insts: &[Inst]) -> (Exit, RunStats) {
        let mut e = emu(insts);
        e.cpu.eip = 0x1000;
        let exit = e.run(100_000);
        (exit, e.stats.clone())
    }

    #[test]
    fn exit_syscall() {
        let (exit, _) = run_to_exit(&[
            Inst::MovRI(Reg::Ebx, 42),
            Inst::MovRI(Reg::Eax, 1),
            Inst::Int(0x80),
        ]);
        assert_eq!(exit, Exit::Exited(42));
    }

    #[test]
    fn arithmetic_and_branches() {
        // Sum 1..=10 with a loop, exit with the sum.
        let insts = [
            Inst::MovRI(Reg::Ebx, 0),
            Inst::MovRI(Reg::Ecx, 10),
            // loop: add ebx, ecx; dec ecx; jne loop(-5)
            Inst::AluRR(AluOp::Add, Reg::Ebx, Reg::Ecx), // 2 bytes
            Inst::DecR(Reg::Ecx),                        // 1 byte
            Inst::Jcc8(pgsd_x86::Cond::Ne, -5),          // 2 bytes
            Inst::MovRI(Reg::Eax, 1),
            Inst::Int(0x80),
        ];
        let (exit, stats) = run_to_exit(&insts);
        assert_eq!(exit, Exit::Exited(55));
        assert!(stats.instructions > 30);
    }

    #[test]
    fn memory_and_stack() {
        let insts = [
            Inst::MovRI(Reg::Eax, 7),
            Inst::MovMR(Mem::abs(0x0010_0010), Reg::Eax),
            Inst::PushR(Reg::Eax),
            Inst::PopR(Reg::Ebx),
            Inst::AluRM(AluOp::Add, Reg::Ebx, Mem::abs(0x0010_0010)),
            Inst::MovRI(Reg::Eax, 1),
            Inst::Int(0x80),
        ];
        let (exit, _) = run_to_exit(&insts);
        assert_eq!(exit, Exit::Exited(14));
    }

    #[test]
    fn signed_division() {
        let insts = [
            Inst::MovRI(Reg::Eax, -7),
            Inst::Cdq,
            Inst::MovRI(Reg::Ecx, 2),
            Inst::IdivR(Reg::Ecx),
            // quotient -3 in eax → move to ebx for exit
            Inst::MovRR(Reg::Ebx, Reg::Eax),
            Inst::MovRI(Reg::Eax, 1),
            Inst::Int(0x80),
        ];
        let (exit, _) = run_to_exit(&insts);
        assert_eq!(exit, Exit::Exited(-3));
    }

    #[test]
    fn divide_by_zero_traps() {
        let insts = [
            Inst::MovRI(Reg::Eax, 1),
            Inst::Cdq,
            Inst::MovRI(Reg::Ecx, 0),
            Inst::IdivR(Reg::Ecx),
        ];
        let (exit, _) = run_to_exit(&insts);
        assert!(matches!(exit, Exit::DivideError { .. }));
    }

    #[test]
    fn print_syscall_collects_output() {
        let insts = [
            Inst::MovRI(Reg::Ebx, 5),
            Inst::MovRI(Reg::Eax, 4),
            Inst::Int(0x80),
            Inst::MovRI(Reg::Ebx, 6),
            Inst::MovRI(Reg::Eax, 4),
            Inst::Int(0x80),
            Inst::MovRI(Reg::Ebx, 0),
            Inst::MovRI(Reg::Eax, 1),
            Inst::Int(0x80),
        ];
        let (exit, stats) = run_to_exit(&insts);
        assert_eq!(exit, Exit::Exited(0));
        assert_eq!(stats.output, vec![5, 6]);
    }

    #[test]
    fn nops_cost_cycles_but_change_nothing() {
        let base = [
            Inst::MovRI(Reg::Ebx, 3),
            Inst::MovRI(Reg::Eax, 1),
            Inst::Int(0x80),
        ];
        let mut with_nops = vec![Inst::Nop(NopKind::Nop), Inst::Nop(NopKind::MovEspEsp)];
        with_nops.extend_from_slice(&base);
        with_nops.insert(3, Inst::Nop(NopKind::LeaEsiEsi));
        let (e1, s1) = run_to_exit(&base);
        let (e2, s2) = run_to_exit(&with_nops);
        assert_eq!(e1, e2);
        assert!(s2.cycles > s1.cycles);
    }

    #[test]
    fn xchg_nop_costs_more_than_plain_nop() {
        let tail = [
            Inst::MovRI(Reg::Ebx, 0),
            Inst::MovRI(Reg::Eax, 1),
            Inst::Int(0x80),
        ];
        let mut plain = vec![Inst::Nop(NopKind::Nop)];
        plain.extend_from_slice(&tail);
        let mut locked = vec![Inst::Nop(NopKind::XchgEspEsp)];
        locked.extend_from_slice(&tail);
        let (_, s_plain) = run_to_exit(&plain);
        let (_, s_locked) = run_to_exit(&locked);
        assert!(s_locked.cycles > s_plain.cycles);
    }

    #[test]
    fn gas_limit_stops_infinite_loop() {
        let (exit, _) = run_to_exit(&[Inst::JmpRel8(-2)]);
        assert_eq!(exit, Exit::OutOfGas);
    }

    #[test]
    fn wxorx_stops_stack_execution() {
        let mut e = emu(&[Inst::Ret]);
        // "Inject" code onto the stack and jump to it.
        let sp = 0x0100_0000 - 64;
        e.mem.write_bytes(sp, &[0x90, 0xC3]).unwrap();
        e.cpu.eip = sp;
        let exit = e.run(10);
        assert_eq!(
            exit,
            Exit::Fault {
                pc: sp,
                fault: Fault::NotExecutable { addr: sp },
            }
        );
    }

    #[test]
    fn call_entry_sets_up_cdecl_frame() {
        // A function that returns its first argument: mov eax, [esp+4]; ret
        let insts = [
            Inst::MovRM(Reg::Eax, Mem::base_disp(Reg::Esp, 4)),
            Inst::Ret,
            // exit stub at +? — place directly after
            Inst::MovRR(Reg::Ebx, Reg::Eax),
            Inst::MovRI(Reg::Eax, 1),
            Inst::Int(0x80),
        ];
        let text = assemble(&insts).unwrap();
        // Offsets: mov=4 bytes? (8B 44 24 04) then C3 at +4, stub at +5.
        let stub = 0x1000 + 5;
        let mut e = Emulator::new(0x1000, text, 0x0010_0000, vec![0; 64], 0x0100_0000);
        e.call_entry(0x1000, stub, &[99, 1]);
        let exit = e.run(100);
        assert_eq!(exit, Exit::Exited(99));
    }
}
