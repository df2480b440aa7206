//! Stopping is exact. The emulator executes pre-decoded blocks and
//! charges their static costs in bulk, yet a run cut short by gas at any
//! instruction — mid-block included — and then resumed must end in
//! exactly the exit, statistics and CPU state of an uninterrupted run,
//! and a trap in the middle of straight-line code must stop at its own
//! instruction with exactly the instructions before it retired.

use pgsd_emu::{Cpu, Emulator, Exit, Fault, InstClass, RunStats};
use pgsd_x86::nop::NopKind;
use pgsd_x86::{assemble, AluOp, Cond, Inst, Mem, Reg, ShiftOp};

const TEXT_BASE: u32 = 0x1000;
const DATA_BASE: u32 = 0x10_0000;
const STACK_TOP: u32 = 0x100_0000;
const GAS: u64 = 1_000_000;

fn emulator(insts: &[Inst]) -> Emulator {
    let text = assemble(insts).expect("assembles");
    let mut emu = Emulator::new(TEXT_BASE, text, DATA_BASE, vec![0; 4096], STACK_TOP);
    emu.cpu.eip = TEXT_BASE;
    emu
}

fn size(insts: &[Inst]) -> u32 {
    assemble(insts).expect("assembles").len() as u32
}

/// Address of instruction `index` within the assembled `insts`.
fn addr_of(insts: &[Inst], index: usize) -> u32 {
    TEXT_BASE + size(&insts[..index])
}

/// Runs `insts` with the gas cut into `slices`, then to completion.
fn run_sliced(insts: &[Inst], slices: &[u64]) -> (Exit, RunStats, Cpu) {
    let mut emu = emulator(insts);
    let mut retired = 0;
    for &gas in slices {
        let exit = emu.run(gas);
        if exit != Exit::OutOfGas {
            return (exit, emu.stats, emu.cpu);
        }
        retired += gas;
        assert_eq!(emu.stats.instructions, retired, "gas {gas} overran");
    }
    let exit = emu.run(GAS);
    (exit, emu.stats, emu.cpu)
}

/// A loop of several blocks that exercises every run-dependent charge:
/// d-cache misses and hits, a division banking slack, NOPs hiding in it
/// and a bus-locking NOP that never hides, a print syscall, a call and
/// return, and a conditional branch taken five times of six.
fn program() -> Vec<Inst> {
    let prologue = [Inst::MovRI(Reg::Ecx, 6), Inst::MovRI(Reg::Esi, 0)];
    let before_call = vec![
        Inst::MovMR(Mem::abs(DATA_BASE + 0x40), Reg::Ecx),
        Inst::MovRM(Reg::Eax, Mem::abs(DATA_BASE + 0x40)),
        Inst::AluMI(AluOp::Add, Mem::abs(DATA_BASE + 0x880), 3),
        Inst::Nop(NopKind::Nop),
        Inst::ImulRR(Reg::Eax, Reg::Eax),
        Inst::PushR(Reg::Eax),
        Inst::PopR(Reg::Edx),
        Inst::MovRI(Reg::Eax, 100),
        Inst::Cdq,
        Inst::IdivR(Reg::Ecx),
        Inst::Nop(NopKind::Nop),
        Inst::Nop(NopKind::MovEspEsp),
        Inst::Nop(NopKind::LeaEsiEsi),
        Inst::Nop(NopKind::XchgEspEsp),
        Inst::MovRR(Reg::Ebx, Reg::Ecx),
        Inst::MovRI(Reg::Eax, 4),
        Inst::Int(0x80),
        Inst::Lea(Reg::Edi, Mem::base_disp(Reg::Esi, 4)),
        Inst::ShiftRI(ShiftOp::Shl, Reg::Edi, 2),
    ];
    let after_call = [Inst::DecR(Reg::Ecx)];
    let exit = [
        Inst::MovRR(Reg::Ebx, Reg::Esi),
        Inst::MovRI(Reg::Eax, 1),
        Inst::Int(0x80),
    ];
    // The loop body is `before_call`, a 5-byte call, `after_call`; the
    // 2-byte `jne` closes it; the callee follows the exit stub.
    let body = size(&before_call) + 5 + size(&after_call);
    let call_end = size(&prologue) + size(&before_call) + 5;
    let callee = size(&prologue) + body + 2 + size(&exit);
    let mut insts = prologue.to_vec();
    insts.extend(before_call);
    insts.push(Inst::CallRel((callee - call_end) as i32));
    insts.extend(after_call);
    insts.push(Inst::Jcc8(Cond::Ne, -((body + 2) as i8)));
    insts.extend(exit);
    insts.extend([Inst::AluRR(AluOp::Add, Reg::Esi, Reg::Ecx), Inst::Ret]);
    insts
}

#[test]
fn the_loop_program_runs_every_charge() {
    let (exit, stats, _) = run_sliced(&program(), &[]);
    assert_eq!(exit, Exit::Exited(21));
    assert_eq!(stats.output, vec![6, 5, 4, 3, 2, 1]);
    assert!(stats.dcache_misses > 0 && stats.dcache_hits > 0);
    assert!(stats.slack_hidden > 0);
    assert_eq!((stats.branch_taken, stats.branch_not_taken), (5, 1));
    assert_eq!(stats.mix(InstClass::Xchg), 6, "the locking NOP never hides");
    assert_eq!(stats.inst_mix.iter().sum::<u64>(), stats.instructions);
}

#[test]
fn a_run_cut_by_gas_anywhere_resumes_to_the_same_end_state() {
    let insts = program();
    let full = run_sliced(&insts, &[]);
    let total = full.1.instructions;
    for k in 1..total {
        assert_eq!(run_sliced(&insts, &[k]), full, "cut after {k} instructions");
    }
    // Every instruction its own run.
    let singles = vec![1; total as usize - 1];
    assert_eq!(
        run_sliced(&insts, &singles),
        full,
        "one instruction per run"
    );
    // Uneven slices that straddle block boundaries.
    assert_eq!(run_sliced(&insts, &[3, 7, 1, 11, 2, 19, 5]), full);
    // Gas of exactly the run's length still finishes it; zero gas
    // retires nothing.
    assert_eq!(run_sliced(&insts, &[0, total]), full);
    let mut emu = emulator(&insts);
    assert_eq!(emu.run(0), Exit::OutOfGas);
    assert_eq!(emu.stats, RunStats::default());
    assert_eq!(emu.cpu.eip, TEXT_BASE);
}

#[test]
fn gas_stops_straight_line_code_at_the_exact_instruction() {
    let insts = [
        Inst::MovRI(Reg::Eax, 1),
        Inst::MovRI(Reg::Ebx, 2),
        Inst::Nop(NopKind::Nop),
        Inst::MovRI(Reg::Ecx, 3),
        Inst::MovRI(Reg::Edx, 4),
        Inst::Hlt,
    ];
    for k in 1..insts.len() {
        let mut emu = emulator(&insts);
        assert_eq!(emu.run(k as u64), Exit::OutOfGas);
        assert_eq!(emu.stats.instructions, k as u64);
        assert_eq!(emu.cpu.eip, addr_of(&insts, k), "after {k}");
        // Exactly the first k instructions wrote their register.
        let written = [
            (Reg::Eax, 1, 1),
            (Reg::Ebx, 2, 2),
            (Reg::Ecx, 3, 4),
            (Reg::Edx, 4, 5),
        ];
        for (r, v, by) in written {
            assert_eq!(
                emu.cpu.get(r),
                if k >= by { v } else { 0 },
                "{r:?} after {k}"
            );
        }
    }
}

/// Straight-line code with `trap` as instruction 3 of 6.
fn with_trap(trap: Inst) -> Vec<Inst> {
    vec![
        Inst::MovRI(Reg::Ebx, 7),
        Inst::Nop(NopKind::Nop),
        Inst::MovRI(Reg::Ecx, 0),
        trap,
        Inst::MovRI(Reg::Edx, 9),
        Inst::MovRI(Reg::Esi, 9),
    ]
}

/// The exit a trap should give, from the trapping instruction's address.
type Expected = fn(u32) -> Exit;

#[test]
fn traps_mid_block_stop_at_their_own_instruction() {
    const OOB: u32 = DATA_BASE + 4096;
    // eax is 0 at each `int`: not a syscall this emulator knows.
    let cases: [(Inst, Expected); 6] = [
        (Inst::MovMI(Mem::abs(OOB), 1), |pc| Exit::Fault {
            pc,
            fault: Fault::Unmapped { addr: OOB },
        }),
        (Inst::Hlt, |addr| Exit::Halted { addr }),
        (Inst::Int(0x80), |addr| Exit::BadSyscall { addr, eax: 0 }),
        (Inst::Int(3), |addr| Exit::BadSyscall { addr, eax: 0 }),
        (Inst::IdivR(Reg::Ecx), |addr| Exit::DivideError { addr }),
        (Inst::ShiftRI(ShiftOp::Rcl, Reg::Ebx, 1), |addr| {
            Exit::Unsupported {
                addr,
                name: "rcl/rcr",
            }
        }),
    ];
    for (trap, expected) in cases {
        let insts = with_trap(trap);
        let expected = expected(addr_of(&insts, 3));
        let full = run_sliced(&insts, &[]);
        let (exit, stats, cpu) = &full;
        assert_eq!(*exit, expected, "{trap:?}");
        // The trapping instruction retires; nothing after it runs.
        assert_eq!(stats.instructions, 4, "{trap:?}");
        assert_eq!(stats.inst_mix.iter().sum::<u64>(), 4);
        assert_eq!(cpu.eip, addr_of(&insts, 4), "{trap:?}");
        assert_eq!((cpu.get(Reg::Ebx), cpu.get(Reg::Edx)), (7, 0));
        for k in 1..4 {
            assert_eq!(run_sliced(&insts, &[k]), full, "{trap:?} cut at {k}");
        }
    }
}

#[test]
fn the_exit_syscall_mid_block_retires_it_and_nothing_after() {
    let insts = [
        Inst::MovRI(Reg::Ebx, 5),
        Inst::MovRI(Reg::Eax, 1),
        Inst::Int(0x80),
        Inst::MovRI(Reg::Ebx, 6),
    ];
    let (exit, stats, cpu) = run_sliced(&insts, &[]);
    assert_eq!(exit, Exit::Exited(5));
    assert_eq!(stats.instructions, 3);
    assert_eq!(cpu.eip, addr_of(&insts, 3));
}

#[test]
fn undecodable_bytes_after_a_block_stop_there_without_retiring() {
    // `mov ebx, 1` then a byte that does not decode: the block ends
    // before it, and reaching it is the exit.
    let mut text = assemble(&[Inst::MovRI(Reg::Ebx, 1)]).expect("assembles");
    let bad = TEXT_BASE + text.len() as u32;
    text.push(0x0F);
    text.push(0xFF);
    let mut emu = Emulator::new(TEXT_BASE, text, DATA_BASE, vec![0; 64], STACK_TOP);
    emu.cpu.eip = TEXT_BASE;
    assert_eq!(emu.run(GAS), Exit::InvalidInstruction { addr: bad });
    assert_eq!(emu.stats.instructions, 1);
    assert_eq!(emu.cpu.eip, bad);
    // Falling off the end of text is a fetch fault at the first byte
    // past it.
    let text = assemble(&[Inst::MovRI(Reg::Ebx, 1)]).expect("assembles");
    let end = TEXT_BASE + text.len() as u32;
    let mut emu = Emulator::new(TEXT_BASE, text, DATA_BASE, vec![0; 64], STACK_TOP);
    emu.cpu.eip = TEXT_BASE;
    assert_eq!(
        emu.run(GAS),
        Exit::Fault {
            pc: end,
            fault: Fault::Unmapped { addr: end },
        }
    );
    assert_eq!(emu.stats.instructions, 1);
}
