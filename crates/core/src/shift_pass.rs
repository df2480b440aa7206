//! Basic-block shifting (paper §6, future work).
//!
//! NOP insertion adds little diversity at the *start* of a function —
//! displacements accumulate with distance, so the first instructions
//! barely move. The paper proposes inserting "a dummy basic block of
//! random size at the beginning of each function" that execution jumps
//! over: near-zero dynamic cost (one jump), but every subsequent offset in
//! the function is shifted by a random amount.
//!
//! Implementation: each diversifiable function gets a new entry block that
//! jumps over a dead padding block filled with a random number of NOPs;
//! the padding block falls through into the original entry.

use pgsd_telemetry::Telemetry;
use pgsd_x86::nop::NopTable;
use rand::Rng;

use pgsd_cc::lir::{MBlock, MFunction, MInst, MTarget, MTerm};

/// Summary of one shifting run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShiftReport {
    /// Functions shifted.
    pub functions: u64,
    /// Total padding NOPs inserted.
    pub pad_nops: u64,
    /// Total padding bytes inserted.
    pub pad_bytes: u64,
}

/// Applies basic-block shifting to every diversifiable function, with a
/// uniform padding size in `0..=max_pad` NOPs drawn per function,
/// recording function/pad counters and a `shift.pad_len` histogram of
/// the drawn shift distances into `tel`.
pub fn shift_blocks(
    funcs: &mut [MFunction],
    max_pad: usize,
    table: &NopTable,
    rng: &mut impl Rng,
    tel: &Telemetry,
) -> ShiftReport {
    assert!(!table.is_empty(), "NOP table must not be empty");
    let mut report = ShiftReport::default();
    for func in funcs.iter_mut() {
        if !func.diversify || func.blocks.is_empty() {
            continue;
        }
        // Renumber: old block i becomes i + 2.
        for block in &mut func.blocks {
            retarget(&mut block.term, |t| t + 2);
        }
        let pad_len = rng.gen_range(0..=max_pad);
        let mut pad = Vec::with_capacity(pad_len);
        for _ in 0..pad_len {
            let idx = rng.gen_range(0..table.len());
            let kind = table.kind(idx);
            report.pad_bytes += kind.bytes().len() as u64;
            pad.push(MInst::Nop { kind });
        }
        tel.observe("shift.pad_len", pad_len as u64);
        report.pad_nops += pad_len as u64;
        report.functions += 1;
        // New block 0: jump over the padding to the original entry (now
        // block 2). New block 1: the dead padding, falling through.
        let jump = MBlock {
            instrs: Vec::new(),
            term: MTerm::Jmp(MTarget::M(2)),
            ir_block: func.blocks[0].ir_block,
        };
        let padding = MBlock {
            instrs: pad,
            term: MTerm::Jmp(MTarget::M(2)),
            ir_block: None,
        };
        func.blocks.splice(0..0, [jump, padding]);
    }
    tel.add("shift.functions", report.functions);
    tel.add("shift.pad_nops", report.pad_nops);
    tel.add("shift.pad_bytes", report.pad_bytes);
    report
}

fn retarget(term: &mut MTerm, f: impl Fn(u32) -> u32) {
    let fix = |t: &mut MTarget| {
        if let MTarget::M(n) = t {
            *n = f(*n);
        }
    };
    match term {
        MTerm::Jmp(t) => fix(t),
        MTerm::JCond { t, f: fl, .. } => {
            fix(t);
            fix(fl);
        }
        MTerm::Ret => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgsd_cc::driver::{emit_image, frontend, lower_module_seeded};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const SRC: &str = "int add(int a, int b) { return a + b; }
                       int main(int n) { return add(n, 1); }";

    #[test]
    fn shifted_program_still_runs_correctly() {
        let module = frontend("t", SRC).unwrap();
        let mut funcs = lower_module_seeded(&module, None).unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        let rep = shift_blocks(
            &mut funcs,
            24,
            &NopTable::new(),
            &mut rng,
            &Telemetry::disabled(),
        );
        assert!(rep.functions >= 2);
        let image = emit_image(&funcs, &module).unwrap();

        let mut emu = pgsd_emu::Emulator::new(
            image.base,
            image.text.clone(),
            image.data_base,
            image.data.clone(),
            pgsd_cc::emit::STACK_TOP,
        );
        emu.call_entry(image.main_addr, image.exit_addr, &[41]);
        assert_eq!(emu.run(100_000), pgsd_emu::Exit::Exited(42));
    }

    #[test]
    fn function_bodies_are_displaced() {
        let module = frontend("t", SRC).unwrap();
        let baseline = emit_image(&lower_module_seeded(&module, None).unwrap(), &module).unwrap();

        let mut funcs = lower_module_seeded(&module, None).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        shift_blocks(
            &mut funcs,
            32,
            &NopTable::new(),
            &mut rng,
            &Telemetry::disabled(),
        );
        let shifted = emit_image(&funcs, &module).unwrap();

        // main's body must start at a different offset (pad > 0 with this
        // seed across two functions with overwhelming probability).
        assert_ne!(
            baseline.func("main").unwrap().start,
            shifted.func("main").unwrap().start
        );
    }

    #[test]
    fn padding_is_dead_code() {
        // Execution count must be identical with and without shifting.
        let module = frontend("t", SRC).unwrap();
        let run = |funcs: &[pgsd_cc::lir::MFunction]| {
            let image = emit_image(funcs, &module).unwrap();
            let mut emu = pgsd_emu::Emulator::new(
                image.base,
                image.text.clone(),
                image.data_base,
                image.data.clone(),
                pgsd_cc::emit::STACK_TOP,
            );
            emu.call_entry(image.main_addr, image.exit_addr, &[1]);
            let exit = emu.run(100_000);
            (exit, emu.stats.instructions)
        };
        let base_funcs = lower_module_seeded(&module, None).unwrap();
        let (e1, n1) = run(&base_funcs);
        let mut shifted = lower_module_seeded(&module, None).unwrap();
        let mut rng = StdRng::seed_from_u64(9);
        shift_blocks(
            &mut shifted,
            32,
            &NopTable::new(),
            &mut rng,
            &Telemetry::disabled(),
        );
        let (e2, n2) = run(&shifted);
        assert_eq!(e1, e2);
        // Only the entry jumps execute extra (one per function call).
        assert!(n2 >= n1 && n2 <= n1 + 4, "n1={n1} n2={n2}");
    }

    #[test]
    fn zero_max_pad_still_valid() {
        let module = frontend("t", SRC).unwrap();
        let mut funcs = lower_module_seeded(&module, None).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let rep = shift_blocks(
            &mut funcs,
            0,
            &NopTable::new(),
            &mut rng,
            &Telemetry::disabled(),
        );
        assert_eq!(rep.pad_nops, 0);
        assert!(emit_image(&funcs, &module).is_ok());
    }
}
