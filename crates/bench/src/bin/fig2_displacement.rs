//! Regenerates the paper's **Figure 2**: NOP insertion displaces all
//! following instructions by accumulating random offsets, and — because
//! x86 decodes differently at shifted offsets — destroys unintended
//! gadgets outright.
//!
//! The binary builds one program twice (baseline and diversified), then
//! shows (a) how function displacements grow through the image and (b) a
//! concrete gadget from the original that no longer decodes to anything
//! equivalent in the diversified version.

use pgsd_bench::prepare;
use pgsd_core::driver::BuildConfig;
use pgsd_core::Strategy;
use pgsd_gadget::{find_gadgets, gadget_at, ScanConfig};
use pgsd_x86::nop::NopTable;
use pgsd_x86::{decode, DecodeError};

fn disasm_at(text: &[u8], mut off: usize, end: usize) -> Vec<String> {
    let mut out = Vec::new();
    while off < end && off < text.len() {
        match decode(&text[off..]) {
            Ok(d) => {
                let bytes: Vec<String> = text[off..off + d.len]
                    .iter()
                    .map(|b| format!("{b:02x}"))
                    .collect();
                out.push(format!("  +{off:#06x}: {:<21} {d}", bytes.join(" ")));
                off += d.len;
            }
            Err(DecodeError::Invalid) => {
                out.push(format!("  +{off:#06x}: {:02x} (invalid)", text[off]));
                break;
            }
            Err(DecodeError::Truncated) => break,
        }
    }
    out
}

fn main() {
    let workload = pgsd_workloads::by_name("401.bzip2").expect("suite workload");
    let prepared = prepare(workload);
    let base = &prepared.baseline;
    let div = prepared
        .session
        .build_with(&BuildConfig::diversified(Strategy::uniform(0.5), 3))
        .expect("diversified build");

    println!("Figure 2: effect of NOP insertion on program code\n");

    // (a) displacement accumulates with distance from the image start.
    println!("function displacement through the image (pNOP=50%, one seed):");
    println!(
        "{:<16} {:>12} {:>12} {:>14}",
        "function", "base offset", "div offset", "displacement"
    );
    for (shown, (b, d)) in base.funcs.iter().zip(div.funcs.iter()).enumerate() {
        assert_eq!(b.name, d.name);
        let bo = b.start - base.base;
        let do_ = d.start - div.base;
        if shown % 3 == 0 || !b.diversified {
            println!(
                "{:<16} {:>12} {:>12} {:>+14}",
                truncate(&b.name, 16),
                format!("{bo:#x}"),
                format!("{do_:#x}"),
                i64::from(do_) - i64::from(bo)
            );
        }
    }

    // (b) find an original gadget destroyed at its offset. The per-gadget
    // predicate is evaluated as parallel jobs; "first destroyed" then
    // picks by gadget order, so the choice is thread-count invariant.
    let cfg = ScanConfig::default();
    let table = NopTable::new();
    let gadgets = find_gadgets(&base.text, &cfg);
    let destroyed_flags = pgsd_exec::map_indexed(pgsd_bench::threads(), &gadgets, |_, g| {
        // Past the undiversified runtime, with a multi-instruction body.
        let in_user = base.funcs.iter().any(|f| {
            f.diversified
                && (g.offset as u32) >= f.start - base.base
                && (g.offset as u32) < f.end - base.base
        });
        if !in_user || g.len < 4 || g.offset >= div.text.len() {
            return false;
        }
        match gadget_at(&div.text, g.offset, &cfg) {
            None => true,
            Some(len) => {
                table.strip(g.bytes(&base.text)) != table.strip(&div.text[g.offset..g.offset + len])
            }
        }
    });
    let destroyed = gadgets
        .iter()
        .zip(&destroyed_flags)
        .find(|(_, &flag)| flag)
        .map(|(g, _)| g);

    match destroyed {
        Some(g) => {
            println!("\ngadget at offset {:#x} in the ORIGINAL binary:", g.offset);
            for l in disasm_at(&base.text, g.offset, g.offset + g.len) {
                println!("{l}");
            }
            println!("\nsame offset in the DIVERSIFIED binary:");
            for l in disasm_at(&div.text, g.offset, g.offset + g.len + 6) {
                println!("{l}");
            }
            match gadget_at(&div.text, g.offset, &cfg) {
                None => println!("\n=> no valid gadget decodes here any more: gadget removed."),
                Some(_) => println!("\n=> a gadget still decodes here, but it is not equivalent."),
            }
        }
        None => println!("\n(no destroyed user gadget found — unexpected at pNOP=50%)"),
    }

    let survivors = pgsd_gadget::survivor(&base.text, &div.text, &table, &cfg);
    println!(
        "\noverall: {} of {} original gadgets survive this one version ({:.2}%)",
        survivors.count(),
        survivors.baseline,
        100.0 * survivors.surviving_fraction()
    );
}

fn truncate(s: &str, n: usize) -> String {
    if s.len() <= n {
        s.to_string()
    } else {
        format!("{}…", &s[..n - 1])
    }
}
