//! # pgsd-x86 — IA-32 instruction model, encoder and decoder
//!
//! Foundation crate of the *profile-guided automated software diversity*
//! reproduction (Homescu et al., CGO 2013). Everything in the toolchain that
//! touches machine code goes through this crate:
//!
//! * the compiler backend assembles [`Inst`] values with [`encode()`];
//! * the emulator and the gadget scanner disassemble raw bytes with
//!   [`decode()`], which accepts the full one-byte opcode map (plus common
//!   `0F` opcodes) so that *arbitrary* byte sequences — the gadget scanner's
//!   bread and butter — can be classified as valid or invalid x86;
//! * the diversifying NOP candidates of the paper's Table 1 live in
//!   [`nop`].
//!
//! # Examples
//!
//! Assemble, then disassemble, a function epilogue:
//!
//! ```
//! use pgsd_x86::{assemble, decode_all, Inst, Reg};
//!
//! let bytes = assemble(&[Inst::PopR(Reg::Ebp), Inst::Ret])?;
//! let insts = decode_all(&bytes);
//! assert_eq!(insts.len(), 2);
//! assert!(insts[1].1.is_free_branch());
//! # Ok::<(), pgsd_x86::EncodeError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cond;
pub mod decode;
mod effects;
pub mod encode;
mod inst;
pub mod nop;
mod reg;

pub use cond::Cond;
pub use decode::{decode, decode_all, Body, CfKind, Class, DecodeError, Decoded, OtherInst};
pub use encode::{assemble, encode, encoded_len, EncodeError};
pub use inst::{AluOp, Inst, Mem, Scale, ShiftOp};
pub use reg::Reg;
