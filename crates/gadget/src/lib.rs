//! # pgsd-gadget — ROP gadget analysis
//!
//! The security-measurement half of the reproduction (paper §5.2):
//!
//! * [`finder`] — gadget discovery at every byte offset (x86 decoding is
//!   unaligned, so gadgets hide inside intended instructions);
//! * [`survivor()`] — the paper's Survivor algorithm: same-offset candidate
//!   matching with NOP normalization, a conservative overestimate of how
//!   many gadgets survive diversification (Table 2);
//! * [`population`] — cross-version survival: gadgets common to at least
//!   k of N diversified versions (Table 3);
//! * [`attack`] — feasibility of ROPgadget/microgadgets-style attacks
//!   from the available gadget classes (the PHP case study).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attack;
pub mod finder;
pub mod population;
pub mod survivor;

pub use attack::{
    attack_scan_config, check_attack, check_attack_on_gadgets, classify, controlled_registers,
    primitives_of_gadgets, AttackTemplate, Feasibility, Primitive,
};
pub use finder::{find_gadgets, gadget_at, Flow, Gadget, ScanConfig, TerminatorSet, TextIndex};
pub use population::{population_survival, PopulationReport};
pub use survivor::{average_survivors, normalized_gadgets, survivor, SurvivorReport};
