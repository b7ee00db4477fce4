//! Cycle-level SoC simulator — the workspace's stand-in for MPARM.
//!
//! The paper evaluates its error-mitigation schemes on a simulated
//! single-core platform: a 32-bit ARM9-class processor with 4 KB
//! instruction memory and 8 KB scratchpad data memory (the NXP-like SoC of
//! its Figure 6), simulated cycle-accurately in MPARM with energy from
//! CACTI. This crate rebuilds that stack in Rust:
//!
//! * [`isa`] — a compact 32-bit RISC instruction set with a *bit-exact
//!   binary encoding*, so instruction memory is real bits that fault
//!   injection can flip.
//! * [`asm`] — a small two-pass assembler with labels, used by the test
//!   programs and the FFT kernel.
//! * [`machine`] — the processor core: 16 registers, ARM9-flavoured cycle
//!   costs, precise traps.
//! * [`memory`] — memory backends: raw (errors corrupt data silently),
//!   SECDED-protected, and the interleaved protected buffer; plus the
//!   voltage-dependent fault injector that flips bits per access according
//!   to an [`ntc_sram::AccessLaw`].
//! * [`platform`] — the assembled SoC of Figure 6 (core, IM, SP, PM, bus)
//!   with a per-module dynamic/leakage energy ledger.
//! * [`dma`] — the checkpoint DMA engine of Figure 6's OCEAN hardware:
//!   block transfers between scratchpad and protected memory with stall
//!   accounting and detection-driven aborts.
//! * [`fft`] — the paper's benchmark workload: a 1024-point fixed-point
//!   radix-2 FFT, as a native reference implementation and as an assembly
//!   program for the simulated core.
//! * [`fir`] — a second streaming workload (block FIR filter), backing the
//!   paper's "applicable to other streaming applications" claim.
//! * [`profile`] — instruction-mix and memory-traffic measurement, feeding
//!   the OCEAN phase optimizer with real workload numbers.
//!
//! # Example
//!
//! ```
//! use ntc_sim::asm::assemble;
//! use ntc_sim::machine::Core;
//! use ntc_sim::memory::RawMemory;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let program = assemble(
//!     "addi r1, r0, 21
//!      add  r1, r1, r1
//!      sw   r1, 0(r0)
//!      halt",
//! )?;
//! let mut core = Core::new();
//! let mut sp = RawMemory::new(16);
//! let outcome = core.run(&program, &mut sp, 100)?;
//! assert!(outcome.halted);
//! assert_eq!(sp.load(0), 42);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod asm;
pub mod dma;
pub mod fft;
pub mod fir;
pub mod isa;
pub mod machine;
pub mod memory;
pub mod platform;
pub mod profile;

pub use isa::{Instruction, Reg};
pub use machine::Core;
pub use memory::{FaultInjector, ProtectedMemory, RawMemory, SecdedMemory};
pub use platform::{Platform, PlatformConfig};
