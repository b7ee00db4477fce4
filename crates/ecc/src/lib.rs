//! Error-correcting codes for near-threshold memories.
//!
//! The DATE 2014 paper evaluates two hardware protection levels:
//!
//! * a **(39,32) SECDED Hamming code** on every scratchpad word — the
//!   industry-standard single-error-correct / double-error-detect scheme,
//!   implemented here bit-exactly as an odd-weight-column (Hsiao) code
//!   ([`Secded`]); and
//! * a **quadruple-error-correcting protected buffer** used by OCEAN for
//!   its checkpoints, implemented as a 4-way bit-interleaved SECDED
//!   ([`InterleavedCode`]): each lane corrects one error, so up to four
//!   errors landing in distinct lanes — and any burst of four adjacent
//!   bits — are corrected.
//!
//! Energy overheads are not hand-waved: [`energy::EccEnergyModel`] derives
//! encoder/decoder energy from the *actual XOR-gate counts* of the
//! generated parity-check matrix, scaled by supply voltage, following the
//! accounting the paper borrows from Wang et al. (JETTA 2010).
//!
//! # Example
//!
//! ```
//! use ntc_ecc::Secded;
//!
//! # fn main() -> Result<(), ntc_ecc::secded::CodeError> {
//! let code = Secded::new(32)?; // the paper's (39,32) code
//! assert_eq!(code.codeword_bits(), 39);
//!
//! let cw = code.encode(0xDEAD_BEEF);
//! let corrupted = cw ^ (1 << 7); // flip one bit
//! let outcome = code.decode(corrupted);
//! assert_eq!(outcome.data(), Some(0xDEAD_BEEF)); // corrected
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bch;
pub mod energy;
pub mod interleave;
pub mod secded;

pub use bch::{BchDecTed, BchQuad};
pub use energy::EccEnergyModel;
pub use interleave::InterleavedCode;
pub use secded::{DecodeOutcome, Secded};
