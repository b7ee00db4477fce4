//! SRAM reliability models for near-threshold operation.
//!
//! This crate is the silicon-measurement substitute of the workspace: it
//! models how bit cells of the DATE 2014 test chip fail as the supply
//! voltage is scaled, using the paper's own fitted laws.
//!
//! * [`failure`] — the two closed-form bit-failure laws:
//!   [`failure::RetentionLaw`] (Gaussian noise-margin model, Eqs. 2–4) and
//!   [`failure::AccessLaw`] (empirical power law `p = A·(V0 − V)^k`, Eq. 5),
//!   with the paper's fitted constants for the commercial 6T macro and the
//!   standard-cell-based (AOI) macro.
//! * [`words`] — exact multi-bit word-error statistics in log domain:
//!   the probability that a 39-bit SECDED codeword takes 3+ errors at
//!   p = 1e-7 is a deep-tail quantity, and the FIT solver needs it with
//!   relative accuracy.
//! * [`diemap`] — synthetic dies: spatially correlated per-bit retention
//!   voltages (systematic gradient + bowl + random mismatch), the generator
//!   behind Figure 3's failure maps and Figure 4's nine-die population.
//! * [`styles`] — the bit-cell styles compared in Table 1 (commercial 6T,
//!   custom 6T, cell-based latch, cell-based AOI) and their per-bit areas.
//!
//! # Example
//!
//! ```
//! use ntc_sram::failure::AccessLaw;
//!
//! // The paper's commercial-memory access law: A = 6, k = 6.14, V0 = 0.85.
//! let law = AccessLaw::commercial_40nm();
//! assert_eq!(law.p_bit(0.9), 0.0);        // error-free above the knee
//! assert!(law.p_bit(0.5) > 1e-3);         // but failing fast below it
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod diemap;
pub mod failure;
pub mod styles;
pub mod words;

pub use diemap::{DieMap, DieMapConfig};
pub use failure::{AccessLaw, RetentionLaw};
pub use styles::CellStyle;
pub use words::WordErrorModel;
