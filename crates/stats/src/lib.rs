//! Statistical and numerical substrate for NTC memory reliability modeling.
//!
//! Near-threshold memory reliability work lives and dies on Gaussian tail
//! arithmetic: a bit cell fails when its noise margin — a Gaussian random
//! variable over process variation — crosses zero, and system-level failure
//! targets sit at probabilities around 1e-15 (the FIT bound used by
//! Gemmeke et al., DATE 2014). This crate provides the numerical pieces the
//! rest of the workspace builds on:
//!
//! * [`math`] — error function family ([`erf`], [`erfc`], [`ln_erfc`]), the
//!   standard normal CDF [`phi`] and its inverse [`inv_phi`] (probit),
//!   accurate deep into the tail where failure probabilities of 1e-20 must
//!   still carry relative precision.
//! * [`fit`] — least-squares fitting used to recover the paper's model
//!   constants from synthetic measurement data: straight lines, probit-domain
//!   lines (Eq. 4 of the paper) and the `A·(V0 − V)^k` access-failure power
//!   law (Eq. 5).
//! * [`mc`] — Monte-Carlo bookkeeping: streaming mean/variance, rare-event
//!   counters, percentiles; [`mc::tilted`] adds the exponential-tilt
//!   importance sampler that reaches the 1e-12…1e-15 regime directly.
//! * [`opt`] — deterministic constrained minimization: coordinate descent
//!   with seeded restarts over discrete axes plus golden-section
//!   refinement of one continuous axis, merged in restart order so the
//!   winner is bit-identical at any thread count.
//! * [`batch`] — structure-of-arrays block kernels: block fills, exact
//!   integer-domain threshold tests and counter-based lane generation, so
//!   the Monte-Carlo hot loop auto-vectorizes while staying bit-identical
//!   to the scalar path.
//! * [`diag`] — convergence diagnostics over the sharded Monte-Carlo
//!   layout (standard error, CI half-width, split-half check) published
//!   through `ntc-obs` gauges.
//! * [`ckpt`] — per-shard checkpointing for the keyed collectives: stable
//!   accumulator serialization ([`ckpt::Persist`]), integrity-hashed shard
//!   envelopes, and a pluggable [`ckpt::CheckpointSink`] so interrupted or
//!   multi-worker sweeps resume bit-identically.
//! * [`sweep`] — voltage sweep helpers (`linspace`, `logspace`).
//! * [`rng`] — deterministic random sampling (uniform, standard normal) so
//!   every experiment in the workspace is reproducible from a seed.
//!
//! # Example
//!
//! Probability that a cell with noise margin `NM ~ N(0.2 V, 40 mV)` has a
//! negative margin (i.e. fails):
//!
//! ```
//! use ntc_stats::phi;
//!
//! // The margin sits 0.2 / 0.04 = 5 standard deviations above zero.
//! let p_fail = phi((0.0 - 0.2) / 0.04);
//! assert!(p_fail > 2.8e-7 && p_fail < 2.9e-7);
//! ```

// `deny` rather than `forbid`: the SoA lane kernel in `batch` carries one
// narrowly scoped `#[allow(unsafe_code)]` for its runtime-dispatched
// `target_feature` SIMD path; everything else stays safe code.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod ckpt;
pub mod diag;
pub mod exec;
pub mod fit;
pub mod math;
pub mod mc;
pub mod opt;
pub mod rng;
pub mod sweep;

pub use math::{erf, erfc, inv_phi, ln_erfc, phi};
