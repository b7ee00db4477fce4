//! Technology cards and transregional device/delay models for
//! near-threshold computing.
//!
//! The DATE 2014 paper anchors its measurements in a 40 nm low-power planar
//! CMOS process and extrapolates to 14 nm finFET and 10 nm multi-gate
//! devices (its Figure 10). This crate is the workspace's stand-in for the
//! foundry: it provides
//!
//! * [`card`] — [`TechnologyCard`]s describing each node (threshold voltage,
//!   subthreshold slope, DIBL, Pelgrom mismatch coefficient, capacitances,
//!   nominal supply), with presets for the four nodes the paper touches:
//!   [`card::n40lp`], [`card::n65lp`], [`card::n14finfet`],
//!   [`card::n10gaa`].
//! * [`device`] — a continuous EKV-flavoured drain-current model valid from
//!   sub- through super-threshold, plus subthreshold leakage with DIBL.
//! * [`inverter`] — inverter delay vs. supply voltage with its
//!   process-variation spread (analytic sensitivity and Monte Carlo),
//!   the model behind Figure 10.
//!
//! Units are SI throughout: volts, seconds, farads, amperes, joules, meters
//! (features in nanometers only where the name says so).
//!
//! # Example
//!
//! ```
//! use ntc_tech::card;
//! use ntc_tech::inverter::Inverter;
//!
//! let inv14 = Inverter::fo4(&card::n14finfet());
//! let inv10 = Inverter::fo4(&card::n10gaa());
//! // Near threshold, the 10 nm device is roughly 2x faster (paper Fig. 10).
//! let speedup = inv14.delay(0.5) / inv10.delay(0.5);
//! assert!(speedup > 1.6 && speedup < 3.4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod card;
pub mod device;
pub mod inverter;

pub use card::{DeviceArchitecture, TechnologyCard};
pub use device::Device;
pub use inverter::Inverter;
