//! `ntc` — single-supply near-threshold memory toolkit.
//!
//! This is the top-level crate of the reproduction of *"Resolving the
//! Memory Bottleneck for Single Supply Near-Threshold Computing"*
//! (Gemmeke et al., DATE 2014). It ties the substrates together into the
//! paper's actual experiments:
//!
//! * [`fit`] — the voltage/FIT solver behind Table 2: given a memory
//!   style's access-failure law, a mitigation scheme's correction
//!   capability, a FIT budget and a performance requirement, find the
//!   minimum supply voltage (with the paper's 110 mV voltage grid).
//! * [`experiments`] — the full-system mitigation study of Figures 8/9:
//!   run the 1K-point FFT on the simulated platform under No-mitigation /
//!   SECDED / OCEAN at the solved voltages and report the per-module power
//!   breakdown, plus the headline savings ratios of the abstract.
//! * [`monitor`] — the run-time monitoring and control loop of
//!   Section IV: an ageing model drifts the minimal access voltage over a
//!   product's lifetime, and a feedback controller tracks it through the
//!   observed correction rate, adjusting the supply "run-time knob".
//!
//! # Quickstart
//!
//! ```
//! use ntc::fit::{FitSolver, Scheme, VoltageGrid};
//! use ntc_sram::AccessLaw;
//!
//! // The paper's cell-based macro at FIT ≤ 1e-15 per transaction:
//! let solver = FitSolver::new(AccessLaw::cell_based_40nm(), 1e-15)
//!     .with_grid(VoltageGrid::PaperGrid);
//! assert_eq!(solver.min_voltage(Scheme::NoMitigation), 0.55); // Table 2
//! assert_eq!(solver.min_voltage(Scheme::Secded), 0.44);
//! assert_eq!(solver.min_voltage(Scheme::Ocean), 0.33);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod api;
pub mod artifact;
pub mod error;
pub mod experiments;
pub mod fit;
pub mod journal;
pub mod repro;
pub mod monitor;
pub mod optimize;
pub mod store;

pub use error::NtcError;
pub use experiments::{ExperimentResult, MitigationPolicy, Workload};
pub use fit::{FitSolver, Scheme, VoltageGrid};
pub use monitor::{AgingModel, VoltageController};

/// The typed public facade in one import.
///
/// Everything a consumer needs to enumerate, run and check
/// reproductions — and to classify failures — without reaching into
/// submodules:
///
/// ```
/// use ntc::prelude::*;
///
/// let ctx = RunCtx::builder().quick().build();
/// let artifact = find_id(ExperimentId::Fig6).run(&ctx);
/// assert!(artifact.passed());
/// ```
pub mod prelude {
    pub use crate::artifact::{Artifact, Band, Check, PaperRef, Scalar, Series, Table};
    pub use crate::error::NtcError;
    pub use crate::fit::{FitSolver, Scheme, SolvedVoltage, VoltageGrid};
    pub use crate::repro::{
        experiment_ids, find_id, registry, run_all, run_one, Experiment, ExperimentId, RunCtx,
        RunCtxBuilder, Scale,
    };
}
