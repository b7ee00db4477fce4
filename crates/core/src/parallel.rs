//! The parallelism argument of Section V.
//!
//! "For the highest frequency the gains are very limited because we cannot
//! reduce the voltage … This motivates the use of parallelism to allow
//! reducing the required frequencies and to exploit the quadratic voltage
//! gains at a quasi-linear parallelization cost (applications like FFT
//! support this)."
//!
//! [`ParallelPlan`] makes that quantitative: splitting a throughput
//! requirement over `n` cores lets each run at `f/n`, which lowers the
//! required supply through the platform timing model; dynamic energy per
//! operation falls quadratically with that voltage while area/leakage grow
//! ~linearly with `n`. The sweet spot is where leakage growth catches up
//! with the quadratic gain.

use crate::fit::{FitSolver, Scheme};
use ntc_sim::platform::{Platform, PlatformConfig, Protection};
use ntc_sim::memory::RawMemory;
use ntc_sim::asm::assemble;
use ntc_sim::fft::{fft_program, random_input, scratchpad_words, twiddle_table};
use std::fmt;

/// One candidate degree of parallelism.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ParallelPoint {
    /// Number of cores.
    pub cores: u32,
    /// Clock each core runs at, hertz.
    pub per_core_hz: f64,
    /// Operating voltage satisfying both the FIT budget and per-core
    /// timing.
    pub vdd: f64,
    /// Total power of all cores at that point, watts.
    pub power_w: f64,
    /// Energy per (aggregate) workload unit relative to the single-core
    /// plan (1.0 = same).
    pub relative_energy: f64,
}

impl fmt::Display for ParallelPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} cores @ {:.3} MHz, {:.2} V: {:.3} µW ({:.2}x energy)",
            self.cores,
            self.per_core_hz / 1e6,
            self.vdd,
            self.power_w * 1e6,
            self.relative_energy
        )
    }
}

/// Explores degrees of parallelism for a fixed aggregate throughput.
///
/// # Example
///
/// ```no_run
/// use ntc::parallel::ParallelPlan;
/// use ntc::fit::Scheme;
///
/// let plan = ParallelPlan::new(1.96e6, Scheme::Ocean);
/// let points = plan.explore(&[1, 2, 4]);
/// // Two cores at half frequency each reach a lower voltage than one.
/// assert!(points[1].vdd < points[0].vdd);
/// ```
#[derive(Debug, Clone)]
pub struct ParallelPlan {
    aggregate_hz: f64,
    scheme: Scheme,
    solver: FitSolver,
}

impl ParallelPlan {
    /// Plans for an aggregate throughput requirement under `scheme`
    /// (cell-based memory, FIT 1e-15, paper grid off — exact voltages, so
    /// the voltage benefit of each doubling is visible).
    ///
    /// # Panics
    ///
    /// Panics if `aggregate_hz` is not finite and positive.
    pub fn new(aggregate_hz: f64, scheme: Scheme) -> Self {
        assert!(
            aggregate_hz.is_finite() && aggregate_hz > 0.0,
            "throughput must be positive"
        );
        Self {
            aggregate_hz,
            scheme,
            solver: FitSolver::new(
                ntc_sram::failure::AccessLaw::cell_based_40nm(),
                1e-15,
            ),
        }
    }

    /// The operating point for one degree of parallelism: each of `cores`
    /// runs at `aggregate/cores`, at the max(FIT, timing) voltage; power
    /// is measured by actually running the FFT workload on one core's
    /// platform and multiplying (quasi-linear parallelization cost: the
    /// paper's assumption, and exact for data-parallel FFT batches).
    ///
    /// # Panics
    ///
    /// Panics if `cores == 0`.
    pub fn point(&self, cores: u32) -> ParallelPoint {
        assert!(cores > 0, "need at least one core");
        let per_core_hz = self.aggregate_hz / cores as f64;
        let solved = self
            .solver
            .solve(self.scheme, per_core_hz, crate::fit::paper_platform_f_max);
        let vdd = solved.operating;
        // Measure one core's power on the real workload.
        let n = 128;
        let program = assemble(&fft_program(n)).expect("assembles");
        let cfg = PlatformConfig::mparm_like(vdd, per_core_hz, Protection::None);
        let mut sp = RawMemory::new(scratchpad_words(n).next_power_of_two());
        for (i, &w) in random_input(n, 7)
            .iter()
            .chain(twiddle_table(n).iter())
            .enumerate()
        {
            sp.store(i, w);
        }
        let mut platform = Platform::new(&cfg, program, sp, None);
        platform.run(u64::MAX).expect("error-free run");
        let elapsed = platform.cycles() as f64 / per_core_hz;
        let per_core_power = platform.ledger().total_j() / elapsed;
        ParallelPoint {
            cores,
            per_core_hz,
            vdd,
            power_w: per_core_power * cores as f64,
            relative_energy: 0.0, // filled by explore()
        }
    }

    /// Explores a set of core counts, normalizing energy to the first.
    ///
    /// # Panics
    ///
    /// Panics if `core_counts` is empty or contains zero.
    pub fn explore(&self, core_counts: &[u32]) -> Vec<ParallelPoint> {
        assert!(!core_counts.is_empty(), "need at least one candidate");
        let mut points: Vec<ParallelPoint> =
            core_counts.iter().map(|&c| self.point(c)).collect();
        // At fixed aggregate throughput, energy per work unit ∝ total power.
        let base = points[0].power_w;
        for p in &mut points {
            p.relative_energy = p.power_w / base;
        }
        points
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallelism_lowers_voltage_until_the_error_floor() {
        let plan = ParallelPlan::new(1.96e6, Scheme::Ocean);
        let pts = plan.explore(&[1, 2, 4, 8]);
        // Voltage falls with each doubling until the FIT floor (0.33 V).
        assert!(pts[0].vdd > pts[1].vdd, "{} vs {}", pts[0].vdd, pts[1].vdd);
        assert!(pts[1].vdd >= pts[2].vdd);
        let floor = plan.solver.error_constrained_voltage(Scheme::Ocean);
        assert!(pts[3].vdd >= floor - 1e-9);
        assert!((pts[3].vdd - floor).abs() < 0.05, "deep parallelism hits the floor");
    }

    #[test]
    fn two_cores_save_energy_at_high_throughput() {
        // The paper's motivating case: at 1.96 MHz the single-core OCEAN
        // point is performance-limited (0.44 V); two cores at 0.98 MHz
        // each run lower and save net energy despite double leakage.
        let plan = ParallelPlan::new(1.96e6, Scheme::Ocean);
        let pts = plan.explore(&[1, 2]);
        assert!(
            pts[1].relative_energy < 1.0,
            "2 cores should save energy: {:.2}x",
            pts[1].relative_energy
        );
    }

    #[test]
    fn diminishing_returns_once_voltage_floors() {
        let plan = ParallelPlan::new(290e3, Scheme::Ocean);
        // Already at the error floor single-core: extra cores only add
        // leakage.
        let pts = plan.explore(&[1, 2]);
        assert!(
            pts[1].relative_energy > 1.0,
            "parallelizing a floored design must cost energy: {:.2}x",
            pts[1].relative_energy
        );
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn zero_cores_rejected() {
        ParallelPlan::new(1e6, Scheme::Secded).point(0);
    }

    #[test]
    fn display_nonempty() {
        let p = ParallelPlan::new(1.96e6, Scheme::Secded).point(1);
        assert!(!p.to_string().is_empty());
    }
}
