//! The voltage/FIT solver behind the paper's Table 2.
//!
//! Each mitigation scheme tolerates a number of simultaneous bit errors
//! per word before the system fails: none for unprotected operation,
//! two for (39,32) SECDED ("a triple-bit error would lead to system
//! failure"), four for OCEAN's protected buffer ("a quintuple (5 bits)
//! error is needed"). Given the memory's access-failure law
//! `p_bit(V)` and a FIT budget per transaction, the error-constrained
//! minimum voltage is where the word-failure probability crosses the
//! budget; the performance constraint adds a second floor through the
//! platform's `f_max(V)`; and the result is quantized to a voltage grid.
//!
//! The grid matters: all six operating voltages the paper reports
//! (0.55/0.44/0.33 V and 0.88/0.77/0.66 V) are exact multiples of
//! 110 mV, so [`VoltageGrid::PaperGrid`] rounds to the nearest such
//! multiple — which reproduces every one of them, including the cases
//! (0.78 → 0.77 V) where the published grid point sits marginally below
//! the exact FIT solution. [`VoltageGrid::CeilStep`] provides the strict
//! never-violate-the-budget alternative.

use ntc_memcalc::cache::CachedSoc;
use ntc_sram::failure::AccessLaw;
use ntc_sram::words::WordErrorModel;
use ntc_stats::exec::{par_map, par_map_slice};
use ntc_stats::math::bisect;
use std::fmt;
use std::sync::OnceLock;

/// A mitigation scheme, characterized by its per-word correction capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scheme {
    /// No protection: any bit error is a failure.
    NoMitigation,
    /// (39,32) SECDED: two errors per word survivable, three fail.
    Secded,
    /// OCEAN: four errors per word survivable, five fail.
    Ocean,
}

impl Scheme {
    /// All schemes in the paper's column order.
    pub const ALL: [Scheme; 3] = [Scheme::NoMitigation, Scheme::Secded, Scheme::Ocean];

    /// Bit errors per word the scheme survives.
    pub fn correctable_bits(&self) -> u32 {
        match self {
            Scheme::NoMitigation => 0,
            Scheme::Secded => 2,
            Scheme::Ocean => 4,
        }
    }

    /// Stored word width the failure statistic runs over (32 raw bits
    /// without protection, 39 codeword bits with).
    pub fn word_bits(&self) -> u32 {
        match self {
            Scheme::NoMitigation => 32,
            Scheme::Secded | Scheme::Ocean => 39,
        }
    }
}

impl fmt::Display for Scheme {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Scheme::NoMitigation => "No mitigation",
            Scheme::Secded => "ECC (SECDED)",
            Scheme::Ocean => "OCEAN",
        };
        f.write_str(s)
    }
}

/// Voltage quantization policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum VoltageGrid {
    /// No quantization: the exact solved voltage.
    Exact,
    /// Round to the *nearest* multiple of 110 mV — the grid the paper's
    /// published voltages all lie on.
    PaperGrid,
    /// Round *up* to the next multiple of the given step in millivolts —
    /// never undershoots the FIT budget.
    CeilStep(u32),
}

impl VoltageGrid {
    /// Applies the grid to an exact solution.
    ///
    /// # Panics
    ///
    /// Panics if a `CeilStep` grid has a zero step.
    pub(crate) fn quantize(&self, v: f64) -> f64 {
        match *self {
            VoltageGrid::Exact => v,
            VoltageGrid::PaperGrid => {
                let step = 0.11;
                let k = (v / step).round();
                round_mv(k * step)
            }
            VoltageGrid::CeilStep(mv) => {
                assert!(mv > 0, "grid step must be nonzero");
                let step = mv as f64 / 1000.0;
                round_mv((v / step).ceil() * step)
            }
        }
    }
}

/// Round to a whole millivolt so grid voltages compare exactly.
fn round_mv(v: f64) -> f64 {
    (v * 1000.0).round() / 1000.0
}

/// One row of a solved operating-point table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolvedVoltage {
    /// The scheme solved for.
    pub scheme: Scheme,
    /// Exact error-constrained voltage (before grid and performance).
    pub error_constrained: f64,
    /// Exact performance-constrained voltage, if a frequency was given.
    pub performance_constrained: Option<f64>,
    /// Final grid-quantized operating voltage.
    pub operating: f64,
}

/// The FIT solver.
///
/// # Example
///
/// ```
/// use ntc::fit::{FitSolver, Scheme, VoltageGrid};
/// use ntc_sram::AccessLaw;
///
/// // The commercial macro (Figure 9 regime):
/// let solver = FitSolver::new(AccessLaw::commercial_40nm(), 1e-15)
///     .with_grid(VoltageGrid::PaperGrid);
/// assert_eq!(solver.min_voltage(Scheme::NoMitigation), 0.88);
/// assert_eq!(solver.min_voltage(Scheme::Secded), 0.77);
/// assert_eq!(solver.min_voltage(Scheme::Ocean), 0.66);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FitSolver {
    law: AccessLaw,
    fit_target: f64,
    grid: VoltageGrid,
}

impl FitSolver {
    /// Creates a solver for `law` with a FIT budget per read/write
    /// transaction (the paper uses `1e-15`).
    ///
    /// # Panics
    ///
    /// Panics unless `0 < fit_target < 1`.
    pub fn new(law: AccessLaw, fit_target: f64) -> Self {
        assert!(
            fit_target > 0.0 && fit_target < 1.0,
            "FIT target must be in (0, 1), got {fit_target}"
        );
        Self {
            law,
            fit_target,
            grid: VoltageGrid::Exact,
        }
    }

    /// Selects the voltage grid.
    #[must_use]
    pub fn with_grid(mut self, grid: VoltageGrid) -> Self {
        self.grid = grid;
        self
    }

    /// The failure law being solved against.
    #[cfg(test)]
    pub(crate) fn law(&self) -> &AccessLaw {
        &self.law
    }

    /// Largest tolerable per-bit error probability for `scheme`.
    pub fn max_p_bit(&self, scheme: Scheme) -> f64 {
        WordErrorModel::new(scheme.word_bits())
            .max_p_bit_for_target(scheme.correctable_bits(), self.fit_target)
            .expect("positive target always has a solution")
    }

    /// Exact error-constrained minimum voltage for `scheme` (no grid, no
    /// performance constraint).
    pub fn error_constrained_voltage(&self, scheme: Scheme) -> f64 {
        let p = self.max_p_bit(scheme);
        if p >= 1.0 {
            return 0.0;
        }
        self.law.vdd_for_p(p)
    }

    /// Grid-quantized minimum voltage for `scheme`, error constraint only.
    pub fn min_voltage(&self, scheme: Scheme) -> f64 {
        self.grid.quantize(self.error_constrained_voltage(scheme))
    }

    /// Full solution including a performance constraint: `f_max(v)` maps
    /// supply to achievable clock; the platform must reach `frequency_hz`.
    ///
    /// # Panics
    ///
    /// Panics if `frequency_hz` is not achievable at 1.32 V (20 % above
    /// the 40 nm nominal — the search ceiling) or `f_max` is not monotone
    /// enough to bisect.
    pub fn solve(
        &self,
        scheme: Scheme,
        frequency_hz: f64,
        f_max: impl Fn(f64) -> f64,
    ) -> SolvedVoltage {
        let error_constrained = self.error_constrained_voltage(scheme);
        let v_ceiling = 1.32;
        assert!(
            f_max(v_ceiling) >= frequency_hz,
            "{frequency_hz} Hz unreachable even at {v_ceiling} V"
        );
        // Bisect the monotone f_max for the performance floor. The
        // negated `>=` keeps a NaN f_max on the low side.
        let lo = 0.05;
        let hi = if f_max(lo) >= frequency_hz { lo } else { v_ceiling };
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        let (_, performance_constrained) = bisect(lo, hi, 80, |v| !(f_max(v) >= frequency_hz));
        let operating = self
            .grid
            .quantize(error_constrained.max(performance_constrained));
        SolvedVoltage {
            scheme,
            error_constrained,
            performance_constrained: Some(performance_constrained),
            operating,
        }
    }

    /// Solves all three schemes for one frequency — one row of Table 2 —
    /// with the schemes fanned across cores.
    ///
    /// Each scheme's bisection is an independent pure computation (the
    /// midpoint sequence depends only on `frequency_hz`), so the row is
    /// identical to solving the schemes sequentially; only wall-clock time
    /// changes. `f_max` therefore needs `Sync` on top of the previous
    /// bounds — every function in this crate (including
    /// [`paper_platform_f_max`]) satisfies it.
    pub fn table_row(
        &self,
        frequency_hz: f64,
        f_max: impl Fn(f64) -> f64 + Copy + Sync,
    ) -> [SolvedVoltage; 3] {
        let mut span = ntc_obs::span("fit.table_row");
        span.add_items(3);
        ntc_obs::counter_add("fit.grid.cells", 3);
        let schemes = [Scheme::NoMitigation, Scheme::Secded, Scheme::Ocean];
        let solved = par_map_slice(&schemes, |&s| self.solve(s, frequency_hz, f_max));
        solved.try_into().expect("three schemes in, three out")
    }

    /// Serial reference for [`FitSolver::table_row`], for equivalence tests
    /// and serial-vs-parallel benches.
    pub fn table_row_serial(
        &self,
        frequency_hz: f64,
        f_max: impl Fn(f64) -> f64 + Copy,
    ) -> [SolvedVoltage; 3] {
        [
            self.solve(Scheme::NoMitigation, frequency_hz, f_max),
            self.solve(Scheme::Secded, frequency_hz, f_max),
            self.solve(Scheme::Ocean, frequency_hz, f_max),
        ]
    }

    /// Solves every `(frequency, scheme)` cell of a multi-row table in one
    /// parallel fan-out — the full Table 2 voltage grid search.
    ///
    /// The work items are the frequency×scheme cross product, so all cells
    /// run concurrently rather than row-by-row. Results come back in
    /// frequency order, each row in scheme order, identical to calling
    /// [`FitSolver::table_row`] per frequency.
    pub fn table(
        &self,
        frequencies: &[f64],
        f_max: impl Fn(f64) -> f64 + Copy + Sync,
    ) -> Vec<[SolvedVoltage; 3]> {
        let mut span = ntc_obs::span("fit.table");
        span.add_items(frequencies.len() as u64 * 3);
        ntc_obs::counter_add("fit.grid.cells", frequencies.len() as u64 * 3);
        let schemes = [Scheme::NoMitigation, Scheme::Secded, Scheme::Ocean];
        let cells = par_map(frequencies.len() * 3, |i| {
            self.solve(schemes[i % 3], frequencies[i / 3], f_max)
        });
        cells
            .chunks_exact(3)
            .map(|row| [row[0], row[1], row[2]])
            .collect()
    }
}

impl fmt::Display for FitSolver {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "FIT solver ({} @ target {:.1e})", self.law, self.fit_target)
    }
}

/// The platform timing model used by the Table 2 reproduction: the
/// paper's "290 kHz is the minimum allowable frequency at the lowest
/// voltage (0.33 V)" anchor, scaled with the 40 nm logic delay model.
///
/// Queries go through a process-wide memoized [`CachedSoc`]: the solver's
/// bisection evaluates the same midpoint voltages for every scheme of a
/// table row (the midpoint sequence depends only on the frequency), so
/// after the first scheme the remaining two run almost entirely from
/// cache. Keys are quantized to 0.05 mV and the model is evaluated at the
/// dequantized voltage, so equal inputs give bit-equal outputs and the
/// perturbation (≤ 25 µV) is invisible at the paper's 110 mV voltage grid.
/// See [`ntc_memcalc::cache`] for the fidelity argument, and
/// [`paper_platform_cache_stats`] for the hit/miss counters.
pub fn paper_platform_f_max(vdd: f64) -> f64 {
    paper_platform_soc().f_max(vdd)
}

/// Hit/miss counters of the memo behind [`paper_platform_f_max`].
pub fn paper_platform_cache_stats() -> ntc_memcalc::cache::CacheStats {
    paper_platform_soc().stats()
}

/// A fresh memoized platform model, identical to the one behind
/// [`paper_platform_f_max`] but with its own cache. [`crate::repro::RunCtx`]
/// carries one per context so experiment runs share memo hits without
/// touching the global counters.
pub fn paper_platform_model() -> CachedSoc {
    use ntc_memcalc::soc::{SocComponent, SocEnergyModel};
    // A single-component stub: only the timing anchor matters here.
    CachedSoc::new(SocEnergyModel::new(
        vec![SocComponent::new("platform", 1e-12, 1.0, 1e-9)],
        1.1,
        ntc_tech::card::n40lp(),
        0.45,
        290e3,
        0.33,
    ))
}

/// The shared memoized platform model.
fn paper_platform_soc() -> &'static CachedSoc {
    static SOC: OnceLock<CachedSoc> = OnceLock::new();
    SOC.get_or_init(paper_platform_model)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell_solver() -> FitSolver {
        FitSolver::new(AccessLaw::cell_based_40nm(), 1e-15).with_grid(VoltageGrid::PaperGrid)
    }

    fn commercial_solver() -> FitSolver {
        FitSolver::new(AccessLaw::commercial_40nm(), 1e-15).with_grid(VoltageGrid::PaperGrid)
    }

    #[test]
    fn table2_error_constrained_voltages() {
        let s = cell_solver();
        assert_eq!(s.min_voltage(Scheme::NoMitigation), 0.55);
        assert_eq!(s.min_voltage(Scheme::Secded), 0.44);
        assert_eq!(s.min_voltage(Scheme::Ocean), 0.33);
    }

    #[test]
    fn figure9_commercial_voltages() {
        let s = commercial_solver();
        assert_eq!(s.min_voltage(Scheme::NoMitigation), 0.88);
        assert_eq!(s.min_voltage(Scheme::Secded), 0.77);
        assert_eq!(s.min_voltage(Scheme::Ocean), 0.66);
    }

    #[test]
    fn table2_with_performance_constraints() {
        let s = cell_solver();
        // 290 kHz row: pure error-constrained results.
        let row = s.table_row(290e3, paper_platform_f_max);
        assert_eq!(row[0].operating, 0.55);
        assert_eq!(row[1].operating, 0.44);
        assert_eq!(row[2].operating, 0.33);
        // 1.96 MHz row: OCEAN is lifted to 0.44 by the clock requirement.
        let row = s.table_row(1.96e6, paper_platform_f_max);
        assert_eq!(row[0].operating, 0.55);
        assert_eq!(row[1].operating, 0.44);
        assert_eq!(row[2].operating, 0.44, "performance-limited OCEAN point");
        assert!(row[2].performance_constrained.unwrap() > row[2].error_constrained);
    }

    #[test]
    fn parallel_table_row_matches_serial_bit_for_bit() {
        let s = cell_solver();
        for f in [290e3, 1.96e6, 11e6] {
            let par = s.table_row(f, paper_platform_f_max);
            let ser = s.table_row_serial(f, paper_platform_f_max);
            assert_eq!(par, ser, "row at {f} Hz");
        }
    }

    #[test]
    fn table_matches_rows() {
        let s = cell_solver();
        let freqs = [290e3, 1.96e6, 11e6];
        let table = s.table(&freqs, paper_platform_f_max);
        assert_eq!(table.len(), 3);
        for (row, &f) in table.iter().zip(&freqs) {
            assert_eq!(*row, s.table_row_serial(f, paper_platform_f_max));
        }
        assert!(s.table(&[], paper_platform_f_max).is_empty());
    }

    #[test]
    fn platform_cache_dedupes_bisection_queries() {
        let s = cell_solver();
        let soc = paper_platform_model();
        let f_max = |v| soc.f_max(v);
        let _ = s.table_row_serial(1.96e6, f_max);
        let first = soc.stats();
        let _ = s.table_row_serial(1.96e6, f_max);
        let second = soc.stats();
        // The bisection midpoints depend only on the frequency, so the
        // second and third schemes already run from cache — as does every
        // lookup of the whole second pass.
        assert!(first.hits >= 2 * first.misses, "first pass {first:?}");
        assert_eq!(second.misses, first.misses, "second pass adds no misses");
        assert_eq!(second.hits - first.hits, first.hits + first.misses);
    }

    /// `FitSolver::solve`'s performance floor as the fixed 80-step loop
    /// it ran before, kept as its reference.
    fn performance_floor_fixed(frequency_hz: f64, f_max: impl Fn(f64) -> f64) -> f64 {
        let mut lo = 0.05;
        let mut hi = 1.32;
        if f_max(lo) >= frequency_hz {
            hi = lo;
        }
        for _ in 0..80 {
            let mid = 0.5 * (lo + hi);
            if f_max(mid) >= frequency_hz {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        hi
    }

    #[test]
    fn solve_matches_the_fixed_step_loop_bit_for_bit() {
        let soc = paper_platform_model();
        let f_max = |v| soc.f_max(v);
        // 1 Hz is met at the bracket's floor, so the bracket collapses.
        let freqs = (0..=24).map(|i| 100e3 * 200f64.powf(f64::from(i) / 24.0));
        for f in freqs.chain([1.0]) {
            let floor = performance_floor_fixed(f, f_max);
            for law in [AccessLaw::cell_based_40nm(), AccessLaw::commercial_40nm()] {
                let s = FitSolver::new(law, 1e-15).with_grid(VoltageGrid::PaperGrid);
                for scheme in Scheme::ALL {
                    let got = s.solve(scheme, f, f_max);
                    let ec = s.error_constrained_voltage(scheme);
                    assert_eq!(
                        got.performance_constrained.map(f64::to_bits),
                        Some(floor.to_bits())
                    );
                    assert_eq!(got.error_constrained.to_bits(), ec.to_bits());
                    assert_eq!(got.operating, s.grid.quantize(ec.max(floor)), "{scheme} at {f} Hz");
                }
            }
        }
    }

    #[test]
    fn platform_anchor_matches_paper() {
        // 290 kHz at 0.33 V…
        assert!((paper_platform_f_max(0.33) / 290e3 - 1.0).abs() < 1e-9);
        // …1.96 MHz reachable at 0.44 V…
        assert!(paper_platform_f_max(0.44) >= 1.96e6);
        // …and 11 MHz reachable at 0.66 V (Figure 9's frequency).
        assert!(paper_platform_f_max(0.66) >= 11e6);
    }

    #[test]
    fn max_p_bit_ordering() {
        let s = cell_solver();
        let p0 = s.max_p_bit(Scheme::NoMitigation);
        let p2 = s.max_p_bit(Scheme::Secded);
        let p4 = s.max_p_bit(Scheme::Ocean);
        assert!(p0 < p2 && p2 < p4, "more correction tolerates more errors");
        // The anchors behind the reverse-engineered cell-based law.
        assert!((p2 / 4.79e-7 - 1.0).abs() < 0.02);
        assert!((p4 / 7.05e-5 - 1.0).abs() < 0.02);
    }

    #[test]
    fn grids() {
        assert_eq!(VoltageGrid::Exact.quantize(0.4321), 0.4321);
        assert_eq!(VoltageGrid::PaperGrid.quantize(0.78), 0.77);
        assert_eq!(VoltageGrid::PaperGrid.quantize(0.8485), 0.88);
        assert_eq!(VoltageGrid::CeilStep(50).quantize(0.401), 0.45);
        assert_eq!(VoltageGrid::CeilStep(50).quantize(0.45), 0.45);
    }

    #[test]
    fn ceil_grid_never_violates_budget() {
        let s = FitSolver::new(AccessLaw::cell_based_40nm(), 1e-15)
            .with_grid(VoltageGrid::CeilStep(10));
        for scheme in Scheme::ALL {
            let v = s.min_voltage(scheme);
            let w = WordErrorModel::new(scheme.word_bits());
            let p = s.law().p_bit(v);
            assert!(
                w.p_word_failure(scheme.correctable_bits(), p) <= 1e-15 * (1.0 + 1e-9),
                "{scheme}: budget violated at {v}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "FIT target")]
    fn rejects_bad_target() {
        FitSolver::new(AccessLaw::cell_based_40nm(), 0.0);
    }

    #[test]
    #[should_panic(expected = "unreachable")]
    fn rejects_impossible_frequency() {
        cell_solver().solve(Scheme::Secded, 1e12, paper_platform_f_max);
    }

    #[test]
    fn displays() {
        assert_eq!(Scheme::Ocean.to_string(), "OCEAN");
        assert!(!cell_solver().to_string().is_empty());
    }
}
