//! The paper's two bit-failure laws: retention (Eqs. 2–4) and read/write
//! access (Eq. 5).
//!
//! # Retention (hold) failures
//!
//! Each cell's static noise margin follows the linear model of Eq. 2,
//! `NM = c0·VDD + c1 + c2'·σ`, over a Gaussian variation variable. A cell
//! loses its state when its margin crosses zero, so the per-bit failure
//! probability vs. supply is a Gaussian CDF in `VDD` — the paper's Eq. 4:
//!
//! ```text
//! p(V) = ½ · (1 + erf((V/d0 − d1) / √(d2²)))
//! ```
//!
//! [`RetentionLaw`] stores the equivalent `(µ, σ)` of the per-bit retention
//! voltage and converts to and from the `d`-parameter form.
//!
//! # Access (read/write) failures
//!
//! Quasi-static read/write failures follow the empirical power law of
//! Eq. 5, `p = A·(V0 − V)^k` below the knee `V0` and zero above it.
//! The commercial-macro constants are published (`A = 6`, `k = 6.14`,
//! `V0 = 0.85 V`); the cell-based macro's `A` and `k` are not, so
//! [`AccessLaw::cell_based_40nm`] uses constants reverse-engineered from the
//! paper's Table 2 voltage solutions (see the method docs).

use ntc_stats::exec::{mc_gauss_exceed, mc_rate, mc_rate_shards};
use ntc_stats::math::{inv_phi, ln_phi, phi};
use ntc_stats::mc::TrialCounter;
use std::fmt;

/// Error returned when constructing a failure law from invalid parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LawError {
    what: &'static str,
}

impl fmt::Display for LawError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid failure law: {}", self.what)
    }
}

impl std::error::Error for LawError {}

/// Gaussian retention-failure law (the paper's Eqs. 2–4).
///
/// Parameterized by the mean `µ` and standard deviation `σ` of the per-bit
/// minimal retention voltage: a bit holds its state at supply `V` iff its
/// retention voltage is below `V`.
///
/// # Example
///
/// ```
/// use ntc_sram::failure::RetentionLaw;
///
/// let law = RetentionLaw::cell_based_40nm();
/// // Well above the mean retention voltage, failures are astronomically rare.
/// assert!(law.p_bit(0.5) < 1e-15);
/// // At the mean, half the bits have lost their state.
/// assert!((law.p_bit(law.mean()) - 0.5).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetentionLaw {
    mean: f64,
    sigma: f64,
}

impl RetentionLaw {
    /// Creates a law from the mean and σ of the per-bit retention voltage.
    ///
    /// # Errors
    ///
    /// Returns [`LawError`] if `mean` is not finite/positive or `sigma` is
    /// not finite/positive.
    pub fn new(mean: f64, sigma: f64) -> Result<Self, LawError> {
        if !mean.is_finite() || mean <= 0.0 {
            return Err(LawError {
                what: "mean retention voltage must be positive",
            });
        }
        if !sigma.is_finite() || sigma <= 0.0 {
            return Err(LawError {
                what: "sigma must be positive",
            });
        }
        Ok(Self { mean, sigma })
    }

    /// The commercial 6T macro of the test chip.
    ///
    /// Calibration: mean retention voltage 260 mV with σ = 45 mV, so the
    /// first failing bit of a 1k × 32 b instance appears around 0.44 V —
    /// far below the provider's 0.85 V retention spec, which budgets full
    /// PVT and ageing margins (the gap the paper's Section IV measures).
    pub fn commercial_40nm() -> Self {
        Self {
            mean: 0.26,
            sigma: 0.045,
        }
    }

    /// The standard-cell-based (cross-coupled AOI) macro of the test chip.
    ///
    /// Calibration: mean 200 mV, σ = 30 mV, so the first failing bit of a
    /// 1k × 32 b instance appears at ≈ 0.32 V — the measured retention
    /// voltage reported for this design in Table 1.
    pub fn cell_based_40nm() -> Self {
        Self {
            mean: 0.20,
            sigma: 0.030,
        }
    }

    /// The 65 nm cell-based reference design of Table 1 (retention 0.25 V).
    pub fn cell_based_65nm() -> Self {
        Self {
            mean: 0.155,
            sigma: 0.024,
        }
    }

    /// Mean per-bit retention voltage, in volts.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Standard deviation of the per-bit retention voltage, in volts.
    pub fn sigma(&self) -> f64 {
        self.sigma
    }

    /// Per-bit retention failure probability at supply `vdd` (Eq. 4).
    pub fn p_bit(&self, vdd: f64) -> f64 {
        phi((self.mean - vdd) / self.sigma)
    }

    /// `ln` of the per-bit failure probability, finite deep in the tail.
    pub fn ln_p_bit(&self, vdd: f64) -> f64 {
        ln_phi((self.mean - vdd) / self.sigma)
    }

    /// The supply at which the per-bit failure probability equals `p`
    /// (inverse of [`p_bit`](Self::p_bit)).
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `(0, 1)`.
    pub fn vdd_for_p(&self, p: f64) -> f64 {
        assert!(p > 0.0 && p < 1.0, "probability must be in (0, 1), got {p}");
        self.mean - self.sigma * inv_phi(p)
    }

    /// Expected voltage of the first failing bit in an array of `bits`
    /// cells: the supply where the expected failure count reaches one.
    ///
    /// This is how "minimal retention voltage" of a macro is quoted in
    /// Table 1.
    ///
    /// # Panics
    ///
    /// Panics if `bits == 0`.
    pub fn macro_retention_voltage(&self, bits: u64) -> f64 {
        assert!(bits > 0, "macro must contain at least one bit");
        self.vdd_for_p(1.0 / bits as f64)
    }

    /// Monte-Carlo estimate of the retention-BER curve over `grid`, one
    /// sharded-parallel [`TrialCounter`] per voltage point.
    ///
    /// Every grid point replays the **same** per-bit retention-voltage
    /// draws (common random numbers: trial `t` draws the same cell at each
    /// point), so the estimated curve is exactly monotone in supply and
    /// point-to-point differences carry no resampling noise. Trials run
    /// through the batched [`ntc_stats::exec::mc_gauss_exceed`] kernel,
    /// which consumes the same per-shard random streams as the scalar
    /// closure path, so each point's counter is a pure function of
    /// `(trials, seed)` — bit-identical at any thread count and to the
    /// pre-batching artifacts.
    pub fn mc_ber_sweep(&self, grid: &[f64], trials: u64, seed: u64) -> Vec<TrialCounter> {
        grid.iter()
            .map(|&vdd| mc_gauss_exceed(trials, seed, self.mean, self.sigma, vdd))
            .collect()
    }

    /// The paper's Eq. 4 `d`-parameters `(d0, d1, d2)` equivalent to this
    /// law, with the convention `d2 = 1`:
    /// `p = ½(1 + erf((V/d0 − d1)/√(d2²)))`.
    pub fn to_d_params(&self) -> (f64, f64, f64) {
        let s = self.sigma * std::f64::consts::SQRT_2;
        (-s, -self.mean / s, 1.0)
    }

    /// Builds a law from the paper's Eq. 4 `d`-parameters.
    ///
    /// # Errors
    ///
    /// Returns [`LawError`] if the parameters do not describe a decreasing
    /// failure probability in `V` (requires `d0 < 0`) or are non-finite.
    pub fn from_d_params(d0: f64, d1: f64, d2: f64) -> Result<Self, LawError> {
        if !(d0.is_finite() && d1.is_finite() && d2.is_finite()) {
            return Err(LawError {
                what: "d-parameters must be finite",
            });
        }
        if d0 >= 0.0 {
            return Err(LawError {
                what: "d0 must be negative for failures to decrease with VDD",
            });
        }
        if d2 == 0.0 {
            return Err(LawError {
                what: "d2 must be nonzero",
            });
        }
        // (V/d0 - d1)/|d2| = (mean - V)/(sigma·√2)
        let sigma = -d0 * d2.abs() / std::f64::consts::SQRT_2;
        let mean = d1 * d0 * d2.abs();
        Self::new(mean, sigma)
    }
}

impl fmt::Display for RetentionLaw {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "retention: V_ret ~ N({:.3} V, ({:.3} V)²)",
            self.mean, self.sigma
        )
    }
}

/// Empirical access-failure power law `p = A·(V0 − V)^k` (the paper's
/// Eq. 5), zero at and above the knee `V0`.
///
/// # Example
///
/// ```
/// use ntc_sram::failure::AccessLaw;
///
/// # fn main() -> Result<(), ntc_sram::failure::LawError> {
/// let law = AccessLaw::new(6.0, 6.14, 0.85)?;
/// // 110 mV below the knee the bit-error probability is ~8e-6.
/// let p = law.p_bit(0.74);
/// assert!(p > 5e-6 && p < 2e-5);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccessLaw {
    a: f64,
    k: f64,
    v0: f64,
}

impl AccessLaw {
    /// Creates a law with amplitude `a`, exponent `k` and knee voltage `v0`.
    ///
    /// # Errors
    ///
    /// Returns [`LawError`] unless `a > 0`, `k > 0` and `v0 > 0` are all
    /// finite.
    pub fn new(a: f64, k: f64, v0: f64) -> Result<Self, LawError> {
        for (v, what) in [
            (a, "amplitude must be positive"),
            (k, "exponent must be positive"),
            (v0, "knee voltage must be positive"),
        ] {
            if !v.is_finite() || v <= 0.0 {
                return Err(LawError { what });
            }
        }
        Ok(Self { a, k, v0 })
    }

    /// The paper's published fit for the commercial memory:
    /// `A = 6`, `k = 6.14`, `V0 = 0.85 V`.
    pub fn commercial_40nm() -> Self {
        Self {
            a: 6.0,
            k: 6.14,
            v0: 0.85,
        }
    }

    /// The cell-based macro's law.
    ///
    /// The paper publishes only the knee (`V0 = 0.55 V` worst case) for this
    /// design. The amplitude and exponent here (`A = 3.82`, `k = 7.20`) are
    /// reverse-engineered from the paper's Table 2: they are the unique
    /// power-law constants for which the FIT = 1e-15 bound lands the SECDED
    /// minimum voltage at 0.44 V (triple-error failure of a 39-bit word) and
    /// the OCEAN minimum at 0.33 V (quintuple-error failure) — exactly the
    /// voltages Table 2 reports.
    pub fn cell_based_40nm() -> Self {
        Self {
            a: 3.82,
            k: 7.20,
            v0: 0.55,
        }
    }

    /// Amplitude `A`.
    pub fn amplitude(&self) -> f64 {
        self.a
    }

    /// Exponent `k`.
    pub fn exponent(&self) -> f64 {
        self.k
    }

    /// Knee voltage `V0` in volts: minimal error-free access voltage.
    pub fn v0(&self) -> f64 {
        self.v0
    }

    /// Per-bit access-failure probability at supply `vdd`, clamped to
    /// `[0, 1]`.
    pub fn p_bit(&self, vdd: f64) -> f64 {
        if vdd >= self.v0 {
            0.0
        } else {
            (self.a * (self.v0 - vdd).powf(self.k)).clamp(0.0, 1.0)
        }
    }

    /// `ln` of the per-bit failure probability; `−∞` at and above the knee.
    pub fn ln_p_bit(&self, vdd: f64) -> f64 {
        if vdd >= self.v0 {
            f64::NEG_INFINITY
        } else {
            (self.a.ln() + self.k * (self.v0 - vdd).ln()).min(0.0)
        }
    }

    /// The supply at which the per-bit failure probability equals `p`
    /// (inverse of [`p_bit`](Self::p_bit) on the failing branch).
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `(0, 1)`.
    pub fn vdd_for_p(&self, p: f64) -> f64 {
        assert!(p > 0.0 && p < 1.0, "probability must be in (0, 1), got {p}");
        self.v0 - (p / self.a).powf(1.0 / self.k)
    }

    /// Monte-Carlo estimate of the access-BER curve over `grid`, one
    /// sharded-parallel [`TrialCounter`] per voltage point.
    ///
    /// As with [`RetentionLaw::mc_ber_sweep`], all grid points share the
    /// same uniform draws (trial `t` compares the same `u` against each
    /// point's `p_bit`), so the estimated curve is exactly monotone and
    /// thread-count invariant. Trials run through the batched
    /// [`ntc_stats::exec::mc_rate`] kernel, whose integer-domain threshold
    /// test is hit-identical to the scalar `uniform() < p` comparison on
    /// the same streams.
    pub fn mc_ber_sweep(&self, grid: &[f64], trials: u64, seed: u64) -> Vec<TrialCounter> {
        grid.iter()
            .map(|&vdd| mc_rate(trials, seed, self.p_bit(vdd)))
            .collect()
    }

    /// The per-shard counters behind one [`AccessLaw::mc_ber_sweep`]
    /// grid point, in shard order.
    ///
    /// Merging the returned counters in order reproduces the sweep's
    /// counter for the same `(vdd, trials, seed)` exactly — identical
    /// shard layout and random streams — so convergence diagnostics
    /// computed over these shards describe the sweep's own estimate,
    /// not a parallel re-measurement.
    pub fn mc_ber_shards(&self, vdd: f64, trials: u64, seed: u64) -> Vec<TrialCounter> {
        mc_rate_shards(trials, seed, self.p_bit(vdd))
    }

    /// Returns a copy with the knee shifted by `delta_v` volts — the hook
    /// used to model ageing drift of the minimal access voltage over a
    /// product's lifetime (paper Section IV).
    ///
    /// # Panics
    ///
    /// Panics if the shifted knee would be non-positive.
    #[must_use]
    pub fn with_knee_shift(&self, delta_v: f64) -> Self {
        let v0 = self.v0 + delta_v;
        assert!(v0 > 0.0, "shifted knee must stay positive, got {v0}");
        Self { v0, ..*self }
    }
}

impl fmt::Display for AccessLaw {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "access: p = {:.3}·({:.3} − V)^{:.3}",
            self.a, self.v0, self.k
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retention_monotone_decreasing() {
        let law = RetentionLaw::commercial_40nm();
        let mut prev = 1.0;
        for i in 0..60 {
            let v = 0.05 + i as f64 * 0.01;
            let p = law.p_bit(v);
            assert!(p <= prev, "not decreasing at {v}");
            prev = p;
        }
    }

    #[test]
    fn retention_half_at_mean() {
        for law in [
            RetentionLaw::commercial_40nm(),
            RetentionLaw::cell_based_40nm(),
            RetentionLaw::cell_based_65nm(),
        ] {
            assert!((law.p_bit(law.mean()) - 0.5).abs() < 1e-12);
        }
    }

    #[test]
    fn retention_vdd_for_p_round_trip() {
        let law = RetentionLaw::cell_based_40nm();
        for p in [1e-9, 1e-6, 1e-3, 0.5, 0.99] {
            let v = law.vdd_for_p(p);
            assert!((law.p_bit(v) / p - 1.0).abs() < 1e-8, "p = {p}");
        }
    }

    #[test]
    fn mc_ber_sweeps_track_laws_and_stay_monotone() {
        let grid: Vec<f64> = (0..8).map(|i| 0.20 + i as f64 * 0.02).collect();
        let ret = RetentionLaw::cell_based_40nm();
        let counters = ret.mc_ber_sweep(&grid, 200_000, 11);
        assert_eq!(counters.len(), grid.len());
        let mut prev = u64::MAX;
        for (c, &v) in counters.iter().zip(&grid) {
            assert_eq!(c.trials(), 200_000);
            // Common random numbers make the curve exactly monotone.
            assert!(c.hits() <= prev, "non-monotone at {v}");
            prev = c.hits();
            let p = ret.p_bit(v);
            if p > 1e-3 {
                let (lo, hi) = c.wilson_interval(4.0);
                assert!(p > lo && p < hi, "law {p} outside MC interval at {v}");
            }
        }
        // Thread-count invariance: the counters are a pure function of
        // (trials, seed), so a second run is identical.
        let again = ret.mc_ber_sweep(&grid, 200_000, 11);
        for (a, b) in counters.iter().zip(&again) {
            assert_eq!(a.hits(), b.hits());
        }

        let acc = AccessLaw::cell_based_40nm();
        let counters = acc.mc_ber_sweep(&grid, 100_000, 5);
        let mut prev = u64::MAX;
        for (c, &v) in counters.iter().zip(&grid) {
            assert!(c.hits() <= prev, "non-monotone at {v}");
            prev = c.hits();
        }
        // Above the knee the failure probability is exactly zero.
        let safe = acc.mc_ber_sweep(&[acc.v0() + 0.01], 10_000, 5);
        assert_eq!(safe[0].hits(), 0);
    }

    #[test]
    fn access_ber_shards_merge_to_the_sweep_point() {
        let acc = AccessLaw::cell_based_40nm();
        let vdd = 0.32;
        let shards = acc.mc_ber_shards(vdd, 100_000, 5);
        let mut merged = TrialCounter::new();
        for c in &shards {
            merged.merge(c);
        }
        let sweep = acc.mc_ber_sweep(&[vdd], 100_000, 5);
        assert_eq!(merged, sweep[0], "shards describe the sweep's estimate");
    }

    #[test]
    fn batched_sweeps_are_bit_identical_to_the_scalar_closure_path() {
        use ntc_stats::exec::mc_counter;
        let grid: Vec<f64> = (0..6).map(|i| 0.22 + i as f64 * 0.03).collect();

        let ret = RetentionLaw::cell_based_40nm();
        let batched = ret.mc_ber_sweep(&grid, 50_000, 11);
        for (c, &vdd) in batched.iter().zip(&grid) {
            let scalar = mc_counter(50_000, 11, |src| src.normal(ret.mean(), ret.sigma()) > vdd);
            assert_eq!(*c, scalar, "retention point {vdd}");
        }

        let acc = AccessLaw::cell_based_40nm();
        let batched = acc.mc_ber_sweep(&grid, 50_000, 5);
        for (c, &vdd) in batched.iter().zip(&grid) {
            let p = acc.p_bit(vdd);
            let scalar = mc_counter(50_000, 5, |src| src.uniform() < p);
            assert_eq!(*c, scalar, "access point {vdd}");
        }
    }

    #[test]
    fn retention_ln_p_matches_linear() {
        let law = RetentionLaw::commercial_40nm();
        for v in [0.3, 0.4, 0.5] {
            assert!((law.ln_p_bit(v) - law.p_bit(v).ln()).abs() < 1e-9);
        }
        // Deep tail stays finite.
        assert!(law.ln_p_bit(5.0).is_finite());
    }

    #[test]
    fn macro_retention_voltages_match_table1_calibration() {
        // Table 1: cell-based imec 40nm retention 0.32 V at 1k x 32b.
        let v = RetentionLaw::cell_based_40nm().macro_retention_voltage(32 * 1024);
        assert!((v - 0.32).abs() < 0.01, "imec cell-based: {v}");
        // Table 1: cell-based 65nm retention 0.25 V.
        let v = RetentionLaw::cell_based_65nm().macro_retention_voltage(32 * 1024);
        assert!((v - 0.25).abs() < 0.01, "65nm cell-based: {v}");
    }

    #[test]
    fn commercial_retention_far_below_spec() {
        // The measured retention of the commercial macro sits far below the
        // 0.85 V provider spec — the margin the paper exploits.
        let v = RetentionLaw::commercial_40nm().macro_retention_voltage(32 * 1024);
        assert!(v < 0.5, "measured retention {v} should be « 0.85 V spec");
    }

    #[test]
    fn d_param_round_trip() {
        let law = RetentionLaw::commercial_40nm();
        let (d0, d1, d2) = law.to_d_params();
        assert!(d0 < 0.0);
        let back = RetentionLaw::from_d_params(d0, d1, d2).unwrap();
        assert!((back.mean() - law.mean()).abs() < 1e-12);
        assert!((back.sigma() - law.sigma()).abs() < 1e-12);
    }

    #[test]
    fn d_param_validation() {
        assert!(RetentionLaw::from_d_params(0.1, 1.0, 1.0).is_err(), "d0 > 0");
        assert!(RetentionLaw::from_d_params(-0.1, 1.0, 0.0).is_err(), "d2 = 0");
        assert!(RetentionLaw::from_d_params(f64::NAN, 1.0, 1.0).is_err());
    }

    #[test]
    fn retention_new_validates() {
        assert!(RetentionLaw::new(0.0, 0.1).is_err());
        assert!(RetentionLaw::new(0.3, 0.0).is_err());
        assert!(RetentionLaw::new(0.3, -0.1).is_err());
        assert!(RetentionLaw::new(0.3, 0.05).is_ok());
    }

    #[test]
    fn access_zero_above_knee() {
        let law = AccessLaw::commercial_40nm();
        assert_eq!(law.p_bit(0.85), 0.0);
        assert_eq!(law.p_bit(1.1), 0.0);
        assert_eq!(law.ln_p_bit(0.9), f64::NEG_INFINITY);
    }

    #[test]
    fn access_paper_constants() {
        let law = AccessLaw::commercial_40nm();
        // Direct evaluation of 6·(0.85-0.74)^6.14.
        let want = 6.0 * (0.85f64 - 0.74).powf(6.14);
        assert!((law.p_bit(0.74) - want).abs() < 1e-18);
        assert!((law.ln_p_bit(0.74) - want.ln()).abs() < 1e-10);
    }

    #[test]
    fn access_monotone_below_knee() {
        let law = AccessLaw::cell_based_40nm();
        let mut prev = 2.0;
        for i in 0..30 {
            let v = 0.25 + i as f64 * 0.01;
            let p = law.p_bit(v);
            assert!(p < prev, "not decreasing at {v}");
            prev = p;
        }
    }

    #[test]
    fn access_vdd_for_p_round_trip() {
        let law = AccessLaw::cell_based_40nm();
        for p in [1e-12, 1e-7, 1e-3] {
            let v = law.vdd_for_p(p);
            assert!(v < law.v0());
            assert!((law.p_bit(v) / p - 1.0).abs() < 1e-9, "p = {p}");
        }
    }

    #[test]
    fn access_clamped_to_probability() {
        // Far below the knee the raw power law exceeds 1; p_bit clamps.
        let law = AccessLaw::new(6.0, 6.14, 0.85).unwrap();
        assert_eq!(law.p_bit(0.0), 1.0_f64.min(6.0 * 0.85f64.powf(6.14)).min(1.0));
        assert!(law.p_bit(0.0) <= 1.0);
    }

    #[test]
    fn knee_shift_models_ageing() {
        let fresh = AccessLaw::cell_based_40nm();
        let aged = fresh.with_knee_shift(0.03);
        assert!((aged.v0() - 0.58).abs() < 1e-12);
        // The aged part fails at voltages where the fresh part was clean.
        assert_eq!(fresh.p_bit(0.56), 0.0);
        assert!(aged.p_bit(0.56) > 0.0);
    }

    #[test]
    #[should_panic(expected = "shifted knee")]
    fn knee_shift_rejects_nonpositive() {
        let _ = AccessLaw::cell_based_40nm().with_knee_shift(-1.0);
    }

    #[test]
    fn access_new_validates() {
        assert!(AccessLaw::new(0.0, 6.0, 0.85).is_err());
        assert!(AccessLaw::new(6.0, -1.0, 0.85).is_err());
        assert!(AccessLaw::new(6.0, 6.0, 0.0).is_err());
        assert!(AccessLaw::new(6.0, 6.0, f64::INFINITY).is_err());
    }

    #[test]
    fn displays_nonempty() {
        assert!(!RetentionLaw::commercial_40nm().to_string().is_empty());
        assert!(!AccessLaw::commercial_40nm().to_string().is_empty());
        assert!(!LawError { what: "x" }.to_string().is_empty());
    }
}
