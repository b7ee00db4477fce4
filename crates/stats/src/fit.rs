//! Least-squares fitting of the paper's reliability models.
//!
//! Two model shapes matter for the DATE 2014 reproduction:
//!
//! * **Eq. 4** (retention): `p = ½·(1 + erf((V/d0 − d1)/√(d2²)))`. Since
//!   `½(1+erf(u)) = Φ(u·√2)`, the probit transform `inv_phi(p)/√2` is linear
//!   in `V`, so the fit is a straight line in probit space
//!   ([`probit_line_fit`]).
//! * **Eq. 5** (read/write access): `p = A·(V0 − V)^k` for `V < V0`. With the
//!   knee `V0` fixed, `ln p` is linear in `ln(V0 − V)`; [`fit_power_law`]
//!   searches `V0` on a refining grid and regresses the rest
//!   ([`PowerLawFit`]).

use crate::math::inv_phi;
use std::fmt;

/// Error returned by fitting routines on degenerate input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FitError {
    what: &'static str,
}

impl fmt::Display for FitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fit failed: {}", self.what)
    }
}

impl std::error::Error for FitError {}

impl FitError {
    fn new(what: &'static str) -> Self {
        Self { what }
    }
}

/// A fitted straight line `y = slope·x + intercept` with its goodness of fit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Line {
    /// Fitted slope.
    pub slope: f64,
    /// Fitted intercept.
    pub intercept: f64,
    /// Coefficient of determination R² of the fit (1 = perfect).
    pub r_squared: f64,
}

impl Line {
    /// Evaluates the line at `x`.
    pub fn predict(&self, x: f64) -> f64 {
        self.slope * x + self.intercept
    }
}

impl fmt::Display for Line {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "y = {:.6}·x + {:.6} (R² = {:.4})",
            self.slope, self.intercept, self.r_squared
        )
    }
}

/// Ordinary least-squares fit of `y = slope·x + intercept`.
///
/// # Errors
///
/// Returns [`FitError`] if fewer than two points are given, if `x` and `y`
/// have different lengths, if any value is non-finite, or if all `x` are
/// identical (vertical line).
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), ntc_stats::fit::FitError> {
/// let x = [0.0, 1.0, 2.0, 3.0];
/// let y = [1.0, 3.0, 5.0, 7.0];
/// let line = ntc_stats::fit::linear_fit(&x, &y)?;
/// assert!((line.slope - 2.0).abs() < 1e-12);
/// assert!((line.intercept - 1.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
pub fn linear_fit(x: &[f64], y: &[f64]) -> Result<Line, FitError> {
    if x.len() != y.len() {
        return Err(FitError::new("x and y must have the same length"));
    }
    if x.len() < 2 {
        return Err(FitError::new("need at least two points"));
    }
    if x.iter().chain(y.iter()).any(|v| !v.is_finite()) {
        return Err(FitError::new("inputs must be finite"));
    }
    let n = x.len() as f64;
    let mx = x.iter().sum::<f64>() / n;
    let my = y.iter().sum::<f64>() / n;
    let mut sxx = 0.0;
    let mut sxy = 0.0;
    let mut syy = 0.0;
    for (&xi, &yi) in x.iter().zip(y) {
        let dx = xi - mx;
        let dy = yi - my;
        sxx += dx * dx;
        sxy += dx * dy;
        syy += dy * dy;
    }
    if sxx == 0.0 {
        return Err(FitError::new("all x values identical"));
    }
    let slope = sxy / sxx;
    let intercept = my - slope * mx;
    let r_squared = if syy == 0.0 {
        1.0 // perfectly flat data, perfectly fit by the flat line
    } else {
        (sxy * sxy) / (sxx * syy)
    };
    Ok(Line {
        slope,
        intercept,
        r_squared,
    })
}

/// Fits a straight line to `(x, inv_phi(p)/√2)` — the probit-domain fit that
/// linearizes the paper's Eq. 4 retention model.
///
/// Points with `p` outside the open interval `(0, 1)` are skipped: those are
/// saturated measurements (no failures observed, or all bits failed) and
/// carry no slope information.
///
/// # Errors
///
/// Returns [`FitError`] if fewer than two usable points remain.
///
/// # Example
///
/// ```
/// use ntc_stats::math::phi;
///
/// # fn main() -> Result<(), ntc_stats::fit::FitError> {
/// // Synthesize p(V) = Φ(√2·(−20·V + 8)) and recover the line.
/// let v: Vec<f64> = (0..20).map(|i| 0.2 + i as f64 * 0.02).collect();
/// let p: Vec<f64> = v.iter().map(|&v| phi(std::f64::consts::SQRT_2 * (-20.0 * v + 8.0))).collect();
/// let line = ntc_stats::fit::probit_line_fit(&v, &p)?;
/// assert!((line.slope + 20.0).abs() < 1e-6);
/// assert!((line.intercept - 8.0).abs() < 1e-6);
/// # Ok(())
/// # }
/// ```
pub fn probit_line_fit(x: &[f64], p: &[f64]) -> Result<Line, FitError> {
    if x.len() != p.len() {
        return Err(FitError::new("x and p must have the same length"));
    }
    let mut xs = Vec::with_capacity(x.len());
    let mut us = Vec::with_capacity(x.len());
    for (&xi, &pi) in x.iter().zip(p) {
        if pi > 0.0 && pi < 1.0 && pi.is_finite() && xi.is_finite() {
            xs.push(xi);
            us.push(inv_phi(pi) / std::f64::consts::SQRT_2);
        }
    }
    if xs.len() < 2 {
        return Err(FitError::new("need at least two points with 0 < p < 1"));
    }
    linear_fit(&xs, &us)
}

/// A fitted access-failure power law `p = A·(V0 − V)^k` for `V < V0`
/// (the paper's Eq. 5; `p = 0` at and above `V0`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerLawFit {
    /// Amplitude `A`.
    pub amplitude: f64,
    /// Exponent `k`.
    pub exponent: f64,
    /// Knee voltage `V0` above which the error probability is zero.
    pub v0: f64,
    /// Residual sum of squares in log space at the chosen `V0`.
    pub log_rss: f64,
}

impl PowerLawFit {
    /// Evaluates the fitted law at voltage `v` (clamped to `[0, 1]`).
    pub fn predict(&self, v: f64) -> f64 {
        if v >= self.v0 {
            0.0
        } else {
            (self.amplitude * (self.v0 - v).powf(self.exponent)).clamp(0.0, 1.0)
        }
    }
}

impl fmt::Display for PowerLawFit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "p = {:.3}·({:.3} − V)^{:.3}",
            self.amplitude, self.v0, self.exponent
        )
    }
}

/// Fits `p = A·(V0 − V)^k` by refining grid search over `V0` with an inner
/// log-log linear regression, as used for the paper's Eq. 5.
///
/// `v0_range` bounds the knee search; it must contain the true knee and its
/// lower edge must be above every `v[i]` with `p[i] > 0`. Points with
/// `p ≤ 0` are ignored (they lie above the knee).
///
/// # Errors
///
/// Returns [`FitError`] on degenerate input: fewer than three positive-`p`
/// points, an empty/invalid `v0_range`, or non-finite data.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), ntc_stats::fit::FitError> {
/// // Synthesize the paper's commercial-memory law: A = 6, k = 6.14, V0 = 0.85.
/// let v: Vec<f64> = (0..30).map(|i| 0.40 + i as f64 * 0.01).collect();
/// let p: Vec<f64> = v.iter().map(|&v| 6.0 * (0.85f64 - v).powf(6.14)).collect();
/// let fit = ntc_stats::fit::fit_power_law(&v, &p, (0.75, 0.95))?;
/// assert!((fit.v0 - 0.85).abs() < 1e-3);
/// assert!((fit.exponent - 6.14).abs() < 0.05);
/// assert!((fit.amplitude - 6.0).abs() < 0.3);
/// # Ok(())
/// # }
/// ```
pub fn fit_power_law(v: &[f64], p: &[f64], v0_range: (f64, f64)) -> Result<PowerLawFit, FitError> {
    if v.len() != p.len() {
        return Err(FitError::new("v and p must have the same length"));
    }
    let (lo, hi) = v0_range;
    if !(lo.is_finite() && hi.is_finite()) || lo >= hi {
        return Err(FitError::new("invalid v0 search range"));
    }
    let pts: Vec<(f64, f64)> = v
        .iter()
        .zip(p)
        .filter(|&(&vi, &pi)| pi > 0.0 && pi.is_finite() && vi.is_finite())
        .map(|(&vi, &pi)| (vi, pi))
        .collect();
    if pts.len() < 3 {
        return Err(FitError::new("need at least three points with p > 0"));
    }
    let v_max = pts.iter().map(|&(vi, _)| vi).fold(f64::MIN, f64::max);
    if lo <= v_max {
        return Err(FitError::new(
            "v0 search range must start above every voltage with p > 0",
        ));
    }

    let eval = |v0: f64| -> Option<(Line, f64)> {
        let xs: Vec<f64> = pts.iter().map(|&(vi, _)| (v0 - vi).ln()).collect();
        let ys: Vec<f64> = pts.iter().map(|&(_, pi)| pi.ln()).collect();
        let line = linear_fit(&xs, &ys).ok()?;
        let rss: f64 = xs
            .iter()
            .zip(&ys)
            .map(|(&x, &y)| {
                let e = line.predict(x) - y;
                e * e
            })
            .sum();
        Some((line, rss))
    };

    // Three rounds of refining grid search over v0.
    let mut best: Option<(f64, Line, f64)> = None;
    let (mut a, mut b) = (lo, hi);
    for _ in 0..3 {
        let n = 60;
        for i in 0..=n {
            let v0 = a + (b - a) * i as f64 / n as f64;
            if let Some((line, rss)) = eval(v0) {
                if best.as_ref().is_none_or(|&(_, _, br)| rss < br) {
                    best = Some((v0, line, rss));
                }
            }
        }
        if let Some((v0, _, _)) = best {
            let span = (b - a) / n as f64 * 2.0;
            a = (v0 - span).max(lo);
            b = (v0 + span).min(hi);
        }
    }
    let (v0, line, log_rss) = best.ok_or_else(|| FitError::new("no valid v0 in range"))?;
    Ok(PowerLawFit {
        amplitude: line.intercept.exp(),
        exponent: line.slope,
        v0,
        log_rss,
    })
}

/// Goodness-of-fit summary of a fitted model against measured points.
///
/// Computed in whatever domain the comparison is meaningful in — the
/// probability domain for BER fits, log domain for power laws — by
/// handing [`FitQuality::against`] the model's predictions next to the
/// measurements. Published as `diag.*` gauges by the experiments so a
/// drifting Eq. 4 / Eq. 5 fit is visible in `repro report` without
/// touching artifact bytes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FitQuality {
    /// Number of points compared.
    pub n: usize,
    /// Coefficient of determination (1 − RSS/TSS); `1.0` when the data
    /// has no variance and the fit matches it exactly.
    pub r_squared: f64,
    /// Residual sum of squares.
    pub rss: f64,
    /// Largest absolute residual.
    pub max_abs_residual: f64,
}

impl FitQuality {
    /// Compares model predictions with measurements, pairwise.
    ///
    /// Non-finite pairs are skipped (saturated measurements carry no
    /// residual information, mirroring [`probit_line_fit`]).
    ///
    /// # Errors
    ///
    /// Returns [`FitError`] if the slices differ in length or no finite
    /// pair remains.
    pub fn against(predicted: &[f64], measured: &[f64]) -> Result<Self, FitError> {
        if predicted.len() != measured.len() {
            return Err(FitError::new("predicted and measured must have the same length"));
        }
        let pairs: Vec<(f64, f64)> = predicted
            .iter()
            .zip(measured)
            .filter(|&(&p, &m)| p.is_finite() && m.is_finite())
            .map(|(&p, &m)| (p, m))
            .collect();
        if pairs.is_empty() {
            return Err(FitError::new("no finite (predicted, measured) pairs"));
        }
        let n = pairs.len();
        let mean_m = pairs.iter().map(|&(_, m)| m).sum::<f64>() / n as f64;
        let mut rss = 0.0;
        let mut tss = 0.0;
        let mut max_abs = 0.0f64;
        for &(p, m) in &pairs {
            let r = m - p;
            rss += r * r;
            max_abs = max_abs.max(r.abs());
            let d = m - mean_m;
            tss += d * d;
        }
        let r_squared = if tss == 0.0 {
            if rss == 0.0 {
                1.0
            } else {
                0.0
            }
        } else {
            1.0 - rss / tss
        };
        Ok(Self {
            n,
            r_squared,
            rss,
            max_abs_residual: max_abs,
        })
    }

    /// Publishes this summary as `ntc-obs` gauges under `prefix`
    /// (`<prefix>.r_squared`, `.rss`, `.max_abs_residual`, `.points`).
    /// No-op while the observability layer is disabled.
    pub fn publish(&self, prefix: &str) {
        #[allow(clippy::cast_precision_loss)]
        {
            ntc_obs::gauge_set(&format!("{prefix}.r_squared"), self.r_squared);
            ntc_obs::gauge_set(&format!("{prefix}.rss"), self.rss);
            ntc_obs::gauge_set(&format!("{prefix}.max_abs_residual"), self.max_abs_residual);
            ntc_obs::gauge_set(&format!("{prefix}.points"), self.n as f64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::math::phi;

    #[test]
    fn fit_quality_perfect_fit() {
        let m = [1.0, 2.0, 3.0, 4.0];
        let q = FitQuality::against(&m, &m).unwrap();
        assert_eq!(q.n, 4);
        assert_eq!(q.r_squared, 1.0);
        assert_eq!(q.rss, 0.0);
        assert_eq!(q.max_abs_residual, 0.0);
    }

    #[test]
    fn fit_quality_residuals_reported() {
        let predicted = [1.0, 2.0, 3.0];
        let measured = [1.1, 1.9, 3.3];
        let q = FitQuality::against(&predicted, &measured).unwrap();
        assert!((q.max_abs_residual - 0.3).abs() < 1e-12);
        assert!((q.rss - (0.01 + 0.01 + 0.09)).abs() < 1e-12);
        assert!(q.r_squared > 0.9 && q.r_squared < 1.0);
    }

    #[test]
    fn fit_quality_skips_non_finite_pairs() {
        let predicted = [1.0, f64::NAN, 3.0];
        let measured = [1.0, 2.0, f64::INFINITY];
        let q = FitQuality::against(&predicted, &measured).unwrap();
        assert_eq!(q.n, 1);
        assert!(FitQuality::against(&[f64::NAN], &[1.0]).is_err());
        assert!(FitQuality::against(&[1.0, 2.0], &[1.0]).is_err());
    }

    #[test]
    fn fit_quality_flat_measurements() {
        // Zero data variance: R² is 1 only if the fit is also exact.
        let exact = FitQuality::against(&[5.0, 5.0], &[5.0, 5.0]).unwrap();
        assert_eq!(exact.r_squared, 1.0);
        let off = FitQuality::against(&[5.0, 6.0], &[5.0, 5.0]).unwrap();
        assert_eq!(off.r_squared, 0.0);
    }

    #[test]
    fn linear_fit_exact_line() {
        let x = [1.0, 2.0, 3.0, 4.0, 5.0];
        let y: Vec<f64> = x.iter().map(|&x| -3.0 * x + 0.7).collect();
        let line = linear_fit(&x, &y).unwrap();
        assert!((line.slope + 3.0).abs() < 1e-12);
        assert!((line.intercept - 0.7).abs() < 1e-12);
        assert!((line.r_squared - 1.0).abs() < 1e-12);
    }

    #[test]
    fn linear_fit_rejects_degenerate() {
        assert!(linear_fit(&[1.0], &[2.0]).is_err());
        assert!(linear_fit(&[1.0, 2.0], &[1.0]).is_err());
        assert!(linear_fit(&[1.0, 1.0], &[1.0, 2.0]).is_err());
        assert!(linear_fit(&[1.0, f64::NAN], &[1.0, 2.0]).is_err());
    }

    #[test]
    fn linear_fit_flat_data() {
        let line = linear_fit(&[1.0, 2.0, 3.0], &[5.0, 5.0, 5.0]).unwrap();
        assert_eq!(line.slope, 0.0);
        assert_eq!(line.intercept, 5.0);
        assert_eq!(line.r_squared, 1.0);
    }

    #[test]
    fn linear_fit_r_squared_of_noisy_data_below_one() {
        let x = [0.0, 1.0, 2.0, 3.0, 4.0];
        let y = [0.1, 0.9, 2.2, 2.8, 4.1];
        let line = linear_fit(&x, &y).unwrap();
        assert!(line.r_squared > 0.98 && line.r_squared < 1.0);
    }

    #[test]
    fn probit_fit_recovers_known_model() {
        // p(V) = Φ(√2·(slope·V + b))
        let slope = -14.0;
        let b = 5.5;
        let v: Vec<f64> = (0..25).map(|i| 0.25 + i as f64 * 0.01).collect();
        let p: Vec<f64> = v
            .iter()
            .map(|&v| phi(std::f64::consts::SQRT_2 * (slope * v + b)))
            .collect();
        let line = probit_line_fit(&v, &p).unwrap();
        assert!((line.slope - slope).abs() < 1e-6);
        assert!((line.intercept - b).abs() < 1e-6);
    }

    #[test]
    fn probit_fit_skips_saturated_points() {
        let v = [0.2, 0.3, 0.4, 0.5, 0.6];
        let p = [1.0, 0.6, 0.2, 0.01, 0.0]; // endpoints saturated
        let line = probit_line_fit(&v, &p).unwrap();
        assert!(line.slope < 0.0);
    }

    #[test]
    fn probit_fit_errors_when_all_saturated() {
        let v = [0.2, 0.3];
        let p = [0.0, 1.0];
        assert!(probit_line_fit(&v, &p).is_err());
    }

    #[test]
    fn power_law_recovers_cell_based_constants() {
        // Cell-based memory: V0 = 0.55 (worst case), pick A and k arbitrarily.
        let (a0, k0, v00) = (2.5, 4.0, 0.55);
        let v: Vec<f64> = (0..20).map(|i| 0.30 + i as f64 * 0.01).collect();
        let p: Vec<f64> = v.iter().map(|&v| a0 * (v00 - v).powf(k0)).collect();
        let fit = fit_power_law(&v, &p, (0.50, 0.62)).unwrap();
        assert!((fit.v0 - v00).abs() < 2e-3, "v0 = {}", fit.v0);
        assert!((fit.exponent - k0).abs() < 0.05);
        assert!((fit.amplitude - a0).abs() < 0.2);
    }

    #[test]
    fn power_law_predict_zero_above_knee() {
        let fit = PowerLawFit {
            amplitude: 6.0,
            exponent: 6.14,
            v0: 0.85,
            log_rss: 0.0,
        };
        assert_eq!(fit.predict(0.85), 0.0);
        assert_eq!(fit.predict(1.0), 0.0);
        assert!(fit.predict(0.5) > 0.0);
        assert!(fit.predict(0.0) <= 1.0, "clamped to a probability");
    }

    #[test]
    fn power_law_rejects_bad_ranges() {
        let v = [0.4, 0.45, 0.5];
        let p = [0.1, 0.05, 0.01];
        assert!(fit_power_law(&v, &p, (0.3, 0.2)).is_err());
        // Range must start above the highest failing voltage.
        assert!(fit_power_law(&v, &p, (0.45, 0.9)).is_err());
        // Too few positive points.
        assert!(fit_power_law(&[0.4, 0.5], &[0.1, 0.0], (0.6, 0.9)).is_err());
    }

    #[test]
    fn display_impls_nonempty() {
        let line = linear_fit(&[0.0, 1.0], &[0.0, 1.0]).unwrap();
        assert!(!line.to_string().is_empty());
        let fit = PowerLawFit {
            amplitude: 6.0,
            exponent: 6.14,
            v0: 0.85,
            log_rss: 0.0,
        };
        assert!(!fit.to_string().is_empty());
        assert!(!FitError::new("x").to_string().is_empty());
    }
}
