//! Gaussian distribution helpers for noise-margin modeling.

use crate::math::{inv_phi, ln_phi, phi};
use std::fmt;

/// Error returned when constructing a [`Gaussian`] with an invalid parameter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GaussianError {
    kind: GaussianErrorKind,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum GaussianErrorKind {
    NonFiniteMean,
    NonPositiveSigma,
}

impl fmt::Display for GaussianError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            GaussianErrorKind::NonFiniteMean => write!(f, "mean must be finite"),
            GaussianErrorKind::NonPositiveSigma => {
                write!(f, "standard deviation must be finite and positive")
            }
        }
    }
}

impl std::error::Error for GaussianError {}

/// A univariate Gaussian `N(mean, sigma²)`.
///
/// In this workspace the Gaussian almost always models a *noise margin* or a
/// *threshold-voltage shift* over process variation, and the quantities of
/// interest are deep tail probabilities — hence the emphasis on
/// [`cdf`](Self::cdf)/[`ln_cdf`](Self::ln_cdf) accuracy far from the mean.
///
/// # Example
///
/// ```
/// use ntc_stats::Gaussian;
///
/// # fn main() -> Result<(), ntc_stats::dist::GaussianError> {
/// // Threshold-voltage mismatch with sigma 25 mV.
/// let dvt = Gaussian::new(0.0, 0.025)?;
/// // Probability of a shift worse than -150 mV (a 6-sigma event).
/// let p = dvt.cdf(-0.150);
/// assert!(p < 1e-8);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Gaussian {
    mean: f64,
    sigma: f64,
}

impl Gaussian {
    /// Creates a Gaussian with the given mean and standard deviation.
    ///
    /// # Errors
    ///
    /// Returns [`GaussianError`] if `mean` is not finite or `sigma` is not a
    /// finite positive number.
    pub fn new(mean: f64, sigma: f64) -> Result<Self, GaussianError> {
        if !mean.is_finite() {
            return Err(GaussianError {
                kind: GaussianErrorKind::NonFiniteMean,
            });
        }
        if !sigma.is_finite() || sigma <= 0.0 {
            return Err(GaussianError {
                kind: GaussianErrorKind::NonPositiveSigma,
            });
        }
        Ok(Self { mean, sigma })
    }

    /// The standard normal `N(0, 1)`.
    pub fn standard() -> Self {
        Self {
            mean: 0.0,
            sigma: 1.0,
        }
    }

    /// Mean of the distribution.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Standard deviation of the distribution.
    pub fn sigma(&self) -> f64 {
        self.sigma
    }

    /// Standardizes `x` to a z-score.
    pub fn z(&self, x: f64) -> f64 {
        (x - self.mean) / self.sigma
    }

    /// Cumulative distribution function `P(X ≤ x)`.
    pub fn cdf(&self, x: f64) -> f64 {
        phi(self.z(x))
    }

    /// Natural log of the CDF, finite deep into the left tail.
    pub fn ln_cdf(&self, x: f64) -> f64 {
        ln_phi(self.z(x))
    }

    /// Survival function `P(X > x)`, with relative accuracy in the right tail.
    pub fn sf(&self, x: f64) -> f64 {
        phi(-self.z(x))
    }

    /// Probability density function.
    pub fn pdf(&self, x: f64) -> f64 {
        const SQRT_2PI: f64 = 2.5066282746310002;
        let z = self.z(x);
        (-0.5 * z * z).exp() / (self.sigma * SQRT_2PI)
    }

    /// Quantile (inverse CDF): the `x` with `P(X ≤ x) = p`.
    ///
    /// Returns `±∞` at `p ∈ {0, 1}` and `NaN` outside `[0, 1]`, mirroring
    /// [`inv_phi`].
    pub fn quantile(&self, p: f64) -> f64 {
        self.mean + self.sigma * inv_phi(p)
    }

    /// Shifts the mean by `delta`, keeping sigma.
    #[must_use]
    pub fn shifted(&self, delta: f64) -> Self {
        Self {
            mean: self.mean + delta,
            sigma: self.sigma,
        }
    }

    /// Scales both mean and sigma by `factor` (must be positive).
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not a finite positive number, since that would
    /// silently produce an invalid distribution.
    #[must_use]
    pub fn scaled(&self, factor: f64) -> Self {
        assert!(
            factor.is_finite() && factor > 0.0,
            "scale factor must be finite and positive, got {factor}"
        );
        Self {
            mean: self.mean * factor,
            sigma: self.sigma * factor,
        }
    }

    /// The distribution of the sum of two independent Gaussians.
    #[must_use]
    pub fn convolve(&self, other: &Gaussian) -> Self {
        Self {
            mean: self.mean + other.mean,
            sigma: (self.sigma * self.sigma + other.sigma * other.sigma).sqrt(),
        }
    }
}

impl fmt::Display for Gaussian {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "N({}, {}²)", self.mean, self.sigma)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_validates() {
        assert!(Gaussian::new(0.0, 1.0).is_ok());
        assert!(Gaussian::new(f64::NAN, 1.0).is_err());
        assert!(Gaussian::new(f64::INFINITY, 1.0).is_err());
        assert!(Gaussian::new(0.0, 0.0).is_err());
        assert!(Gaussian::new(0.0, -1.0).is_err());
        assert!(Gaussian::new(0.0, f64::NAN).is_err());
    }

    #[test]
    fn standard_normal_cdf() {
        let g = Gaussian::standard();
        assert!((g.cdf(0.0) - 0.5).abs() < 1e-15);
        assert!((g.cdf(1.0) - 0.8413447460685429).abs() < 1e-14);
        assert!((g.sf(1.0) - 0.15865525393145705).abs() < 1e-14);
    }

    #[test]
    fn cdf_sf_complement() {
        let g = Gaussian::new(0.3, 0.05).unwrap();
        for x in [0.1, 0.2, 0.3, 0.4, 0.5] {
            assert!((g.cdf(x) + g.sf(x) - 1.0).abs() < 1e-14);
        }
    }

    #[test]
    fn quantile_round_trip() {
        let g = Gaussian::new(0.55, 0.04).unwrap();
        for p in [1e-12, 1e-6, 0.01, 0.5, 0.99, 1.0 - 1e-6] {
            let x = g.quantile(p);
            assert!((g.cdf(x) / p - 1.0).abs() < 1e-8, "p = {p}");
        }
    }

    #[test]
    fn deep_tail_is_relative_accurate() {
        // NM ~ N(0.2, 0.02): failure below 0 is a 10-sigma event.
        let g = Gaussian::new(0.2, 0.02).unwrap();
        let p = g.cdf(0.0);
        // Φ(-10) = 7.619853024160526e-24
        assert!((p / 7.619853024160526e-24 - 1.0).abs() < 1e-9);
        assert!((g.ln_cdf(0.0) - p.ln()).abs() < 1e-9);
    }

    #[test]
    fn pdf_integrates_to_one_by_trapezoid() {
        let g = Gaussian::new(1.0, 0.5).unwrap();
        let n = 20_000;
        let (a, b) = (-4.0, 6.0);
        let h = (b - a) / n as f64;
        let mut s = 0.5 * (g.pdf(a) + g.pdf(b));
        for i in 1..n {
            s += g.pdf(a + i as f64 * h);
        }
        assert!((s * h - 1.0).abs() < 1e-9);
    }

    #[test]
    fn convolve_adds_variances() {
        let a = Gaussian::new(1.0, 3.0).unwrap();
        let b = Gaussian::new(2.0, 4.0).unwrap();
        let c = a.convolve(&b);
        assert_eq!(c.mean(), 3.0);
        assert!((c.sigma() - 5.0).abs() < 1e-15);
    }

    #[test]
    fn shifted_and_scaled() {
        let g = Gaussian::new(0.5, 0.1).unwrap();
        let s = g.shifted(-0.2);
        assert!((s.mean() - 0.3).abs() < 1e-15);
        assert_eq!(s.sigma(), 0.1);
        let k = g.scaled(2.0);
        assert_eq!(k.mean(), 1.0);
        assert_eq!(k.sigma(), 0.2);
    }

    #[test]
    #[should_panic(expected = "scale factor")]
    fn scaled_rejects_nonpositive() {
        let _ = Gaussian::standard().scaled(0.0);
    }

    #[test]
    fn display_is_nonempty() {
        let g = Gaussian::standard();
        assert!(!format!("{g}").is_empty());
        assert!(!format!("{g:?}").is_empty());
    }
}
