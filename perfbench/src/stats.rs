//! Summary statistics: medians, the tail-percentile rule, closure checks.

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Median of `v` (mean of the middle pair for even lengths); NaN if empty.
#[must_use]
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

/// Arithmetic mean; NaN if empty.
#[must_use]
pub fn mean(v: &[f64]) -> f64 {
    #[allow(clippy::cast_precision_loss)]
    let n = v.len() as f64;
    v.iter().sum::<f64>() / n
}

/// A tail percentile as reported: the quantile actually used and its value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The quantile the value belongs to (may be below the one asked for).
    pub q: f64,
    /// The nearest-rank sample at that quantile.
    pub value: f64,
}

/// The nearest-rank `q`-quantile of `v`, lowered until at least
/// [`TAIL_MIN_BEYOND`] samples lie beyond it. When even the median has
/// fewer beyond it, the median is reported (`q = 0.5`).
///
/// # Panics
///
/// Panics if `v` is empty.
#[must_use]
pub fn tail(v: &[f64], q: f64) -> Tail {
    assert!(!v.is_empty(), "tail of no samples");
    let n = v.len();
    if n < 2 * TAIL_MIN_BEYOND {
        return Tail {
            q: 0.5,
            value: median(v),
        };
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    #[allow(
        clippy::cast_precision_loss,
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss
    )]
    let wanted = ((q * n as f64).ceil() as usize).clamp(1, n);
    let rank = wanted.min(n - TAIL_MIN_BEYOND);
    #[allow(clippy::cast_precision_loss)]
    let q = if rank == wanted {
        q
    } else {
        rank as f64 / n as f64
    };
    Tail {
        q,
        value: s[rank - 1],
    }
}

/// How far `parts` miss `whole`, as a share of `whole`.
#[must_use]
pub fn closure_residual(parts: &[f64], whole: f64) -> f64 {
    (whole - parts.iter().sum::<f64>()).abs() / whole
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Shuffled 1..=n, so sorting is exercised.
        #[allow(clippy::cast_precision_loss)]
        (0..n).map(|i| ((i * 7919) % n + 1) as f64).collect()
    }

    #[test]
    fn median_handles_odd_even_and_order() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn tail_keeps_the_asked_quantile_when_ten_samples_lie_beyond() {
        let t = tail(&ramp(1000), 0.99);
        assert_eq!(
            t,
            Tail {
                q: 0.99,
                value: 990.0
            }
        );
        let beyond = ramp(1000).iter().filter(|&&x| x > t.value).count();
        assert_eq!(beyond, 10);
        assert_eq!(
            tail(&ramp(100), 0.9),
            Tail {
                q: 0.9,
                value: 90.0
            }
        );
    }

    #[test]
    fn tail_lowers_the_quantile_until_ten_samples_lie_beyond() {
        for n in [20, 21, 57, 100, 999, 1001] {
            for q in [0.9, 0.99, 0.999] {
                let v = ramp(n);
                let t = tail(&v, q);
                let beyond = v.iter().filter(|&&x| x > t.value).count();
                assert!(beyond >= TAIL_MIN_BEYOND, "n={n} q={q}: {beyond} beyond");
                assert!(t.q <= q);
            }
        }
        // 999 samples: p99 would leave 9 beyond, so rank 989 is used.
        let t = tail(&ramp(999), 0.99);
        assert_eq!(t.value, 989.0);
        assert!((t.q - 989.0 / 999.0).abs() < 1e-12);
    }

    #[test]
    fn tail_falls_back_to_the_median_on_few_samples() {
        let v = ramp(19);
        assert_eq!(
            tail(&v, 0.99),
            Tail {
                q: 0.5,
                value: 10.0
            }
        );
        assert_eq!(tail(&[5.0], 0.9), Tail { q: 0.5, value: 5.0 });
    }

    #[test]
    fn closure_residual_is_the_relative_gap() {
        assert_eq!(closure_residual(&[2.0, 3.0, 5.0], 10.0), 0.0);
        assert!((closure_residual(&[2.0, 3.0], 10.0) - 0.5).abs() < 1e-15);
        assert!((closure_residual(&[6.0, 5.0], 10.0) - 0.1).abs() < 1e-15);
    }
}
