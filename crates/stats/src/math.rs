#![allow(clippy::excessive_precision)] // Cody/Acklam constants are quoted verbatim
//! Error-function family and normal CDF/quantile, accurate in the deep tail.
//!
//! The standard library provides no `erf`, and the workspace policy is to
//! avoid extra dependencies, so these are implemented here:
//!
//! * [`erf`]/[`erfc`] use W. J. Cody's rational Chebyshev approximations
//!   (the same scheme as FORTRAN `CALERF`), giving close to full `f64`
//!   relative accuracy on all three branches, including the exp-scaled tail.
//! * [`ln_erfc`] evaluates `ln(erfc(x))` without underflow, which is what the
//!   FIT solver needs when failure probabilities drop below ~1e-308.
//! * [`phi`]/[`inv_phi`] are the standard normal CDF and quantile (probit).
//!   The quantile uses Acklam's rational initial guess polished by one Halley
//!   step through [`erfc`], which brings it to near machine precision.

/// The error function `erf(x) = 2/√π ∫₀ˣ e^(−t²) dt`.
///
/// Relative error is below ~1e-15 everywhere; `erf(±∞) = ±1`.
///
/// # Example
///
/// ```
/// let e = ntc_stats::erf(1.0);
/// assert!((e - 0.8427007929497149).abs() < 1e-14);
/// ```
pub fn erf(x: f64) -> f64 {
    if x.is_nan() {
        return f64::NAN;
    }
    let ax = x.abs();
    if ax < 0.5 {
        erf_small(x)
    } else {
        let e = erfc_positive(ax);
        if x >= 0.0 {
            1.0 - e
        } else {
            e - 1.0
        }
    }
}

/// The complementary error function `erfc(x) = 1 − erf(x)`.
///
/// Maintains *relative* accuracy in the right tail down to the underflow
/// limit (`erfc(26.5) ≈ 1e-306`), which is what Gaussian-tail bit-error-rate
/// arithmetic requires.
///
/// # Example
///
/// ```
/// let p = ntc_stats::erfc(5.0);
/// assert!((p / 1.5374597944280351e-12 - 1.0).abs() < 1e-12);
/// ```
pub fn erfc(x: f64) -> f64 {
    if x.is_nan() {
        return f64::NAN;
    }
    if x < 0.5 {
        if x <= -0.5 {
            2.0 - erfc_positive(-x)
        } else {
            1.0 - erf_small(x)
        }
    } else {
        erfc_positive(x)
    }
}

/// `ln(erfc(x))`, computed without intermediate underflow.
///
/// For `x ≥ 0.5` this evaluates the Cody tail expansion directly in the log
/// domain, so it remains finite and accurate far past the point where
/// [`erfc`] itself underflows to zero (e.g. `ln_erfc(100) ≈ −10005.2`).
///
/// # Example
///
/// ```
/// // p = erfc(30) ~ 5.6e-393 underflows in linear space…
/// assert_eq!(ntc_stats::erfc(30.0), 0.0);
/// // …but its log is exact enough for FIT budgeting.
/// let lp = ntc_stats::ln_erfc(30.0);
/// assert!((lp - (-903.97)).abs() < 0.1);
/// ```
pub fn ln_erfc(x: f64) -> f64 {
    if x.is_nan() {
        return f64::NAN;
    }
    if x < 0.5 {
        erfc(x).ln()
    } else {
        // erfc(x) = exp(-x^2) * R(x); compute ln R + (-x^2) separately.
        let r = erfc_scaled(x); // erfc(x) * exp(x^2)
        r.ln() - x * x
    }
}

/// Scaled complementary error function `erfcx(x) = exp(x²)·erfc(x)` for `x ≥ 0.5`.
fn erfc_scaled(x: f64) -> f64 {
    debug_assert!(x >= 0.5);
    if x <= 4.0 {
        // Cody's rational approximation on [0.46875, 4].
        const P: [f64; 9] = [
            5.64188496988670089e-1,
            8.88314979438837594,
            6.61191906371416295e1,
            2.98635138197400131e2,
            8.81952221241769090e2,
            1.71204761263407058e3,
            2.05107837782607147e3,
            1.23033935479799725e3,
            2.15311535474403846e-8,
        ];
        const Q: [f64; 8] = [
            1.57449261107098347e1,
            1.17693950891312499e2,
            5.37181101862009858e2,
            1.62138957456669019e3,
            3.29079923573345963e3,
            4.36261909014324716e3,
            3.43936767414372164e3,
            1.23033935480374942e3,
        ];
        let mut num = P[8] * x;
        let mut den = x;
        for i in 0..7 {
            num = (num + P[i]) * x;
            den = (den + Q[i]) * x;
        }
        (num + P[7]) / (den + Q[7])
    } else {
        // Cody's rational approximation for x > 4 in terms of 1/x².
        const P: [f64; 6] = [
            3.05326634961232344e-1,
            3.60344899949804439e-1,
            1.25781726111229246e-1,
            1.60837851487422766e-2,
            6.58749161529837803e-4,
            1.63153871373020978e-2,
        ];
        const Q: [f64; 5] = [
            2.56852019228982242,
            1.87295284992346047,
            5.27905102951428412e-1,
            6.05183413124413191e-2,
            2.33520497626869185e-3,
        ];
        const ONE_OVER_SQRT_PI: f64 = 0.5641895835477562869;
        let z = 1.0 / (x * x);
        let mut num = P[5] * z;
        let mut den = z;
        for i in 0..4 {
            num = (num + P[i]) * z;
            den = (den + Q[i]) * z;
        }
        let r = z * (num + P[4]) / (den + Q[4]);
        (ONE_OVER_SQRT_PI - r) / x
    }
}

/// `erfc(x)` for `x ≥ 0.5` with relative tail accuracy.
fn erfc_positive(x: f64) -> f64 {
    debug_assert!(x >= 0.5);
    if x > 26.7 {
        // erfc underflows below the smallest positive normal f64.
        return 0.0;
    }
    // Split exp(-x^2) as exp(-q^2)·exp(-(x-q)(x+q)) with q = x rounded to
    // 1/16 so that q*q is exact, preserving relative accuracy in the tail.
    let q = (x * 16.0).floor() / 16.0;
    let e = (-q * q).exp() * ((q - x) * (q + x)).exp();
    e * erfc_scaled(x)
}

/// `erf(x)` for `|x| < 0.5` via Cody's central rational approximation.
fn erf_small(x: f64) -> f64 {
    const P: [f64; 5] = [
        3.209377589138469472562e3,
        3.774852376853020208137e2,
        1.138641541510501556495e2,
        3.161123743870565596947,
        1.857777061846031526730e-1,
    ];
    const Q: [f64; 4] = [
        2.844236833439170622273e3,
        1.282616526077372275645e3,
        2.440246379344441733056e2,
        2.360129095234412093499e1,
    ];
    let z = x * x;
    let mut num = P[4] * z;
    let mut den = z;
    for i in (1..4).rev() {
        num = (num + P[i]) * z;
        den = (den + Q[i]) * z;
    }
    x * (num + P[0]) / (den + Q[0])
}

/// Standard normal cumulative distribution function `Φ(x)`.
///
/// `Φ(x) = erfc(−x/√2)/2`, accurate in both tails.
///
/// # Example
///
/// ```
/// assert!((ntc_stats::phi(0.0) - 0.5).abs() < 1e-15);
/// assert!((ntc_stats::phi(-6.0) / 9.865876450377018e-10 - 1.0).abs() < 1e-10);
/// ```
pub fn phi(x: f64) -> f64 {
    const FRAC_1_SQRT_2: f64 = std::f64::consts::FRAC_1_SQRT_2;
    0.5 * erfc(-x * FRAC_1_SQRT_2)
}

/// `ln Φ(x)`, finite far into the left tail (`ln_phi(-40) ≈ −804.6`).
///
/// # Example
///
/// ```
/// let lp = ntc_stats::math::ln_phi(-10.0);
/// assert!((lp - (-53.23)).abs() < 0.01);
/// ```
pub fn ln_phi(x: f64) -> f64 {
    const FRAC_1_SQRT_2: f64 = std::f64::consts::FRAC_1_SQRT_2;
    ln_erfc(-x * FRAC_1_SQRT_2) - std::f64::consts::LN_2
}

/// Inverse standard normal CDF (probit function), `inv_phi(Φ(x)) = x`.
///
/// Uses Acklam's rational approximation refined by one Halley iteration, so
/// the result is accurate to a few ulps for `p ∈ (0, 1)`. Returns `−∞` for
/// `p = 0`, `+∞` for `p = 1` and `NaN` outside `[0, 1]`.
///
/// # Example
///
/// ```
/// let z = ntc_stats::inv_phi(0.975);
/// assert!((z - 1.959963984540054).abs() < 1e-12);
/// ```
pub fn inv_phi(p: f64) -> f64 {
    if p.is_nan() || !(0.0..=1.0).contains(&p) {
        return f64::NAN;
    }
    if p == 0.0 {
        return f64::NEG_INFINITY;
    }
    if p == 1.0 {
        return f64::INFINITY;
    }

    // Acklam's rational approximation.
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.383577518672690e+02,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    const P_LOW: f64 = 0.02425;

    let x = if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    };

    // One Halley refinement: solve phi(x) - p = 0.
    const SQRT_2PI: f64 = 2.5066282746310002;
    let e = phi(x) - p;
    let u = e * SQRT_2PI * (x * x / 2.0).exp();
    x - u / (1.0 + x * u / 2.0)
}

/// Bisects the bracket `[lo, hi]` for at most `max_steps` halvings and
/// returns the final bracket. Each step evaluates `raise_lo(mid)` at
/// `mid = 0.5 * (lo + hi)` and moves `lo` to `mid` when it holds, `hi`
/// otherwise.
///
/// The result is bit-identical to running all `max_steps` steps. Once
/// `mid` rounds onto an endpoint, that step's update either leaves the
/// bracket unchanged or collapses it onto `mid`; every later step then
/// re-evaluates the same `mid` and makes the same no-op update. So the
/// loop applies that one update and stops. This needs nothing of the
/// predicate but determinism — it may be non-monotone, and the bracket
/// need not contain a crossing — and holds for finite endpoints whose
/// sum does not overflow. Endpoints are compared bitwise so a signed
/// zero midpoint never ends the loop early.
///
/// # Example
///
/// ```
/// // √2 as the crossing of x² = 2, to the last bit in ~52 steps of 200.
/// let mut evals = 0;
/// let (lo, hi) = ntc_stats::math::bisect(1.0, 2.0, 200, |x| {
///     evals += 1;
///     x * x <= 2.0
/// });
/// assert_eq!(hi, lo.next_up());
/// assert!(evals < 60);
/// ```
pub fn bisect(
    mut lo: f64,
    mut hi: f64,
    max_steps: u32,
    mut raise_lo: impl FnMut(f64) -> bool,
) -> (f64, f64) {
    for _ in 0..max_steps {
        let mid = 0.5 * (lo + hi);
        let last = mid.to_bits() == lo.to_bits() || mid.to_bits() == hi.to_bits();
        if raise_lo(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
        if last {
            break;
        }
    }
    (lo, hi)
}

#[cfg(test)]
mod tests {
    use super::*;

    // Reference values computed with mpmath at 50 digits.
    const ERF_TABLE: &[(f64, f64)] = &[
        (0.0, 0.0),
        (0.1, 0.1124629160182849),
        (0.25, 0.2763263901682369),
        (0.5, 0.5204998778130465),
        (1.0, 0.8427007929497149),
        (1.5, 0.9661051464753107),
        (2.0, 0.9953222650189527),
        (3.0, 0.9999779095030014),
    ];

    const ERFC_TABLE: &[(f64, f64)] = &[
        (0.5, 0.4795001221869535),
        (1.0, 0.1572992070502851),
        (2.0, 0.004677734981047265),
        (3.0, 2.2090496998585438e-5),
        (4.0, 1.541725790028002e-8),
        (5.0, 1.5374597944280351e-12),
        (6.0, 2.1519736712498913e-17),
        (8.0, 1.1224297172982928e-29),
        (10.0, 2.088487583762545e-45),
        (15.0, 7.212994172451207e-100),
        (20.0, 5.395865611607901e-176),
        (25.0, 8.300172571196522e-274),
    ];

    #[test]
    fn erf_matches_reference() {
        for &(x, want) in ERF_TABLE {
            let got = erf(x);
            assert!(
                (got - want).abs() <= 4.0 * f64::EPSILON * want.abs().max(1e-300),
                "erf({x}) = {got}, want {want}"
            );
        }
    }

    #[test]
    fn erf_is_odd() {
        for &(x, _) in ERF_TABLE {
            assert_eq!(erf(-x), -erf(x));
        }
    }

    #[test]
    fn erfc_matches_reference_with_relative_accuracy() {
        for &(x, want) in ERFC_TABLE {
            let got = erfc(x);
            let rel = (got / want - 1.0).abs();
            assert!(rel < 1e-12, "erfc({x}) = {got}, want {want}, rel {rel}");
        }
    }

    #[test]
    fn erfc_left_side() {
        // erfc(-x) = 2 - erfc(x)
        for &(x, want) in ERFC_TABLE {
            if x <= 5.0 {
                let got = erfc(-x);
                assert!(((2.0 - want) - got).abs() < 1e-14, "erfc(-{x})");
            }
        }
    }

    #[test]
    fn erfc_underflows_cleanly() {
        assert_eq!(erfc(27.0), 0.0);
        assert_eq!(erfc(1e6), 0.0);
    }

    #[test]
    fn ln_erfc_deep_tail() {
        for &(x, want) in ERFC_TABLE {
            let got = ln_erfc(x);
            assert!(
                (got - want.ln()).abs() < 1e-10 * want.ln().abs(),
                "ln_erfc({x})"
            );
        }
        // Past the underflow point of erfc itself (references from the
        // asymptotic series evaluated independently).
        assert!((ln_erfc(30.0) + 903.9741171106439).abs() < 1e-8);
        assert!((ln_erfc(100.0) + 10005.177585122665).abs() < 1e-6);
    }

    #[test]
    fn phi_basic_values() {
        assert!((phi(0.0) - 0.5).abs() < 1e-15);
        // Φ(1.96) ≈ 0.9750021048517795
        assert!((phi(1.96) - 0.9750021048517795).abs() < 1e-14);
        // Φ(-6) ≈ 9.865876450377018e-10
        assert!((phi(-6.0) / 9.865876450377018e-10 - 1.0).abs() < 1e-10);
        // Φ(-8) ≈ 6.22096057427178e-16 (near the paper's FIT target)
        assert!((phi(-8.0) / 6.22096057427178e-16 - 1.0).abs() < 1e-10);
    }

    #[test]
    fn ln_phi_matches_phi_where_both_work() {
        for x in [-8.0, -4.0, -1.0, 0.0, 1.0, 3.0] {
            assert!((ln_phi(x) - phi(x).ln()).abs() < 1e-10, "ln_phi({x})");
        }
        // And stays finite where phi underflows: Φ(-40) ≈ 7.31e-350.
        let lp = ln_phi(-40.0);
        assert!(lp.is_finite() && (lp + 804.61).abs() < 0.5, "got {lp}");
    }

    #[test]
    fn inv_phi_round_trips() {
        for &p in &[
            1e-300, 1e-100, 1e-15, 1e-9, 0.001, 0.1, 0.5, 0.9, 0.999, 1.0 - 1e-9,
        ] {
            let x = inv_phi(p);
            let back = phi(x);
            let rel = (back / p - 1.0).abs();
            assert!(rel < 1e-9, "inv_phi({p}) = {x}, phi back {back}");
        }
    }

    #[test]
    fn inv_phi_edge_cases() {
        assert_eq!(inv_phi(0.0), f64::NEG_INFINITY);
        assert_eq!(inv_phi(1.0), f64::INFINITY);
        assert!(inv_phi(-0.1).is_nan());
        assert!(inv_phi(1.1).is_nan());
        assert!(inv_phi(f64::NAN).is_nan());
        assert_eq!(inv_phi(0.5), 0.0);
    }

    #[test]
    fn inv_phi_symmetry() {
        for &p in &[0.01, 0.2, 0.4] {
            assert!((inv_phi(p) + inv_phi(1.0 - p)).abs() < 1e-12);
        }
    }

    #[test]
    fn nan_propagates() {
        assert!(erf(f64::NAN).is_nan());
        assert!(erfc(f64::NAN).is_nan());
        assert!(ln_erfc(f64::NAN).is_nan());
    }

    #[test]
    fn erf_erfc_complementarity_across_branches() {
        for i in 0..200 {
            let x = -3.0 + i as f64 * 0.05; // crosses both branch points at ±0.5
            let s = erf(x) + erfc(x);
            assert!((s - 1.0).abs() < 4.0 * f64::EPSILON, "x = {x}, sum {s}");
        }
    }

    #[test]
    fn erfc_monotone_decreasing() {
        let mut prev = f64::INFINITY;
        for i in 0..500 {
            let x = -5.0 + i as f64 * 0.025;
            let v = erfc(x);
            assert!(v <= prev, "erfc not monotone at {x}");
            prev = v;
        }
    }

    /// The fixed-step loop [`bisect`] replaces, kept as its reference.
    fn bisect_fixed(
        mut lo: f64,
        mut hi: f64,
        steps: u32,
        mut raise_lo: impl FnMut(f64) -> bool,
    ) -> (f64, f64) {
        for _ in 0..steps {
            let mid = 0.5 * (lo + hi);
            if raise_lo(mid) {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        (lo, hi)
    }

    fn assert_bisect_exact(lo: f64, hi: f64, steps: u32, raise_lo: impl Fn(f64) -> bool) {
        let got = bisect(lo, hi, steps, &raise_lo);
        let want = bisect_fixed(lo, hi, steps, &raise_lo);
        assert_eq!(
            (got.0.to_bits(), got.1.to_bits()),
            (want.0.to_bits(), want.1.to_bits()),
            "bisect({lo}, {hi}, {steps}): {got:?} vs {want:?}"
        );
    }

    /// The solvers' brackets and step counts, plus signed-zero, subnormal
    /// and degenerate ones.
    const BRACKETS: [(f64, f64, u32); 8] = [
        (0.0, 1.0, 200),
        (0.05, 1.32, 80),
        (0.0, 0.1, 120),
        (0.05, 0.05, 80),
        (-0.0, 0.0, 10),
        (-5e-324, 0.0, 10),
        (-3.0, 7.5, 200),
        (1e-310, 1e-300, 1100),
    ];

    #[test]
    #[allow(clippy::neg_cmp_op_on_partial_ord)] // NaN-valued predicates on purpose
    fn bisect_matches_the_fixed_step_loop_at_the_edges() {
        for (lo, hi, steps) in BRACKETS {
            let (mid, up, down) = (0.5 * (lo + hi), lo.next_up(), hi.next_down());
            for t in [lo, hi, lo - 1.0, hi + 1.0, 0.0, -0.0, 5e-324, mid, up, down, f64::NAN] {
                assert_bisect_exact(lo, hi, steps, |x| x <= t);
                assert_bisect_exact(lo, hi, steps, |x| x < t);
                // The bracket is violated on both sides: never or always raise.
                assert_bisect_exact(lo, hi, steps, |_| t.is_nan());
                // NaN-valued model, NaN-preserving comparison.
                assert_bisect_exact(lo, hi, steps, |x| !((x - t).sqrt() >= 0.0));
            }
            // Signed-zero sensitive and non-monotone predicates.
            assert_bisect_exact(lo, hi, steps, |x| x.is_sign_negative());
            assert_bisect_exact(lo, hi, steps, |x| {
                x.to_bits().wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 63 == 0
            });
        }
    }

    proptest::proptest! {
        /// Any threshold, in or out of the bracket, on the solvers'
        /// brackets and on arbitrary ones.
        #[test]
        #[allow(clippy::neg_cmp_op_on_partial_ord)] // NaN-valued predicates on purpose
        fn bisect_matches_the_fixed_step_loop(
            t in -2.0f64..2.0,
            a in -1e3f64..1e3,
            b in -1e3f64..1e3,
            steps in 0u32..300,
            salt: u64,
        ) {
            for (lo, hi, _) in BRACKETS {
                assert_bisect_exact(lo, hi, steps, |x| x <= t);
                assert_bisect_exact(lo, hi, steps, |x| !(x.exp() - 1.0 >= t));
            }
            assert_bisect_exact(a.min(b), a.max(b), steps, |x| x * x * x <= t * 1e9);
            assert_bisect_exact(a, b, steps, |x| (x.to_bits() ^ salt).count_ones() % 2 == 0);
        }
    }

    #[test]
    fn bisect_stops_early_on_a_converged_bracket() {
        let mut evals = 0;
        let (lo, hi) = bisect(0.0, 1.0, 200, |x| {
            evals += 1;
            x <= 1e-9
        });
        assert_eq!(hi, lo.next_up());
        assert!(evals < 100, "{evals} evaluations");
        // A collapsed bracket costs one evaluation.
        let mut evals = 0;
        bisect(0.05, 0.05, 80, |_| {
            evals += 1;
            false
        });
        assert_eq!(evals, 1);
    }

}
