//! Exact multi-bit word-error statistics, computed in log domain.
//!
//! An error-mitigation scheme that corrects `t` bit errors per word fails
//! when `t + 1` or more bits flip in the same word. At the paper's FIT
//! target of 1e-15 per transaction these are deep-tail binomial
//! probabilities (e.g. `P(≥5 of 39)` at `p ≈ 7e-5`), so everything here is
//! evaluated as log-sum-exp over exact binomial terms — no Poisson or
//! leading-term shortcuts that would distort the solved voltages.

use ntc_stats::math::bisect;
use std::collections::VecDeque;
use std::fmt;
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

/// `ln(n!)` with a cached table for small `n` and Stirling's series above.
///
/// # Example
///
/// ```
/// let v = ntc_sram::words::ln_factorial(5);
/// assert!((v - 120f64.ln()).abs() < 1e-12);
/// ```
pub fn ln_factorial(n: u64) -> f64 {
    const TABLE_SIZE: usize = 1025;
    static TABLE: OnceLock<Vec<f64>> = OnceLock::new();
    let table = TABLE.get_or_init(|| {
        let mut t = Vec::with_capacity(TABLE_SIZE);
        t.push(0.0);
        for i in 1..TABLE_SIZE as u64 {
            t.push(t[(i - 1) as usize] + (i as f64).ln());
        }
        t
    });
    if (n as usize) < table.len() {
        return table[n as usize];
    }
    // Stirling's series with the 1/(12n) correction — relative error below
    // 1e-12 for n ≥ 1024.
    let x = n as f64;
    x * x.ln() - x + 0.5 * (2.0 * std::f64::consts::PI * x).ln() + 1.0 / (12.0 * x)
        - 1.0 / (360.0 * x.powi(3))
}

/// `ln C(n, k)`, the log binomial coefficient.
///
/// # Panics
///
/// Panics if `k > n`.
pub fn ln_binomial(n: u64, k: u64) -> f64 {
    assert!(k <= n, "C({n}, {k}) undefined");
    ln_factorial(n) - ln_factorial(k) - ln_factorial(n - k)
}

/// Error-count statistics for words of a fixed width under independent
/// per-bit failures.
///
/// # Example
///
/// ```
/// use ntc_sram::words::WordErrorModel;
///
/// // A 39-bit SECDED codeword at p_bit = 1e-6:
/// let w = WordErrorModel::new(39);
/// // Single-bit errors happen at ~3.9e-5 per access…
/// let p1 = w.p_exactly(1, 1e-6);
/// assert!((p1 / 3.9e-5 - 1.0).abs() < 0.01);
/// // …but uncorrectable triple errors are down at ~9e-15.
/// let p3 = w.p_at_least(3, 1e-6);
/// assert!(p3 > 8e-15 && p3 < 1e-14);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WordErrorModel {
    bits: u32,
}

impl WordErrorModel {
    /// Creates a model for `bits`-bit words.
    ///
    /// # Panics
    ///
    /// Panics if `bits == 0`.
    pub fn new(bits: u32) -> Self {
        assert!(bits > 0, "word must have at least one bit");
        Self { bits }
    }

    /// `ln P(exactly m bits fail)` at per-bit probability `p`.
    ///
    /// Returns `−∞` when the event is impossible (`m > bits`, or `p` at a
    /// degenerate endpoint that excludes `m`).
    pub(crate) fn ln_p_exactly(&self, m: u32, p: f64) -> f64 {
        let n = self.bits;
        if m > n || !(0.0..=1.0).contains(&p) {
            return f64::NEG_INFINITY;
        }
        if p == 0.0 {
            return if m == 0 { 0.0 } else { f64::NEG_INFINITY };
        }
        if p == 1.0 {
            return if m == n { 0.0 } else { f64::NEG_INFINITY };
        }
        ln_binomial(n as u64, m as u64)
            + m as f64 * p.ln()
            + (n - m) as f64 * (-p).ln_1p()
    }

    /// `P(exactly m bits fail)` at per-bit probability `p`.
    pub fn p_exactly(&self, m: u32, p: f64) -> f64 {
        self.ln_p_exactly(m, p).exp()
    }

    /// `ln P(at least m bits fail)` at per-bit probability `p`, summed
    /// exactly over all binomial terms with log-sum-exp.
    pub(crate) fn ln_p_at_least(&self, m: u32, p: f64) -> f64 {
        if m == 0 {
            return 0.0;
        }
        if m > self.bits {
            return f64::NEG_INFINITY;
        }
        let terms: Vec<f64> = (m..=self.bits).map(|j| self.ln_p_exactly(j, p)).collect();
        log_sum_exp(&terms)
    }

    /// `P(at least m bits fail)` at per-bit probability `p`.
    pub fn p_at_least(&self, m: u32, p: f64) -> f64 {
        self.ln_p_at_least(m, p).exp().min(1.0)
    }

    /// `ln P(word failure)` for a scheme that corrects up to `correctable`
    /// bit errors per word: failure means `correctable + 1` or more errors.
    pub(crate) fn ln_p_word_failure(&self, correctable: u32, p: f64) -> f64 {
        self.ln_p_at_least(correctable + 1, p)
    }

    /// `P(word failure)` for a scheme correcting `correctable` errors.
    pub fn p_word_failure(&self, correctable: u32, p: f64) -> f64 {
        self.ln_p_word_failure(correctable, p).exp().min(1.0)
    }

    /// Expected number of failing bits per word.
    pub fn expected_errors(&self, p: f64) -> f64 {
        self.bits as f64 * p
    }

    /// The full error-count distribution `P(0), P(1), …, P(bits)`.
    pub fn distribution(&self, p: f64) -> Vec<f64> {
        (0..=self.bits).map(|m| self.p_exactly(m, p)).collect()
    }

    /// Largest per-bit probability `p` such that
    /// `P(≥ correctable+1 errors) ≤ target`, found by bisection on the
    /// monotone failure probability.
    ///
    /// Returns `None` if even `p → 1` satisfies the target is impossible…
    /// i.e. if no `p ∈ (0, 1)` exists because the target is unreachable
    /// (`target ≤ 0`) — for `target ≥ 1` the answer is `1.0`.
    ///
    /// The answer depends only on `(bits, correctable, target)`, so each
    /// distinct inversion is solved once per process: a FIFO table holds
    /// the 64 most recently solved. Targets can come from clients, which
    /// is why the table is bounded.
    ///
    /// # Panics
    ///
    /// Panics if `correctable >= bits` (the scheme can never fail, so any
    /// `p` works and the question is ill-posed).
    pub fn max_p_bit_for_target(&self, correctable: u32, target: f64) -> Option<f64> {
        assert!(
            correctable < self.bits,
            "a scheme correcting {correctable} of {} bits never fails",
            self.bits
        );
        if target <= 0.0 {
            return None;
        }
        if target >= 1.0 {
            return Some(1.0);
        }
        let key = (self.bits, correctable, target.to_bits());
        let hit = memo_find(&max_p_bit_memo(), key);
        if let Some(p) = hit {
            return Some(p);
        }
        let p = self.solve_max_p_bit(correctable, target);
        let mut memo = max_p_bit_memo();
        if memo_find(&memo, key).is_none() {
            if memo.len() == MAX_P_BIT_MEMO {
                memo.pop_front();
            }
            memo.push_back((key, p));
        }
        Some(p)
    }

    /// The uncached inversion behind
    /// [`WordErrorModel::max_p_bit_for_target`], for `0 < target < 1`.
    fn solve_max_p_bit(&self, correctable: u32, target: f64) -> f64 {
        let ln_target = target.ln();
        let f = |p: f64| self.ln_p_word_failure(correctable, p) - ln_target;
        // Failure probability is monotone increasing in p.
        if f(1.0) <= 0.0 {
            return 1.0;
        }
        bisect(0.0, 1.0, 200, |p| f(p) <= 0.0).0
    }
}

/// Capacity of the table behind [`WordErrorModel::max_p_bit_for_target`].
const MAX_P_BIT_MEMO: usize = 64;

/// `(bits, correctable, target bits)` of one memoized inversion.
type MaxPBitKey = (u32, u32, u64);

/// The memo table, oldest entry first. Every update leaves it valid, so a
/// poisoned lock is recovered rather than propagated.
fn max_p_bit_memo() -> MutexGuard<'static, VecDeque<(MaxPBitKey, f64)>> {
    static MEMO: Mutex<VecDeque<(MaxPBitKey, f64)>> = Mutex::new(VecDeque::new());
    MEMO.lock().unwrap_or_else(PoisonError::into_inner)
}

fn memo_find(memo: &VecDeque<(MaxPBitKey, f64)>, key: MaxPBitKey) -> Option<f64> {
    memo.iter().find(|(k, _)| *k == key).map(|&(_, p)| p)
}

impl fmt::Display for WordErrorModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}-bit word", self.bits)
    }
}

/// Word-error statistics under *correlated* bit failures.
///
/// Independent-bit binomial statistics are optimistic when failures share
/// a cause inside the word (common wordline droop, shared well, local
/// systematic variation): one bad access tends to take several bits at
/// once. The standard overdispersed model is the beta-binomial — the
/// per-access bit-failure probability is itself a random draw from a
/// `Beta` distribution with mean `p` and intra-word correlation `rho`
/// — and it is exactly what erodes a SECDED design's usable voltage,
/// because multi-bit patterns arrive much more often than `p^m` predicts.
///
/// # Example
///
/// ```
/// use ntc_sram::words::{CorrelatedWordModel, WordErrorModel};
///
/// # fn main() -> Result<(), ntc_sram::words::CorrelationError> {
/// let iid = WordErrorModel::new(39);
/// let corr = CorrelatedWordModel::new(39, 0.05)?;
/// let p = 1e-5;
/// // Correlation inflates the triple-error (SECDED-fatal) probability by
/// // orders of magnitude.
/// assert!(corr.p_at_least(3, p) > 100.0 * iid.p_at_least(3, p));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CorrelatedWordModel {
    bits: u32,
    rho: f64,
}

/// Error for invalid correlation parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CorrelationError;

impl fmt::Display for CorrelationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "correlation must be in (0, 1)")
    }
}

impl std::error::Error for CorrelationError {}

impl CorrelatedWordModel {
    /// Creates a model over `bits`-bit words with intra-word correlation
    /// `rho ∈ (0, 1)`.
    ///
    /// # Errors
    ///
    /// Returns [`CorrelationError`] unless `0 < rho < 1`.
    ///
    /// # Panics
    ///
    /// Panics if `bits == 0`.
    pub fn new(bits: u32, rho: f64) -> Result<Self, CorrelationError> {
        assert!(bits > 0, "word must have at least one bit");
        if !(rho > 0.0 && rho < 1.0) {
            return Err(CorrelationError);
        }
        Ok(Self { bits, rho })
    }

    /// `ln P(exactly m bits fail)` under the beta-binomial with mean `p`.
    ///
    /// Uses the standard parameterization `alpha = p·(1−rho)/rho`,
    /// `beta = (1−p)·(1−rho)/rho`, and
    /// `P(m) = C(n,m)·B(m+α, n−m+β)/B(α, β)` in log domain.
    pub(crate) fn ln_p_exactly(&self, m: u32, p: f64) -> f64 {
        let n = self.bits;
        if m > n || !(0.0..=1.0).contains(&p) {
            return f64::NEG_INFINITY;
        }
        if p == 0.0 {
            return if m == 0 { 0.0 } else { f64::NEG_INFINITY };
        }
        if p == 1.0 {
            return if m == n { 0.0 } else { f64::NEG_INFINITY };
        }
        let s = (1.0 - self.rho) / self.rho;
        let alpha = p * s;
        let beta = (1.0 - p) * s;
        ln_binomial(n as u64, m as u64) + ln_beta(m as f64 + alpha, (n - m) as f64 + beta)
            - ln_beta(alpha, beta)
    }

    /// `P(at least m bits fail)` with mean per-bit probability `p`.
    pub fn p_at_least(&self, m: u32, p: f64) -> f64 {
        if m == 0 {
            return 1.0;
        }
        if m > self.bits {
            return 0.0;
        }
        let terms: Vec<f64> = (m..=self.bits).map(|j| self.ln_p_exactly(j, p)).collect();
        log_sum_exp(&terms).exp().min(1.0)
    }

    /// `P(word failure)` for a scheme correcting `correctable` errors.
    pub fn p_word_failure(&self, correctable: u32, p: f64) -> f64 {
        self.p_at_least(correctable + 1, p)
    }
}

impl fmt::Display for CorrelatedWordModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}-bit word (rho = {})", self.bits, self.rho)
    }
}

/// `ln B(a, b) = lnΓ(a) + lnΓ(b) − lnΓ(a+b)`.
fn ln_beta(a: f64, b: f64) -> f64 {
    ln_gamma(a) + ln_gamma(b) - ln_gamma(a + b)
}

/// Lanczos approximation of `ln Γ(x)` for `x > 0` (relative error < 1e-10).
#[allow(clippy::excessive_precision)] // Lanczos coefficients quoted verbatim
fn ln_gamma(x: f64) -> f64 {
    // g = 7, n = 9 Lanczos coefficients.
    const G: f64 = 7.0;
    const COEF: [f64; 9] = [
        0.99999999999980993,
        676.5203681218851,
        -1259.1392167224028,
        771.32342877765313,
        -176.61502916214059,
        12.507343278686905,
        -0.13857109526572012,
        9.9843695780195716e-6,
        1.5056327351493116e-7,
    ];
    debug_assert!(x > 0.0, "ln_gamma domain");
    if x < 0.5 {
        // Reflection formula.
        return std::f64::consts::PI.ln()
            - (std::f64::consts::PI * x).sin().ln()
            - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut acc = COEF[0];
    for (i, &c) in COEF.iter().enumerate().skip(1) {
        acc += c / (x + i as f64);
    }
    let t = x + G + 0.5;
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + acc.ln()
}

/// Numerically stable `ln(Σ exp(xᵢ))`.
fn log_sum_exp(xs: &[f64]) -> f64 {
    let m = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    if m == f64::NEG_INFINITY {
        return f64::NEG_INFINITY;
    }
    let s: f64 = xs.iter().map(|&x| (x - m).exp()).sum();
    m + s.ln()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ln_factorial_small_values() {
        assert_eq!(ln_factorial(0), 0.0);
        assert_eq!(ln_factorial(1), 0.0);
        assert!((ln_factorial(10) - 3628800f64.ln()).abs() < 1e-10);
    }

    #[test]
    fn ln_factorial_stirling_continuity() {
        // Table/Stirling boundary at 1025 must be seamless.
        let a = ln_factorial(1024);
        let b = ln_factorial(1025);
        assert!((b - a - 1025f64.ln()).abs() < 1e-9);
    }

    #[test]
    fn ln_binomial_values() {
        assert!((ln_binomial(39, 2) - 741f64.ln()).abs() < 1e-10);
        assert!((ln_binomial(39, 3) - 9139f64.ln()).abs() < 1e-10);
        assert!((ln_binomial(39, 5) - 575757f64.ln()).abs() < 1e-10);
        assert_eq!(ln_binomial(10, 0), 0.0);
        assert_eq!(ln_binomial(10, 10), 0.0);
    }

    #[test]
    #[should_panic(expected = "undefined")]
    fn ln_binomial_rejects_k_gt_n() {
        ln_binomial(3, 4);
    }

    #[test]
    fn distribution_sums_to_one() {
        for p in [0.0, 1e-6, 0.01, 0.3, 1.0] {
            let w = WordErrorModel::new(39);
            let total: f64 = w.distribution(p).iter().sum();
            assert!((total - 1.0).abs() < 1e-10, "p = {p}: sum {total}");
        }
    }

    #[test]
    fn p_exactly_against_hand_computation() {
        let w = WordErrorModel::new(4);
        let p = 0.1;
        // P(2 of 4) = 6·0.01·0.81 = 0.0486
        assert!((w.p_exactly(2, p) - 0.0486).abs() < 1e-12);
        // P(0 of 4) = 0.6561
        assert!((w.p_exactly(0, p) - 0.6561).abs() < 1e-12);
    }

    #[test]
    fn p_at_least_is_complementary_cumulative() {
        let w = WordErrorModel::new(16);
        let p = 0.05;
        let dist = w.distribution(p);
        for m in 0..=16u32 {
            let direct: f64 = dist[m as usize..].iter().sum();
            let got = w.p_at_least(m, p);
            assert!((got - direct).abs() < 1e-12, "m = {m}");
        }
    }

    #[test]
    fn deep_tail_matches_leading_term() {
        // For tiny p, P(≥m) ≈ C(n,m)·p^m.
        let w = WordErrorModel::new(39);
        let p: f64 = 1e-7;
        let approx = 9139.0 * p.powi(3);
        let got = w.p_at_least(3, p);
        assert!((got / approx - 1.0).abs() < 1e-3, "got {got}, approx {approx}");
    }

    #[test]
    fn edge_probabilities() {
        let w = WordErrorModel::new(8);
        assert_eq!(w.p_at_least(0, 0.5), 1.0);
        assert_eq!(w.p_at_least(9, 0.5), 0.0);
        assert_eq!(w.p_exactly(0, 0.0), 1.0);
        assert_eq!(w.p_exactly(1, 0.0), 0.0);
        assert_eq!(w.p_exactly(8, 1.0), 1.0);
        assert_eq!(w.p_exactly(7, 1.0), 0.0);
    }

    #[test]
    fn word_failure_matches_at_least() {
        let w = WordErrorModel::new(39);
        let p = 1e-4;
        assert_eq!(w.p_word_failure(2, p), w.p_at_least(3, p));
        assert_eq!(w.p_word_failure(0, p), w.p_at_least(1, p));
    }

    #[test]
    fn max_p_bit_inverts_failure_probability() {
        let w = WordErrorModel::new(39);
        for (t, target) in [(0u32, 1e-15), (2, 1e-15), (4, 1e-15), (2, 1e-9)] {
            let p = w.max_p_bit_for_target(t, target).unwrap();
            let back = w.p_word_failure(t, p);
            assert!(
                (back / target - 1.0).abs() < 1e-6,
                "t = {t}: p = {p}, failure {back}"
            );
            // Slightly larger p must violate the target.
            assert!(w.p_word_failure(t, p * 1.01) > target);
        }
    }

    #[test]
    fn max_p_bit_table2_anchors() {
        // The calibration behind AccessLaw::cell_based_40nm: at FIT 1e-15,
        // SECDED (correct 2-of-39 is a failure at 3) needs p ≤ ~4.8e-7 and
        // OCEAN (failure at 5) allows p ≤ ~7.05e-5.
        let w = WordErrorModel::new(39);
        let p_ecc = w.max_p_bit_for_target(2, 1e-15).unwrap();
        assert!((p_ecc / 4.79e-7 - 1.0).abs() < 0.02, "SECDED p = {p_ecc}");
        let p_ocean = w.max_p_bit_for_target(4, 1e-15).unwrap();
        assert!((p_ocean / 7.05e-5 - 1.0).abs() < 0.02, "OCEAN p = {p_ocean}");
    }

    #[test]
    fn max_p_bit_edge_targets() {
        let w = WordErrorModel::new(39);
        assert_eq!(w.max_p_bit_for_target(2, 0.0), None);
        assert_eq!(w.max_p_bit_for_target(2, 1.0), Some(1.0));
    }

    /// The fixed 200-step loop [`WordErrorModel::solve_max_p_bit`]
    /// replaced, kept as its reference.
    fn max_p_bit_fixed(w: &WordErrorModel, correctable: u32, target: f64) -> f64 {
        let ln_target = target.ln();
        let f = |p: f64| w.ln_p_word_failure(correctable, p) - ln_target;
        let (mut lo, mut hi) = (0.0_f64, 1.0_f64);
        if f(hi) <= 0.0 {
            return 1.0;
        }
        for _ in 0..200 {
            let mid = 0.5 * (lo + hi);
            if f(mid) <= 0.0 {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// `n` targets log-spaced over `1e-300..=0.999`.
    fn log_spaced_targets(n: u32) -> impl Iterator<Item = f64> {
        let (a, b) = (-300.0, 0.999f64.log10());
        (0..n).map(move |i| 10f64.powf(a + (b - a) * f64::from(i) / f64::from(n - 1)))
    }

    #[test]
    fn max_p_bit_matches_the_fixed_step_loop_bit_for_bit() {
        // Every (bits, correctable) pair meets the paper's budget and three
        // of 16 log-spaced targets, rotating so each target meets ~490 pairs.
        let grid: Vec<f64> = log_spaced_targets(16).collect();
        let mut pair = 0;
        for bits in 1..=72 {
            let w = WordErrorModel::new(bits);
            for correctable in 0..bits {
                pair += 1;
                let rotated = (0..3).map(|k| grid[(pair + 5 * k) % grid.len()]);
                for target in rotated.chain([1e-15]) {
                    assert_eq!(
                        w.solve_max_p_bit(correctable, target).to_bits(),
                        max_p_bit_fixed(&w, correctable, target).to_bits(),
                        "{bits} bits, {correctable} correctable, target {target:e}"
                    );
                }
            }
        }
    }

    #[test]
    fn max_p_bit_memo_is_bounded_and_exact() {
        // 10 × 64 distinct keys; neighbours share a target, so a key that
        // dropped `bits` or `correctable` would answer from the wrong entry.
        let mut keys = 0;
        for target in log_spaced_targets(32) {
            for bits in [32, 39, 45, 57] {
                let w = WordErrorModel::new(bits);
                for correctable in 0..5 {
                    keys += 1;
                    let uncached = w.solve_max_p_bit(correctable, target).to_bits();
                    for _ in 0..2 {
                        let cached = w.max_p_bit_for_target(correctable, target).unwrap();
                        assert_eq!(cached.to_bits(), uncached, "{bits}/{correctable}/{target:e}");
                    }
                    assert!(max_p_bit_memo().len() <= MAX_P_BIT_MEMO);
                }
            }
        }
        assert_eq!(keys, 10 * 64);
    }

    #[test]
    #[should_panic(expected = "never fails")]
    fn max_p_bit_rejects_full_correction() {
        WordErrorModel::new(8).max_p_bit_for_target(8, 0.5);
    }

    #[test]
    fn expected_errors_linear() {
        let w = WordErrorModel::new(32);
        assert!((w.expected_errors(1e-3) - 0.032).abs() < 1e-15);
    }

    #[test]
    fn display_nonempty() {
        assert_eq!(WordErrorModel::new(39).to_string(), "39-bit word");
    }

    #[test]
    fn ln_gamma_reference_values() {
        // Γ(1)=1, Γ(5)=24, Γ(0.5)=√π.
        assert!(ln_gamma(1.0).abs() < 1e-10);
        assert!((ln_gamma(5.0) - 24f64.ln()).abs() < 1e-9);
        assert!((ln_gamma(0.5) - std::f64::consts::PI.sqrt().ln()).abs() < 1e-9);
        // Recurrence Γ(x+1) = x·Γ(x).
        for x in [0.3, 1.7, 12.5] {
            assert!((ln_gamma(x + 1.0) - ln_gamma(x) - x.ln()).abs() < 1e-8, "x = {x}");
        }
    }

    #[test]
    fn correlated_distribution_normalized() {
        let m = CorrelatedWordModel::new(39, 0.1).unwrap();
        for p in [1e-4, 0.01, 0.3] {
            let total: f64 = (0..=39).map(|k| m.ln_p_exactly(k, p).exp()).sum();
            assert!((total - 1.0).abs() < 1e-9, "p = {p}: {total}");
        }
    }

    #[test]
    fn correlated_mean_matches_p() {
        let m = CorrelatedWordModel::new(39, 0.2).unwrap();
        let p = 0.03;
        let mean: f64 = (0..=39)
            .map(|k| k as f64 * m.ln_p_exactly(k, p).exp())
            .sum();
        assert!((mean / (39.0 * p) - 1.0).abs() < 1e-8);
    }

    #[test]
    fn correlation_fattens_the_multi_bit_tail() {
        let iid = WordErrorModel::new(39);
        let lo = CorrelatedWordModel::new(39, 0.01).unwrap();
        let hi = CorrelatedWordModel::new(39, 0.2).unwrap();
        let p = 1e-5;
        let p_iid = iid.p_at_least(3, p);
        let p_lo = lo.p_at_least(3, p);
        let p_hi = hi.p_at_least(3, p);
        assert!(p_lo > p_iid, "any correlation worsens SECDED failure");
        assert!(p_hi > p_lo, "more correlation, fatter tail");
    }

    #[test]
    fn correlation_erodes_usable_voltage() {
        // Quantified Section III concern: at the SECDED operating point
        // (p ≈ 4.8e-7), even mild correlation blows through the FIT budget.
        let iid = WordErrorModel::new(39);
        let corr = CorrelatedWordModel::new(39, 0.05).unwrap();
        let p = 4.78e-7; // just inside the independent-bit budget
        assert!(iid.p_word_failure(2, p) <= 1e-15);
        assert!(
            corr.p_word_failure(2, p) > 1e-12,
            "correlated failure {} must violate the budget",
            corr.p_word_failure(2, p)
        );
    }

    #[test]
    fn correlated_validation_and_display() {
        assert!(CorrelatedWordModel::new(39, 0.0).is_err());
        assert!(CorrelatedWordModel::new(39, 1.0).is_err());
        assert!(CorrelatedWordModel::new(39, -0.5).is_err());
        let m = CorrelatedWordModel::new(39, 0.1).unwrap();
        assert!(!m.to_string().is_empty());
        assert!(!CorrelationError.to_string().is_empty());
        assert_eq!(m.bits, 39);
        assert!((m.rho - 0.1).abs() < 1e-15);
    }

    #[test]
    fn correlated_edge_probabilities() {
        let m = CorrelatedWordModel::new(16, 0.1).unwrap();
        assert_eq!(m.p_at_least(0, 0.5), 1.0);
        assert_eq!(m.p_at_least(17, 0.5), 0.0);
        assert_eq!(m.ln_p_exactly(0, 0.0), 0.0);
        assert_eq!(m.ln_p_exactly(16, 1.0), 0.0);
    }
}
