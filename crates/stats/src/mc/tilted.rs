//! Exponential-tilt importance sampling for the 1e-12…1e-15 tail regime.
//!
//! Direct Monte-Carlo cannot touch the paper's FIT ≤ 1e-15 reliability
//! targets: resolving a 1e-15 event at 10 % relative error needs ~1e17
//! samples ([`crate::mc::samples_for`] saturates). The estimators here
//! sample from an *exponentially tilted* proposal that puts the failure
//! region at probability ~½, and reweight each draw by the true-to-proposal
//! density ratio, so the estimate stays unbiased while every second trial
//! is informative.
//!
//! * [`gauss_tail_shards`] estimates `P(Z > t)` for standard normal `Z` — the
//!   Eq. 4 probit retention tail — by sampling `X ~ N(t, 1)` (natural
//!   parameter shift θ = t, the classical optimal tilt for a Gaussian
//!   level crossing). The weight is `exp(t²/2 − t·x)`; drawing
//!   `x = t + Φ⁻¹(u)` makes the hit test exact (`x > t ⟺ u > ½`) and
//!   weights are only evaluated on hits, so the `u → 0` lane
//!   (`Φ⁻¹(u) = −∞`, weight `+∞ · 0`) can never produce a NaN.
//! * [`binomial_tail_shards`] estimates `P(K ≥ k)` for `K ~ Binomial(n, p)` — the
//!   Eq. 5 SECDED word-failure tail (≥ 3 raw errors in a 39-bit word) —
//!   by tilting the per-bit probability to `q = k/n` so the threshold sits
//!   at the proposal mean. The weight depends only on the drawn count:
//!   `w(j) = (p/q)^j ((1−p)/(1−q))^(n−j)` (the binomial coefficients
//!   cancel), evaluated in the log domain.
//!
//! Both samplers run on the counter-based lane generator over the fixed
//! 64-shard layout, so estimates are pure functions of `(trials, seed, …)`
//! — parallel ≡ serial bit-for-bit, at any thread count and block size
//! (per-shard accumulation is a sequential in-lane-order fold; shard
//! results merge in shard order).
//!
//! Importance sampling fails silently when the proposal is wrong: a few
//! huge weights dominate and the variance estimate lies. [`TiltedCounter`]
//! therefore tracks the weight second moment and maximum so
//! `ntc_stats::diag::TiltedConvergence` can report the effective sample
//! size `ESS = (Σw)²/Σw²` and the largest single-weight share.

use crate::batch::BLOCK;
use crate::ckpt::{par_map_keyed, CollectiveKey, Salt};
use crate::exec::{shard_bounds, MC_SHARDS};
use crate::math::inv_phi;
use crate::rng::{lane_uniform, stream_key};

/// Accumulator for an importance-sampling run with degeneracy diagnostics.
///
/// Tracks the trial count, the hit count, and the weight sums needed for
/// the estimate (`Σw / n`), its standard error, the effective sample size
/// and the weight-degeneracy share. Merging is exact for the integer
/// fields and in-order-deterministic for the f64 sums, matching the
/// workspace's shard-merge discipline.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TiltedCounter {
    trials: u64,
    hits: u64,
    sum_w: f64,
    sum_w2: f64,
    max_w: f64,
}

impl TiltedCounter {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a trial that missed the rare-event region (weight 0).
    pub fn record_miss(&mut self) {
        self.trials += 1;
    }

    /// Records a trial that hit the rare-event region with importance
    /// weight `w`.
    ///
    /// # Panics
    ///
    /// Panics if `w` is not a finite non-negative number — an infinite or
    /// NaN weight means the proposal does not dominate the target and the
    /// whole estimate is invalid, which must not pass silently.
    pub fn record_hit(&mut self, w: f64) {
        assert!(w.is_finite() && w >= 0.0, "invalid importance weight {w}");
        self.trials += 1;
        self.hits += 1;
        self.sum_w += w;
        self.sum_w2 += w * w;
        self.max_w = self.max_w.max(w);
    }

    /// Total number of proposal draws.
    pub fn trials(&self) -> u64 {
        self.trials
    }

    /// Number of draws that landed in the rare-event region.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Sum of importance weights over the hits.
    pub fn weight_sum(&self) -> f64 {
        self.sum_w
    }

    /// Unbiased estimate of the rare-event probability: `Σw / n`.
    pub fn estimate(&self) -> f64 {
        if self.trials == 0 {
            0.0
        } else {
            self.sum_w / self.trials as f64
        }
    }

    /// Standard error of [`TiltedCounter::estimate`] (sample standard
    /// deviation of the per-trial weights, misses counting as zero, over
    /// `√n`); `0.0` with fewer than two trials.
    pub(crate) fn std_error(&self) -> f64 {
        if self.trials < 2 {
            return 0.0;
        }
        let n = self.trials as f64;
        let var = ((self.sum_w2 - self.sum_w * self.sum_w / n) / (n - 1.0)).max(0.0);
        (var / n).sqrt()
    }

    /// Effective sample size of the weighted hits: `(Σw)² / Σw²`.
    ///
    /// Equals the hit count when all weights agree and collapses toward 1
    /// as a single weight dominates; `0.0` with no hits.
    pub fn effective_sample_size(&self) -> f64 {
        if self.sum_w2 > 0.0 {
            self.sum_w * self.sum_w / self.sum_w2
        } else {
            0.0
        }
    }

    /// Share of the total weight carried by the single largest weight —
    /// the bluntest degeneracy alarm (near 1 means one draw decided the
    /// estimate); `0.0` with no hits.
    pub(crate) fn max_weight_share(&self) -> f64 {
        if self.sum_w > 0.0 {
            self.max_w / self.sum_w
        } else {
            0.0
        }
    }

    /// Merges another accumulator into this one (fold in shard order for
    /// deterministic f64 sums).
    pub fn merge(&mut self, other: &TiltedCounter) {
        self.trials += other.trials;
        self.hits += other.hits;
        self.sum_w += other.sum_w;
        self.sum_w2 += other.sum_w2;
        self.max_w = self.max_w.max(other.max_w);
    }
}

/// Estimates `P(Z > t)` for standard normal `Z` by exponential tilting
/// (proposal `N(t, 1)`), returning the per-shard accumulators in shard
/// order (for `diag::TiltedConvergence`). An in-order merge is a pure
/// function of `(trials, seed, t)`, bit-identical at any thread count.
/// See the module docs for the tilt derivation.
///
/// # Panics
///
/// Panics if `t` is not a finite positive number (the tilt is built for
/// the upper tail; the lower tail is the estimate at `−t` by symmetry).
///
/// # Example
///
/// ```
/// use ntc_stats::mc::tilted::{gauss_tail_shards, TiltedCounter};
///
/// // P(Z > 6) ≈ 9.866e-10: hopeless for direct sampling at 20k trials,
/// // resolved to a few percent by the tilted estimator.
/// let mut est = TiltedCounter::new();
/// for shard in gauss_tail_shards(20_000, 42, 6.0) {
///     est.merge(&shard);
/// }
/// let truth = ntc_stats::phi(-6.0);
/// assert!((est.estimate() / truth - 1.0).abs() < 0.1);
/// assert!(est.effective_sample_size() > 1000.0);
/// ```
pub fn gauss_tail_shards(trials: u64, seed: u64, t: f64) -> Vec<TiltedCounter> {
    assert!(t.is_finite() && t > 0.0, "tail threshold must be finite and positive");
    if trials == 0 {
        return Vec::new();
    }
    ntc_obs::counter_add("mc.tilted.samples", trials);
    let shards = MC_SHARDS.min(trials as usize);
    let neg_half_t2 = -0.5 * t * t;
    let ck_key = CollectiveKey::new("gauss_tail", seed, trials).with_salt(t.to_bits());
    par_map_keyed(&ck_key, shards, |i| {
        let (lo, hi) = shard_bounds(trials, shards, i);
        let mut span = ntc_obs::span("mc.tilted.shard").with_shard(i as u32);
        span.add_items(hi - lo);
        let key = stream_key(seed, i as u64);
        let mut acc = TiltedCounter::new();
        let mut us = [0.0f64; BLOCK];
        let mut lane = 0u64;
        let total = hi - lo;
        while lane < total {
            let len = (total - lane).min(BLOCK as u64) as usize;
            let us = &mut us[..len];
            for (j, u) in us.iter_mut().enumerate() {
                *u = lane_uniform(key, lane + j as u64);
            }
            for &u in us.iter() {
                // x = t + Φ⁻¹(u) ~ N(t, 1); hit ⟺ x > t ⟺ u > ½, so the
                // weight w = exp(t²/2 − t·x) = exp(−t²/2 − t·z) is only
                // evaluated on hit lanes, where z = Φ⁻¹(u) is finite.
                if u > 0.5 {
                    let z = inv_phi(u);
                    acc.record_hit((neg_half_t2 - t * z).exp());
                } else {
                    acc.record_miss();
                }
            }
            lane += len as u64;
        }
        acc
    })
}

/// [`gauss_tail_shards`] merged in shard order: the fold the tests
/// check the per-shard estimator against.
#[cfg(test)]
pub(crate) fn gauss_tail(trials: u64, seed: u64, t: f64) -> TiltedCounter {
    let mut acc = TiltedCounter::new();
    for c in gauss_tail_shards(trials, seed, t) {
        acc.merge(&c);
    }
    acc
}

/// Tilted-proposal tables for the binomial tail: the CDF of
/// `Binomial(n, q)` for inversion sampling and the count-indexed weights
/// `w(j) = (p/q)^j ((1−p)/(1−q))^(n−j)`.
fn binomial_tables(n: u32, p: f64, q: f64) -> (Vec<f64>, Vec<f64>) {
    let nf = f64::from(n);
    // pmf of Binomial(n, q), built iteratively; cumulative sum as we go.
    let mut cdf = Vec::with_capacity(n as usize + 1);
    let mut pmf = (1.0 - q).powi(n as i32);
    let mut cum = pmf;
    cdf.push(cum);
    for k in 0..n {
        let kf = f64::from(k);
        pmf *= (nf - kf) / (kf + 1.0) * (q / (1.0 - q));
        cum += pmf;
        cdf.push(cum);
    }
    // Log-domain weights: the binomial coefficients cancel between the
    // target pmf at p and the proposal pmf at q.
    let lr_hit = (p / q).ln();
    let lr_miss = ((1.0 - p) / (1.0 - q)).ln();
    let weights = (0..=n)
        .map(|k| (f64::from(k) * lr_hit + (nf - f64::from(k)) * lr_miss).exp())
        .collect();
    (cdf, weights)
}

/// Estimates `P(K ≥ k_min)` for `K ~ Binomial(n_bits, p_bit)` by tilting
/// the per-bit probability to `q = k_min / n_bits`, returning the
/// per-shard accumulators in shard order. An in-order merge is a pure
/// function of its arguments.
///
/// One uniform per trial is inverted through the proposal CDF (a ≤ n+1
/// step scan — `n_bits` is a code word, not a population), so the cost per
/// trial is independent of how deep the target tail is.
///
/// # Panics
///
/// Panics unless `0 < p_bit < 1` and `0 < k_min < n_bits`.
///
/// # Example
///
/// ```
/// use ntc_stats::mc::tilted::{binomial_tail_shards, TiltedCounter};
///
/// // P(≥3 errors in a 39-bit SECDED word) at p_bit = 1e-4: ~9.1e-9.
/// let mut est = TiltedCounter::new();
/// for shard in binomial_tail_shards(20_000, 7, 39, 1e-4, 3) {
///     est.merge(&shard);
/// }
/// let p = 1e-4f64;
/// let le2: f64 = (0..=2)
///     .map(|k| {
///         let c = [1.0, 39.0, 741.0][k];
///         c * p.powi(k as i32) * (1.0 - p).powi(39 - k as i32)
///     })
///     .sum();
/// let truth = 1.0 - le2;
/// assert!((est.estimate() / truth - 1.0).abs() < 0.1);
/// assert!(est.effective_sample_size() > 1000.0);
/// ```
pub fn binomial_tail_shards(
    trials: u64,
    seed: u64,
    n_bits: u32,
    p_bit: f64,
    k_min: u32,
) -> Vec<TiltedCounter> {
    assert!(p_bit > 0.0 && p_bit < 1.0, "p_bit must be in (0, 1)");
    assert!(k_min > 0 && k_min < n_bits, "need 0 < k_min < n_bits");
    if trials == 0 {
        return Vec::new();
    }
    ntc_obs::counter_add("mc.tilted.samples", trials);
    let q = f64::from(k_min) / f64::from(n_bits);
    let (cdf, weights) = binomial_tables(n_bits, p_bit, q);
    let shards = MC_SHARDS.min(trials as usize);
    let ck_key = CollectiveKey::new("binomial_tail", seed, trials).with_salt(
        Salt::new()
            .u64(u64::from(n_bits))
            .f64(p_bit)
            .u64(u64::from(k_min))
            .finish(),
    );
    par_map_keyed(&ck_key, shards, |i| {
        let (lo, hi) = shard_bounds(trials, shards, i);
        let mut span = ntc_obs::span("mc.tilted.shard").with_shard(i as u32);
        span.add_items(hi - lo);
        let key = stream_key(seed, i as u64);
        let mut acc = TiltedCounter::new();
        for lane in 0..hi - lo {
            let u = lane_uniform(key, lane);
            // Inversion: smallest k with u < cdf[k]; the final clamp
            // absorbs the cumulative sum's last-ulp rounding.
            let k = cdf.iter().position(|&c| u < c).unwrap_or(n_bits as usize);
            if k >= k_min as usize {
                acc.record_hit(weights[k]);
            } else {
                acc.record_miss();
            }
        }
        acc
    })
}

/// [`binomial_tail_shards`] merged in shard order: the fold the tests
/// check the per-shard estimator against.
#[cfg(test)]
pub(crate) fn binomial_tail(
    trials: u64,
    seed: u64,
    n_bits: u32,
    p_bit: f64,
    k_min: u32,
) -> TiltedCounter {
    let mut acc = TiltedCounter::new();
    for c in binomial_tail_shards(trials, seed, n_bits, p_bit, k_min) {
        acc.merge(&c);
    }
    acc
}

impl crate::exec::Mergeable for TiltedCounter {
    fn identity(&self) -> Self {
        TiltedCounter::new()
    }
    fn merge_from(&mut self, other: &Self) {
        self.merge(other);
    }
}

// Stable checkpoint form (see `crate::ckpt`): integer fields plus the
// three weight sums as exact bit patterns, so restored shards fold to
// the same estimate/ESS bits as computed ones.
impl crate::ckpt::Persist for TiltedCounter {
    fn persist_tag() -> &'static str {
        "tilted"
    }
    fn persist(&self, out: &mut Vec<u8>) {
        crate::ckpt::put_u64(out, self.trials);
        crate::ckpt::put_u64(out, self.hits);
        crate::ckpt::put_f64(out, self.sum_w);
        crate::ckpt::put_f64(out, self.sum_w2);
        crate::ckpt::put_f64(out, self.max_w);
    }
    fn restore(bytes: &[u8]) -> Option<Self> {
        if bytes.len() != 40 {
            return None;
        }
        let trials = crate::ckpt::get_u64(bytes, 0)?;
        let hits = crate::ckpt::get_u64(bytes, 8)?;
        if hits > trials {
            return None;
        }
        Some(TiltedCounter {
            trials,
            hits,
            sum_w: crate::ckpt::get_f64(bytes, 16)?,
            sum_w2: crate::ckpt::get_f64(bytes, 24)?,
            max_w: crate::ckpt::get_f64(bytes, 32)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::math::phi;

    #[test]
    fn counter_accumulates_and_merges() {
        let mut a = TiltedCounter::new();
        a.record_miss();
        a.record_hit(2.0);
        a.record_hit(2.0);
        assert_eq!(a.trials(), 3);
        assert_eq!(a.hits(), 2);
        assert!((a.estimate() - 4.0 / 3.0).abs() < 1e-15);
        assert!((a.effective_sample_size() - 2.0).abs() < 1e-12);
        assert!((a.max_weight_share() - 0.5).abs() < 1e-15);

        let mut b = TiltedCounter::new();
        b.record_hit(6.0);
        a.merge(&b);
        assert_eq!(a.trials(), 4);
        assert_eq!(a.hits(), 3);
        assert!((a.weight_sum() - 10.0).abs() < 1e-15);
        assert!((a.max_weight_share() - 0.6).abs() < 1e-15);
    }

    #[test]
    fn empty_counter_is_benign() {
        let c = TiltedCounter::new();
        assert_eq!(c.estimate(), 0.0);
        assert_eq!(c.std_error(), 0.0);
        assert_eq!(c.effective_sample_size(), 0.0);
        assert_eq!(c.max_weight_share(), 0.0);
    }

    #[test]
    #[should_panic(expected = "invalid importance weight")]
    fn infinite_weights_are_rejected_loudly() {
        TiltedCounter::new().record_hit(f64::INFINITY);
    }

    #[test]
    fn gauss_tail_matches_closed_form_deep_in_the_tail() {
        let _g = crate::ckpt::test_guard();
        // t = 7 and t = 8 bracket the paper's 1e-12…1e-15 regime.
        for t in [7.0, 8.0] {
            let est = gauss_tail(40_000, 2014, t);
            let truth = phi(-t);
            let ratio = est.estimate() / truth;
            assert!(
                (ratio - 1.0).abs() < 0.05,
                "t = {t}: est {} vs phi {truth} (ratio {ratio})",
                est.estimate()
            );
            assert!(est.effective_sample_size() > 1000.0, "t = {t}");
            assert!(est.max_weight_share() < 0.05, "t = {t}");
            // The standard error must see the true value within ~4σ.
            assert!((est.estimate() - truth).abs() < 4.0 * est.std_error(), "t = {t}");
        }
    }

    #[test]
    fn gauss_tail_is_deterministic_and_shards_fold_to_the_merged_result() {
        let _g = crate::ckpt::test_guard();
        let shards = gauss_tail_shards(10_000, 5, 7.0);
        assert_eq!(shards.len(), MC_SHARDS);
        let mut folded = TiltedCounter::new();
        for c in &shards {
            folded.merge(c);
        }
        let merged = gauss_tail(10_000, 5, 7.0);
        assert_eq!(folded.trials(), merged.trials());
        assert_eq!(folded.hits(), merged.hits());
        assert_eq!(folded.weight_sum().to_bits(), merged.weight_sum().to_bits());
        // Pure function of (trials, seed, t).
        let again = gauss_tail(10_000, 5, 7.0);
        assert_eq!(merged.weight_sum().to_bits(), again.weight_sum().to_bits());
        assert!(gauss_tail_shards(0, 5, 7.0).is_empty());
    }

    #[test]
    fn gauss_tail_matches_a_scalar_lane_replay() {
        let _g = crate::ckpt::test_guard();
        // Replay the exact per-lane arithmetic without blocks: the shard
        // accumulators must agree bit for bit (block-size invariance of
        // the sequential in-lane-order fold).
        let (trials, seed, t) = (5_000u64, 11u64, 7.5f64);
        let shards = MC_SHARDS.min(trials as usize);
        let kernel = gauss_tail_shards(trials, seed, t);
        assert_eq!(kernel.len(), shards);
        for (i, shard) in kernel.iter().enumerate() {
            let (lo, hi) = shard_bounds(trials, shards, i);
            let key = stream_key(seed, i as u64);
            let mut acc = TiltedCounter::new();
            for lane in 0..hi - lo {
                let u = lane_uniform(key, lane);
                if u > 0.5 {
                    let z = crate::math::inv_phi(u);
                    acc.record_hit((-0.5 * t * t - t * z).exp());
                } else {
                    acc.record_miss();
                }
            }
            assert_eq!(acc.trials(), shard.trials(), "shard {i}");
            assert_eq!(acc.hits(), shard.hits(), "shard {i}");
            assert_eq!(
                acc.weight_sum().to_bits(),
                shard.weight_sum().to_bits(),
                "shard {i}"
            );
        }
    }

    #[test]
    fn binomial_tail_matches_closed_form_at_1e15() {
        let _g = crate::ckpt::test_guard();
        // The paper's SECDED word: 39 bits, ≥ 3 raw errors. At
        // p_bit ≈ 4.8e-7 the closed-form tail is ~1e-15 — eighteen
        // orders beyond direct sampling.
        let (n, p, k) = (39u32, 4.8e-7f64, 3u32);
        let est = binomial_tail(40_000, 2014, n, p, k);
        // Direct tail sum (1 − P(K ≤ 2) would cancel to noise at 1e-15):
        // C(39,3..6) = 9139, 82251, 575757, 3262623; later terms vanish.
        let truth: f64 = [(3u32, 9139.0f64), (4, 82_251.0), (5, 575_757.0), (6, 3_262_623.0)]
            .iter()
            .map(|&(j, c)| c * p.powi(j as i32) * (1.0 - p).powi((n - j) as i32))
            .sum();
        assert!(truth < 1e-14, "sanity: tail is deep ({truth})");
        let ratio = est.estimate() / truth;
        assert!((ratio - 1.0).abs() < 0.05, "est {} vs {truth}", est.estimate());
        assert!(est.effective_sample_size() > 1000.0);
    }

    #[test]
    fn binomial_tables_are_a_distribution_and_unbiased() {
        let (n, p, k) = (39u32, 1e-3f64, 3u32);
        let q = f64::from(k) / f64::from(n);
        let (cdf, w) = binomial_tables(n, p, q);
        assert_eq!(cdf.len(), 40);
        assert_eq!(w.len(), 40);
        assert!((cdf[39] - 1.0).abs() < 1e-12, "CDF sums to 1 ({})", cdf[39]);
        assert!(cdf.windows(2).all(|c| c[1] >= c[0]), "CDF monotone");
        // Σ_{j≥k} w(j)·pmf_q(j) must reproduce the target tail exactly.
        let mut reweighted = 0.0;
        let mut prev = 0.0;
        for (j, &c) in cdf.iter().enumerate() {
            let pmf_q = c - prev;
            prev = c;
            if j >= k as usize {
                reweighted += w[j] * pmf_q;
            }
        }
        let le2: f64 = (0..=2u32)
            .map(|j| {
                let c = [1.0, 39.0, 741.0][j as usize];
                c * p.powi(j as i32) * (1.0 - p).powi((n - j) as i32)
            })
            .sum();
        assert!((reweighted / (1.0 - le2) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn binomial_tail_shards_fold_and_are_deterministic() {
        let _g = crate::ckpt::test_guard();
        let shards = binomial_tail_shards(8_000, 3, 39, 1e-5, 3);
        let mut folded = TiltedCounter::new();
        for c in &shards {
            folded.merge(c);
        }
        let merged = binomial_tail(8_000, 3, 39, 1e-5, 3);
        assert_eq!(folded.weight_sum().to_bits(), merged.weight_sum().to_bits());
    }

    #[test]
    #[should_panic(expected = "p_bit must be in (0, 1)")]
    fn binomial_tail_rejects_degenerate_p() {
        let _g = crate::ckpt::test_guard();
        let _ = binomial_tail(100, 1, 39, 0.0, 3);
    }

    #[test]
    #[should_panic(expected = "tail threshold")]
    fn gauss_tail_rejects_nonpositive_threshold() {
        let _g = crate::ckpt::test_guard();
        let _ = gauss_tail(100, 1, 0.0);
    }
}
