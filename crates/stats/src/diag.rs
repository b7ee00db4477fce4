//! Monte-Carlo convergence diagnostics over the fixed 64-shard layout.
//!
//! Every sharded Monte-Carlo estimate in this workspace is reduced from
//! per-shard accumulators (such as [`TrialCounter`]) that merge
//! exactly (see `exec`). That structure is itself diagnostic material:
//! the shards are independent, identically-seeded sub-experiments, so
//! splitting them into two halves gives two independent estimates of
//! the same quantity. [`Convergence`] condenses that into the numbers a
//! reviewer of a low-voltage SRAM statistic actually wants:
//!
//! * the point estimate with its **standard error** and **95 % CI
//!   half-width**;
//! * the **effective sample count** — for a rare-event counter the
//!   information lives in the hits, not the trials, so a 1e-6 event
//!   estimated from 1e5 trials reports ~0 effective samples and is
//!   visibly untrustworthy;
//! * a **split-half z statistic**: the even-indexed and odd-indexed
//!   shards are merged separately and their estimates compared in units
//!   of their combined standard error. `|z|` beyond ~3 means the two
//!   halves disagree more than sampling noise allows — a seeding or
//!   merge bug, not statistical fluctuation.
//!
//! [`TiltedConvergence`] is the importance-sampling counterpart for the
//! exponential-tilt estimators in [`crate::mc::tilted`]: on top of the
//! split-half layout check it reports the **effective sample size**
//! `(Σw)²/Σw²` and the **max-weight share** — the diagnostics that catch
//! a mis-tilted proposal whose few giant weights make a wrong estimate
//! look converged.
//!
//! Diagnostics are *observability*, not results: experiments publish
//! them through the `ntc-obs` gauge registry ([`Convergence::publish`])
//! so they land in metrics sidecars and `repro report`, never in
//! artifact JSON — artifact bytes are identical whether diagnostics run
//! or not.

use crate::mc::tilted::TiltedCounter;
use crate::mc::{z_for_confidence, TrialCounter};

/// Convergence summary of a sharded Monte-Carlo estimate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Convergence {
    /// Number of shards the estimate was reduced from.
    pub shards: usize,
    /// Total samples across all shards.
    pub samples: u64,
    /// The merged point estimate (event rate or mean).
    pub estimate: f64,
    /// Standard error of the merged estimate.
    pub std_error: f64,
    /// Half-width of the 95 % confidence interval.
    pub ci95_half_width: f64,
    /// Effective sample count: hits for a rare-event counter (the
    /// trials that carried information), the full count for moments.
    pub effective_samples: u64,
    /// Split-half z statistic: the even-shard and odd-shard estimates'
    /// difference in units of their combined standard error. `0.0` when
    /// either half is empty or has zero variance.
    pub split_half_z: f64,
}

impl Convergence {
    /// Diagnoses a rare-event estimate from its per-shard counters (in
    /// shard order).
    ///
    /// # Panics
    ///
    /// Panics if `shards` is empty.
    #[must_use]
    pub fn from_counters(shards: &[TrialCounter]) -> Self {
        assert!(!shards.is_empty(), "need at least one shard");
        let mut all = TrialCounter::new();
        let mut even = TrialCounter::new();
        let mut odd = TrialCounter::new();
        for (i, c) in shards.iter().enumerate() {
            all.merge(c);
            if i % 2 == 0 {
                even.merge(c);
            } else {
                odd.merge(c);
            }
        }
        let z95 = z_for_confidence(0.95);
        let (lo, hi) = all.wilson_interval(z95);
        Self {
            shards: shards.len(),
            samples: all.trials(),
            estimate: all.estimate(),
            std_error: all.std_error(),
            ci95_half_width: 0.5 * (hi - lo),
            effective_samples: all.hits(),
            split_half_z: split_z(
                even.estimate(),
                even.std_error(),
                odd.estimate(),
                odd.std_error(),
            ),
        }
    }

    /// Relative half-width of the 95 % CI (`ci95 / |estimate|`);
    /// `f64::INFINITY` when the estimate is zero but the CI is not.
    #[must_use]
    pub(crate) fn relative_ci(&self) -> f64 {
        if self.estimate != 0.0 {
            self.ci95_half_width / self.estimate.abs()
        } else if self.ci95_half_width == 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    }

    /// Publishes this report as `ntc-obs` gauges under `prefix`
    /// (`<prefix>.estimate`, `.std_error`, `.ci95`, `.rel_ci`,
    /// `.effective_samples`, `.split_half_z`). No-op while the
    /// observability layer is disabled; never touches artifacts.
    pub fn publish(&self, prefix: &str) {
        #[allow(clippy::cast_precision_loss)]
        {
            ntc_obs::gauge_set(&format!("{prefix}.estimate"), self.estimate);
            ntc_obs::gauge_set(&format!("{prefix}.std_error"), self.std_error);
            ntc_obs::gauge_set(&format!("{prefix}.ci95"), self.ci95_half_width);
            ntc_obs::gauge_set(&format!("{prefix}.rel_ci"), self.relative_ci());
            ntc_obs::gauge_set(
                &format!("{prefix}.effective_samples"),
                self.effective_samples as f64,
            );
            ntc_obs::gauge_set(&format!("{prefix}.split_half_z"), self.split_half_z);
        }
    }
}

/// Convergence and weight-degeneracy summary of a sharded tilted
/// importance-sampling estimate (see [`crate::mc::tilted`]).
///
/// Importance sampling has a failure mode plain Monte-Carlo does not:
/// with a mis-chosen proposal the estimate *and its standard error* are
/// both dominated by a handful of enormous weights, so the usual CI looks
/// tight while being meaningless. The two fields that catch this are the
/// **effective sample size** `ESS = (Σw)²/Σw²` — the number of equally
/// weighted samples carrying the same information, the quantity the tail
/// experiments gate on — and the **max-weight share**, the fraction of
/// the total weight owned by the single largest weight.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TiltedConvergence {
    /// Number of shards the estimate was reduced from.
    pub shards: usize,
    /// Total proposal draws across all shards.
    pub samples: u64,
    /// Draws that landed in the rare-event region.
    pub hits: u64,
    /// The merged importance-sampling estimate.
    pub estimate: f64,
    /// Standard error of the merged estimate.
    pub std_error: f64,
    /// Half-width of the 95 % confidence interval (normal approximation).
    pub ci95_half_width: f64,
    /// Effective sample size `(Σw)²/Σw²` of the weighted hits.
    pub effective_samples: f64,
    /// Share of the total weight carried by the largest single weight.
    pub max_weight_share: f64,
    /// Split-half z statistic over even/odd shards, as in [`Convergence`].
    pub split_half_z: f64,
}

impl TiltedConvergence {
    /// Diagnoses a tilted estimate from its per-shard accumulators (in
    /// shard order, as returned by `mc::tilted::gauss_tail_shards` /
    /// `binomial_tail_shards`).
    ///
    /// # Panics
    ///
    /// Panics if `shards` is empty.
    #[must_use]
    pub fn from_shards(shards: &[TiltedCounter]) -> Self {
        assert!(!shards.is_empty(), "need at least one shard");
        let mut all = TiltedCounter::new();
        let mut even = TiltedCounter::new();
        let mut odd = TiltedCounter::new();
        for (i, c) in shards.iter().enumerate() {
            all.merge(c);
            if i % 2 == 0 {
                even.merge(c);
            } else {
                odd.merge(c);
            }
        }
        let se = all.std_error();
        Self {
            shards: shards.len(),
            samples: all.trials(),
            hits: all.hits(),
            estimate: all.estimate(),
            std_error: se,
            ci95_half_width: z_for_confidence(0.95) * se,
            effective_samples: all.effective_sample_size(),
            max_weight_share: all.max_weight_share(),
            split_half_z: split_z(
                even.estimate(),
                even.std_error(),
                odd.estimate(),
                odd.std_error(),
            ),
        }
    }

    /// Relative half-width of the 95 % CI (`ci95 / |estimate|`);
    /// `f64::INFINITY` when the estimate is zero but the CI is not.
    #[must_use]
    pub(crate) fn relative_ci(&self) -> f64 {
        if self.estimate != 0.0 {
            self.ci95_half_width / self.estimate.abs()
        } else if self.ci95_half_width == 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    }

    /// Publishes this report as `ntc-obs` gauges under `prefix`
    /// (`<prefix>.estimate`, `.std_error`, `.ci95`, `.rel_ci`,
    /// `.effective_samples`, `.max_weight_share`, `.split_half_z`).
    /// No-op while the observability layer is disabled; never touches
    /// artifacts.
    pub fn publish(&self, prefix: &str) {
        ntc_obs::gauge_set(&format!("{prefix}.estimate"), self.estimate);
        ntc_obs::gauge_set(&format!("{prefix}.std_error"), self.std_error);
        ntc_obs::gauge_set(&format!("{prefix}.ci95"), self.ci95_half_width);
        ntc_obs::gauge_set(&format!("{prefix}.rel_ci"), self.relative_ci());
        ntc_obs::gauge_set(&format!("{prefix}.effective_samples"), self.effective_samples);
        ntc_obs::gauge_set(&format!("{prefix}.max_weight_share"), self.max_weight_share);
        ntc_obs::gauge_set(&format!("{prefix}.split_half_z"), self.split_half_z);
    }
}

/// z statistic between two independent estimates; `0.0` when the
/// combined standard error vanishes (degenerate halves carry no
/// disagreement evidence).
fn split_z(a: f64, se_a: f64, b: f64, se_b: f64) -> f64 {
    let combined = (se_a * se_a + se_b * se_b).sqrt();
    if combined > 0.0 {
        (a - b) / combined
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{mc_counter, shard_bounds, MC_SHARDS};
    use crate::rng::Source;

    #[test]
    fn counter_diagnostics_match_merged_counter() {
        let trials = 200_000u64;
        // The per-shard counters `mc_counter` folds, in shard order.
        let shards: Vec<TrialCounter> = (0..MC_SHARDS)
            .map(|i| {
                let (lo, hi) = shard_bounds(trials, MC_SHARDS, i);
                let mut src = Source::stream(11, i as u64);
                let mut c = TrialCounter::new();
                for _ in lo..hi {
                    c.record(src.bernoulli(0.01));
                }
                c
            })
            .collect();
        let d = Convergence::from_counters(&shards);
        let merged = mc_counter(trials, 11, |s| s.bernoulli(0.01));
        assert_eq!(d.samples, trials);
        assert_eq!(d.effective_samples, merged.hits());
        assert!((d.estimate - merged.estimate()).abs() < 1e-15);
        assert!(d.std_error > 0.0 && d.std_error < 1e-3);
        assert!(d.ci95_half_width > d.std_error, "CI wider than one SE");
        assert!(
            d.split_half_z.abs() <= 4.0,
            "split-half z = {}",
            d.split_half_z
        );
    }

    #[test]
    fn split_half_detects_seed_disagreement() {
        // Construct two halves that measure genuinely different rates:
        // even shards at p=0.01, odd shards at p=0.05. The split-half z
        // must flag it while each half on its own looks converged.
        let mut shards = Vec::new();
        for i in 0..64u64 {
            let mut c = TrialCounter::new();
            let p = if i % 2 == 0 { 0.01 } else { 0.05 };
            let hits = (10_000f64 * p) as u64;
            c.record_batch(10_000, hits);
            shards.push(c);
        }
        let d = Convergence::from_counters(&shards);
        assert!(d.split_half_z.abs() > 3.0, "z = {}", d.split_half_z);
    }

    #[test]
    fn zero_hit_estimate_reports_infinite_relative_ci() {
        let mut c = TrialCounter::new();
        c.record_batch(1000, 0);
        let d = Convergence::from_counters(&[c]);
        assert_eq!(d.estimate, 0.0);
        assert_eq!(d.effective_samples, 0);
        assert!(d.relative_ci().is_infinite());
        assert_eq!(d.split_half_z, 0.0, "single shard: no disagreement evidence");
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn empty_shards_rejected() {
        let _ = Convergence::from_counters(&[]);
    }

    #[test]
    fn tilted_diagnostics_summarize_a_deep_tail_run() {
        use crate::math::phi;
        use crate::mc::tilted::gauss_tail_shards;
        let shards = gauss_tail_shards(40_000, 2014, 8.0);
        let d = TiltedConvergence::from_shards(&shards);
        assert_eq!(d.shards, 64);
        assert_eq!(d.samples, 40_000);
        assert!(d.hits > 15_000, "about half the tilted draws hit");
        let truth = phi(-8.0);
        assert!((d.estimate / truth - 1.0).abs() < 0.05, "estimate {}", d.estimate);
        assert!(d.effective_samples > 1000.0, "ESS {}", d.effective_samples);
        assert!(d.max_weight_share < 0.05, "share {}", d.max_weight_share);
        assert!(d.split_half_z.abs() <= 4.0, "z = {}", d.split_half_z);
        assert!(d.ci95_half_width > d.std_error);
        assert!(d.relative_ci() < 0.1);
    }

    #[test]
    fn tilted_diagnostics_flag_a_degenerate_weight() {
        use crate::mc::tilted::TiltedCounter;
        let mut a = TiltedCounter::new();
        for _ in 0..100 {
            a.record_hit(1e-12);
        }
        let mut b = TiltedCounter::new();
        b.record_hit(1.0); // one weight owns the estimate
        let d = TiltedConvergence::from_shards(&[a, b]);
        assert!(d.effective_samples < 1.01, "ESS {}", d.effective_samples);
        assert!(d.max_weight_share > 0.999);
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn tilted_empty_shards_rejected() {
        let _ = TiltedConvergence::from_shards(&[]);
    }

    #[test]
    fn tilted_publish_registers_gauges_when_enabled() {
        use crate::mc::tilted::TiltedCounter;
        ntc_obs::enable();
        let mut c = TiltedCounter::new();
        c.record_hit(0.5);
        c.record_miss();
        TiltedConvergence::from_shards(&[c]).publish("diag_test.tilted");
        let snap = ntc_obs::metrics_snapshot();
        match snap.get("diag_test.tilted.effective_samples") {
            Some(ntc_obs::MetricValue::Gauge(g)) => assert!((g - 1.0).abs() < 1e-12),
            other => panic!("expected gauge, got {other:?}"),
        }
        assert!(snap.get("diag_test.tilted.max_weight_share").is_some());
    }

    #[test]
    fn publish_registers_gauges_when_enabled() {
        ntc_obs::enable();
        let mut c = TrialCounter::new();
        c.record_batch(1000, 10);
        Convergence::from_counters(&[c]).publish("diag_test.mc");
        let snap = ntc_obs::metrics_snapshot();
        match snap.get("diag_test.mc.estimate") {
            Some(ntc_obs::MetricValue::Gauge(g)) => assert!((g - 0.01).abs() < 1e-12),
            other => panic!("expected gauge, got {other:?}"),
        }
        assert!(snap.get("diag_test.mc.split_half_z").is_some());
        assert!(snap.get("diag_test.mc.effective_samples").is_some());
    }
}
