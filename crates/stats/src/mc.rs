//! Monte-Carlo bookkeeping: streaming moments, rare-event counters,
//! percentiles.
//!
//! Silicon-population experiments in this workspace sample millions of bit
//! cells; these helpers keep the accounting numerically stable (Welford
//! updates) and give the rare-event counters a principled confidence
//! interval (Wilson score) so benches can report error bars.

use crate::math::inv_phi;

pub mod tilted;

/// Streaming mean/variance accumulator (Welford's algorithm).
///
/// # Example
///
/// ```
/// use ntc_stats::mc::Moments;
///
/// let mut m = Moments::new();
/// for x in [1.0, 2.0, 3.0, 4.0] {
///     m.push(x);
/// }
/// assert_eq!(m.count(), 4);
/// assert!((m.mean() - 2.5).abs() < 1e-12);
/// assert!((m.variance() - 5.0 / 3.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Moments {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Moments {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds a sample.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of samples pushed.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean; `0.0` when empty.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Unbiased sample variance; `0.0` with fewer than two samples.
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest sample seen; `+∞` when empty.
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest sample seen; `−∞` when empty.
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Merges another accumulator into this one (parallel Welford).
    pub fn merge(&mut self, other: &Moments) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let n = n1 + n2;
        self.mean += delta * n2 / n;
        self.m2 += other.m2 + delta * delta * n1 * n2 / n;
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

impl Extend<f64> for Moments {
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        for x in iter {
            self.push(x);
        }
    }
}

impl FromIterator<f64> for Moments {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        let mut m = Moments::new();
        m.extend(iter);
        m
    }
}

/// A Bernoulli trial counter for rare-event (bit-failure) estimation.
///
/// # Example
///
/// ```
/// use ntc_stats::mc::TrialCounter;
///
/// let mut c = TrialCounter::new();
/// for i in 0..10_000u32 {
///     c.record(i % 100 == 0); // true 1% of the time
/// }
/// let (lo, hi) = c.wilson_interval(1.96);
/// assert!(lo < 0.01 && 0.01 < hi);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TrialCounter {
    trials: u64,
    hits: u64,
}

impl TrialCounter {
    /// Creates an empty counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one trial; `hit` marks the rare event (e.g. a bit failure).
    pub fn record(&mut self, hit: bool) {
        self.trials += 1;
        self.hits += u64::from(hit);
    }

    /// Adds a batch of trials at once.
    pub fn record_batch(&mut self, trials: u64, hits: u64) {
        assert!(hits <= trials, "hits ({hits}) cannot exceed trials ({trials})");
        self.trials += trials;
        self.hits += hits;
    }

    /// Total number of trials.
    pub fn trials(&self) -> u64 {
        self.trials
    }

    /// Number of hits.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Point estimate of the event probability; `0.0` when no trials.
    pub fn estimate(&self) -> f64 {
        if self.trials == 0 {
            0.0
        } else {
            self.hits as f64 / self.trials as f64
        }
    }

    /// Standard error of the rate estimate (`√(p(1−p)/n)`); `0.0` when
    /// no trials.
    pub(crate) fn std_error(&self) -> f64 {
        if self.trials == 0 {
            0.0
        } else {
            let p = self.estimate();
            (p * (1.0 - p) / self.trials as f64).sqrt()
        }
    }

    /// Wilson score interval at the given z (e.g. `1.96` for 95 %).
    ///
    /// Well-behaved even at zero hits, where the naive interval collapses.
    pub fn wilson_interval(&self, z: f64) -> (f64, f64) {
        if self.trials == 0 {
            return (0.0, 1.0);
        }
        let n = self.trials as f64;
        let p = self.estimate();
        let z2 = z * z;
        let denom = 1.0 + z2 / n;
        let center = (p + z2 / (2.0 * n)) / denom;
        let half = z * ((p * (1.0 - p) + z2 / (4.0 * n)) / n).sqrt() / denom;
        ((center - half).max(0.0), (center + half).min(1.0))
    }

    /// Merges another counter into this one.
    pub fn merge(&mut self, other: &TrialCounter) {
        self.trials += other.trials;
        self.hits += other.hits;
    }
}

/// Returns the `q`-quantile (0 ≤ q ≤ 1) of `data` by sorting a copy
/// (linear interpolation between order statistics).
///
/// # Panics
///
/// Panics if `data` is empty or `q` is outside `[0, 1]`.
///
/// # Example
///
/// ```
/// let data = [5.0, 1.0, 3.0, 2.0, 4.0];
/// assert_eq!(ntc_stats::mc::percentile(&data, 0.5), 3.0);
/// ```
pub fn percentile(data: &[f64], q: f64) -> f64 {
    assert!(!data.is_empty(), "percentile of empty data");
    assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
    let mut v = data.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("non-NaN data"));
    let pos = q * (v.len() - 1) as f64;
    let i = pos.floor() as usize;
    let frac = pos - i as f64;
    if i + 1 < v.len() {
        v[i] * (1.0 - frac) + v[i + 1] * frac
    } else {
        v[i]
    }
}

/// Number of Monte-Carlo samples needed to resolve an event of probability
/// `p` with relative standard error `rel_se` (e.g. `0.1` for 10 %).
///
/// Extreme inputs saturate instead of misbehaving: `p ≤ 0` (an event no
/// direct sampler can resolve) returns `u64::MAX`, `p ≥ 1` returns 1 (one
/// sample suffices for a sure event), and requirement counts beyond
/// `u64::MAX` — deep-tail `p` with tiny `rel_se` easily exceeds 2⁶⁴ —
/// clamp to `u64::MAX` rather than wrapping. The result is always ≥ 1.
///
/// # Panics
///
/// Panics if `rel_se` is not a positive number or `p` is NaN.
///
/// # Example
///
/// ```
/// // A 1e-3 event at 10% relative error needs ~1e5 samples.
/// let n = ntc_stats::mc::samples_for(1e-3, 0.1);
/// assert!((9.0e4..=1.1e5).contains(&(n as f64)));
/// // The paper's 1e-15 regime saturates — the answer is "not directly":
/// assert_eq!(ntc_stats::mc::samples_for(1e-15, 1e-3), u64::MAX);
/// ```
pub fn samples_for(p: f64, rel_se: f64) -> u64 {
    assert!(!p.is_nan(), "p must not be NaN");
    assert!(rel_se > 0.0, "rel_se must be positive");
    if p <= 0.0 {
        return u64::MAX;
    }
    if p >= 1.0 {
        return 1;
    }
    let n = ((1.0 - p) / (p * rel_se * rel_se)).ceil();
    if n >= u64::MAX as f64 {
        u64::MAX
    } else {
        // Even a vanishing requirement still needs one sample.
        (n as u64).max(1)
    }
}

/// Two-sided z value for a confidence level (e.g. `0.95` → `1.96`).
pub(crate) fn z_for_confidence(level: f64) -> f64 {
    assert!(level > 0.0 && level < 1.0, "level must be in (0, 1)");
    inv_phi(0.5 + level / 2.0)
}

// Stable checkpoint forms (see `crate::ckpt`): exact little-endian field
// dumps, floats via `to_bits`, so restore is bit-identical and restored
// shards merge exactly like computed ones.

impl crate::ckpt::Persist for Moments {
    fn persist_tag() -> &'static str {
        "moments"
    }
    fn persist(&self, out: &mut Vec<u8>) {
        crate::ckpt::put_u64(out, self.n);
        crate::ckpt::put_f64(out, self.mean);
        crate::ckpt::put_f64(out, self.m2);
        crate::ckpt::put_f64(out, self.min);
        crate::ckpt::put_f64(out, self.max);
    }
    fn restore(bytes: &[u8]) -> Option<Self> {
        if bytes.len() != 40 {
            return None;
        }
        Some(Moments {
            n: crate::ckpt::get_u64(bytes, 0)?,
            mean: crate::ckpt::get_f64(bytes, 8)?,
            m2: crate::ckpt::get_f64(bytes, 16)?,
            min: crate::ckpt::get_f64(bytes, 24)?,
            max: crate::ckpt::get_f64(bytes, 32)?,
        })
    }
}

impl crate::ckpt::Persist for TrialCounter {
    fn persist_tag() -> &'static str {
        "trials"
    }
    fn persist(&self, out: &mut Vec<u8>) {
        crate::ckpt::put_u64(out, self.trials);
        crate::ckpt::put_u64(out, self.hits);
    }
    fn restore(bytes: &[u8]) -> Option<Self> {
        if bytes.len() != 16 {
            return None;
        }
        let trials = crate::ckpt::get_u64(bytes, 0)?;
        let hits = crate::ckpt::get_u64(bytes, 8)?;
        if hits > trials {
            return None;
        }
        Some(TrialCounter { trials, hits })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn moments_basic() {
        let m: Moments = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0].iter().copied().collect();
        assert_eq!(m.count(), 8);
        assert!((m.mean() - 5.0).abs() < 1e-12);
        // population variance is 4; sample variance is 32/7
        assert!((m.variance() - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(m.min(), 2.0);
        assert_eq!(m.max(), 9.0);
    }

    #[test]
    fn moments_empty_and_single() {
        let m = Moments::new();
        assert_eq!(m.count(), 0);
        assert_eq!(m.mean(), 0.0);
        assert_eq!(m.variance(), 0.0);
        let mut m = Moments::new();
        m.push(42.0);
        assert_eq!(m.mean(), 42.0);
        assert_eq!(m.variance(), 0.0);
    }

    #[test]
    fn moments_merge_equals_sequential() {
        let data: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let seq: Moments = data.iter().copied().collect();
        let mut a: Moments = data[..37].iter().copied().collect();
        let b: Moments = data[37..].iter().copied().collect();
        a.merge(&b);
        assert_eq!(a.count(), seq.count());
        assert!((a.mean() - seq.mean()).abs() < 1e-12);
        assert!((a.variance() - seq.variance()).abs() < 1e-10);
    }

    #[test]
    fn moments_merge_with_empty() {
        let mut a = Moments::new();
        let b: Moments = [1.0, 2.0].iter().copied().collect();
        a.merge(&b);
        assert_eq!(a.count(), 2);
        let mut c: Moments = [3.0].iter().copied().collect();
        c.merge(&Moments::new());
        assert_eq!(c.count(), 1);
    }

    #[test]
    fn trial_counter_estimates() {
        let mut c = TrialCounter::new();
        c.record_batch(1000, 10);
        assert_eq!(c.estimate(), 0.01);
        assert_eq!(c.trials(), 1000);
        assert_eq!(c.hits(), 10);
        let (lo, hi) = c.wilson_interval(1.96);
        assert!(lo > 0.0 && lo < 0.01);
        assert!(hi > 0.01 && hi < 0.03);
    }

    #[test]
    fn std_errors_scale_with_sample_count() {
        let mut c = TrialCounter::new();
        c.record_batch(10_000, 100);
        // √(0.01·0.99/1e4) ≈ 9.95e-4
        assert!((c.std_error() - 9.9498743710662e-4).abs() < 1e-12);
        assert_eq!(TrialCounter::new().std_error(), 0.0);
    }

    #[test]
    fn trial_counter_zero_hits_interval() {
        let mut c = TrialCounter::new();
        c.record_batch(1000, 0);
        let (lo, hi) = c.wilson_interval(1.96);
        assert_eq!(lo, 0.0);
        assert!(hi > 0.0 && hi < 0.01, "upper bound stays informative");
    }

    #[test]
    #[should_panic(expected = "cannot exceed")]
    fn trial_counter_rejects_inconsistent_batch() {
        TrialCounter::new().record_batch(5, 6);
    }

    #[test]
    fn trial_counter_merge() {
        let mut a = TrialCounter::new();
        a.record_batch(10, 1);
        let mut b = TrialCounter::new();
        b.record_batch(90, 9);
        a.merge(&b);
        assert_eq!(a.trials(), 100);
        assert_eq!(a.estimate(), 0.1);
    }

    #[test]
    fn percentile_interpolates() {
        let data = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(percentile(&data, 0.0), 10.0);
        assert_eq!(percentile(&data, 1.0), 40.0);
        assert!((percentile(&data, 0.5) - 25.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn percentile_empty_panics() {
        percentile(&[], 0.5);
    }

    #[test]
    fn samples_for_sane() {
        assert!(samples_for(0.5, 0.01) < samples_for(1e-6, 0.01));
    }

    #[test]
    fn samples_for_saturates_at_the_boundaries() {
        // p at or below zero: unresolvable by direct sampling.
        assert_eq!(samples_for(0.0, 0.1), u64::MAX);
        assert_eq!(samples_for(-1.0, 0.1), u64::MAX);
        // Sure events need exactly one sample.
        assert_eq!(samples_for(1.0, 0.1), 1);
        assert_eq!(samples_for(2.0, 0.1), 1);
        // Deep tail with tight error: the f64 requirement exceeds 2^64
        // and must clamp, not wrap.
        assert_eq!(samples_for(1e-15, 1e-3), u64::MAX);
        assert_eq!(samples_for(f64::MIN_POSITIVE, 1e-6), u64::MAX);
        // Near-sure events still return at least one sample.
        assert_eq!(samples_for(1.0 - 1e-16, 1000.0), 1);
        // An ordinary interior point is unchanged by the hardening.
        assert_eq!(samples_for(1e-3, 0.1), 99_900);
    }

    #[test]
    #[should_panic(expected = "rel_se must be positive")]
    fn samples_for_rejects_nonpositive_rel_se() {
        samples_for(0.5, 0.0);
    }

    #[test]
    #[should_panic(expected = "p must not be NaN")]
    fn samples_for_rejects_nan_p() {
        samples_for(f64::NAN, 0.1);
    }

    #[test]
    fn z_for_confidence_values() {
        assert!((z_for_confidence(0.95) - 1.959963984540054).abs() < 1e-9);
        assert!((z_for_confidence(0.99) - 2.5758293035489004).abs() < 1e-9);
    }
}
