//! Typed metrics on lock-free `AtomicU64` cells.
//!
//! Three instrument kinds:
//!
//! * [`Counter`] — monotonically increasing `u64`;
//! * [`Gauge`] — last-set `f64` (stored as bits);
//! * [`Histogram`] — fixed upper-bound buckets plus one overflow
//!   bucket, all `u64` counts.
//!
//! Snapshots ([`MetricsSnapshot`]) are plain data sorted by metric
//! name. [`MetricsSnapshot::merge`] follows the `Mergeable` ordered
//! merge discipline from `ntc_stats`: counters add, gauges keep the
//! maximum, histograms add bucket-wise — all integer-exact (gauges use
//! IEEE max), so merge is associative and commutative and a parallel
//! run's rendered output does not depend on thread count or merge
//! order.

use std::sync::atomic::{AtomicU64, Ordering};

/// Monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    #[must_use]
    pub(crate) const fn new() -> Self {
        Self(AtomicU64::new(0))
    }

    pub(crate) fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Last-written `f64` value. `set` races resolve to one of the written
/// values; merge keeps the maximum so it is order-independent.
#[derive(Debug)]
pub struct Gauge(AtomicU64);

impl Default for Gauge {
    fn default() -> Self {
        Self::new()
    }
}

impl Gauge {
    #[must_use]
    pub(crate) const fn new() -> Self {
        Self(AtomicU64::new(0))
    }

    pub(crate) fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    #[must_use]
    pub(crate) fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// Fixed-bucket histogram: `bounds` are inclusive upper bounds, and one
/// extra overflow bucket catches everything above the last bound.
/// Non-finite observations (NaN, ±∞) are not bucketed; they bump a
/// separate `ignored` counter so bad data is visible but cannot distort
/// the distribution.
#[derive(Debug)]
pub struct Histogram {
    bounds: Box<[f64]>,
    buckets: Box<[AtomicU64]>,
    /// Running sum of every bucketed observation, stored as `f64` bits
    /// and advanced with a CAS loop (feeds the Prometheus `_sum`
    /// series). Bucket counts stay integer-exact; the sum is IEEE
    /// addition, exact whenever the accumulated values have exact
    /// binary representations (latencies summed in ms generally do
    /// not — consumers should treat `sum` as a statistic, not a key).
    sum: AtomicU64,
    ignored: AtomicU64,
}

impl Histogram {
    /// # Panics
    /// Panics if `bounds` is empty or not strictly increasing.
    #[must_use]
    pub fn new(bounds: &[f64]) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bound");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        let buckets = (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect();
        Self {
            bounds: bounds.into(),
            buckets,
            sum: AtomicU64::new(0f64.to_bits()),
            ignored: AtomicU64::new(0),
        }
    }

    /// Records one observation. Bucket `i` counts values `v` with
    /// `bounds[i-1] < v <= bounds[i]`; the final bucket is overflow.
    /// NaN and ±∞ are ignored (counted separately, never bucketed).
    pub fn record(&self, v: f64) {
        if !v.is_finite() {
            self.ignored.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let i = self
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(self.bounds.len());
        self.buckets[i].fetch_add(1, Ordering::Relaxed);
        let mut cur = self.sum.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + v).to_bits();
            match self.sum.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
    }

    #[must_use]
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            bounds: self.bounds.to_vec(),
            buckets: self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect(),
            sum: f64::from_bits(self.sum.load(Ordering::Relaxed)),
            ignored: self.ignored.load(Ordering::Relaxed),
        }
    }
}

/// Plain-data view of a [`Histogram`].
#[derive(Clone, Debug, PartialEq)]
pub struct HistogramSnapshot {
    /// Inclusive upper bounds, one per non-overflow bucket.
    pub bounds: Vec<f64>,
    /// `bounds.len() + 1` counts; the last is the overflow bucket.
    pub buckets: Vec<u64>,
    /// Sum of every bucketed observation (see [`Histogram`]).
    pub sum: f64,
    /// Non-finite observations that were rejected rather than bucketed.
    pub ignored: u64,
}

impl HistogramSnapshot {
    /// Total observations across all buckets.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// `(lower, upper)` edges of bucket `i` for interpolation. The
    /// first bucket's lower edge is 0 for all-positive bounds (the
    /// latency case) and collapses to the bound otherwise; the
    /// overflow bucket collapses to the last bound — a quantile landing
    /// there reports the largest value the layout can resolve.
    fn bucket_edges(&self, i: usize) -> (f64, f64) {
        if i == 0 {
            let hi = self.bounds[0];
            (if hi > 0.0 { 0.0 } else { hi }, hi)
        } else if i == self.bounds.len() {
            let b = self.bounds[i - 1];
            (b, b)
        } else {
            (self.bounds[i - 1], self.bounds[i])
        }
    }

    /// Estimates the `q`-quantile (`0.0 ..= 1.0`) of the recorded
    /// distribution by rank-walking the buckets and interpolating
    /// linearly inside the rank's bucket.
    ///
    /// Properties (property-tested in `tests/props.rs`):
    ///
    /// * **monotone in `q`** — larger quantiles never report smaller
    ///   values;
    /// * **bounded error** — for observations inside the bound range,
    ///   the estimate lands in the same bucket as the exact sample
    ///   quantile, so the error is at most one bucket width (a fixed
    ///   *percentage* for log-spaced bounds);
    /// * **merge-stable** — `a.merge(b)` quantiles equal those of a
    ///   single histogram that recorded both streams, because merge is
    ///   exact bucket-wise integer addition.
    ///
    /// Returns `None` for an empty histogram or a `q` outside
    /// `[0, 1]`. Values in the overflow bucket report the last bound.
    #[must_use]
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if !(0.0..=1.0).contains(&q) {
            return None;
        }
        let total = self.count();
        if total == 0 {
            return None;
        }
        // Rank of the order statistic the quantile names, 1-based.
        #[allow(clippy::cast_precision_loss, clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut below = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if rank <= below + c {
                let (lo, hi) = self.bucket_edges(i);
                #[allow(clippy::cast_precision_loss)]
                let frac = (rank - below) as f64 / c as f64;
                return Some(lo + (hi - lo) * frac);
            }
            below += c;
        }
        None // unreachable: total > 0 guarantees the walk terminates
    }
}

/// One metric's value in a snapshot.
#[derive(Clone, Debug, PartialEq)]
pub enum MetricValue {
    Counter(u64),
    Gauge(f64),
    Histogram(HistogramSnapshot),
}

/// A point-in-time view of every registered metric, sorted by name.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// `(name, value)` pairs in ascending name order.
    pub entries: Vec<(String, MetricValue)>,
}

impl MetricsSnapshot {
    /// Looks up a metric by exact name.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<&MetricValue> {
        self.entries
            .binary_search_by(|(n, _)| n.as_str().cmp(name))
            .ok()
            .map(|i| &self.entries[i].1)
    }

    /// The value of a counter, or `None` if absent or not a counter.
    #[must_use]
    pub fn counter(&self, name: &str) -> Option<u64> {
        match self.get(name) {
            Some(MetricValue::Counter(n)) => Some(*n),
            _ => None,
        }
    }

    /// Ordered merge in the `Mergeable` style: the union of both
    /// snapshots, combining same-name entries — counters add, gauges
    /// take the IEEE maximum, histograms with equal bounds add
    /// bucket-wise. A same-name kind mismatch (or histograms with
    /// different bounds) cannot arise from the typed registry; if
    /// constructed by hand it resolves by a fixed total order on the
    /// values (see `combine`), keeping the merge order-independent.
    #[must_use]
    pub fn merge(self, other: Self) -> Self {
        let mut entries = Vec::with_capacity(self.entries.len() + other.entries.len());
        let mut a = self.entries.into_iter().peekable();
        let mut b = other.entries.into_iter().peekable();
        loop {
            match (a.peek(), b.peek()) {
                (Some((na, _)), Some((nb, _))) => match na.cmp(nb) {
                    std::cmp::Ordering::Less => entries.push(a.next().unwrap()),
                    std::cmp::Ordering::Greater => entries.push(b.next().unwrap()),
                    std::cmp::Ordering::Equal => {
                        let (name, va) = a.next().unwrap();
                        let (_, vb) = b.next().unwrap();
                        entries.push((name, combine(va, vb)));
                    }
                },
                (Some(_), None) => entries.push(a.next().unwrap()),
                (None, Some(_)) => entries.push(b.next().unwrap()),
                (None, None) => break,
            }
        }
        Self { entries }
    }
}

/// Combines two same-name metric values. Commutative and associative
/// for same-kind values (and for histograms with equal bounds); a kind
/// mismatch resolves by a fixed kind order so the result is still
/// merge-order independent.
fn combine(a: MetricValue, b: MetricValue) -> MetricValue {
    use MetricValue::{Counter, Gauge, Histogram};
    match (a, b) {
        (Counter(x), Counter(y)) => Counter(x + y),
        (Gauge(x), Gauge(y)) => Gauge(x.max(y)),
        (Histogram(x), Histogram(y)) if x.bounds == y.bounds => Histogram(HistogramSnapshot {
            bounds: x.bounds,
            buckets: x
                .buckets
                .iter()
                .zip(&y.buckets)
                .map(|(p, q)| p + q)
                .collect(),
            // IEEE addition: commutative always, associative whenever
            // the sums are exactly representable (integer-valued sums,
            // the property-test regime). Bucket counts — the quantile
            // inputs — stay integer-exact regardless.
            sum: x.sum + y.sum,
            ignored: x.ignored + y.ignored,
        }),
        // Mismatched kinds or bounds: resolve by a total order on the
        // values so the winner does not depend on operand order.
        (x, y) => {
            if rank(&x) >= rank(&y) {
                x
            } else {
                y
            }
        }
    }
}

/// Total order used only for mismatch resolution in [`combine`].
fn rank(v: &MetricValue) -> (u8, u64, u64) {
    match v {
        MetricValue::Counter(n) => (2, *n, 0),
        MetricValue::Gauge(g) => (1, g.to_bits(), 0),
        MetricValue::Histogram(h) => (0, h.count(), h.bounds.len() as u64),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_adds() {
        let c = Counter::new();
        c.add(1);
        c.add(41);
        assert_eq!(c.get(), 42);
    }

    #[test]
    fn gauge_stores_f64() {
        let g = Gauge::new();
        g.set(0.998);
        assert!((g.get() - 0.998).abs() < 1e-15);
        g.set(-1.5);
        assert!((g.get() + 1.5).abs() < 1e-15);
    }

    #[test]
    fn histogram_bucket_boundaries_are_inclusive_upper() {
        let h = Histogram::new(&[1.0, 10.0, 100.0]);
        // Values exactly on a bound land in the bucket they bound —
        // never one later.
        h.record(1.0);
        h.record(10.0);
        h.record(100.0);
        // Strictly-above values land one bucket later.
        h.record(1.0000001);
        h.record(100.5); // overflow
        h.record(-7.0); // below first bound -> first bucket
        let s = h.snapshot();
        assert_eq!(s.buckets, vec![2, 2, 1, 1]);
        assert_eq!(s.count(), 6);
        assert_eq!(s.ignored, 0);
        assert!((s.sum - 205.500_000_1).abs() < 1e-6, "sum tracks bucketed values");
    }

    #[test]
    fn histogram_ignores_non_finite_with_a_counter_bump() {
        let h = Histogram::new(&[1.0, 2.0]);
        h.record(0.5);
        h.record(f64::NAN);
        h.record(f64::INFINITY);
        h.record(f64::NEG_INFINITY);
        let s = h.snapshot();
        // No bucket moved; the rejects are accounted for separately.
        assert_eq!(s.buckets, vec![1, 0, 0]);
        assert_eq!(s.count(), 1);
        assert_eq!(s.ignored, 3);
        assert!((s.sum - 0.5).abs() < 1e-15, "rejected values never reach the sum");
    }

    #[test]
    fn quantiles_walk_ranks_and_interpolate() {
        let h = Histogram::new(&[1.0, 2.0, 4.0, 8.0]);
        // 8 observations: 4 in (1,2], 4 in (2,4].
        for v in [1.5, 1.5, 1.5, 1.5, 3.0, 3.0, 3.0, 3.0] {
            h.record(v);
        }
        let s = h.snapshot();
        // p50 = 4th of 8 ranks → last rank of the (1,2] bucket → 2.0.
        assert_eq!(s.quantile(0.5), Some(2.0));
        // p100 = 8th rank → upper edge of (2,4].
        assert_eq!(s.quantile(1.0), Some(4.0));
        // Smallest quantiles interpolate from the bucket's lower edge.
        let p01 = s.quantile(0.01).unwrap();
        assert!(p01 > 1.0 && p01 <= 2.0, "p01 inside its bucket: {p01}");
        // Exact sample quantiles live in the same buckets, so the
        // estimate is within one bucket width of them.
        assert!((s.quantile(0.5).unwrap() - 1.5).abs() <= 1.0);
        assert!((s.quantile(0.999).unwrap() - 3.0).abs() <= 2.0);
    }

    #[test]
    fn quantile_edge_cases() {
        let h = Histogram::new(&[1.0, 2.0]);
        assert_eq!(h.snapshot().quantile(0.5), None, "empty histogram has no quantiles");
        h.record(10.0); // overflow bucket
        let s = h.snapshot();
        assert_eq!(s.quantile(0.5), Some(2.0), "overflow reports the last bound");
        assert_eq!(s.quantile(-0.1), None);
        assert_eq!(s.quantile(1.1), None);
        assert_eq!(s.quantile(f64::NAN), None);
    }

    #[test]
    fn empty_histograms_merge_to_empty() {
        let a = Histogram::new(&[1.0, 2.0]).snapshot();
        let b = Histogram::new(&[1.0, 2.0]).snapshot();
        match combine(MetricValue::Histogram(a), MetricValue::Histogram(b)) {
            MetricValue::Histogram(m) => {
                assert_eq!(m.buckets, vec![0, 0, 0]);
                assert_eq!(m.count(), 0);
                assert_eq!(m.ignored, 0);
                assert_eq!(m.bounds, vec![1.0, 2.0]);
            }
            other => panic!("expected histogram, got {other:?}"),
        }
    }

    #[test]
    fn histogram_merge_adds_ignored_counts() {
        let ha = Histogram::new(&[1.0]);
        ha.record(f64::NAN);
        ha.record(0.5);
        let hb = Histogram::new(&[1.0]);
        hb.record(f64::INFINITY);
        match combine(
            MetricValue::Histogram(ha.snapshot()),
            MetricValue::Histogram(hb.snapshot()),
        ) {
            MetricValue::Histogram(m) => {
                assert_eq!(m.buckets, vec![1, 0]);
                assert_eq!(m.ignored, 2);
            }
            other => panic!("expected histogram, got {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn histogram_rejects_unsorted_bounds() {
        let _ = Histogram::new(&[2.0, 1.0]);
    }

    #[test]
    fn snapshot_lookup() {
        let s = MetricsSnapshot {
            entries: vec![
                ("a".into(), MetricValue::Counter(3)),
                ("b".into(), MetricValue::Gauge(0.5)),
            ],
        };
        assert_eq!(s.counter("a"), Some(3));
        assert_eq!(s.counter("b"), None);
        assert!(s.get("c").is_none());
    }

    #[test]
    fn merge_combines_by_kind() {
        let a = MetricsSnapshot {
            entries: vec![
                ("c".into(), MetricValue::Counter(2)),
                ("g".into(), MetricValue::Gauge(1.0)),
                (
                    "h".into(),
                    MetricValue::Histogram(HistogramSnapshot {
                        bounds: vec![1.0],
                        buckets: vec![1, 2],
                        sum: 2.5,
                        ignored: 1,
                    }),
                ),
            ],
        };
        let b = MetricsSnapshot {
            entries: vec![
                ("c".into(), MetricValue::Counter(40)),
                ("g".into(), MetricValue::Gauge(3.0)),
                (
                    "h".into(),
                    MetricValue::Histogram(HistogramSnapshot {
                        bounds: vec![1.0],
                        buckets: vec![4, 8],
                        sum: 7.5,
                        ignored: 2,
                    }),
                ),
                ("z".into(), MetricValue::Counter(1)),
            ],
        };
        let m = a.clone().merge(b.clone());
        assert_eq!(m.counter("c"), Some(42));
        assert_eq!(m.get("g"), Some(&MetricValue::Gauge(3.0)));
        assert_eq!(
            m.get("h"),
            Some(&MetricValue::Histogram(HistogramSnapshot {
                bounds: vec![1.0],
                buckets: vec![5, 10],
                sum: 10.0,
                ignored: 3,
            }))
        );
        assert_eq!(m.counter("z"), Some(1));
        // Commutativity on this pair.
        assert_eq!(m, b.merge(a));
    }
}
