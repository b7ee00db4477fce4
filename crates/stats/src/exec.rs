//! Deterministic parallel execution for Monte-Carlo trials and sweeps.
//!
//! The engine fans independent work items across OS threads while keeping
//! every result **bit-identical to a serial run**. Two rules make that
//! possible:
//!
//! 1. **Counter-based randomness.** Work item `i` draws from
//!    [`Source::stream(seed, i)`](crate::rng::Source::stream), a pure
//!    function of `(seed, i)`. No thread ever shares or advances another's
//!    generator, so the random inputs to item `i` are the same whether one
//!    thread runs everything or sixteen split the range.
//! 2. **Ordered reduction.** Results come back as a `Vec` in item order and
//!    mergeable accumulators ([`Moments`], [`TrialCounter`]) are folded
//!    left-to-right in that order. Floating-point addition is not
//!    associative in general, so we never reduce in completion order; the
//!    fold sequence is fixed by item index, not by the thread schedule.
//!
//! The shard count for Monte-Carlo helpers is a **fixed constant**
//! ([`MC_SHARDS`]) — a function of nothing — so the trial-to-shard
//! assignment (and thus the exact per-trial random stream) never depends on
//! how many cores the host happens to have.
//!
//! Threading is plain `std::thread::scope`: no work stealing, one
//! contiguous chunk of the item range per worker. For the workloads here
//! (thousands of near-equal-cost trials) static chunking loses nothing to a
//! stealing scheduler and keeps the crate dependency-free; the environment
//! this repo builds in has no registry access, so rayon is not an option.
//! Thread count comes from available parallelism and can be pinned with the
//! `NTC_THREADS` environment variable (e.g. `NTC_THREADS=1` to force the
//! serial path when profiling).
//!
//! # Example
//!
//! ```
//! use ntc_stats::exec::{mc_moments, par_map};
//! use ntc_stats::rng::Source;
//!
//! // Nine "dies", each synthesized from its own counter-based stream.
//! let offsets = par_map(9, |i| Source::stream(2014, i as u64).normal(0.0, 0.05));
//! assert_eq!(offsets.len(), 9);
//!
//! // 10k Monte-Carlo trials reduced into sharded, merged Moments.
//! let m = mc_moments(10_000, 7, |src| src.standard_normal());
//! assert_eq!(m.count(), 10_000);
//! ```

use crate::ckpt::{par_map_keyed, par_mergeable_keyed, CollectiveKey, Salt};
use crate::mc::{Moments, TrialCounter};
use crate::rng::Source;
use std::sync::OnceLock;

/// Fixed shard count for the Monte-Carlo helpers.
///
/// Chosen a few times larger than any core count we expect, so all threads
/// stay busy, while remaining a constant so the trial-to-stream mapping is
/// engraved in the results: shards own contiguous trial ranges (see
/// [`shard_bounds`]) and shard `i` draws from `Source::stream(seed, i)` —
/// none of which depends on the machine running the job.
pub const MC_SHARDS: usize = 64;

/// The worker-thread count the engine will use.
///
/// Resolution order: the `NTC_THREADS` environment variable if set to a
/// positive integer, else `std::thread::available_parallelism()`, else 1.
/// The value is resolved once per process. **It never affects results** —
/// only wall-clock time; sharding and reduction order are thread-agnostic.
pub fn threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| {
        if let Ok(v) = std::env::var("NTC_THREADS") {
            if let Ok(n) = v.trim().parse::<usize>() {
                if n > 0 {
                    return n;
                }
            }
        }
        std::thread::available_parallelism().map_or(1, |n| n.get())
    })
}

/// The half-open item ranges assigned to each of `workers` chunks of `n`
/// items: near-equal contiguous ranges, first `n % workers` chunks one
/// longer. Empty ranges are possible when `workers > n`.
fn chunk_ranges(n: usize, workers: usize) -> Vec<(usize, usize)> {
    let workers = workers.max(1);
    let base = n / workers;
    let extra = n % workers;
    let mut out = Vec::with_capacity(workers);
    let mut start = 0;
    for w in 0..workers {
        let len = base + usize::from(w < extra);
        out.push((start, start + len));
        start += len;
    }
    out
}

/// Maps `f` over `0..n` on up to `t` threads, returning results in index
/// order.
///
/// Exposed mainly for tests that must pin the thread count without touching
/// process environment; most callers want [`par_map`]. Results are
/// identical for every `t ≥ 1` — `f` receives only the item index, so any
/// schedule computes the same values, and collection is by chunk order.
pub fn par_map_with_threads<T, F>(n: usize, t: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if n == 0 {
        return Vec::new();
    }
    if t <= 1 || n == 1 {
        // Serial fall-through: no fan-out span, no thread scope — at an
        // effective thread count of 1 the scaffolding would only cost
        // time (the fig4 die-synthesis bench showed it as a 3 % parallel
        // *slowdown* on single-core hosts).
        return (0..n).map(f).collect();
    }
    let mut outer = ntc_obs::span("exec.par_map");
    outer.add_items(n as u64);
    // Worker threads get their own span stacks; hand them the fan-out
    // span's id so the trace nests them under it.
    let parent = outer.id();
    let ranges = chunk_ranges(n, t.min(n));
    let f = &f;
    let mut chunks: Vec<Vec<T>> = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = ranges
            .iter()
            .filter(|(lo, hi)| lo < hi)
            .map(|&(lo, hi)| {
                scope.spawn(move || {
                    let mut span = ntc_obs::span("exec.par_map.worker").with_parent(parent);
                    span.add_items((hi - lo) as u64);
                    (lo..hi).map(f).collect::<Vec<T>>()
                })
            })
            .collect();
        chunks = handles
            .into_iter()
            .map(|h| h.join().expect("parallel worker panicked"))
            .collect();
    });
    let mut out = Vec::with_capacity(n);
    for c in chunks {
        out.extend(c);
    }
    out
}

/// Maps `f` over `0..n` in parallel, returning results in index order.
///
/// `f` must be a pure function of the index (derive randomness with
/// [`Source::stream`], never from shared state) — then the output is
/// bit-identical to `(0..n).map(f).collect()` at any thread count.
pub fn par_map<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    par_map_with_threads(n, threads(), f)
}

/// Maps `f` over a slice in parallel, returning results in input order.
pub fn par_map_slice<I, T, F>(items: &[I], f: F) -> Vec<T>
where
    I: Sync,
    T: Send,
    F: Fn(&I) -> T + Sync,
{
    par_map(items.len(), |i| f(&items[i]))
}

/// An accumulator whose shard results reduce associatively.
///
/// `merge` must satisfy: merging shard accumulators **in shard order** into
/// an identity element yields exactly the accumulator a serial pass over
/// the same per-shard streams would have produced. All implementations here
/// are exact (counter sums, Welford moment combination, bin-count sums).
pub trait Mergeable {
    /// The identity element: merging it changes nothing.
    fn identity(&self) -> Self;
    /// Folds `other` into `self`.
    fn merge_from(&mut self, other: &Self);
}

impl Mergeable for Moments {
    fn identity(&self) -> Self {
        Moments::new()
    }
    fn merge_from(&mut self, other: &Self) {
        self.merge(other);
    }
}

impl Mergeable for TrialCounter {
    fn identity(&self) -> Self {
        TrialCounter::new()
    }
    fn merge_from(&mut self, other: &Self) {
        self.merge(other);
    }
}

impl<A: Mergeable, B: Mergeable> Mergeable for (A, B) {
    fn identity(&self) -> Self {
        (self.0.identity(), self.1.identity())
    }
    fn merge_from(&mut self, other: &Self) {
        self.0.merge_from(&other.0);
        self.1.merge_from(&other.1);
    }
}

impl<T: Mergeable> Mergeable for Vec<T> {
    fn identity(&self) -> Self {
        self.iter().map(Mergeable::identity).collect()
    }
    fn merge_from(&mut self, other: &Self) {
        assert_eq!(
            self.len(),
            other.len(),
            "cannot merge accumulator vectors of different lengths"
        );
        for (a, b) in self.iter_mut().zip(other) {
            a.merge_from(b);
        }
    }
}

/// Runs `shard(i)` for each shard index in parallel and folds the results
/// **in shard order**, starting from the first shard's accumulator.
///
/// # Panics
///
/// Panics if `shards == 0`.
pub fn par_mergeable<T, F>(shards: usize, shard: F) -> T
where
    T: Mergeable + Send,
    F: Fn(usize) -> T + Sync,
{
    assert!(shards > 0, "need at least one shard");
    let parts = par_map(shards, shard);
    let mut iter = parts.into_iter();
    let mut acc = iter.next().expect("nonempty");
    for p in iter {
        acc.merge_from(&p);
    }
    acc
}

/// The contiguous trial range `[lo, hi)` owned by `shard` when `trials`
/// trials are split over `shards` shards.
pub fn shard_bounds(trials: u64, shards: usize, shard: usize) -> (u64, u64) {
    let shards = shards.max(1) as u64;
    let shard = shard as u64;
    let base = trials / shards;
    let extra = trials % shards;
    let lo = shard * base + shard.min(extra);
    let hi = lo + base + u64::from(shard < extra);
    (lo, hi)
}

/// Runs `trials` Monte-Carlo draws of `sample` in parallel and reduces them
/// into [`Moments`].
///
/// Trials are split over [`MC_SHARDS`] fixed shards; shard `i` draws from
/// `Source::stream(seed, i)`. The result is a pure function of
/// `(trials, seed, sample)` — identical at any thread count, including 1.
pub fn mc_moments<F>(trials: u64, seed: u64, sample: F) -> Moments
where
    F: Fn(&mut Source) -> f64 + Sync,
{
    if trials == 0 {
        return Moments::new();
    }
    ntc_obs::counter_add("exec.mc.samples", trials);
    par_mergeable(MC_SHARDS.min(trials as usize), |i| {
        let (lo, hi) = shard_bounds(trials, MC_SHARDS.min(trials as usize), i);
        let mut span = ntc_obs::span("exec.mc.shard").with_shard(i as u32);
        span.add_items(hi - lo);
        let mut src = Source::stream(seed, i as u64);
        let mut m = Moments::new();
        for _ in lo..hi {
            m.push(sample(&mut src));
        }
        m
    })
}

/// Runs `trials` Monte-Carlo trials of a rare-event predicate in parallel
/// and reduces them into a [`TrialCounter`].
///
/// Sharding is identical to [`mc_moments`]; the hit count is a pure
/// function of `(trials, seed, event)`.
pub fn mc_counter<F>(trials: u64, seed: u64, event: F) -> TrialCounter
where
    F: Fn(&mut Source) -> bool + Sync,
{
    if trials == 0 {
        return TrialCounter::new();
    }
    ntc_obs::counter_add("exec.mc.samples", trials);
    par_mergeable(MC_SHARDS.min(trials as usize), |i| {
        let (lo, hi) = shard_bounds(trials, MC_SHARDS.min(trials as usize), i);
        let mut span = ntc_obs::span("exec.mc.shard").with_shard(i as u32);
        span.add_items(hi - lo);
        let mut src = Source::stream(seed, i as u64);
        let mut c = TrialCounter::new();
        for _ in lo..hi {
            c.record(event(&mut src));
        }
        c
    })
}

/// Like [`mc_moments`] but returns the **per-shard** accumulators in
/// shard order instead of the merged result.
///
/// Merging the returned vector left-to-right into an empty [`Moments`]
/// yields exactly (bit-for-bit) what [`mc_moments`] returns for the
/// same `(trials, seed, sample)` — the shard layout and random streams
/// are identical; only the final fold is left to the caller. Intended
/// for convergence diagnostics ([`crate::diag::Convergence`]) that need
/// the shard structure, not just the reduction.
pub fn mc_moments_shards<F>(trials: u64, seed: u64, sample: F) -> Vec<Moments>
where
    F: Fn(&mut Source) -> f64 + Sync,
{
    if trials == 0 {
        return Vec::new();
    }
    ntc_obs::counter_add("exec.mc.samples", trials);
    let shards = MC_SHARDS.min(trials as usize);
    par_map(shards, |i| {
        let (lo, hi) = shard_bounds(trials, shards, i);
        let mut span = ntc_obs::span("exec.mc.shard").with_shard(i as u32);
        span.add_items(hi - lo);
        let mut src = Source::stream(seed, i as u64);
        let mut m = Moments::new();
        for _ in lo..hi {
            m.push(sample(&mut src));
        }
        m
    })
}

/// Like [`mc_counter`] but returns the **per-shard** counters in shard
/// order instead of the merged result.
///
/// Same contract as [`mc_moments_shards`]: an in-order merge of the
/// returned counters equals [`mc_counter`]'s result exactly.
pub fn mc_counter_shards<F>(trials: u64, seed: u64, event: F) -> Vec<TrialCounter>
where
    F: Fn(&mut Source) -> bool + Sync,
{
    if trials == 0 {
        return Vec::new();
    }
    ntc_obs::counter_add("exec.mc.samples", trials);
    let shards = MC_SHARDS.min(trials as usize);
    par_map(shards, |i| {
        let (lo, hi) = shard_bounds(trials, shards, i);
        let mut span = ntc_obs::span("exec.mc.shard").with_shard(i as u32);
        span.add_items(hi - lo);
        let mut src = Source::stream(seed, i as u64);
        let mut c = TrialCounter::new();
        for _ in lo..hi {
            c.record(event(&mut src));
        }
        c
    })
}

// ---------------------------------------------------------------------
// Batched (structure-of-arrays) Monte-Carlo kernels.
//
// Same fixed 64-shard layout, same per-shard `Source::stream(seed, i)`
// streams, same in-order merge — only the inner loop changes from a
// per-trial closure call to the block kernels in `crate::batch`. The
// uniform-threshold and normal-threshold kernels are therefore
// hit-for-hit identical to `mc_counter` with the equivalent closure; the
// lane kernel swaps the per-shard generator for the counter-based lane
// generator and is the fastest path where no legacy stream constrains
// the draws.
// ---------------------------------------------------------------------

/// Batched Monte-Carlo rate estimate: counts `uniform() < p` over `trials`
/// draws.
///
/// Bit-identical (same trials, same hits) to
/// `mc_counter(trials, seed, |s| s.uniform() < p)` — the draw streams are
/// unchanged; only the loop is restructured into SoA blocks. This is the
/// kernel behind the Eq. 5 access-failure sweeps.
pub fn mc_rate(trials: u64, seed: u64, p: f64) -> TrialCounter {
    if trials == 0 {
        return TrialCounter::new();
    }
    ntc_obs::counter_add("exec.mc.samples", trials);
    let key = CollectiveKey::new("mc_rate", seed, trials).with_salt(p.to_bits());
    par_mergeable_keyed(&key, MC_SHARDS.min(trials as usize), |i| {
        let (lo, hi) = shard_bounds(trials, MC_SHARDS.min(trials as usize), i);
        let mut span = ntc_obs::span("exec.mc.shard").with_shard(i as u32);
        span.add_items(hi - lo);
        let mut src = Source::stream(seed, i as u64);
        let hits = crate::batch::count_uniform_below(&mut src, hi - lo, p);
        let mut c = TrialCounter::new();
        c.record_batch(hi - lo, hits);
        c
    })
}

/// Like [`mc_rate`] but returns the **per-shard** counters in shard order
/// (for convergence diagnostics); an in-order merge equals [`mc_rate`].
pub fn mc_rate_shards(trials: u64, seed: u64, p: f64) -> Vec<TrialCounter> {
    if trials == 0 {
        return Vec::new();
    }
    ntc_obs::counter_add("exec.mc.samples", trials);
    let shards = MC_SHARDS.min(trials as usize);
    // Same key as `mc_rate` on purpose: the shard layout and streams are
    // identical, so both entry points share one set of checkpoints.
    let key = CollectiveKey::new("mc_rate", seed, trials).with_salt(p.to_bits());
    par_map_keyed(&key, shards, |i| {
        let (lo, hi) = shard_bounds(trials, shards, i);
        let mut span = ntc_obs::span("exec.mc.shard").with_shard(i as u32);
        span.add_items(hi - lo);
        let mut src = Source::stream(seed, i as u64);
        let hits = crate::batch::count_uniform_below(&mut src, hi - lo, p);
        let mut c = TrialCounter::new();
        c.record_batch(hi - lo, hits);
        c
    })
}

/// Batched Monte-Carlo exceedance estimate: counts
/// `normal(mean, sigma) > threshold` over `trials` draws.
///
/// Bit-identical to
/// `mc_counter(trials, seed, |s| s.normal(mean, sigma) > threshold)`.
/// This is the kernel behind the Eq. 4 retention (probit) sweeps.
pub fn mc_gauss_exceed(trials: u64, seed: u64, mean: f64, sigma: f64, threshold: f64) -> TrialCounter {
    if trials == 0 {
        return TrialCounter::new();
    }
    ntc_obs::counter_add("exec.mc.samples", trials);
    let key = CollectiveKey::new("mc_gauss_exceed", seed, trials)
        .with_salt(Salt::new().f64(mean).f64(sigma).f64(threshold).finish());
    par_mergeable_keyed(&key, MC_SHARDS.min(trials as usize), |i| {
        let (lo, hi) = shard_bounds(trials, MC_SHARDS.min(trials as usize), i);
        let mut span = ntc_obs::span("exec.mc.shard").with_shard(i as u32);
        span.add_items(hi - lo);
        let mut src = Source::stream(seed, i as u64);
        let hits = crate::batch::count_normal_above(&mut src, hi - lo, mean, sigma, threshold);
        let mut c = TrialCounter::new();
        c.record_batch(hi - lo, hits);
        c
    })
}

/// Counter-based lane-kernel rate estimate: counts lane uniforms below
/// `p` over `trials` fully data-parallel lanes.
///
/// Shard `i` uses `stream_key(seed, i)` and local lane indices, so the
/// hit count is a pure function of `(trials, seed, p)` — parallel ≡
/// serial at any thread count and any block size, like every other MC
/// helper. The draws are *not* the xoshiro streams of [`mc_counter`]
/// (that is the point: no loop-carried generator state), so this kernel
/// is for new estimators, not for accelerating committed experiments.
pub fn mc_lane_rate(trials: u64, seed: u64, p: f64) -> TrialCounter {
    if trials == 0 {
        return TrialCounter::new();
    }
    ntc_obs::counter_add("exec.mc.samples", trials);
    let ck_key = CollectiveKey::new("mc_lane_rate", seed, trials).with_salt(p.to_bits());
    par_mergeable_keyed(&ck_key, MC_SHARDS.min(trials as usize), |i| {
        let (lo, hi) = shard_bounds(trials, MC_SHARDS.min(trials as usize), i);
        let mut span = ntc_obs::span("exec.mc.shard").with_shard(i as u32);
        span.add_items(hi - lo);
        let key = crate::rng::stream_key(seed, i as u64);
        let hits = crate::batch::count_lane_below(key, 0, hi - lo, p);
        let mut c = TrialCounter::new();
        c.record_batch(hi - lo, hits);
        c
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunks_cover_range_exactly() {
        for &(n, w) in &[(0usize, 4usize), (1, 4), (7, 3), (12, 4), (3, 8)] {
            let ranges = chunk_ranges(n, w);
            assert_eq!(ranges.len(), w.max(1));
            let mut expect = 0;
            for &(lo, hi) in &ranges {
                assert_eq!(lo, expect);
                assert!(hi >= lo);
                expect = hi;
            }
            assert_eq!(expect, n);
        }
    }

    #[test]
    fn shard_bounds_partition_trials() {
        for &(trials, shards) in &[(100u64, 7usize), (64, 64), (63, 64), (1, 1), (1000, 64)] {
            let mut total = 0;
            let mut expect = 0;
            for s in 0..shards {
                let (lo, hi) = shard_bounds(trials, shards, s);
                assert_eq!(lo, expect);
                total += hi - lo;
                expect = hi;
            }
            assert_eq!(total, trials);
        }
    }

    #[test]
    fn par_map_matches_serial_at_any_thread_count() {
        let serial: Vec<f64> = (0..100)
            .map(|i| Source::stream(5, i as u64).standard_normal())
            .collect();
        for t in [1, 2, 3, 8, 200] {
            let par = par_map_with_threads(100, t, |i| {
                Source::stream(5, i as u64).standard_normal()
            });
            assert_eq!(par, serial, "thread count {t}");
        }
    }

    #[test]
    fn par_map_empty_and_single() {
        let empty: Vec<u32> = par_map_with_threads(0, 4, |_| 1u32);
        assert!(empty.is_empty());
        assert_eq!(par_map_with_threads(1, 4, |i| i * 10), vec![0]);
    }

    #[test]
    fn par_map_slice_preserves_order() {
        let items = ["a", "bb", "ccc", "dddd"];
        let lens = par_map_slice(&items, |s| s.len());
        assert_eq!(lens, vec![1, 2, 3, 4]);
    }

    #[test]
    fn mc_moments_is_thread_count_invariant_and_matches_serial_fold() {
        let trials = 10_000u64;
        let seed = 42u64;
        let shards = MC_SHARDS.min(trials as usize);
        // Serial reference with the SAME shard/merge layout: Welford merge
        // is exact in count but the merged mean/m2 are not bit-equal to a
        // single streaming pass, so bit-level comparison must replay the
        // per-shard accumulate + in-order merge.
        let mut merged = Moments::new();
        for i in 0..shards {
            let (lo, hi) = shard_bounds(trials, shards, i);
            let mut src = Source::stream(seed, i as u64);
            let mut m = Moments::new();
            for _ in lo..hi {
                m.push(src.standard_normal());
            }
            merged.merge(&m);
        }
        let par = mc_moments(trials, seed, |s| s.standard_normal());
        assert_eq!(par.count(), trials);
        assert_eq!(par.mean().to_bits(), merged.mean().to_bits());
        assert_eq!(par.std_dev().to_bits(), merged.std_dev().to_bits());
        assert!((par.mean()).abs() < 0.05);
        assert!((par.std_dev() - 1.0).abs() < 0.05);
    }

    #[test]
    fn mc_counter_matches_sharded_serial_exactly() {
        let trials = 50_000u64;
        let seed = 9u64;
        let p = 0.01;
        let shards = MC_SHARDS.min(trials as usize);
        let mut reference = TrialCounter::new();
        for i in 0..shards {
            let (lo, hi) = shard_bounds(trials, shards, i);
            let mut src = Source::stream(seed, i as u64);
            let mut c = TrialCounter::new();
            for _ in lo..hi {
                c.record(src.bernoulli(p));
            }
            reference.merge(&c);
        }
        let par = mc_counter(trials, seed, |s| s.bernoulli(p));
        assert_eq!(par.trials(), reference.trials());
        assert_eq!(par.hits(), reference.hits());
        let rate = par.hits() as f64 / par.trials() as f64;
        assert!((rate - p).abs() < 0.005, "rate {rate}");
    }

    #[test]
    fn mc_helpers_handle_zero_and_tiny_trial_counts() {
        assert_eq!(mc_moments(0, 1, |s| s.uniform()).count(), 0);
        assert_eq!(mc_moments(3, 1, |s| s.uniform()).count(), 3);
        assert_eq!(mc_counter(0, 1, |s| s.bernoulli(0.5)).trials(), 0);
        assert_eq!(mc_counter(5, 1, |s| s.bernoulli(0.5)).trials(), 5);
    }

    #[test]
    fn shard_helpers_merge_to_the_merged_helpers_bit_for_bit() {
        let trials = 20_000u64;
        let seed = 31u64;
        let shards_c = mc_counter_shards(trials, seed, |s| s.bernoulli(0.02));
        assert_eq!(shards_c.len(), MC_SHARDS);
        let mut folded = TrialCounter::new();
        for c in &shards_c {
            folded.merge(c);
        }
        let merged = mc_counter(trials, seed, |s| s.bernoulli(0.02));
        assert_eq!(folded, merged);

        let shards_m = mc_moments_shards(trials, seed, |s| s.standard_normal());
        assert_eq!(shards_m.len(), MC_SHARDS);
        let mut fm = Moments::new();
        for m in &shards_m {
            fm.merge(m);
        }
        let mm = mc_moments(trials, seed, |s| s.standard_normal());
        assert_eq!(fm.count(), mm.count());
        assert_eq!(fm.mean().to_bits(), mm.mean().to_bits());
        assert_eq!(fm.std_dev().to_bits(), mm.std_dev().to_bits());

        assert!(mc_counter_shards(0, 1, |s| s.bernoulli(0.5)).is_empty());
        assert!(mc_moments_shards(0, 1, |s| s.uniform()).is_empty());
    }

    #[test]
    fn par_mergeable_folds_in_shard_order() {
        // Moments merges are not associative in floating point, so only a
        // left-to-right fold in shard order reproduces the serial bits.
        let shard = |i: usize| {
            let mut src = Source::stream(3, i as u64);
            let mut m = Moments::new();
            for _ in 0..100 {
                m.push(src.uniform());
            }
            m
        };
        let mut serial = shard(0);
        for i in 1..32 {
            serial.merge(&shard(i));
        }
        let par: Moments = par_mergeable(32, shard);
        assert_eq!(par.count(), serial.count());
        assert_eq!(par.mean().to_bits(), serial.mean().to_bits());
        assert_eq!(par.variance().to_bits(), serial.variance().to_bits());
    }

    #[test]
    fn tuple_and_vec_accumulators_merge() {
        let (m, c): (Moments, TrialCounter) = par_mergeable(8, |i| {
            let mut src = Source::stream(1, i as u64);
            let mut m = Moments::new();
            let mut c = TrialCounter::new();
            for _ in 0..50 {
                let x = src.uniform();
                m.push(x);
                c.record(x < 0.25);
            }
            (m, c)
        });
        assert_eq!(m.count(), 400);
        assert_eq!(c.trials(), 400);

        let v: Vec<TrialCounter> = par_mergeable(4, |i| {
            let mut src = Source::stream(2, i as u64);
            (0..3)
                .map(|_| {
                    let mut c = TrialCounter::new();
                    for _ in 0..10 {
                        c.record(src.bernoulli(0.5));
                    }
                    c
                })
                .collect()
        });
        assert_eq!(v.len(), 3);
        assert!(v.iter().all(|c| c.trials() == 40));
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        let _: Moments = par_mergeable(0, |_| Moments::new());
    }

    #[test]
    fn mc_rate_is_bit_identical_to_the_scalar_closure_path() {
        let _g = crate::ckpt::test_guard();
        for (trials, p) in [(50_000u64, 0.01), (63, 0.5), (1, 0.999), (10_000, 0.0)] {
            let batched = mc_rate(trials, 9, p);
            let scalar = mc_counter(trials, 9, |s| s.uniform() < p);
            assert_eq!(batched, scalar, "trials={trials}, p={p}");
        }
        assert_eq!(mc_rate(0, 9, 0.5), TrialCounter::new());
    }

    #[test]
    fn mc_rate_shards_fold_to_mc_rate() {
        let _g = crate::ckpt::test_guard();
        let shards = mc_rate_shards(20_000, 31, 0.02);
        assert_eq!(shards.len(), MC_SHARDS);
        let mut folded = TrialCounter::new();
        for c in &shards {
            folded.merge(c);
        }
        assert_eq!(folded, mc_rate(20_000, 31, 0.02));
        assert!(mc_rate_shards(0, 31, 0.02).is_empty());
    }

    #[test]
    fn mc_gauss_exceed_is_bit_identical_to_the_scalar_closure_path() {
        let _g = crate::ckpt::test_guard();
        let (mean, sigma, thr) = (0.2, 0.03, 0.26);
        let batched = mc_gauss_exceed(40_000, 4, mean, sigma, thr);
        let scalar = mc_counter(40_000, 4, |s| s.normal(mean, sigma) > thr);
        assert_eq!(batched, scalar);
    }

    #[test]
    fn mc_lane_rate_matches_its_scalar_lane_reference() {
        let _g = crate::ckpt::test_guard();
        use crate::rng::{lane_uniform, stream_key};
        let (trials, seed, p) = (30_000u64, 17u64, 0.05);
        let shards = MC_SHARDS.min(trials as usize);
        let mut reference = TrialCounter::new();
        for i in 0..shards {
            let (lo, hi) = shard_bounds(trials, shards, i);
            let key = stream_key(seed, i as u64);
            let hits = (0..hi - lo).filter(|&l| lane_uniform(key, l) < p).count() as u64;
            let mut c = TrialCounter::new();
            c.record_batch(hi - lo, hits);
            reference.merge(&c);
        }
        let got = mc_lane_rate(trials, seed, p);
        assert_eq!(got, reference);
        let rate = got.estimate();
        assert!((rate - p).abs() < 0.01, "rate {rate}");
        // Pure function of (trials, seed, p): repeated runs agree exactly.
        assert_eq!(mc_lane_rate(trials, seed, p), got);
    }
}
