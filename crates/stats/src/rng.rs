//! Deterministic random sampling for reproducible experiments.
//!
//! Every stochastic experiment in the workspace (die synthesis, fault
//! injection, Monte-Carlo sweeps) takes an explicit seed and draws through
//! this module, so any figure can be regenerated bit-for-bit. The generator
//! is a self-contained xoshiro256++ whose state is expanded from the 64-bit
//! seed with SplitMix64 — the same construction `rand`'s `seed_from_u64`
//! uses — so the crate carries no external dependency. Normal variates use
//! the Marsaglia polar method, so no distribution crate is needed either.
//!
//! # Stream splitting for parallel execution
//!
//! [`Source::stream`] derives the `i`-th sub-stream of a seed *counter-based*
//! (a pure function of `(seed, i)`), which is what the parallel engine in
//! [`crate::exec`] uses to shard Monte-Carlo trials: shard `i` always sees
//! the same stream no matter how many threads run, so parallel results are
//! bit-identical to serial ones. [`Source::fork`] is the stateful variant
//! (child seeded from the parent's next output plus a label) kept for
//! sequential callers that want a cursor-style family of children.

/// A seeded random source producing uniforms and standard normals.
///
/// # Cloning
///
/// `Clone` is implemented manually and does **not** copy the cached spare
/// normal from the Marsaglia polar pair: a clone restarts from the raw
/// generator state only. Otherwise a source and its clone would both emit
/// the same cached sample once and then diverge from a source that was
/// cloned before any `standard_normal` call — a subtle reproducibility trap
/// when clones are handed to different shards. If you need an exact
/// continuation including the spare, keep using the original.
///
/// # Example
///
/// ```
/// use ntc_stats::rng::Source;
///
/// let mut a = Source::seeded(42);
/// let mut b = Source::seeded(42);
/// assert_eq!(a.uniform(), b.uniform(), "same seed, same stream");
/// let z = a.standard_normal();
/// assert!(z.is_finite());
/// ```
#[derive(Debug)]
pub struct Source {
    state: [u64; 4],
    cached_normal: Option<f64>,
}

impl Clone for Source {
    fn clone(&self) -> Self {
        Self {
            state: self.state,
            cached_normal: None,
        }
    }
}

/// SplitMix64 step: advances `x` and returns the finalized output.
fn splitmix64(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Source {
    /// Creates a source from a 64-bit seed.
    pub fn seeded(seed: u64) -> Self {
        let mut x = seed;
        let state = [
            splitmix64(&mut x),
            splitmix64(&mut x),
            splitmix64(&mut x),
            splitmix64(&mut x),
        ];
        Self {
            state,
            cached_normal: None,
        }
    }

    /// The `index`-th independent sub-stream of `seed`, as a pure function
    /// of its arguments.
    ///
    /// This is the counter-based splitter the parallel engine relies on:
    /// `stream(seed, i)` depends only on `(seed, i)`, never on generator
    /// state or thread schedule, so work sharded as
    /// `(0..shards).map(|i| Source::stream(seed, i))` produces the same
    /// ensemble on one thread or sixteen. Streams are decorrelated by
    /// running the pair through a SplitMix64 finalizer before seeding.
    pub fn stream(seed: u64, index: u64) -> Source {
        Source::seeded(stream_key(seed, index))
    }

    /// Derives an independent child stream, e.g. one per die or per module.
    ///
    /// The child is seeded from a hash of this stream's next output and the
    /// `stream` label, so children with different labels are decorrelated
    /// and reproducible. Unlike [`Source::stream`] this advances the parent,
    /// so successive `fork(i)` calls with the same label yield different
    /// children; use `stream` when shards must be derivable independently.
    pub fn fork(&mut self, stream: u64) -> Source {
        let base = self.next_u64();
        // SplitMix64 finalizer over (base, stream).
        let mut z = base ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        Source::seeded(z)
    }

    /// Next raw 64-bit output (xoshiro256++).
    fn next_u64(&mut self) -> u64 {
        let [s0, s1, s2, s3] = self.state;
        let result = s0.wrapping_add(s3).rotate_left(23).wrapping_add(s0);
        let t = s1 << 17;
        let mut s2 = s2 ^ s0;
        let mut s3 = s3 ^ s1;
        let s1 = s1 ^ s2;
        let s0 = s0 ^ s3;
        s2 ^= t;
        s3 = s3.rotate_left(45);
        self.state = [s0, s1, s2, s3];
        result
    }

    /// A uniform draw in `[0, 1)`.
    pub fn uniform(&mut self) -> f64 {
        // 53 mantissa bits of the raw output, scaled into [0, 1).
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform draw in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi` or either bound is non-finite.
    pub fn uniform_in(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(
            lo.is_finite() && hi.is_finite() && lo < hi,
            "invalid uniform range [{lo}, {hi})"
        );
        lo + (hi - lo) * self.uniform()
    }

    /// A uniform integer in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0) is meaningless");
        if n == 1 {
            return 0;
        }
        // Rejection sampling on the top of the range for an unbiased draw.
        let zone = u64::MAX - u64::MAX % n;
        loop {
            let x = self.next_u64();
            if x < zone {
                return x % n;
            }
        }
    }

    /// A standard normal draw (Marsaglia polar method, pair-cached).
    pub fn standard_normal(&mut self) -> f64 {
        if let Some(z) = self.cached_normal.take() {
            return z;
        }
        loop {
            let u = 2.0 * self.uniform() - 1.0;
            let v = 2.0 * self.uniform() - 1.0;
            let s = u * u + v * v;
            if s > 0.0 && s < 1.0 {
                let f = (-2.0 * s.ln() / s).sqrt();
                self.cached_normal = Some(v * f);
                return u * f;
            }
        }
    }

    /// A normal draw with the given mean and standard deviation.
    pub fn normal(&mut self, mean: f64, sigma: f64) -> f64 {
        mean + sigma * self.standard_normal()
    }

    /// A Bernoulli draw with success probability `p` (clamped to `[0, 1]`).
    pub fn bernoulli(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.uniform() < p
        }
    }

    /// A binomial draw: number of successes in `n` trials at probability `p`.
    ///
    /// Uses direct simulation below 64 trials and a Gaussian approximation
    /// with continuity correction above, which is plenty for fault-count
    /// sampling at the population sizes used here.
    pub fn binomial(&mut self, n: u64, p: f64) -> u64 {
        if p <= 0.0 || n == 0 {
            return 0;
        }
        if p >= 1.0 {
            return n;
        }
        let mean = n as f64 * p;
        let var = mean * (1.0 - p);
        if n < 64 || mean < 16.0 || (n as f64 - mean) < 16.0 {
            let mut k = 0;
            for _ in 0..n {
                k += u64::from(self.bernoulli(p));
            }
            k
        } else {
            let draw = self.normal(mean, var.sqrt()).round();
            draw.clamp(0.0, n as f64) as u64
        }
    }

    /// Shuffles a slice in place (Fisher–Yates).
    pub(crate) fn shuffle<T>(&mut self, data: &mut [T]) {
        for i in (1..data.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            data.swap(i, j);
        }
    }

    /// Fills `out` with consecutive uniform draws in `[0, 1)`.
    ///
    /// Bit-identical to calling [`Source::uniform`] once per slot — this is
    /// the block-fill entry of the SoA Monte-Carlo kernels, so existing
    /// consumers can switch to chunked evaluation without changing a single
    /// random stream.
    pub fn fill_uniform(&mut self, out: &mut [f64]) {
        for slot in out {
            *slot = self.uniform();
        }
    }

    /// Fills `out` with the 53-bit mantissas of consecutive uniform draws.
    ///
    /// [`Source::uniform`] is exactly `mantissa * 2⁻⁵³` with
    /// `mantissa = next_u64() >> 11`, so threshold tests like
    /// `uniform() < p` can be decided in the integer domain (see
    /// `crate::batch::mantissa_threshold`) while consuming the identical
    /// draw sequence.
    pub fn fill_uniform_bits(&mut self, out: &mut [u64]) {
        for slot in out {
            *slot = self.next_u64() >> 11;
        }
    }

    /// Fills `out` with consecutive standard normal draws.
    ///
    /// Bit-identical to calling [`Source::standard_normal`] once per slot:
    /// the Marsaglia polar pair cache carries across fill boundaries, so
    /// chunking a long normal sequence into blocks of any size reproduces
    /// the unchunked stream exactly.
    pub fn fill_standard_normal(&mut self, out: &mut [f64]) {
        for slot in out {
            *slot = self.standard_normal();
        }
    }

    /// Draws `k` distinct indices from `[0, n)` (partial Fisher–Yates).
    ///
    /// # Panics
    ///
    /// Panics if `k > n`.
    pub fn distinct_indices(&mut self, n: usize, k: usize) -> Vec<usize> {
        assert!(k <= n, "cannot draw {k} distinct indices from {n}");
        // For small k relative to n, rejection sampling is cheaper than
        // materializing [0, n).
        if k * 8 < n {
            let mut out = Vec::with_capacity(k);
            while out.len() < k {
                let idx = self.below(n as u64) as usize;
                if !out.contains(&idx) {
                    out.push(idx);
                }
            }
            out
        } else {
            let mut all: Vec<usize> = (0..n).collect();
            self.shuffle(&mut all);
            all.truncate(k);
            all
        }
    }
}

/// The 64-bit key of the `index`-th sub-stream of `seed` — the mixing stage
/// of [`Source::stream`], exposed for the per-lane counter generator.
///
/// Two finalizer rounds over `(seed, index)` so that neither consecutive
/// seeds nor consecutive indices yield nearby keys. `Source::stream(seed, i)`
/// is exactly `Source::seeded(stream_key(seed, i))`.
pub fn stream_key(seed: u64, index: u64) -> u64 {
    let mut z = seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    z = z.wrapping_add(0x632B_E593_04D4_D1CD);
    z = (z ^ (z >> 33)).wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    z = (z ^ (z >> 33)).wrapping_mul(0xC4CE_B9FE_1A85_EC53);
    z ^= z >> 33;
    z
}

/// The `lane`-th raw 64-bit output of the SplitMix64 sequence seeded with
/// `key` — a pure function of `(key, lane)` with **no loop-carried state**.
///
/// This is the lane generator of the structure-of-arrays kernels: because
/// consecutive lanes are independent computations (unlike xoshiro, whose
/// state update is a serial dependency chain), a block of lanes fills at
/// superscalar throughput and the surrounding loop auto-vectorizes. The
/// sequence is exactly what `splitmix64` would emit stepping from `key`,
/// i.e. the same well-studied generator used to expand seeds.
pub(crate) fn lane_u64(key: u64, lane: u64) -> u64 {
    let mut z = key.wrapping_add(lane.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The `lane`-th uniform draw in `[0, 1)` of the counter-based lane
/// generator: the top 53 bits of `lane_u64` scaled by `2⁻⁵³`, matching
/// the mantissa construction of [`Source::uniform`].
pub fn lane_uniform(key: u64, lane: u64) -> f64 {
    (lane_u64(key, lane) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mc::Moments;

    #[test]
    fn determinism_from_seed() {
        let mut a = Source::seeded(7);
        let mut b = Source::seeded(7);
        for _ in 0..100 {
            assert_eq!(a.uniform(), b.uniform());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Source::seeded(1);
        let mut b = Source::seeded(2);
        let same = (0..32).filter(|_| a.uniform() == b.uniform()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn forked_streams_are_reproducible_and_distinct() {
        let mut parent1 = Source::seeded(99);
        let mut parent2 = Source::seeded(99);
        let mut c1 = parent1.fork(5);
        let mut c2 = parent2.fork(5);
        assert_eq!(c1.uniform(), c2.uniform());
        let mut parent3 = Source::seeded(99);
        let mut c3 = parent3.fork(6);
        assert_ne!(c1.uniform(), c3.uniform());
    }

    #[test]
    fn stream_is_a_pure_function_of_seed_and_index() {
        let mut a = Source::stream(2014, 9);
        let mut b = Source::stream(2014, 9);
        for _ in 0..64 {
            assert_eq!(a.uniform(), b.uniform());
        }
        let mut c = Source::stream(2014, 10);
        let mut d = Source::stream(2015, 9);
        let first = Source::stream(2014, 9).uniform();
        assert_ne!(first, c.uniform());
        assert_ne!(first, d.uniform());
    }

    #[test]
    fn stream_family_is_statistically_sane() {
        // First draws of 4k consecutive streams should look uniform.
        let m: Moments = (0..4000)
            .map(|i| Source::stream(77, i).uniform())
            .collect();
        assert!((m.mean() - 0.5).abs() < 0.02, "mean {}", m.mean());
        assert!(
            (m.std_dev() - (1.0f64 / 12.0).sqrt()).abs() < 0.02,
            "sd {}",
            m.std_dev()
        );
    }

    #[test]
    fn clone_drops_cached_normal() {
        let mut src = Source::seeded(55);
        let _ = src.standard_normal(); // leaves a spare cached
        let mut twin = src.clone();
        // The original consumes its spare; the clone re-enters the polar
        // loop from the same raw state, so their *next* raw streams agree
        // after the original's cache is drained.
        let _ = src.standard_normal(); // consumes the cached spare
        assert_eq!(src.uniform(), twin.uniform());
    }

    #[test]
    fn standard_normal_moments() {
        let mut src = Source::seeded(123);
        let m: Moments = (0..200_000).map(|_| src.standard_normal()).collect();
        assert!(m.mean().abs() < 0.01, "mean {}", m.mean());
        assert!((m.std_dev() - 1.0).abs() < 0.01, "sd {}", m.std_dev());
    }

    #[test]
    fn uniform_in_respects_bounds() {
        let mut src = Source::seeded(4);
        for _ in 0..1000 {
            let x = src.uniform_in(-2.0, 3.0);
            assert!((-2.0..3.0).contains(&x));
        }
    }

    #[test]
    #[should_panic(expected = "invalid uniform range")]
    fn uniform_in_rejects_inverted() {
        Source::seeded(0).uniform_in(1.0, 0.0);
    }

    #[test]
    fn below_is_in_range_and_unbiased_enough() {
        let mut src = Source::seeded(17);
        let mut counts = [0u32; 5];
        for _ in 0..50_000 {
            counts[src.below(5) as usize] += 1;
        }
        for c in counts {
            assert!((c as f64 - 10_000.0).abs() < 500.0, "count {c}");
        }
    }

    #[test]
    #[should_panic(expected = "below(0) is meaningless")]
    fn below_zero_panics() {
        Source::seeded(0).below(0);
    }

    #[test]
    fn bernoulli_frequency() {
        let mut src = Source::seeded(11);
        let hits = (0..100_000).filter(|_| src.bernoulli(0.25)).count();
        let f = hits as f64 / 100_000.0;
        assert!((f - 0.25).abs() < 0.01);
        assert!(!src.bernoulli(0.0));
        assert!(src.bernoulli(1.0));
    }

    #[test]
    fn binomial_small_and_large_agree_in_moments() {
        let mut src = Source::seeded(21);
        // Small-n path.
        let m: Moments = (0..20_000).map(|_| src.binomial(20, 0.3) as f64).collect();
        assert!((m.mean() - 6.0).abs() < 0.1);
        // Large-n Gaussian path.
        let m: Moments = (0..20_000)
            .map(|_| src.binomial(10_000, 0.5) as f64)
            .collect();
        assert!((m.mean() - 5000.0).abs() < 2.0);
        assert!((m.std_dev() - 50.0).abs() < 2.0);
    }

    #[test]
    fn binomial_edges() {
        let mut src = Source::seeded(3);
        assert_eq!(src.binomial(100, 0.0), 0);
        assert_eq!(src.binomial(100, 1.0), 100);
        assert_eq!(src.binomial(0, 0.5), 0);
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut src = Source::seeded(8);
        let mut v: Vec<u32> = (0..50).collect();
        src.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn distinct_indices_are_distinct_and_in_range() {
        let mut src = Source::seeded(13);
        for &(n, k) in &[(100usize, 3usize), (10, 10), (1000, 999), (50, 0)] {
            let idx = src.distinct_indices(n, k);
            assert_eq!(idx.len(), k);
            let mut seen = idx.clone();
            seen.sort_unstable();
            seen.dedup();
            assert_eq!(seen.len(), k, "duplicates for n={n} k={k}");
            assert!(idx.iter().all(|&i| i < n));
        }
    }

    #[test]
    #[should_panic(expected = "distinct indices")]
    fn distinct_indices_rejects_k_gt_n() {
        Source::seeded(0).distinct_indices(3, 4);
    }

    #[test]
    fn fill_uniform_matches_scalar_draws_bit_for_bit() {
        let mut scalar = Source::seeded(31);
        let reference: Vec<u64> = (0..1000).map(|_| scalar.uniform().to_bits()).collect();
        let mut block = Source::seeded(31);
        let mut buf = vec![0.0f64; 1000];
        // Uneven chunk sizes straddle every block boundary case.
        let mut at = 0;
        for len in [1usize, 7, 64, 128, 300, 500] {
            block.fill_uniform(&mut buf[at..at + len]);
            at += len;
        }
        assert_eq!(at, 1000);
        let got: Vec<u64> = buf.iter().map(|x| x.to_bits()).collect();
        assert_eq!(got, reference);
    }

    #[test]
    fn fill_uniform_bits_are_the_uniform_mantissas() {
        let mut scalar = Source::seeded(90);
        let reference: Vec<f64> = (0..256).map(|_| scalar.uniform()).collect();
        let mut block = Source::seeded(90);
        let mut bits = vec![0u64; 256];
        block.fill_uniform_bits(&mut bits);
        for (m, u) in bits.iter().zip(&reference) {
            assert_eq!((*m as f64 * (1.0 / (1u64 << 53) as f64)).to_bits(), u.to_bits());
        }
    }

    #[test]
    fn fill_standard_normal_carries_the_polar_cache_across_blocks() {
        let mut scalar = Source::seeded(77);
        let reference: Vec<u64> =
            (0..601).map(|_| scalar.standard_normal().to_bits()).collect();
        let mut block = Source::seeded(77);
        let mut buf = vec![0.0f64; 601];
        // Odd-length chunks force the pair cache to straddle boundaries.
        let mut at = 0;
        for len in [1usize, 3, 97, 200, 300] {
            block.fill_standard_normal(&mut buf[at..at + len]);
            at += len;
        }
        assert_eq!(at, 601);
        let got: Vec<u64> = buf.iter().map(|x| x.to_bits()).collect();
        assert_eq!(got, reference);
    }

    #[test]
    fn stream_key_is_the_mixing_stage_of_stream() {
        for (seed, index) in [(2014u64, 0u64), (7, 63), (u64::MAX, 1 << 40)] {
            let mut via_key = Source::seeded(stream_key(seed, index));
            let mut direct = Source::stream(seed, index);
            for _ in 0..8 {
                assert_eq!(via_key.uniform().to_bits(), direct.uniform().to_bits());
            }
        }
    }

    #[test]
    fn lane_generator_is_splitmix64_from_the_key() {
        let key = stream_key(5, 9);
        let mut x = key;
        for lane in 0..64u64 {
            assert_eq!(lane_u64(key, lane), splitmix64(&mut x));
        }
    }

    #[test]
    fn lane_uniforms_are_pure_in_range_and_statistically_sane() {
        let key = stream_key(2014, 3);
        let m: Moments = (0..100_000).map(|i| lane_uniform(key, i)).collect();
        assert!((m.mean() - 0.5).abs() < 0.005, "mean {}", m.mean());
        assert!(
            (m.std_dev() - (1.0f64 / 12.0).sqrt()).abs() < 0.005,
            "sd {}",
            m.std_dev()
        );
        assert!(m.min() >= 0.0 && m.max() < 1.0);
        assert_eq!(lane_uniform(key, 17).to_bits(), lane_uniform(key, 17).to_bits());
    }
}
