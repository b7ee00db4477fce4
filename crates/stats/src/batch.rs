//! Structure-of-arrays Monte-Carlo block kernels.
//!
//! The scalar Monte-Carlo path (`exec::mc_counter` with a closure) pays per
//! trial for a closure call, a data-dependent branch and two accumulator
//! updates; at ~2 ns/trial the generator's serial dependency chain and the
//! bookkeeping dominate. The kernels here restructure the hot loop into
//! blocks of `BLOCK` f64/u64 lanes:
//!
//! * the generator fills a whole block up front ([`Source::fill_uniform_bits`]
//!   / [`Source::fill_standard_normal`]), keeping its serial chain tight and
//!   branch-free;
//! * threshold tests run over the block in the **integer domain** — a
//!   uniform draw is `mantissa · 2⁻⁵³`, so `uniform() < p` is decided by
//!   `mantissa < mantissa_threshold(p)` exactly (see the proof on
//!   [`mantissa_threshold`]) — a pure compare-and-add loop the compiler
//!   auto-vectorizes;
//! * accumulation is per-block into integer counts, which are associative,
//!   so the hit total is invariant to block size.
//!
//! Two generator disciplines coexist deliberately:
//!
//! 1. **Stream-preserving** kernels (`count_uniform_below`,
//!    `count_normal_above`) consume an existing [`Source`] in its exact
//!    draw order, so consumers that already committed artifacts keep them
//!    byte-identical while gaining the block accumulation.
//! 2. **Counter-based lane** kernels ([`count_lane_below`]) index draws by
//!    trial number through `lane_u64`, removing the loop-carried
//!    state entirely; these are the fastest and are used where no legacy
//!    stream constrains the layout (throughput kernels, the tilted
//!    importance sampler in [`crate::mc::tilted`]).
//!
//! All kernels are deterministic pure functions of their seeds; the `exec`
//! glue shards them over the fixed 64-shard layout so parallel ≡ serial
//! bit-for-bit, as everywhere else in the workspace.

use crate::rng::{lane_u64, Source};

/// Lane width of one SoA block: big enough to amortize loop overhead and
/// let the auto-vectorizer unroll, small enough to stay in L1 (8 KiB of
/// f64 lanes).
pub(crate) const BLOCK: usize = 1024;

/// The integer threshold deciding `uniform() < p` in the mantissa domain.
///
/// `uniform()` is exactly `m · 2⁻⁵³` with `m = next_u64() >> 11`, an
/// integer in `[0, 2⁵³)`. Both `m · 2⁻⁵³` (53-bit integer scaled by a
/// power of two) and `p · 2⁵³` (for `0 ≤ p ≤ 1`) are computed exactly in
/// f64, so
///
/// ```text
/// uniform() < p  ⟺  m · 2⁻⁵³ < p  ⟺  m < p · 2⁵³  ⟺  m < ⌈p · 2⁵³⌉
/// ```
///
/// with the last step because `m` is an integer. NaN and `p ≤ 0` yield
/// threshold 0 (never hit, matching the scalar comparison's `false`);
/// `p ≥ 1` yields `2⁵³` (always hit).
pub fn mantissa_threshold(p: f64) -> u64 {
    const TWO_53: f64 = (1u64 << 53) as f64;
    let s = p * TWO_53;
    if s.is_nan() || s <= 0.0 {
        0
    } else if s >= TWO_53 {
        1u64 << 53
    } else {
        s.ceil() as u64
    }
}

/// Counts how many of the next `n` uniform draws from `src` fall below
/// `p`, consuming exactly `n` draws.
///
/// Hit-for-hit identical to the scalar loop
/// `(0..n).filter(|_| src.uniform() < p).count()` — the draws are the same
/// stream and the threshold test is exact (see [`mantissa_threshold`]) —
/// while the compare-and-accumulate runs block-wise over integer lanes.
pub(crate) fn count_uniform_below(src: &mut Source, n: u64, p: f64) -> u64 {
    count_uniform_below_with_block(src, n, p, BLOCK)
}

/// `count_uniform_below` with an explicit block size (exposed so the
/// property tests can prove hit counts are block-size invariant).
///
/// # Panics
///
/// Panics if `block == 0`.
pub fn count_uniform_below_with_block(src: &mut Source, n: u64, p: f64, block: usize) -> u64 {
    assert!(block > 0, "block size must be positive");
    let t = mantissa_threshold(p);
    let mut lanes = vec![0u64; block.min(n.max(1) as usize)];
    let mut hits = 0u64;
    let mut remaining = n;
    while remaining > 0 {
        let len = (remaining as usize).min(lanes.len());
        let chunk = &mut lanes[..len];
        src.fill_uniform_bits(chunk);
        let mut h = 0u64;
        for &m in chunk.iter() {
            h += u64::from(m < t);
        }
        hits += h;
        remaining -= len as u64;
    }
    hits
}

/// Counts how many of the next `n` draws of `mean + sigma·Z` exceed
/// `threshold`, consuming exactly `n` standard-normal draws from `src`.
///
/// Hit-for-hit identical to the scalar loop over
/// `src.normal(mean, sigma) > threshold`: the block fill preserves the
/// polar pair cache across boundaries and the per-lane expression
/// `mean + sigma * z` is the same f64 arithmetic the scalar path runs.
pub(crate) fn count_normal_above(src: &mut Source, n: u64, mean: f64, sigma: f64, threshold: f64) -> u64 {
    count_normal_above_with_block(src, n, mean, sigma, threshold, BLOCK)
}

/// `count_normal_above` with an explicit block size (for the block-size
/// invariance property tests).
///
/// # Panics
///
/// Panics if `block == 0`.
pub fn count_normal_above_with_block(
    src: &mut Source,
    n: u64,
    mean: f64,
    sigma: f64,
    threshold: f64,
    block: usize,
) -> u64 {
    assert!(block > 0, "block size must be positive");
    let mut lanes = vec![0.0f64; block.min(n.max(1) as usize)];
    let mut hits = 0u64;
    let mut remaining = n;
    while remaining > 0 {
        let len = (remaining as usize).min(lanes.len());
        let chunk = &mut lanes[..len];
        src.fill_standard_normal(chunk);
        let mut h = 0u64;
        for &z in chunk.iter() {
            h += u64::from(mean + sigma * z > threshold);
        }
        hits += h;
        remaining -= len as u64;
    }
    hits
}

/// Counts lanes `lo..hi` of the counter-based generator whose uniform
/// falls below `p` — the fully data-parallel SoA kernel.
///
/// Each lane is `(lane_u64(key, lane) >> 11) < mantissa_threshold(p)`, a
/// pure function of `(key, lane)` with no loop-carried state, so the body
/// is one fused mix–compare–add chain per lane that the compiler unrolls
/// and pipelines. Identical to the scalar reference
/// `(lo..hi).filter(|&l| lane_uniform(key, l) < p).count()` for any block
/// size, and trivially parallel over any partition of `lo..hi`.
///
/// Two strength reductions keep the scalar inner loop to two multiplies
/// and a compare, both exact:
///
/// * the per-lane counter `key + (lane+1)·φ` advances additively instead
///   of re-multiplying (`c += φ` is the same wrapping sum), and
/// * the mantissa compare drops its shift: `(z >> 11) < t ⟺ z < t·2¹¹`
///   because `z >> 11 = ⌊z/2¹¹⌋` (the `t = 0` / `t = 2⁵³` ends exit
///   early, so `t·2¹¹` never overflows).
///
/// On x86-64 hosts with AVX-512DQ a runtime-dispatched wide path evaluates
/// the same mix over 8 counters per vector (`vpmullq` is a native 64-bit
/// lane multiply); shifts, xors and the unsigned compare are exact integer
/// ops, so the wide path is bit-identical to the scalar loop — the
/// partition-invariance tests cover both.
pub fn count_lane_below(key: u64, lo: u64, hi: u64, p: f64) -> u64 {
    let t = mantissa_threshold(p);
    if t == 0 || lo >= hi {
        return 0;
    }
    if t == 1u64 << 53 {
        return hi - lo; // every 53-bit mantissa admits
    }
    let t_raw = t << 11;
    let c0 = key.wrapping_add(lo.wrapping_add(1).wrapping_mul(LANE_PHI));
    debug_assert_eq!(
        splitmix_mix(c0),
        lane_u64(key, lo),
        "incremental counter drifted"
    );
    #[cfg(target_arch = "x86_64")]
    #[allow(unsafe_code)]
    if std::arch::is_x86_feature_detected!("avx512f")
        && std::arch::is_x86_feature_detected!("avx512dq")
    {
        // SAFETY: feature presence just checked at runtime.
        return unsafe { count_lane_below_avx512(c0, hi - lo, t_raw) };
    }
    count_lane_below_scalar(c0, hi - lo, t_raw)
}

/// Golden-ratio increment of the splitmix64 counter sequence.
const LANE_PHI: u64 = 0x9E37_79B9_7F4A_7C15;

/// The splitmix64 output stage: `lane_u64(key, lane) =
/// splitmix_mix(key + (lane+1)·φ)`.
#[inline(always)]
fn splitmix_mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Portable reference loop: counts `splitmix_mix(c0 + j·φ) < t_raw` for
/// `j` in `0..n`.
#[inline]
fn count_lane_below_scalar(c0: u64, n: u64, t_raw: u64) -> u64 {
    let mut c = c0;
    let mut hits = 0u64;
    for _ in 0..n {
        hits += u64::from(splitmix_mix(c) < t_raw);
        c = c.wrapping_add(LANE_PHI);
    }
    hits
}

/// AVX-512DQ wide path: four independent 8-lane vectors per iteration
/// (32 counters) keep the two-multiply dependency chains pipelined;
/// every operation (64-bit multiply, shift, xor, unsigned compare) is an
/// exact integer op, so the result is bit-identical to
/// [`count_lane_below_scalar`]. The sub-32 tail falls back to the scalar
/// loop at the advanced counter.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
#[target_feature(enable = "avx512f,avx512dq")]
unsafe fn count_lane_below_avx512(c0: u64, n: u64, t_raw: u64) -> u64 {
    use std::arch::x86_64::*;
    const STRIDE: u64 = 32;
    let phi = _mm512_set1_epi64(LANE_PHI as i64);
    let ramp = _mm512_mullo_epi64(_mm512_set_epi64(7, 6, 5, 4, 3, 2, 1, 0), phi);
    let step8 = _mm512_slli_epi64::<3>(phi); // 8·φ (wrapping by construction)
    let step32 = _mm512_slli_epi64::<5>(phi); // 32·φ
    let m1 = _mm512_set1_epi64(0xBF58_476D_1CE4_E5B9u64 as i64);
    let m2 = _mm512_set1_epi64(0x94D0_49BB_1331_11EBu64 as i64);
    let t = _mm512_set1_epi64(t_raw as i64);

    #[inline(always)]
    unsafe fn mix_lt(mut z: __m512i, m1: __m512i, m2: __m512i, t: __m512i) -> u32 {
        z = _mm512_mullo_epi64(_mm512_xor_si512(z, _mm512_srli_epi64::<30>(z)), m1);
        z = _mm512_mullo_epi64(_mm512_xor_si512(z, _mm512_srli_epi64::<27>(z)), m2);
        z = _mm512_xor_si512(z, _mm512_srli_epi64::<31>(z));
        u32::from(_mm512_cmplt_epu64_mask(z, t))
    }

    let mut ca = _mm512_add_epi64(_mm512_set1_epi64(c0 as i64), ramp);
    let mut cb = _mm512_add_epi64(ca, step8);
    let mut cc = _mm512_add_epi64(cb, step8);
    let mut cd = _mm512_add_epi64(cc, step8);
    let blocks = n / STRIDE;
    let mut hits = 0u64;
    for _ in 0..blocks {
        let pop = mix_lt(ca, m1, m2, t).count_ones()
            + mix_lt(cb, m1, m2, t).count_ones()
            + mix_lt(cc, m1, m2, t).count_ones()
            + mix_lt(cd, m1, m2, t).count_ones();
        hits += u64::from(pop);
        ca = _mm512_add_epi64(ca, step32);
        cb = _mm512_add_epi64(cb, step32);
        cc = _mm512_add_epi64(cc, step32);
        cd = _mm512_add_epi64(cd, step32);
    }
    let done = blocks * STRIDE;
    hits + count_lane_below_scalar(c0.wrapping_add(LANE_PHI.wrapping_mul(done)), n - done, t_raw)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::lane_uniform;

    #[test]
    fn mantissa_threshold_edges() {
        assert_eq!(mantissa_threshold(0.0), 0);
        assert_eq!(mantissa_threshold(-1.0), 0);
        assert_eq!(mantissa_threshold(f64::NAN), 0);
        assert_eq!(mantissa_threshold(1.0), 1u64 << 53);
        assert_eq!(mantissa_threshold(2.0), 1u64 << 53);
        assert_eq!(mantissa_threshold(0.5), 1u64 << 52);
        // Smallest positive p still rounds up to one admitted mantissa.
        assert_eq!(mantissa_threshold(5e-324), 1);
    }

    #[test]
    fn mantissa_threshold_agrees_with_f64_compare_exhaustively_near_boundaries() {
        // For a spread of p, the integer test must agree with the float
        // test on mantissas straddling the threshold.
        for p in [1e-18, 1e-9, 1e-3, 0.25, 0.5, 0.75, 1.0 - 1e-16] {
            let t = mantissa_threshold(p);
            for m in t.saturating_sub(2)..=(t + 2).min((1u64 << 53) - 1) {
                let u = m as f64 * (1.0 / (1u64 << 53) as f64);
                assert_eq!(u < p, m < t, "p={p}, m={m}");
            }
        }
    }

    #[test]
    fn count_uniform_below_matches_scalar_loop() {
        for p in [0.0, 1e-6, 0.3, 1.0] {
            let mut scalar_src = Source::seeded(42);
            let scalar = (0..10_000).filter(|_| scalar_src.uniform() < p).count() as u64;
            let mut batch_src = Source::seeded(42);
            let batch = count_uniform_below(&mut batch_src, 10_000, p);
            assert_eq!(batch, scalar, "p = {p}");
            // Both consumed the same number of draws.
            assert_eq!(batch_src.uniform().to_bits(), scalar_src.uniform().to_bits());
        }
    }

    #[test]
    fn count_uniform_below_is_block_size_invariant() {
        for block in [1usize, 3, 64, 1000, 1024, 5000] {
            let mut src = Source::seeded(7);
            let hits = count_uniform_below_with_block(&mut src, 4321, 0.1, block);
            let mut reference = Source::seeded(7);
            let want = count_uniform_below_with_block(&mut reference, 4321, 0.1, 1);
            assert_eq!(hits, want, "block = {block}");
        }
    }

    #[test]
    fn count_normal_above_matches_scalar_loop_and_block_sizes() {
        let (mean, sigma, thr) = (0.2, 0.03, 0.25);
        let mut scalar_src = Source::seeded(11);
        let scalar =
            (0..20_000).filter(|_| scalar_src.normal(mean, sigma) > thr).count() as u64;
        for block in [1usize, 7, 1024] {
            let mut src = Source::seeded(11);
            let batch = count_normal_above_with_block(&mut src, 20_000, mean, sigma, thr, block);
            assert_eq!(batch, scalar, "block = {block}");
        }
    }

    #[test]
    fn count_lane_below_matches_scalar_reference_on_any_partition() {
        let key = crate::rng::stream_key(2014, 5);
        let p = 0.05;
        let scalar = (0..10_000u64).filter(|&l| lane_uniform(key, l) < p).count() as u64;
        assert_eq!(count_lane_below(key, 0, 10_000, p), scalar);
        // Any partition of the lane range sums to the same count.
        let split = count_lane_below(key, 0, 137, p)
            + count_lane_below(key, 137, 4096, p)
            + count_lane_below(key, 4096, 10_000, p);
        assert_eq!(split, scalar);
    }

    #[test]
    fn dispatched_lane_kernel_matches_the_portable_scalar_loop() {
        // Exercises the SIMD path (when the host has it) against the
        // portable loop across tail remainders 0..32 and thresholds.
        let key = crate::rng::stream_key(77, 3);
        for p in [1e-9, 1e-3, 0.37, 0.999_999] {
            let t_raw = mantissa_threshold(p) << 11;
            for n in [0u64, 1, 5, 31, 32, 33, 64, 95, 1000, 4096, 40_001] {
                let c0 = key.wrapping_add(LANE_PHI);
                let want = count_lane_below_scalar(c0, n, t_raw);
                assert_eq!(count_lane_below(key, 0, n, p), want, "p={p}, n={n}");
            }
        }
    }

    #[test]
    fn zero_trials_consume_nothing() {
        let mut src = Source::seeded(1);
        assert_eq!(count_uniform_below(&mut src, 0, 0.5), 0);
        assert_eq!(count_normal_above(&mut src, 0, 0.0, 1.0, 0.0), 0);
        let mut untouched = Source::seeded(1);
        assert_eq!(src.uniform().to_bits(), untouched.uniform().to_bits());
    }

    #[test]
    fn lane_hit_rate_is_statistically_sane() {
        let key = crate::rng::stream_key(9, 0);
        let hits = count_lane_below(key, 0, 1_000_000, 1e-3);
        assert!((800..1200).contains(&hits), "hits = {hits}");
    }
}
