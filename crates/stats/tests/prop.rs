//! Property tests for the numerical substrate.

use ntc_stats::batch::{
    count_lane_below, count_normal_above_with_block, count_uniform_below_with_block,
};
use ntc_stats::ckpt::{put_u64, Persist, ShardCheckpoint};
use ntc_stats::exec::{
    mc_counter, mc_moments, mc_rate, par_map_with_threads, shard_bounds, MC_SHARDS,
};
use ntc_stats::fit::{fit_power_law, linear_fit};
use ntc_stats::math::{erf, erf_block, erfc, erfc_block, inv_phi, ln_erfc, phi, phi_block};
use ntc_stats::mc::tilted::{gauss_tail, gauss_tail_shards, TiltedCounter};
use ntc_stats::mc::{Moments, TrialCounter};
use ntc_stats::rng::{lane_uniform, stream_key, Source};
use ntc_stats::sweep::{linspace, logspace};
use proptest::prelude::*;

/// Fixed inputs pinning the scalar branch structure of the erf family:
/// exact branch points, denormals, the underflow cutoffs and specials.
/// Every bit-identity case appends these to its randomly drawn inputs.
const ERF_SPECIALS: [f64; 12] = [
    0.5,
    -0.5,
    0.0,
    -0.0,
    5e-324, // smallest denormal
    -5e-324,
    1.1125369292536007e-308, // mid-range denormal (MIN_POSITIVE / 2)
    26.7,                    // erfc underflow boundary
    27.0,
    f64::INFINITY,
    f64::NEG_INFINITY,
    f64::NAN,
];

proptest! {
    #[test]
    fn erf_erfc_complement(x in -6.0f64..6.0) {
        prop_assert!((erf(x) + erfc(x) - 1.0).abs() < 8.0 * f64::EPSILON);
    }

    #[test]
    fn erf_odd_symmetry(x in 0.0f64..10.0) {
        prop_assert_eq!(erf(-x), -erf(x));
    }

    #[test]
    fn erfc_bounds(x in -30.0f64..30.0) {
        let v = erfc(x);
        prop_assert!((0.0..=2.0).contains(&v));
    }

    #[test]
    fn ln_erfc_consistent_where_linear_works(x in -5.0f64..25.0) {
        let lin = erfc(x);
        prop_assume!(lin > 0.0);
        prop_assert!((ln_erfc(x) - lin.ln()).abs() < 1e-9 * lin.ln().abs().max(1.0));
    }

    #[test]
    fn phi_monotone(a in -10.0f64..10.0, b in -10.0f64..10.0) {
        prop_assume!(a < b);
        prop_assert!(phi(a) <= phi(b));
    }

    #[test]
    fn probit_is_inverse(z in -12.0f64..6.0) {
        // Near the right tail, p = phi(z) loses absolute resolution
        // (1 − p shrinks below f64 ulps around z ≈ 8), so the round trip
        // is only meaningful up to moderate positive z. The deep *left*
        // tail keeps full relative precision — the side the reliability
        // math actually uses.
        let back = inv_phi(phi(z));
        prop_assert!((back - z).abs() < 1e-7, "z = {z}, back = {back}");
    }

    #[test]
    fn moments_merge_associative(
        xs in prop::collection::vec(-100.0f64..100.0, 1..60),
        split in 0usize..60,
    ) {
        let split = split.min(xs.len());
        let all: Moments = xs.iter().copied().collect();
        let mut left: Moments = xs[..split].iter().copied().collect();
        let right: Moments = xs[split..].iter().copied().collect();
        left.merge(&right);
        prop_assert_eq!(left.count(), all.count());
        prop_assert!((left.mean() - all.mean()).abs() < 1e-9);
        prop_assert!((left.variance() - all.variance()).abs() < 1e-7);
    }

    #[test]
    fn wilson_interval_contains_estimate(trials in 1u64..10_000, frac in 0.0f64..=1.0) {
        let hits = (trials as f64 * frac) as u64;
        let mut c = TrialCounter::new();
        c.record_batch(trials, hits.min(trials));
        let (lo, hi) = c.wilson_interval(1.96);
        let p = c.estimate();
        prop_assert!(lo <= p + 1e-12 && p <= hi + 1e-12);
    }

    #[test]
    fn linear_fit_is_exact_on_lines(
        slope in -50.0f64..50.0,
        intercept in -50.0f64..50.0,
        n in 3usize..40,
    ) {
        let xs: Vec<f64> = (0..n).map(|i| i as f64 * 0.37).collect();
        let ys: Vec<f64> = xs.iter().map(|&x| slope * x + intercept).collect();
        let line = linear_fit(&xs, &ys).unwrap();
        prop_assert!((line.slope - slope).abs() < 1e-7);
        prop_assert!((line.intercept - intercept).abs() < 1e-6);
    }

    #[test]
    fn power_law_fit_recovers_synthetic(
        a in 0.5f64..20.0,
        k in 2.0f64..9.0,
        v0 in 0.4f64..0.9,
    ) {
        let vs: Vec<f64> = (0..25).map(|i| v0 - 0.25 + i as f64 * 0.009).collect();
        let ps: Vec<f64> = vs.iter().map(|&v| a * (v0 - v).powf(k)).collect();
        let fit = fit_power_law(&vs, &ps, (v0 - 0.003, v0 + 0.12)).unwrap();
        prop_assert!((fit.v0 - v0).abs() < 0.01, "v0 {} vs {v0}", fit.v0);
        prop_assert!((fit.exponent - k).abs() < 0.25, "k {} vs {k}", fit.exponent);
    }

    #[test]
    fn sweeps_are_sorted_and_bounded(lo in 0.01f64..1.0, span in 0.01f64..2.0, n in 2usize..50) {
        let hi = lo + span;
        for grid in [linspace(lo, hi, n), logspace(lo, hi, n)] {
            prop_assert_eq!(grid.len(), n);
            prop_assert!(grid.windows(2).all(|w| w[0] < w[1]));
            prop_assert!(grid[0] >= lo - 1e-12 && *grid.last().unwrap() <= hi + 1e-12);
        }
    }

    #[test]
    fn binomial_within_support(n in 0u64..10_000, p in 0.0f64..=1.0, seed: u64) {
        let k = Source::seeded(seed).binomial(n, p);
        prop_assert!(k <= n);
    }

    #[test]
    fn forked_streams_are_decorrelated(seed: u64) {
        let mut parent = Source::seeded(seed);
        let mut a = parent.fork(1);
        let mut b = parent.fork(2);
        let same = (0..16).filter(|_| a.uniform() == b.uniform()).count();
        prop_assert!(same < 2);
    }

    #[test]
    fn counter_streams_are_pure_and_decorrelated(seed: u64, index in 0u64..1_000_000) {
        let mut a = Source::stream(seed, index);
        let mut b = Source::stream(seed, index);
        for _ in 0..8 {
            prop_assert_eq!(a.uniform().to_bits(), b.uniform().to_bits());
        }
        let mut c = Source::stream(seed, index.wrapping_add(1));
        let same = (0..16).filter(|_| a.uniform() == c.uniform()).count();
        prop_assert!(same < 2);
    }

    #[test]
    fn par_map_equals_serial_at_any_thread_count(
        seed: u64,
        n in 0usize..200,
        threads in 1usize..9,
    ) {
        let serial: Vec<u64> = (0..n)
            .map(|i| Source::stream(seed, i as u64).below(1_000_000))
            .collect();
        let par = par_map_with_threads(n, threads, |i| {
            Source::stream(seed, i as u64).below(1_000_000)
        });
        prop_assert_eq!(par, serial, "threads = {}", threads);
    }

    #[test]
    fn mc_reductions_are_thread_count_invariant(seed: u64, trials in 1u64..5_000) {
        // mc_moments / mc_counter shard over a fixed count and merge in
        // shard order, so the result is a pure function of (trials, seed):
        // repeated runs (each fanned over whatever threads the host has)
        // must agree bit for bit.
        let m1 = mc_moments(trials, seed, |s| s.standard_normal());
        let m2 = mc_moments(trials, seed, |s| s.standard_normal());
        prop_assert_eq!(m1.count(), trials);
        prop_assert_eq!(m1.mean().to_bits(), m2.mean().to_bits());
        prop_assert_eq!(m1.variance().to_bits(), m2.variance().to_bits());

        let c1 = mc_counter(trials, seed, |s| s.bernoulli(0.1));
        let c2 = mc_counter(trials, seed, |s| s.bernoulli(0.1));
        prop_assert_eq!(c1.trials(), trials);
        prop_assert_eq!(c1.hits(), c2.hits());
    }

    #[test]
    fn moments_merge_three_way_associative(
        xs in prop::collection::vec(-50.0f64..50.0, 3..40),
        cut_a in 1usize..20,
        cut_b in 1usize..20,
    ) {
        // ((A ∪ B) ∪ C) and (A ∪ (B ∪ C)) must agree to float tolerance,
        // and counts exactly — the associativity the shard reduction needs.
        let a_end = cut_a.min(xs.len() - 2);
        let b_end = (a_end + cut_b).min(xs.len() - 1);
        let parts: [Moments; 3] = [
            xs[..a_end].iter().copied().collect(),
            xs[a_end..b_end].iter().copied().collect(),
            xs[b_end..].iter().copied().collect(),
        ];
        let mut left = parts[0];
        left.merge(&parts[1]);
        left.merge(&parts[2]);
        let mut bc = parts[1];
        bc.merge(&parts[2]);
        let mut right = parts[0];
        right.merge(&bc);
        prop_assert_eq!(left.count(), right.count());
        prop_assert_eq!(left.count(), xs.len() as u64);
        prop_assert!((left.mean() - right.mean()).abs() < 1e-9);
        prop_assert!((left.variance() - right.variance()).abs() < 1e-7);
        prop_assert_eq!(left.min().to_bits(), right.min().to_bits());
        prop_assert_eq!(left.max().to_bits(), right.max().to_bits());
    }

    #[test]
    fn erf_erfc_blocks_are_bit_identical_to_scalar(
        wide in prop::collection::vec(-30.0f64..30.0, 1..200),
        near in prop::collection::vec(-0.6f64..0.6, 1..60), // dense around ±0.5
    ) {
        let mut xs = wide;
        xs.extend(near);
        xs.extend(ERF_SPECIALS);
        let mut out = vec![0.0f64; xs.len()];
        erf_block(&xs, &mut out);
        for (&x, &got) in xs.iter().zip(&out) {
            prop_assert_eq!(got.to_bits(), erf(x).to_bits(), "erf_block({})", x);
        }
        erfc_block(&xs, &mut out);
        for (&x, &got) in xs.iter().zip(&out) {
            prop_assert_eq!(got.to_bits(), erfc(x).to_bits(), "erfc_block({})", x);
        }
        phi_block(&xs, &mut out);
        for (&x, &got) in xs.iter().zip(&out) {
            prop_assert_eq!(got.to_bits(), phi(x).to_bits(), "phi_block({})", x);
        }
    }

    #[test]
    fn block_fills_reproduce_the_scalar_stream_at_any_chunking(
        seed: u64,
        cuts in prop::collection::vec(1usize..80, 1..8),
    ) {
        let n: usize = cuts.iter().sum();
        let mut scalar = Source::seeded(seed);
        let uniforms: Vec<u64> = (0..n).map(|_| scalar.uniform().to_bits()).collect();
        let normals: Vec<u64> = (0..n).map(|_| scalar.standard_normal().to_bits()).collect();

        let mut chunked = Source::seeded(seed);
        let mut buf = vec![0.0f64; n];
        let mut at = 0;
        for &len in &cuts {
            chunked.fill_uniform(&mut buf[at..at + len]);
            at += len;
        }
        prop_assert_eq!(buf.iter().map(|x| x.to_bits()).collect::<Vec<_>>(), uniforms);
        let mut at = 0;
        for &len in &cuts {
            chunked.fill_standard_normal(&mut buf[at..at + len]);
            at += len;
        }
        prop_assert_eq!(buf.iter().map(|x| x.to_bits()).collect::<Vec<_>>(), normals);
    }

    #[test]
    fn batched_uniform_counts_match_scalar_at_any_block_size(
        seed: u64,
        trials in 1u64..3000,
        p in 0.0f64..=1.0,
        block in 1usize..2100,
    ) {
        let mut scalar_src = Source::seeded(seed);
        let scalar = (0..trials).filter(|_| scalar_src.uniform() < p).count() as u64;
        let mut batch_src = Source::seeded(seed);
        let batch = count_uniform_below_with_block(&mut batch_src, trials, p, block);
        prop_assert_eq!(batch, scalar, "block = {}", block);
        // Both consumed exactly `trials` draws.
        prop_assert_eq!(
            batch_src.uniform().to_bits(),
            scalar_src.uniform().to_bits()
        );
    }

    #[test]
    fn batched_normal_counts_match_scalar_at_any_block_size(
        seed: u64,
        trials in 1u64..2000,
        thr in -2.0f64..2.0,
        block in 1usize..1100,
    ) {
        let (mean, sigma) = (0.2, 0.5);
        let mut scalar_src = Source::seeded(seed);
        let scalar =
            (0..trials).filter(|_| scalar_src.normal(mean, sigma) > thr).count() as u64;
        let mut batch_src = Source::seeded(seed);
        let batch =
            count_normal_above_with_block(&mut batch_src, trials, mean, sigma, thr, block);
        prop_assert_eq!(batch, scalar, "block = {}", block);
    }

    #[test]
    fn batched_mc_equals_scalar_mc_at_any_thread_count(
        seed: u64,
        trials in 1u64..20_000,
        p in 0.0f64..0.2,
        threads in 1usize..9,
    ) {
        // The sharded batch kernel must agree with the scalar closure
        // path (same streams) AND with an explicitly thread-pinned
        // replay of its own shard layout.
        let batched = mc_rate(trials, seed, p);
        let scalar = mc_counter(trials, seed, |s| s.uniform() < p);
        prop_assert_eq!(batched, scalar);

        let shards = MC_SHARDS.min(trials as usize);
        let parts = par_map_with_threads(shards, threads, |i| {
            let (lo, hi) = shard_bounds(trials, shards, i);
            let mut src = Source::stream(seed, i as u64);
            let mut c = TrialCounter::new();
            c.record_batch(
                hi - lo,
                count_uniform_below_with_block(&mut src, hi - lo, p, 1024),
            );
            c
        });
        let mut folded = TrialCounter::new();
        for c in &parts {
            folded.merge(c);
        }
        prop_assert_eq!(folded, batched, "threads = {}", threads);
    }

    #[test]
    fn lane_kernel_counts_are_partition_invariant(
        key: u64,
        hi in 1u64..40_000,
        cut_frac in 0.0f64..1.0,
        p in 0.0f64..0.3,
    ) {
        let cut = (hi as f64 * cut_frac) as u64;
        let whole = count_lane_below(key, 0, hi, p);
        let split = count_lane_below(key, 0, cut, p) + count_lane_below(key, cut, hi, p);
        prop_assert_eq!(whole, split);
    }

    #[test]
    fn tilted_estimator_is_thread_invariant_and_folds_exactly(
        seed: u64,
        trials in 64u64..5_000,
        threads in 1usize..9,
    ) {
        let t = 7.0;
        let merged = gauss_tail(trials, seed, t);
        // Thread-pinned replay of the same shard layout.
        let shards = MC_SHARDS.min(trials as usize);
        let parts = par_map_with_threads(shards, threads, |i| {
            let (lo, hi) = shard_bounds(trials, shards, i);
            let key = stream_key(seed, i as u64);
            let mut acc = TiltedCounter::new();
            for lane in 0..hi - lo {
                let u = lane_uniform(key, lane);
                if u > 0.5 {
                    acc.record_hit((-0.5 * t * t - t * inv_phi(u)).exp());
                } else {
                    acc.record_miss();
                }
            }
            acc
        });
        let mut folded = TiltedCounter::new();
        for c in &parts {
            folded.merge(c);
        }
        prop_assert_eq!(folded.trials(), merged.trials());
        prop_assert_eq!(folded.hits(), merged.hits());
        prop_assert_eq!(
            folded.weight_sum().to_bits(),
            merged.weight_sum().to_bits(),
            "threads = {}",
            threads
        );
        // And the shard vector folds to the merged result bit-for-bit.
        let mut refold = TiltedCounter::new();
        for c in gauss_tail_shards(trials, seed, t) {
            refold.merge(&c);
        }
        prop_assert_eq!(refold.weight_sum().to_bits(), merged.weight_sum().to_bits());
    }

    #[test]
    fn counter_merge_exactly_associative(
        hits in prop::collection::vec(0u32..100, 3..12),
    ) {
        // Integer-count accumulators merge exactly, in any grouping.
        let counters: Vec<TrialCounter> = hits
            .iter()
            .map(|&h| {
                let mut c = TrialCounter::new();
                c.record_batch(100, u64::from(h));
                c
            })
            .collect();
        let mut fold_left = counters[0];
        for c in &counters[1..] {
            fold_left.merge(c);
        }
        let mut tail = counters[counters.len() - 1];
        for c in counters[1..counters.len() - 1].iter().rev() {
            let mut acc = *c;
            acc.merge(&tail);
            tail = acc;
        }
        let mut fold_right = counters[0];
        fold_right.merge(&tail);
        prop_assert_eq!(fold_left.trials(), fold_right.trials());
        prop_assert_eq!(fold_left.hits(), fold_right.hits());
    }
}

// Checkpoint-layer properties: the stable byte forms used by
// `ntc_stats::ckpt` must round-trip every accumulator bit-exactly
// (restored shards merge identically to computed ones), and the
// envelope must reject any corruption rather than restore a wrong
// accumulator.
proptest! {
    #[test]
    fn moments_persist_roundtrip_is_bit_exact(
        xs in prop::collection::vec(-1e6f64..1e6, 1..200),
    ) {
        let m: Moments = xs.iter().copied().collect();
        let bytes = m.persist_bytes();
        let back = Moments::restore(&bytes).expect("restores");
        prop_assert_eq!(back.persist_bytes(), bytes, "persist∘restore is identity");
        prop_assert_eq!(back.count(), m.count());
        prop_assert_eq!(back.mean().to_bits(), m.mean().to_bits());
        prop_assert_eq!(back.variance().to_bits(), m.variance().to_bits());
        prop_assert_eq!(back.min().to_bits(), m.min().to_bits());
        prop_assert_eq!(back.max().to_bits(), m.max().to_bits());
        // A restored accumulator merges exactly like the original: the
        // property that makes resumed sweeps byte-identical.
        let other: Moments = xs.iter().map(|x| -x).collect();
        let mut merged_orig = m;
        merged_orig.merge(&other);
        let mut merged_back = back;
        merged_back.merge(&other);
        prop_assert_eq!(merged_back.persist_bytes(), merged_orig.persist_bytes());
    }

    #[test]
    fn trial_counter_persist_roundtrip_and_validation(
        trials in 0u64..u64::MAX / 2,
        frac in 0.0f64..=1.0,
    ) {
        let hits = (trials as f64 * frac) as u64;
        let mut c = TrialCounter::new();
        c.record_batch(trials, hits.min(trials));
        let bytes = c.persist_bytes();
        let back = TrialCounter::restore(&bytes).expect("restores");
        prop_assert_eq!(back, c);
        // hits > trials cannot come from a real counter; restore must
        // refuse rather than manufacture an impossible state.
        let mut bad = Vec::new();
        put_u64(&mut bad, trials);
        put_u64(&mut bad, trials + 1);
        prop_assert_eq!(TrialCounter::restore(&bad), None);
    }

    #[test]
    fn tilted_counter_persist_roundtrip_is_bit_exact(
        ws in prop::collection::vec(1e-30f64..10.0, 0..60),
        misses in 0u64..1000,
    ) {
        let mut t = TiltedCounter::new();
        for w in ws {
            t.record_hit(w);
        }
        for _ in 0..misses.min(50) {
            t.record_miss();
        }
        let bytes = t.persist_bytes();
        let back = TiltedCounter::restore(&bytes).expect("restores");
        prop_assert_eq!(back.persist_bytes(), bytes);
        prop_assert_eq!(back.trials(), t.trials());
        prop_assert_eq!(back.hits(), t.hits());
        prop_assert_eq!(back.weight_sum().to_bits(), t.weight_sum().to_bits());
    }

    #[test]
    fn checkpoint_envelope_rejects_any_single_byte_flip_or_truncation(
        shard in 0u32..64,
        seed: u64,
        lo in 0u64..1_000_000,
        len in 0u64..1_000_000,
        payload in prop::collection::vec(any::<u8>(), 0..80),
        flip_at: usize,
        flip_bit in 0u8..8,
        cut: usize,
    ) {
        let ck = ShardCheckpoint {
            shard,
            seed,
            lo,
            hi: lo + len,
            tag: "trials".to_string(),
            payload,
        };
        let good = ck.encode();
        let decoded = ShardCheckpoint::decode(&good);
        prop_assert_eq!(decoded.as_ref(), Some(&ck));
        // Any single-bit flip anywhere in the envelope (identity fields,
        // payload, or the integrity trailer itself) must fail to decode.
        let mut flipped = good.clone();
        let at = flip_at % flipped.len();
        flipped[at] ^= 1 << flip_bit;
        prop_assert_eq!(ShardCheckpoint::decode(&flipped), None, "flip at {}", at);
        // Any truncation must fail too (a torn write can shorten a file
        // but the atomic-rename publication protocol never extends one).
        let keep = cut % good.len();
        prop_assert_eq!(ShardCheckpoint::decode(&good[..keep]), None, "cut to {}", keep);
    }

    #[test]
    fn shard_bounds_with_fewer_trials_than_shards(
        trials in 0u64..100,
        shards in 1usize..200,
    ) {
        // Degenerate layouts (fewer trials than shards) must still
        // partition [0, trials) exactly: the first `trials` shards get
        // one trial each, the tail shards are empty — and checkpointing
        // persists the empty shards too, so replay sees every shard.
        let mut expected_lo = 0u64;
        for i in 0..shards {
            let (lo, hi) = shard_bounds(trials, shards, i);
            prop_assert_eq!(lo, expected_lo, "contiguous at shard {}", i);
            prop_assert!(hi >= lo);
            prop_assert!(hi - lo <= trials.div_ceil(shards as u64).max(1));
            if trials < shards as u64 {
                prop_assert_eq!(hi - lo, u64::from((i as u64) < trials));
            }
            expected_lo = hi;
        }
        prop_assert_eq!(expected_lo, trials, "partition covers every trial");
    }
}
