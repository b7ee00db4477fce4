//! Property tests for the coding layer, across every supported geometry.

use ntc_ecc::interleave::{InterleavedCode, InterleavedOutcome};
use ntc_ecc::secded::{DecodeOutcome, Secded};
use proptest::prelude::*;

fn mask_for(width: u32, data: u64) -> u64 {
    if width == 64 {
        data
    } else {
        data & ((1u64 << width) - 1)
    }
}

proptest! {
    /// Clean round trip for every supported width and random data.
    #[test]
    fn secded_round_trip(width in prop::sample::select(vec![8u32, 16, 32, 64]), data: u64) {
        let code = Secded::new(width).unwrap();
        let data = mask_for(width, data);
        prop_assert_eq!(code.decode(code.encode(data)), DecodeOutcome::Clean { data });
    }

    /// Every single flip is corrected back to the original word, on every
    /// geometry.
    #[test]
    fn secded_single_correction(
        width in prop::sample::select(vec![8u32, 16, 32, 64]),
        data: u64,
        bit_sel: u32,
    ) {
        let code = Secded::new(width).unwrap();
        let data = mask_for(width, data);
        let bit = bit_sel % code.codeword_bits();
        let out = code.decode(code.encode(data) ^ (1u128 << bit));
        prop_assert_eq!(out.data(), Some(data));
    }

    /// Every double flip is flagged, never miscorrected, on every geometry.
    #[test]
    fn secded_double_detection(
        width in prop::sample::select(vec![8u32, 16, 32, 64]),
        data: u64,
        a_sel: u32,
        b_sel: u32,
    ) {
        let code = Secded::new(width).unwrap();
        let data = mask_for(width, data);
        let n = code.codeword_bits();
        let a = a_sel % n;
        let b = b_sel % n;
        prop_assume!(a != b);
        let out = code.decode(code.encode(data) ^ (1u128 << a) ^ (1u128 << b));
        prop_assert!(out.is_detected_failure());
    }

    /// The syndrome is linear: syndrome(cw ^ e) = syndrome(cw) ^ syndrome(e).
    #[test]
    fn secded_syndrome_linearity(data: u64, error_bits: u64) {
        let code = Secded::new(32).unwrap();
        let cw = code.encode(data as u32 as u64);
        let e = (error_bits as u128) & ((1u128 << 39) - 1);
        let lhs = code.syndrome(cw ^ e);
        let rhs = code.syndrome(cw) ^ code.syndrome(e);
        prop_assert_eq!(lhs, rhs);
    }

    /// Interleaved code: any error pattern touching at most one bit per
    /// lane is fully corrected.
    #[test]
    fn interleaved_one_per_lane_corrected(
        data: u32,
        depths in prop::collection::vec(0u32..13, 4),
        hit_mask in 0u8..16,
    ) {
        let code = InterleavedCode::new(32, 4).unwrap();
        let stored = code.encode(data as u64);
        let mut corrupted = stored;
        for (lane, &depth) in depths.iter().enumerate() {
            if hit_mask & (1 << lane) != 0 {
                corrupted ^= 1u128 << (depth * 4 + lane as u32);
            }
        }
        let out = code.decode(corrupted);
        prop_assert_eq!(out.data(), Some(data as u64));
    }

    /// Two hits in the same lane always fail (never silent).
    #[test]
    fn interleaved_same_lane_double_fails(
        data: u32,
        lane in 0u32..4,
        d1 in 0u32..13,
        d2 in 0u32..13,
    ) {
        prop_assume!(d1 != d2);
        let code = InterleavedCode::new(32, 4).unwrap();
        let stored = code.encode(data as u64);
        let corrupted = stored ^ (1u128 << (d1 * 4 + lane)) ^ (1u128 << (d2 * 4 + lane));
        prop_assert_eq!(code.decode(corrupted), InterleavedOutcome::Failed);
    }
}
