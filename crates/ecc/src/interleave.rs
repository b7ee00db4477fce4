//! Bit-interleaved SECDED: the quadruple-error-correcting protected buffer
//! used by OCEAN for its checkpoints.
//!
//! A word is split across `N` independent SECDED lanes by bit interleaving
//! (bit `i` of the word goes to lane `i mod N`). Each lane corrects one
//! error, so the composite corrects
//!
//! * any **burst** of up to `N` physically adjacent bit flips (they land in
//!   distinct lanes by construction), and
//! * up to `N` **random** flips when no two land in the same lane.
//!
//! With `N = 4` over a 32-bit word this is the paper's "error-protected
//! buffer, with quadruple error correction capability, such that …
//! a quintuple (5 bits) error is needed for system failure".

use crate::secded::{DecodeOutcome, Secded};
use std::fmt;

/// Error returned when an interleaved code cannot be constructed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InterleaveError {
    what: &'static str,
}

impl fmt::Display for InterleaveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cannot construct interleaved code: {}", self.what)
    }
}

impl std::error::Error for InterleaveError {}

/// Result of decoding an interleaved codeword.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InterleavedOutcome {
    /// All lanes clean.
    Clean {
        /// The decoded data word.
        data: u64,
    },
    /// One or more lanes corrected a single error each.
    Corrected {
        /// The corrected data word.
        data: u64,
        /// Number of bit errors repaired across lanes.
        repaired: u32,
    },
    /// At least one lane saw an uncorrectable (≥2 errors in that lane)
    /// pattern; the word is lost.
    Failed,
}

impl InterleavedOutcome {
    /// The usable data word, if any.
    pub fn data(&self) -> Option<u64> {
        match self {
            InterleavedOutcome::Clean { data } => Some(*data),
            InterleavedOutcome::Corrected { data, .. } => Some(*data),
            InterleavedOutcome::Failed => None,
        }
    }
}

/// An `N`-way bit-interleaved SECDED code over a data word.
///
/// # Example
///
/// ```
/// use ntc_ecc::InterleavedCode;
///
/// # fn main() -> Result<(), ntc_ecc::interleave::InterleaveError> {
/// // The OCEAN protected-buffer code: 32-bit words, 4 lanes of (13,8).
/// let code = InterleavedCode::new(32, 4)?;
/// assert_eq!(code.correctable_random_errors(), 4);
///
/// let stored = code.encode(0x1234_5678);
/// // A 4-bit burst at the word's physical LSBs is repaired in full.
/// let hit = stored ^ 0b1111;
/// assert_eq!(code.decode(hit).data(), Some(0x1234_5678));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InterleavedCode {
    data_bits: u32,
    lanes: u32,
    lane_code: Secded,
}

impl InterleavedCode {
    /// Creates an `lanes`-way interleaved code over `data_bits`-bit words.
    ///
    /// # Errors
    ///
    /// Returns [`InterleaveError`] if `lanes` is zero, does not divide
    /// `data_bits`, or the per-lane width is unsupported.
    pub fn new(data_bits: u32, lanes: u32) -> Result<Self, InterleaveError> {
        if lanes == 0 {
            return Err(InterleaveError {
                what: "need at least one lane",
            });
        }
        if data_bits == 0 || !data_bits.is_multiple_of(lanes) {
            return Err(InterleaveError {
                what: "lane count must divide the data width",
            });
        }
        let lane_width = data_bits / lanes;
        let lane_code = Secded::new(lane_width).map_err(|_| InterleaveError {
            what: "per-lane width unsupported",
        })?;
        Ok(Self {
            data_bits,
            lanes,
            lane_code,
        })
    }

    /// Number of interleaved lanes.
    pub(crate) fn lanes(&self) -> u32 {
        self.lanes
    }

    /// The per-lane SECDED code.
    pub(crate) fn lane_code(&self) -> &Secded {
        &self.lane_code
    }

    /// Total stored bits per word (all lanes' codewords).
    pub fn codeword_bits(&self) -> u32 {
        self.lanes * self.lane_code.codeword_bits()
    }

    /// Maximum number of random bit errors guaranteed correctable when they
    /// fall in distinct lanes — and the statistic the FIT solver uses for
    /// OCEAN (`lanes` errors correctable, `lanes + 1` ⇒ possible failure).
    pub fn correctable_random_errors(&self) -> u32 {
        self.lanes
    }

    /// Storage overhead ratio: stored bits / data bits.
    pub(crate) fn overhead(&self) -> f64 {
        self.codeword_bits() as f64 / self.data_bits as f64
    }

    /// Encodes a data word into the interleaved stored word.
    ///
    /// Layout: lane codewords are themselves bit-interleaved in storage, so
    /// physically adjacent stored bits belong to different lanes — that is
    /// what turns burst errors into one-per-lane errors.
    ///
    /// # Panics
    ///
    /// Panics if `data` has bits set above the data width.
    pub fn encode(&self, data: u64) -> u128 {
        assert!(
            self.data_bits == 64 || data < (1u64 << self.data_bits),
            "data word wider than {} bits",
            self.data_bits
        );
        let mut stored = 0u128;
        for lane in 0..self.lanes {
            let lane_data = self.extract_lane(data, lane);
            let cw = self.lane_code.encode(lane_data);
            // Spread this lane's codeword bits at stride `lanes`.
            for b in 0..self.lane_code.codeword_bits() {
                if cw >> b & 1 == 1 {
                    stored |= 1u128 << (b * self.lanes + lane);
                }
            }
        }
        stored
    }

    /// Decodes a stored word, correcting up to one error per lane.
    pub fn decode(&self, stored: u128) -> InterleavedOutcome {
        let mut data = 0u64;
        let mut repaired = 0u32;
        for lane in 0..self.lanes {
            let mut cw = 0u128;
            for b in 0..self.lane_code.codeword_bits() {
                if stored >> (b * self.lanes + lane) & 1 == 1 {
                    cw |= 1u128 << b;
                }
            }
            match self.lane_code.decode(cw) {
                DecodeOutcome::Clean { data: d } => {
                    data |= self.deposit_lane(d, lane);
                }
                DecodeOutcome::Corrected { data: d, .. } => {
                    repaired += 1;
                    data |= self.deposit_lane(d, lane);
                }
                DecodeOutcome::DoubleDetected | DecodeOutcome::UncorrectableDetected => {
                    return InterleavedOutcome::Failed;
                }
            }
        }
        if repaired == 0 {
            InterleavedOutcome::Clean { data }
        } else {
            InterleavedOutcome::Corrected { data, repaired }
        }
    }

    /// Extracts the data bits of `lane` (bit `i` of the word belongs to
    /// lane `i mod lanes`).
    fn extract_lane(&self, data: u64, lane: u32) -> u64 {
        let mut out = 0u64;
        let lane_width = self.data_bits / self.lanes;
        for j in 0..lane_width {
            let src = j * self.lanes + lane;
            if data >> src & 1 == 1 {
                out |= 1 << j;
            }
        }
        out
    }

    /// Inverse of [`extract_lane`](Self::extract_lane).
    fn deposit_lane(&self, lane_data: u64, lane: u32) -> u64 {
        let mut out = 0u64;
        let lane_width = self.data_bits / self.lanes;
        for j in 0..lane_width {
            if lane_data >> j & 1 == 1 {
                out |= 1 << (j * self.lanes + lane);
            }
        }
        out
    }
}

impl fmt::Display for InterleavedCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}-way interleaved {} over {} data bits",
            self.lanes, self.lane_code, self.data_bits
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ocean_code() -> InterleavedCode {
        InterleavedCode::new(32, 4).unwrap()
    }

    #[test]
    fn geometry() {
        let c = ocean_code();
        assert_eq!(c.codeword_bits(), 4 * 13);
        assert_eq!(c.correctable_random_errors(), 4);
        assert!((c.overhead() - 52.0 / 32.0).abs() < 1e-12);
    }

    #[test]
    fn construction_validation() {
        assert!(InterleavedCode::new(32, 0).is_err());
        assert!(InterleavedCode::new(32, 5).is_err(), "5 does not divide 32");
        assert!(InterleavedCode::new(0, 4).is_err());
        assert!(InterleavedCode::new(32, 1).is_ok(), "degenerate = plain SECDED");
    }

    #[test]
    fn clean_round_trip() {
        let c = ocean_code();
        for data in [0u64, 0xFFFF_FFFF, 0xDEAD_BEEF, 0x0000_0001, 0x8000_0000] {
            let stored = c.encode(data);
            assert_eq!(c.decode(stored), InterleavedOutcome::Clean { data });
        }
    }

    #[test]
    fn any_burst_up_to_four_adjacent_bits_corrected() {
        let c = ocean_code();
        let data = 0x1357_9BDFu64;
        let stored = c.encode(data);
        let n = c.codeword_bits();
        for len in 1..=4u32 {
            for start in 0..=(n - len) {
                let mask = ((1u128 << len) - 1) << start;
                let out = c.decode(stored ^ mask);
                assert_eq!(
                    out.data(),
                    Some(data),
                    "burst len {len} at {start} must be repaired"
                );
            }
        }
    }

    #[test]
    fn five_bit_burst_fails() {
        let c = ocean_code();
        let stored = c.encode(0xABCD_EF01);
        // A 5-bit burst puts two errors in one lane → detected failure.
        let out = c.decode(stored ^ 0b11111);
        assert_eq!(out, InterleavedOutcome::Failed);
    }

    #[test]
    fn four_random_errors_in_distinct_lanes_corrected() {
        let c = ocean_code();
        let data = 0x0F1E_2D3Cu64;
        let stored = c.encode(data);
        // One error in each lane at different codeword depths.
        // One hit per lane: stored-bit positions lane + 4·depth.
        let corrupted = stored ^ 1u128 ^ (1u128 << 13) ^ (1u128 << 30) ^ (1u128 << 51);
        let out = c.decode(corrupted);
        assert_eq!(out.data(), Some(data));
        if let InterleavedOutcome::Corrected { repaired, .. } = out {
            assert_eq!(repaired, 4);
        } else {
            panic!("expected corrected outcome, got {out:?}");
        }
    }

    #[test]
    fn two_errors_same_lane_fail() {
        let c = ocean_code();
        let stored = c.encode(0x1111_2222);
        // Two errors in lane 0 (positions ≡ 0 mod 4).
        let out = c.decode(stored ^ (1u128 << 0) ^ (1u128 << 8));
        assert_eq!(out, InterleavedOutcome::Failed);
    }

    #[test]
    fn exhaustive_single_errors() {
        let c = ocean_code();
        let data = 0xC0FF_EE00u64;
        let stored = c.encode(data);
        for bit in 0..c.codeword_bits() {
            let out = c.decode(stored ^ (1u128 << bit));
            assert_eq!(out.data(), Some(data), "bit {bit}");
        }
    }

    #[test]
    fn lane_extract_deposit_inverse() {
        let c = ocean_code();
        let data = 0x9E37_79B9u64;
        let mut rebuilt = 0u64;
        for lane in 0..4 {
            rebuilt |= c.deposit_lane(c.extract_lane(data, lane), lane);
        }
        assert_eq!(rebuilt, data);
    }

    #[test]
    fn display_nonempty() {
        assert!(!ocean_code().to_string().is_empty());
        assert!(!InterleaveError { what: "x" }.to_string().is_empty());
    }
}
