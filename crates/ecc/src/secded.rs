//! Bit-exact SECDED (single-error-correct, double-error-detect) codes with
//! odd-weight columns (Hsiao construction).
//!
//! A Hsiao code's parity-check matrix `H = [D | I]` uses only odd-weight
//! columns: the `r` check positions take the weight-1 columns and the data
//! positions take distinct weight-3 (then weight-5, …) columns. Odd columns
//! make the decode rule simple and fast:
//!
//! * syndrome zero → clean word;
//! * syndrome with **odd** weight matching a column → single error at that
//!   position, flip it;
//! * syndrome with **even** weight → double error, detected but not
//!   correctable;
//! * odd-weight syndrome matching no column → three or more errors
//!   detected.
//!
//! The paper's memory word is 32 bits, giving the classic (39,32) code;
//! the same constructor also produces (13,8), (22,16) and (72,64).

use std::fmt;

/// Error returned when a code cannot be constructed for a data width.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodeError {
    what: &'static str,
}

impl fmt::Display for CodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cannot construct code: {}", self.what)
    }
}

impl std::error::Error for CodeError {}

/// Result of decoding a possibly corrupted codeword.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeOutcome {
    /// Syndrome was zero: the stored word is clean.
    Clean {
        /// The decoded data word.
        data: u64,
    },
    /// A single bit error was located and corrected.
    Corrected {
        /// The corrected data word.
        data: u64,
        /// Codeword bit position that was flipped back.
        bit: u32,
    },
    /// A double bit error was detected; no data can be returned.
    DoubleDetected,
    /// Three or more errors produced an odd syndrome matching no column;
    /// detected as uncorrectable.
    UncorrectableDetected,
}

impl DecodeOutcome {
    /// The usable data word, if the outcome carries one.
    pub fn data(&self) -> Option<u64> {
        match self {
            DecodeOutcome::Clean { data } | DecodeOutcome::Corrected { data, .. } => Some(*data),
            _ => None,
        }
    }

    /// Whether the decoder flagged the word as unusable.
    pub fn is_detected_failure(&self) -> bool {
        matches!(
            self,
            DecodeOutcome::DoubleDetected | DecodeOutcome::UncorrectableDetected
        )
    }
}

/// A Hsiao SECDED code for a given data width.
///
/// Codewords are laid out as `[data bits 0..m | check bits m..m+r]` inside
/// a `u128`.
///
/// # Example
///
/// ```
/// use ntc_ecc::Secded;
///
/// # fn main() -> Result<(), ntc_ecc::secded::CodeError> {
/// let code = Secded::new(8)?; // (13,8) — used per lane in OCEAN's buffer
/// assert_eq!(code.codeword_bits(), 13);
/// let cw = code.encode(0xA5);
/// assert_eq!(code.decode(cw).data(), Some(0xA5));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Secded {
    data_bits: u32,
    check_bits: u32,
    /// Syndrome pattern of each data column (index = data bit position).
    columns: Vec<u32>,
}

impl Secded {
    /// Constructs the Hsiao code for `data_bits` data bits (1 ..= 64).
    ///
    /// The number of check bits is the smallest `r` for which enough
    /// distinct odd-weight-≥3 columns exist: 5 for 8 data bits, 6 for 16,
    /// 7 for 32, 8 for 64.
    ///
    /// # Errors
    ///
    /// Returns [`CodeError`] if `data_bits` is zero or above 64.
    pub fn new(data_bits: u32) -> Result<Self, CodeError> {
        if data_bits == 0 {
            return Err(CodeError {
                what: "data width must be nonzero",
            });
        }
        if data_bits > 64 {
            return Err(CodeError {
                what: "data width above 64 bits is not supported",
            });
        }
        // Find the smallest r with enough odd-weight-≥3 columns.
        let mut r = 3u32;
        loop {
            let capacity = count_odd_ge3_columns(r);
            if capacity >= data_bits as u64 {
                break;
            }
            r += 1;
        }
        // Enumerate odd-weight columns, lowest weight first, then by value —
        // the Hsiao heuristic that also minimizes total XOR count.
        let mut columns = Vec::with_capacity(data_bits as usize);
        'outer: for weight in (3..=r).step_by(2) {
            for v in 1u32..(1 << r) {
                if v.count_ones() == weight {
                    columns.push(v);
                    if columns.len() == data_bits as usize {
                        break 'outer;
                    }
                }
            }
        }
        debug_assert_eq!(columns.len(), data_bits as usize);
        Ok(Self {
            data_bits,
            check_bits: r,
            columns,
        })
    }

    /// Data width in bits.
    pub(crate) fn data_bits(&self) -> u32 {
        self.data_bits
    }

    /// Total codeword width (`data_bits + check_bits`).
    pub fn codeword_bits(&self) -> u32 {
        self.data_bits + self.check_bits
    }

    /// The syndrome column assigned to data bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= data_bits`.
    #[cfg(test)]
    pub(crate) fn column(&self, i: u32) -> u32 {
        self.columns[i as usize]
    }

    /// Encodes a data word into a codeword.
    ///
    /// # Panics
    ///
    /// Panics if `data` has bits set above the code's data width.
    pub fn encode(&self, data: u64) -> u128 {
        assert!(
            self.data_bits == 64 || data < (1u64 << self.data_bits),
            "data word wider than {} bits",
            self.data_bits
        );
        let mut checks = 0u32;
        let mut d = data;
        let mut i = 0usize;
        while d != 0 {
            let tz = d.trailing_zeros() as usize;
            i += tz;
            checks ^= self.columns[i];
            d >>= tz + 1;
            i += 1;
        }
        (data as u128) | ((checks as u128) << self.data_bits)
    }

    /// Computes the syndrome of a received codeword.
    pub fn syndrome(&self, codeword: u128) -> u32 {
        let data = (codeword & ((1u128 << self.data_bits) - 1)) as u64;
        let stored_checks = ((codeword >> self.data_bits)
            & ((1u128 << self.check_bits) - 1)) as u32;
        let mut s = stored_checks;
        let mut d = data;
        let mut i = 0usize;
        while d != 0 {
            let tz = d.trailing_zeros() as usize;
            i += tz;
            s ^= self.columns[i];
            d >>= tz + 1;
            i += 1;
        }
        s
    }

    /// Decodes a received codeword, correcting a single error if present.
    pub fn decode(&self, codeword: u128) -> DecodeOutcome {
        let s = self.syndrome(codeword);
        let data_mask = (1u128 << self.data_bits) - 1;
        if s == 0 {
            return DecodeOutcome::Clean {
                data: (codeword & data_mask) as u64,
            };
        }
        if s.count_ones().is_multiple_of(2) {
            return DecodeOutcome::DoubleDetected;
        }
        // Odd syndrome: single error either in a check bit (weight-1
        // syndrome) or a data bit (matching column).
        if s.count_ones() == 1 {
            let bit = self.data_bits + s.trailing_zeros();
            return DecodeOutcome::Corrected {
                data: (codeword & data_mask) as u64,
                bit,
            };
        }
        match self.columns.iter().position(|&c| c == s) {
            Some(i) => {
                let corrected = codeword ^ (1u128 << i);
                DecodeOutcome::Corrected {
                    data: (corrected & data_mask) as u64,
                    bit: i as u32,
                }
            }
            None => DecodeOutcome::UncorrectableDetected,
        }
    }

    /// Number of two-input XOR gates in the encoder: each check bit of
    /// fan-in `f` costs `f − 1` XORs.
    pub(crate) fn encoder_xor_count(&self) -> u32 {
        (0..self.check_bits)
            .map(|b| {
                let fanin = self
                    .columns
                    .iter()
                    .filter(|&&c| c & (1 << b) != 0)
                    .count() as u32;
                fanin.saturating_sub(1)
            })
            .sum()
    }

    /// Number of two-input XOR gates in the syndrome generator: the encoder
    /// tree plus one XOR per check bit to fold in the stored checks.
    pub(crate) fn syndrome_xor_count(&self) -> u32 {
        self.encoder_xor_count() + self.check_bits
    }
}

impl fmt::Display for Secded {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({},{}) Hsiao SECDED", self.codeword_bits(), self.data_bits)
    }
}

/// Number of odd-weight-≥3 columns available with `r` check bits.
fn count_odd_ge3_columns(r: u32) -> u64 {
    let mut total = 0u64;
    let mut w = 3u32;
    while w <= r {
        total += binomial(r as u64, w as u64);
        w += 2;
    }
    total
}

fn binomial(n: u64, k: u64) -> u64 {
    if k > n {
        return 0;
    }
    let k = k.min(n - k);
    let mut acc = 1u64;
    for i in 0..k {
        acc = acc * (n - i) / (i + 1);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classic_geometries() {
        for (m, n) in [(8u32, 13u32), (16, 22), (32, 39), (64, 72)] {
            let c = Secded::new(m).unwrap();
            assert_eq!(c.codeword_bits(), n, "({n},{m})");
        }
    }

    #[test]
    fn rejects_bad_widths() {
        assert!(Secded::new(0).is_err());
        assert!(Secded::new(65).is_err());
        assert!(!Secded::new(0).unwrap_err().to_string().is_empty());
    }

    #[test]
    fn columns_distinct_and_odd() {
        let c = Secded::new(32).unwrap();
        let mut cols: Vec<u32> = (0..32).map(|i| c.column(i)).collect();
        assert!(cols.iter().all(|v| v.count_ones() % 2 == 1));
        assert!(cols.iter().all(|v| v.count_ones() >= 3));
        cols.sort_unstable();
        cols.dedup();
        assert_eq!(cols.len(), 32, "columns must be distinct");
    }

    #[test]
    fn clean_round_trip() {
        let c = Secded::new(32).unwrap();
        for data in [0u64, 1, 0xFFFF_FFFF, 0xDEAD_BEEF, 0x8000_0001, 0x5555_5555] {
            let cw = c.encode(data);
            assert_eq!(c.decode(cw), DecodeOutcome::Clean { data });
        }
    }

    #[test]
    fn every_single_error_corrected_exhaustive() {
        let c = Secded::new(32).unwrap();
        for data in [0u64, 0xFFFF_FFFF, 0xA5A5_A5A5, 0x1234_5678] {
            let cw = c.encode(data);
            for bit in 0..c.codeword_bits() {
                let corrupted = cw ^ (1u128 << bit);
                let out = c.decode(corrupted);
                assert_eq!(out.data(), Some(data), "bit {bit} of {data:#x}");
                assert!(matches!(out, DecodeOutcome::Corrected { .. }));
                if let DecodeOutcome::Corrected { bit: b, .. } = out {
                    assert_eq!(b, bit);
                }
            }
        }
    }

    #[test]
    fn every_double_error_detected_exhaustive() {
        let c = Secded::new(32).unwrap();
        let data = 0xCAFE_F00Du64;
        let cw = c.encode(data);
        let n = c.codeword_bits();
        for i in 0..n {
            for j in (i + 1)..n {
                let corrupted = cw ^ (1u128 << i) ^ (1u128 << j);
                let out = c.decode(corrupted);
                assert_eq!(
                    out,
                    DecodeOutcome::DoubleDetected,
                    "bits {i},{j} must be flagged"
                );
            }
        }
    }

    #[test]
    fn double_errors_detected_on_small_code_all_data() {
        // Exhaustive over data space for the (13,8) lane code.
        let c = Secded::new(8).unwrap();
        for data in 0u64..256 {
            let cw = c.encode(data);
            for i in 0..13 {
                for j in (i + 1)..13 {
                    let out = c.decode(cw ^ (1u128 << i) ^ (1u128 << j));
                    assert!(out.is_detected_failure());
                }
            }
        }
    }

    #[test]
    fn triple_errors_never_silently_accepted_as_clean() {
        // A triple error can alias to a miscorrection (fundamental to
        // SECDED) but must never produce a zero syndrome, because the
        // minimum distance is 4.
        let c = Secded::new(16).unwrap();
        let cw = c.encode(0xBEEF);
        let n = c.codeword_bits();
        for i in 0..n {
            for j in (i + 1)..n {
                for k in (j + 1)..n {
                    let corrupted = cw ^ (1u128 << i) ^ (1u128 << j) ^ (1u128 << k);
                    assert_ne!(c.syndrome(corrupted), 0, "bits {i},{j},{k}");
                }
            }
        }
    }

    #[test]
    fn check_bit_errors_corrected_without_touching_data() {
        let c = Secded::new(32).unwrap();
        let data = 0x0F0F_0F0Fu64;
        let cw = c.encode(data);
        for bit in 32..39 {
            let out = c.decode(cw ^ (1u128 << bit));
            assert_eq!(out.data(), Some(data));
        }
    }

    #[test]
    #[should_panic(expected = "wider than")]
    fn encode_rejects_wide_data() {
        Secded::new(8).unwrap().encode(256);
    }

    #[test]
    fn full_width_64_bit_code() {
        let c = Secded::new(64).unwrap();
        let data = u64::MAX;
        let cw = c.encode(data);
        assert_eq!(c.decode(cw).data(), Some(data));
        let out = c.decode(cw ^ (1u128 << 71));
        assert_eq!(out.data(), Some(data));
    }

    #[test]
    fn xor_counts_plausible() {
        let c = Secded::new(32).unwrap();
        // 32 weight-3 columns → 96 ones in D → 96 − 7 = 89 encoder XORs.
        assert_eq!(c.encoder_xor_count(), 89);
        assert_eq!(c.syndrome_xor_count(), 96);
    }

    #[test]
    fn display_shows_geometry() {
        assert_eq!(Secded::new(32).unwrap().to_string(), "(39,32) Hsiao SECDED");
    }

    #[test]
    fn binomials() {
        assert_eq!(binomial(7, 3), 35);
        assert_eq!(binomial(5, 3), 10);
        assert_eq!(binomial(3, 5), 0);
        assert_eq!(count_odd_ge3_columns(7), 35 + 21 + 1);
    }
}
