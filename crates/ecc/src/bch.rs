//! A DEC-TED BCH code: double-error-correct, triple-error-detect.
//!
//! The OCEAN protected buffer in this workspace uses 4-way interleaved
//! SECDED (burst-oriented). The classic alternative for multi-bit
//! protection is an algebraic BCH code: here a binary (63,51) t = 2 BCH
//! over GF(2⁶), shortened to 32 data bits and extended with an overall
//! parity bit — a (45,32) DEC-TED code that corrects **any** two random
//! bit errors (not just one per interleave lane) and detects any three,
//! at 45 stored bits instead of the interleaved buffer's 52.
//!
//! The trade-off the `ablation_buffer_code` bench quantifies: the BCH
//! corrects any 2-of-45 where the interleaved code corrects up to
//! 4-if-distributed; their FIT-limited voltages and decoder costs differ.
//!
//! Implementation: GF(2⁶) with primitive polynomial `x⁶ + x + 1`,
//! systematic encoding by polynomial division, syndrome decoding with the
//! closed-form two-error locator (`x² + S₁x + (S₃ + S₁³)/S₁`) and Chien
//! search, and the extended parity bit arbitrating the error-count parity
//! for triple-error detection.

use std::fmt;
use std::sync::OnceLock;

const M: usize = 6;
const FIELD: usize = (1 << M) - 1; // 63
const DATA_BITS: u32 = 32;
const CHECK_BITS: u32 = 12; // degree of g(x) = m1(x)·m3(x)
const BCH_BITS: u32 = DATA_BITS + CHECK_BITS; // 44 (shortened from 63)
const CODEWORD_BITS: u32 = BCH_BITS + 1; // +1 extended parity

/// GF(2⁶) log/antilog tables.
struct Tables {
    exp: [u8; 2 * FIELD],
    log: [u8; FIELD + 1],
}

fn tables() -> &'static Tables {
    static T: OnceLock<Tables> = OnceLock::new();
    T.get_or_init(|| {
        let mut exp = [0u8; 2 * FIELD];
        let mut log = [0u8; FIELD + 1];
        let mut x = 1usize;
        for (i, e) in exp.iter_mut().enumerate().take(FIELD) {
            *e = x as u8;
            log[x] = i as u8;
            x <<= 1;
            if x & (1 << M) != 0 {
                x ^= 0b100_0011; // x^6 = x + 1
            }
        }
        for i in FIELD..2 * FIELD {
            exp[i] = exp[i - FIELD];
        }
        Tables { exp, log }
    })
}

fn gf_mul(a: u8, b: u8) -> u8 {
    if a == 0 || b == 0 {
        return 0;
    }
    let t = tables();
    t.exp[t.log[a as usize] as usize + t.log[b as usize] as usize]
}

fn gf_inv(a: u8) -> u8 {
    debug_assert_ne!(a, 0, "zero has no inverse");
    let t = tables();
    t.exp[FIELD - t.log[a as usize] as usize]
}

fn gf_pow_alpha(e: usize) -> u8 {
    tables().exp[e % FIELD]
}

/// Outcome of decoding a (45,32) DEC-TED codeword.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BchOutcome {
    /// No errors.
    Clean {
        /// Decoded data word.
        data: u32,
    },
    /// One or two bit errors corrected.
    Corrected {
        /// Corrected data word.
        data: u32,
        /// Number of bits repaired (1 or 2).
        repaired: u32,
    },
    /// Three or more errors detected; the word is unusable.
    Detected,
}

impl BchOutcome {
    /// The usable data, if any.
    pub fn data(&self) -> Option<u32> {
        match self {
            BchOutcome::Clean { data } | BchOutcome::Corrected { data, .. } => Some(*data),
            BchOutcome::Detected => None,
        }
    }
}

/// The (45,32) DEC-TED BCH code.
///
/// # Example
///
/// ```
/// use ntc_ecc::bch::{BchDecTed, BchOutcome};
///
/// let code = BchDecTed::new();
/// let cw = code.encode(0xDEAD_BEEF);
/// // Any two random flips are corrected…
/// let hit = cw ^ (1 << 3) ^ (1 << 41);
/// assert_eq!(code.decode(hit).data(), Some(0xDEAD_BEEF));
/// // …and any three are detected.
/// let three = hit ^ (1 << 20);
/// assert_eq!(code.decode(three), BchOutcome::Detected);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BchDecTed {
    /// `g(x) = m₁(x)·m₃(x)`, degree 12, as a bit mask (LSB = x⁰).
    generator: u32,
}

impl Default for BchDecTed {
    fn default() -> Self {
        Self::new()
    }
}

impl BchDecTed {
    /// Constructs the code (generator computed from the field tables).
    pub fn new() -> Self {
        // m1(x): minimal polynomial of α — the primitive polynomial itself.
        let m1: u32 = 0b100_0011; // x^6 + x + 1
        // m3(x): minimal polynomial of α³. Conjugates: α^3, α^6, α^12,
        // α^24, α^48, α^33 → degree 6. Compute Π (x − α^(3·2^i)).
        let mut m3 = [0u8; 7];
        m3[0] = 1;
        let mut e = 3usize;
        for deg in 0..6 {
            let root = gf_pow_alpha(e);
            // Multiply m3 by (x + root).
            let mut next = [0u8; 7];
            for (j, &c) in m3.iter().enumerate().take(deg + 1) {
                next[j + 1] ^= c; // x·c
                next[j] ^= gf_mul(c, root);
            }
            m3 = next;
            e = (e * 2) % FIELD;
        }
        // m3 must have binary coefficients.
        let mut m3_mask = 0u32;
        for (j, &c) in m3.iter().enumerate() {
            debug_assert!(c <= 1, "minimal polynomial must be binary");
            m3_mask |= (c as u32) << j;
        }
        // g = m1 · m3 over GF(2).
        let mut generator = 0u32;
        for j in 0..=6 {
            if m1 >> j & 1 == 1 {
                generator ^= m3_mask << j;
            }
        }
        debug_assert_eq!(generator >> 12, 1, "generator must have degree 12");
        Self { generator }
    }

    /// Total stored bits (45).
    pub fn codeword_bits(&self) -> u32 {
        CODEWORD_BITS
    }

    /// Data bits (32).
    pub fn data_bits(&self) -> u32 {
        DATA_BITS
    }

    /// Encodes a data word.
    ///
    /// Layout: bits `[11:0]` BCH checks, `[43:12]` data, bit 44 overall
    /// parity.
    pub fn encode(&self, data: u32) -> u64 {
        // Systematic encoding: remainder of data(x)·x^12 modulo g(x).
        let mut rem: u64 = (data as u64) << CHECK_BITS;
        for bit in (CHECK_BITS..BCH_BITS).rev() {
            if rem >> bit & 1 == 1 {
                rem ^= (self.generator as u64) << (bit - CHECK_BITS);
            }
        }
        let bch = ((data as u64) << CHECK_BITS) | (rem & ((1 << CHECK_BITS) - 1));
        let parity = (bch.count_ones() & 1) as u64;
        bch | (parity << BCH_BITS)
    }

    /// Syndromes `S₁ = r(α)` and `S₃ = r(α³)` of the 44 BCH bits.
    fn syndromes(&self, received: u64) -> (u8, u8) {
        let mut s1 = 0u8;
        let mut s3 = 0u8;
        let mut r = received & ((1u64 << BCH_BITS) - 1);
        while r != 0 {
            let i = r.trailing_zeros() as usize;
            s1 ^= gf_pow_alpha(i);
            s3 ^= gf_pow_alpha(3 * i);
            r &= r - 1;
        }
        (s1, s3)
    }

    /// Decodes a received 45-bit word.
    pub fn decode(&self, received: u64) -> BchOutcome {
        let (s1, s3) = self.syndromes(received);
        let parity_ok = received.count_ones() & 1 == 0;
        let data = |w: u64| ((w >> CHECK_BITS) & 0xFFFF_FFFF) as u32;

        if s1 == 0 && s3 == 0 {
            return if parity_ok {
                BchOutcome::Clean { data: data(received) }
            } else {
                // The overall parity bit itself flipped.
                BchOutcome::Corrected {
                    data: data(received),
                    repaired: 1,
                }
            };
        }

        if !parity_ok {
            // Odd error count with nonzero syndrome: try single error.
            if s1 != 0 && gf_mul(gf_mul(s1, s1), s1) == s3 {
                let pos = tables().log[s1 as usize] as u32;
                if pos < BCH_BITS {
                    return BchOutcome::Corrected {
                        data: data(received ^ (1u64 << pos)),
                        repaired: 1,
                    };
                }
            }
            // Syndrome inconsistent with one error: three or more.
            return BchOutcome::Detected;
        }

        // Even error count with nonzero syndrome: try two errors.
        if s1 == 0 {
            // Two errors cannot give S1 = 0 (X1 ≠ X2); ≥4 detected.
            return BchOutcome::Detected;
        }
        let s1_cubed = gf_mul(gf_mul(s1, s1), s1);
        // Special even-count pattern: one BCH-part error plus a flip of the
        // extended parity bit itself (syndromes consistent with a single).
        if s1_cubed == s3 {
            let pos = tables().log[s1 as usize] as u32;
            if pos < BCH_BITS {
                return BchOutcome::Corrected {
                    data: data(received ^ (1u64 << pos)),
                    repaired: 2,
                };
            }
        }
        // σ(x) = x² + S1·x + (S3 + S1³)/S1; find its two roots by Chien
        // search over the shortened positions.
        let c = gf_mul(s3 ^ s1_cubed, gf_inv(s1));
        if c == 0 {
            // Double root / degenerate: not a valid 2-error pattern.
            return BchOutcome::Detected;
        }
        let mut roots = [0u32; 2];
        let mut found = 0usize;
        for i in 0..BCH_BITS {
            let x = gf_pow_alpha(i as usize);
            let val = gf_mul(x, x) ^ gf_mul(s1, x) ^ c;
            if val == 0 {
                if found == 2 {
                    return BchOutcome::Detected;
                }
                roots[found] = i;
                found += 1;
            }
        }
        if found != 2 {
            return BchOutcome::Detected;
        }
        let fixed = received ^ (1u64 << roots[0]) ^ (1u64 << roots[1]);
        BchOutcome::Corrected {
            data: data(fixed),
            repaired: 2,
        }
    }
}

impl fmt::Display for BchDecTed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(45,32) DEC-TED BCH (shortened (63,51), t = 2 + parity)")
    }
}


/// Outcome of decoding the quad-correcting code — same shape as
/// [`BchOutcome`] but up to four repairs.
pub(crate) type BchQuadOutcome = BchOutcome;

/// The (57,32) QEC-PED BCH code: corrects **any four** random bit errors,
/// detects any five.
///
/// This is the code the paper's protected buffer claims to be: "an
/// error-protected buffer, with quadruple error correction capability,
/// such that … a quintuple (5 bits) error is needed for system failure" —
/// for *random* errors, which the interleaved-SECDED construction only
/// achieves for distributed/burst patterns. Built from the (63,39) t = 4
/// binary BCH (generator `m₁m₃m₅m₇`, degree 24), shortened to 32 data
/// bits (56 bits) and extended with an overall parity bit.
///
/// Decoding: syndromes S₁..S₈ (even ones by squaring), Berlekamp–Massey
/// for the error locator, Chien search, and the extended parity
/// arbitrating odd/even error counts.
///
/// # Example
///
/// ```
/// use ntc_ecc::bch::{BchOutcome, BchQuad};
///
/// let code = BchQuad::new();
/// let cw = code.encode(0x0BAD_F00D);
/// let hit = cw ^ (1 << 2) ^ (1 << 19) ^ (1 << 40) ^ (1 << 55);
/// assert_eq!(code.decode(hit).data(), Some(0x0BAD_F00D)); // any 4 corrected
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BchQuad {
    /// Degree-24 generator as a bit mask (LSB = x⁰).
    generator: u32,
}

/// Stored bits of the quad code's BCH part (56) and total (57).
const QUAD_CHECK_BITS: u32 = 24;
const QUAD_BCH_BITS: u32 = DATA_BITS + QUAD_CHECK_BITS; // 56
const QUAD_CODEWORD_BITS: u32 = QUAD_BCH_BITS + 1; // 57

impl Default for BchQuad {
    fn default() -> Self {
        Self::new()
    }
}

/// Minimal polynomial of α^e over GF(2), as a bit mask.
fn minimal_poly(e: usize) -> u32 {
    // Collect the conjugacy class {e·2^i mod 63}.
    let mut class = Vec::new();
    let mut x = e % FIELD;
    loop {
        if class.contains(&x) {
            break;
        }
        class.push(x);
        x = (x * 2) % FIELD;
    }
    // Π (x + α^c) — coefficients end up binary.
    let mut poly = vec![0u8; class.len() + 1];
    poly[0] = 1;
    for (deg, &c) in class.iter().enumerate() {
        let root = gf_pow_alpha(c);
        let mut next = vec![0u8; poly.len()];
        for (j, &coef) in poly.iter().enumerate().take(deg + 1) {
            next[j + 1] ^= coef;
            next[j] ^= gf_mul(coef, root);
        }
        poly = next;
    }
    let mut mask = 0u32;
    for (j, &c) in poly.iter().enumerate() {
        debug_assert!(c <= 1, "minimal polynomial must be binary");
        mask |= (c as u32) << j;
    }
    mask
}

/// GF(2) polynomial product.
fn poly_mul_gf2(a: u32, b: u32) -> u32 {
    let mut out = 0u32;
    for j in 0..32 {
        if a >> j & 1 == 1 {
            out ^= b << j;
        }
    }
    out
}

impl BchQuad {
    /// Constructs the code.
    pub fn new() -> Self {
        let g = poly_mul_gf2(
            poly_mul_gf2(minimal_poly(1), minimal_poly(3)),
            poly_mul_gf2(minimal_poly(5), minimal_poly(7)),
        );
        debug_assert_eq!(g >> 24, 1, "generator must have degree 24");
        Self { generator: g }
    }

    /// Total stored bits (57).
    pub fn codeword_bits(&self) -> u32 {
        QUAD_CODEWORD_BITS
    }

    /// Data bits (32).
    pub(crate) fn data_bits(&self) -> u32 {
        DATA_BITS
    }

    /// Two-input XOR gates in a parallel encoder, counted exactly from
    /// the systematic generator matrix (each check bit is the XOR of the
    /// data bits whose unit-vector encodings set it), plus the overall
    /// parity tree.
    pub(crate) fn encoder_xor_count(&self) -> u32 {
        let mut fanin = [0u32; QUAD_CHECK_BITS as usize + 1];
        for i in 0..DATA_BITS {
            let cw = self.encode(1u32 << i);
            for (b, f) in fanin.iter_mut().enumerate().take(QUAD_CHECK_BITS as usize) {
                *f += (cw >> b & 1) as u32;
            }
        }
        let checks: u32 = fanin[..QUAD_CHECK_BITS as usize]
            .iter()
            .map(|&f| f.saturating_sub(1))
            .sum();
        // Overall parity: 56-input XOR tree.
        checks + (QUAD_BCH_BITS - 1)
    }

    /// Decoder logic scale relative to the syndrome tree: the iterative
    /// Berlekamp–Massey datapath plus the Chien search are charged as 4×
    /// the syndrome generator (the ratio reported for serial t = 4 BCH
    /// decoders versus their syndrome stage).
    pub(crate) fn decoder_syndrome_ratio(&self) -> f64 {
        4.0
    }

    /// Encodes a data word.
    ///
    /// Layout: bits `[23:0]` BCH checks, `[55:24]` data, bit 56 parity.
    pub fn encode(&self, data: u32) -> u64 {
        let mut rem: u64 = (data as u64) << QUAD_CHECK_BITS;
        for bit in (QUAD_CHECK_BITS..QUAD_BCH_BITS).rev() {
            if rem >> bit & 1 == 1 {
                rem ^= (self.generator as u64) << (bit - QUAD_CHECK_BITS);
            }
        }
        let bch = ((data as u64) << QUAD_CHECK_BITS) | (rem & ((1 << QUAD_CHECK_BITS) - 1));
        let parity = (bch.count_ones() & 1) as u64;
        bch | (parity << QUAD_BCH_BITS)
    }

    /// Odd syndromes S₁, S₃, S₅, S₇ of the BCH part.
    fn syndromes(&self, received: u64) -> [u8; 9] {
        // s[j] = S_j for j in 1..=8 (s[0] unused).
        let mut s = [0u8; 9];
        let mut r = received & ((1u64 << QUAD_BCH_BITS) - 1);
        while r != 0 {
            let i = r.trailing_zeros() as usize;
            for j in [1usize, 3, 5, 7] {
                s[j] ^= gf_pow_alpha(j * i);
            }
            r &= r - 1;
        }
        // Even syndromes by the Frobenius square: S_2k = S_k².
        s[2] = gf_mul(s[1], s[1]);
        s[4] = gf_mul(s[2], s[2]);
        s[6] = gf_mul(s[3], s[3]);
        s[8] = gf_mul(s[4], s[4]);
        s
    }

    /// Berlekamp–Massey over the 8 syndromes; returns the error-locator
    /// polynomial coefficients `σ₀..σ_L` (σ₀ = 1) or `None` if L > 4.
    fn berlekamp_massey(s: &[u8; 9]) -> Option<Vec<u8>> {
        let mut sigma = vec![1u8];
        let mut prev = vec![1u8];
        let mut l = 0usize;
        let mut m = 1usize;
        let mut b = 1u8;
        for n in 0..8 {
            // Discrepancy d = S_{n+1} + Σ σ_i·S_{n+1-i}.
            let mut d = s[n + 1];
            for i in 1..=l.min(n) {
                if i < sigma.len() {
                    d ^= gf_mul(sigma[i], s[n + 1 - i]);
                }
            }
            if d == 0 {
                m += 1;
            } else if 2 * l <= n {
                let t = sigma.clone();
                let scale = gf_mul(d, gf_inv(b));
                // sigma -= scale · x^m · prev
                if sigma.len() < prev.len() + m {
                    sigma.resize(prev.len() + m, 0);
                }
                for (j, &c) in prev.iter().enumerate() {
                    sigma[j + m] ^= gf_mul(scale, c);
                }
                l = n + 1 - l;
                prev = t;
                b = d;
                m = 1;
            } else {
                let scale = gf_mul(d, gf_inv(b));
                if sigma.len() < prev.len() + m {
                    sigma.resize(prev.len() + m, 0);
                }
                for (j, &c) in prev.iter().enumerate() {
                    sigma[j + m] ^= gf_mul(scale, c);
                }
                m += 1;
            }
        }
        if l > 4 {
            return None;
        }
        sigma.truncate(l + 1);
        Some(sigma)
    }

    /// Decodes a received 57-bit word.
    pub fn decode(&self, received: u64) -> BchQuadOutcome {
        let s = self.syndromes(received);
        let parity_ok = received.count_ones() & 1 == 0;
        let data = |w: u64| ((w >> QUAD_CHECK_BITS) & 0xFFFF_FFFF) as u32;

        if s[1] == 0 && s[3] == 0 && s[5] == 0 && s[7] == 0 {
            return if parity_ok {
                BchOutcome::Clean { data: data(received) }
            } else {
                BchOutcome::Corrected {
                    data: data(received),
                    repaired: 1, // the parity bit itself
                }
            };
        }

        let Some(sigma) = Self::berlekamp_massey(&s) else {
            return BchOutcome::Detected;
        };
        let l = sigma.len() - 1;
        // Chien search: error at position i iff σ(α^{-i}) = 0.
        let mut positions = Vec::with_capacity(l);
        for i in 0..QUAD_BCH_BITS as usize {
            let x = gf_pow_alpha((FIELD - i % FIELD) % FIELD); // α^{-i}
            let mut val = 0u8;
            let mut xp = 1u8;
            for &c in &sigma {
                val ^= gf_mul(c, xp);
                xp = gf_mul(xp, x);
            }
            if val == 0 {
                positions.push(i);
                if positions.len() > l {
                    return BchOutcome::Detected;
                }
            }
        }
        if positions.len() != l {
            return BchOutcome::Detected;
        }
        // Parity arbitration: total flips = l (+1 if the parity bit also
        // flipped). The observed parity must match.
        let bch_flips_odd = l % 2 == 1;
        let parity_bit_flipped = parity_ok == bch_flips_odd;
        let total = l + usize::from(parity_bit_flipped);
        // Bounded-distance rule: correct up to 4 total flips, detect 5.
        // (Allowing a 4-BCH + parity-bit quintuple would also admit
        // miscorrection of true 5-BCH-error patterns sitting at distance
        // 4 from another codeword; d = 10 only guarantees detect-5.)
        if total > 4 {
            return BchOutcome::Detected;
        }
        let mut fixed = received;
        for &i in &positions {
            fixed ^= 1u64 << i;
        }
        BchOutcome::Corrected {
            data: data(fixed),
            repaired: total as u32,
        }
    }
}

impl fmt::Display for BchQuad {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(57,32) QEC-PED BCH (shortened (63,39), t = 4 + parity)")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLES: [u32; 5] = [0, u32::MAX, 0xDEAD_BEEF, 0xA5A5_5A5A, 0x0000_0001];

    #[test]
    fn generator_is_degree_12_and_binary() {
        let code = BchDecTed::new();
        assert_eq!(code.generator >> 12, 1);
        assert_eq!(code.codeword_bits(), 45);
        assert_eq!(code.data_bits(), 32);
    }

    #[test]
    fn codewords_have_zero_syndrome_and_even_parity() {
        let code = BchDecTed::new();
        for &d in &SAMPLES {
            let cw = code.encode(d);
            assert_eq!(code.syndromes(cw), (0, 0), "data {d:#x}");
            assert_eq!(cw.count_ones() % 2, 0);
            assert_eq!(code.decode(cw), BchOutcome::Clean { data: d });
        }
    }

    #[test]
    fn every_single_error_corrected_exhaustive() {
        let code = BchDecTed::new();
        for &d in &SAMPLES {
            let cw = code.encode(d);
            for bit in 0..45 {
                let out = code.decode(cw ^ (1u64 << bit));
                assert_eq!(out.data(), Some(d), "bit {bit}, data {d:#x}");
                assert_eq!(out, BchOutcome::Corrected { data: d, repaired: 1 });
            }
        }
    }

    #[test]
    fn every_double_error_corrected_exhaustive() {
        let code = BchDecTed::new();
        let d = 0xCAFE_F00Du32;
        let cw = code.encode(d);
        for a in 0..45u32 {
            for b in (a + 1)..45 {
                let out = code.decode(cw ^ (1u64 << a) ^ (1u64 << b));
                assert_eq!(out.data(), Some(d), "bits {a},{b}");
            }
        }
    }

    #[test]
    fn every_triple_error_detected_exhaustive() {
        // d_min = 6: any 3-bit pattern must be flagged, never miscorrected.
        let code = BchDecTed::new();
        let d = 0x1234_5678u32;
        let cw = code.encode(d);
        for a in 0..45u32 {
            for b in (a + 1)..45 {
                for c in (b + 1)..45 {
                    let out = code.decode(cw ^ (1u64 << a) ^ (1u64 << b) ^ (1u64 << c));
                    assert_eq!(out, BchOutcome::Detected, "bits {a},{b},{c}");
                }
            }
        }
    }

    #[test]
    fn corrects_random_double_errors_on_random_data() {
        // Randomized cross-check over many data words.
        let code = BchDecTed::new();
        let mut x = 0x9E37_79B9u32;
        for _ in 0..500 {
            x = x.wrapping_mul(747796405).wrapping_add(2891336453);
            let d = x;
            let a = (x >> 8) % 45;
            let b = (x >> 16) % 45;
            let cw = code.encode(d);
            let corrupted = cw ^ (1u64 << a) ^ (1u64 << b);
            let out = code.decode(corrupted);
            assert_eq!(out.data(), Some(d), "data {d:#x}, bits {a},{b}");
        }
    }

    #[test]
    fn storage_comparison_with_interleaved() {
        use crate::interleave::InterleavedCode;
        let bch = BchDecTed::new();
        let inter = InterleavedCode::new(32, 4).unwrap();
        assert!(bch.codeword_bits() < inter.codeword_bits(), "45 < 52 bits");
    }

    #[test]
    fn display_nonempty() {
        assert!(!BchDecTed::new().to_string().is_empty());
        assert!(!BchQuad::new().to_string().is_empty());
    }

    #[test]
    fn quad_generator_and_geometry() {
        let code = BchQuad::new();
        assert_eq!(code.codeword_bits(), 57);
        assert_eq!(code.data_bits(), 32);
    }

    #[test]
    fn quad_clean_round_trip() {
        let code = BchQuad::new();
        for &d in &SAMPLES {
            let cw = code.encode(d);
            assert_eq!(code.decode(cw), BchOutcome::Clean { data: d }, "{d:#x}");
        }
    }

    #[test]
    fn quad_every_single_and_double_corrected_exhaustive() {
        let code = BchQuad::new();
        let d = 0xDEAD_BEEFu32;
        let cw = code.encode(d);
        for a in 0..57u32 {
            let out = code.decode(cw ^ (1u64 << a));
            assert_eq!(out.data(), Some(d), "single at {a}");
            for b in (a + 1)..57 {
                let out = code.decode(cw ^ (1u64 << a) ^ (1u64 << b));
                assert_eq!(out.data(), Some(d), "double {a},{b}");
            }
        }
    }

    #[test]
    fn quad_corrects_any_four_random_errors() {
        // Sampled quadruples over random data (exhaustive C(57,4) is run
        // by the release-mode bench gate; here a dense deterministic scan).
        let code = BchQuad::new();
        let mut x = 0xACE1u32;
        for trial in 0..4000 {
            x = x.wrapping_mul(747796405).wrapping_add(2891336453);
            let d = x;
            let mut bits = [0u32; 4];
            let mut k = 0;
            let mut y = x;
            while k < 4 {
                y = y.wrapping_mul(2654435761).wrapping_add(1);
                let b = (y >> 16) % 57;
                if !bits[..k].contains(&b) {
                    bits[k] = b;
                    k += 1;
                }
            }
            let mut w = code.encode(d);
            for &b in &bits {
                w ^= 1u64 << b;
            }
            let out = code.decode(w);
            assert_eq!(out.data(), Some(d), "trial {trial}: bits {bits:?}");
            if let BchOutcome::Corrected { repaired, .. } = out {
                assert_eq!(repaired, 4);
            }
        }
    }

    #[test]
    fn quad_detects_sampled_quintuple_errors() {
        let code = BchQuad::new();
        let d = 0x1357_9BDFu32;
        let cw = code.encode(d);
        let mut x = 0xBEEFu32;
        for trial in 0..4000 {
            let mut bits = [0u32; 5];
            let mut k = 0;
            while k < 5 {
                x = x.wrapping_mul(747796405).wrapping_add(2891336453);
                let b = (x >> 20) % 57;
                if !bits[..k].contains(&b) {
                    bits[k] = b;
                    k += 1;
                }
            }
            let mut w = cw;
            for &b in &bits {
                w ^= 1u64 << b;
            }
            assert_eq!(
                code.decode(w),
                BchOutcome::Detected,
                "trial {trial}: bits {bits:?}"
            );
        }
    }

    #[test]
    fn quad_triples_corrected_with_parity_interplay() {
        // 3 BCH errors + parity mismatch: corrected as 3. 3 BCH + parity
        // bit: 4 total, corrected.
        let code = BchQuad::new();
        let d = 0x0F1E_2D3Cu32;
        let cw = code.encode(d);
        let three = cw ^ (1u64 << 1) ^ (1u64 << 30) ^ (1u64 << 50);
        assert_eq!(code.decode(three).data(), Some(d));
        let with_parity = three ^ (1u64 << 56);
        let out = code.decode(with_parity);
        assert_eq!(out.data(), Some(d));
        if let BchOutcome::Corrected { repaired, .. } = out {
            assert_eq!(repaired, 4);
        }
    }

}
