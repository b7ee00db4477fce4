//! Memory backends and voltage-dependent fault injection.
//!
//! Three scratchpad implementations mirror the paper's three platforms:
//!
//! * [`RawMemory`] — no protection: injected bit flips silently corrupt
//!   stored data (the "No mitigation" column).
//! * [`SecdedMemory`] — every word stored as a (39,32) Hsiao codeword:
//!   single errors are corrected (and scrubbed back), double errors raise
//!   an uncorrectable fault (the "ECC" column).
//! * [`ProtectedMemory`] — the OCEAN checkpoint buffer: a (57,32)
//!   quad-error-correcting BCH word, correcting **any** four bit errors
//!   (the paper's "quadruple error correction capability"; five errors
//!   are the system-failure event).
//!
//! The [`FaultInjector`] converts a supply voltage through an
//! [`AccessLaw`] into per-access bit flips in the
//! *stored* bits, so protection schemes face exactly the error process the
//! paper's silicon measurements describe.

use ntc_ecc::bch::{BchOutcome, BchQuad};
use ntc_ecc::secded::{DecodeOutcome, Secded};
use ntc_sram::failure::AccessLaw;
use ntc_stats::batch::mantissa_threshold;
use ntc_stats::rng::Source;
use std::fmt;

/// Words per [`FaultInjector::mask_block`] chunk; also the rewind window
/// of its clean fast path.
const MASK_BLOCK_WORDS: usize = 32;

/// An uncorrectable memory error surfaced to the core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryFault {
    /// Word index of the failing access.
    pub word_index: usize,
}

impl fmt::Display for MemoryFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "uncorrectable memory error at word {}", self.word_index)
    }
}

impl std::error::Error for MemoryFault {}

/// The core-facing port of a data memory.
pub trait DataPort {
    /// Reads the word at `word_index` through the protection scheme.
    ///
    /// # Errors
    ///
    /// Returns [`MemoryFault`] when the backend detects an uncorrectable
    /// error.
    fn read(&mut self, word_index: usize) -> Result<u32, MemoryFault>;

    /// Writes the word at `word_index` through the protection scheme.
    ///
    /// # Errors
    ///
    /// Returns [`MemoryFault`] when the backend cannot complete the write.
    fn write(&mut self, word_index: usize, value: u32) -> Result<(), MemoryFault>;

    /// Capacity in words.
    fn words(&self) -> usize;
}

/// Per-access bit-flip injector driven by a failure law.
///
/// # Example
///
/// ```
/// use ntc_sim::FaultInjector;
/// use ntc_sram::AccessLaw;
///
/// // The cell-based macro at a deeply scaled supply.
/// let mut inj = FaultInjector::from_law(&AccessLaw::cell_based_40nm(), 0.42, 1);
/// let mut any = 0u128;
/// for _ in 0..200_000 {
///     any |= inj.mask(39);
/// }
/// assert!(any != 0, "errors must appear at 0.42 V");
/// assert!(inj.injected() > 0);
/// ```
#[derive(Debug, Clone)]
pub struct FaultInjector {
    p_bit: f64,
    src: Source,
    injected: u64,
}

impl FaultInjector {
    /// An injector with explicit per-bit flip probability.
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ p_bit ≤ 1`.
    pub fn with_p(p_bit: f64, seed: u64) -> Self {
        assert!(
            (0.0..=1.0).contains(&p_bit),
            "p_bit must be a probability, got {p_bit}"
        );
        Self {
            p_bit,
            src: Source::seeded(seed),
            injected: 0,
        }
    }

    /// An injector whose flip probability comes from `law` at supply `vdd`.
    pub fn from_law(law: &AccessLaw, vdd: f64, seed: u64) -> Self {
        Self::with_p(law.p_bit(vdd), seed)
    }

    /// A disabled injector (error-free operation).
    pub fn disabled() -> Self {
        Self::with_p(0.0, 0)
    }

    /// Total bits flipped so far.
    pub fn injected(&self) -> u64 {
        self.injected
    }

    /// Samples a flip mask for a `bits`-bit stored word (one access).
    ///
    /// # Panics
    ///
    /// Panics if `bits` is 0 or above 128.
    pub fn mask(&mut self, bits: u32) -> u128 {
        assert!(bits > 0 && bits <= 128, "bits must be in 1..=128, got {bits}");
        if self.p_bit <= 0.0 {
            return 0;
        }
        let count = self.src.binomial(bits as u64, self.p_bit) as usize;
        if count == 0 {
            return 0;
        }
        let mut mask = 0u128;
        for idx in self.src.distinct_indices(bits as usize, count) {
            mask |= 1u128 << idx;
        }
        self.injected += count as u64;
        mask
    }

    /// Flip masks for a run of consecutive `bits`-bit words, bit-identical
    /// to calling [`mask`](Self::mask) once per element of `out`.
    ///
    /// The fast path exploits two facts: for a sub-64-bit word the
    /// binomial count inside `mask` is exactly the number of consecutive
    /// uniforms below `p_bit`, and at NTC-regime bit-error rates nearly
    /// every block of words is fault-free. Uniform mantissas are drawn
    /// block-wise and compared against the integer threshold of `p_bit`
    /// (hit-identical to the scalar `uniform() < p` float compare); a
    /// block that does contain a fault rewinds the generator and replays
    /// through the scalar path, so positions and counters never diverge.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is 0 or above 128.
    pub(crate) fn mask_block(&mut self, bits: u32, out: &mut [u128]) {
        assert!(bits > 0 && bits <= 128, "bits must be in 1..=128, got {bits}");
        if self.p_bit <= 0.0 {
            out.fill(0);
            return;
        }
        if bits >= 64 || self.p_bit >= 1.0 {
            // Wide words may route the binomial through its Gaussian
            // branch and p = 1 skips the draws entirely; both stay on the
            // scalar path.
            for m in out.iter_mut() {
                *m = self.mask(bits);
            }
            return;
        }
        let t = mantissa_threshold(self.p_bit);
        let w = bits as usize;
        let mut lanes = [0u64; 63 * MASK_BLOCK_WORDS];
        let mut idx = 0;
        while idx < out.len() {
            let take = MASK_BLOCK_WORDS.min(out.len() - idx);
            let checkpoint = self.src.clone();
            let buf = &mut lanes[..w * take];
            self.src.fill_uniform_bits(buf);
            if buf.iter().any(|&u| u < t) {
                self.src = checkpoint;
                for m in out[idx..idx + take].iter_mut() {
                    *m = self.mask(bits);
                }
            } else {
                out[idx..idx + take].fill(0);
            }
            idx += take;
        }
    }
}

/// Unprotected scratchpad: bit flips silently corrupt data.
#[derive(Debug, Clone)]
pub struct RawMemory {
    data: Vec<u32>,
    injector: FaultInjector,
}

impl RawMemory {
    /// An error-free raw memory of `words` words.
    ///
    /// # Panics
    ///
    /// Panics if `words == 0`.
    pub fn new(words: usize) -> Self {
        assert!(words > 0, "memory must have at least one word");
        Self {
            data: vec![0; words],
            injector: FaultInjector::disabled(),
        }
    }

    /// Attaches a fault injector.
    #[must_use]
    pub fn with_injector(mut self, injector: FaultInjector) -> Self {
        self.injector = injector;
        self
    }

    /// Host-side read (no faults, no stats).
    ///
    /// # Panics
    ///
    /// Panics if `word_index` is out of range.
    pub fn load(&self, word_index: usize) -> u32 {
        self.data[word_index]
    }

    /// Host-side write (no faults, no stats).
    ///
    /// # Panics
    ///
    /// Panics if `word_index` is out of range.
    pub fn store(&mut self, word_index: usize, value: u32) {
        self.data[word_index] = value;
    }

    /// Bits flipped so far by the injector.
    pub fn injected_bits(&self) -> u64 {
        self.injector.injected()
    }

    /// Applies a standby retention event: every stored bit flips with
    /// probability `p_bit` (the retention law evaluated at the standby
    /// voltage). Returns the number of bits lost.
    ///
    /// # Panics
    ///
    /// Panics unless `p_bit` is a probability.
    pub fn inject_retention_event(&mut self, p_bit: f64, seed: u64) -> u64 {
        let mut inj = FaultInjector::with_p(p_bit, seed);
        let mut masks = [0u128; MASK_BLOCK_WORDS];
        for ws in self.data.chunks_mut(MASK_BLOCK_WORDS) {
            let ms = &mut masks[..ws.len()];
            inj.mask_block(32, ms);
            for (w, &m) in ws.iter_mut().zip(ms.iter()) {
                *w ^= m as u32;
            }
        }
        inj.injected()
    }
}

impl DataPort for RawMemory {
    fn read(&mut self, word_index: usize) -> Result<u32, MemoryFault> {
        let mask = self.injector.mask(32) as u32;
        self.data[word_index] ^= mask;
        Ok(self.data[word_index])
    }

    fn write(&mut self, word_index: usize, value: u32) -> Result<(), MemoryFault> {
        let mask = self.injector.mask(32) as u32;
        self.data[word_index] = value ^ mask;
        Ok(())
    }

    fn words(&self) -> usize {
        self.data.len()
    }
}

/// Counters kept by the protected backends.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProtectionStats {
    /// Reads that decoded clean.
    pub clean_reads: u64,
    /// Bit errors repaired (sum over accesses).
    pub corrected_bits: u64,
    /// Accesses that raised an uncorrectable fault.
    pub uncorrectable: u64,
}

/// SECDED-protected scratchpad: each 32-bit word stored as a 39-bit Hsiao
/// codeword; single errors corrected and scrubbed, doubles fault.
#[derive(Debug, Clone)]
pub struct SecdedMemory {
    code: Secded,
    data: Vec<u64>,
    injector: FaultInjector,
    stats: ProtectionStats,
}

impl SecdedMemory {
    /// An error-free SECDED memory of `words` words.
    ///
    /// # Panics
    ///
    /// Panics if `words == 0`.
    pub fn new(words: usize) -> Self {
        assert!(words > 0, "memory must have at least one word");
        let code = Secded::new(32).expect("32-bit SECDED is constructible");
        Self {
            data: vec![code.encode(0) as u64; words],
            code,
            injector: FaultInjector::disabled(),
            stats: ProtectionStats::default(),
        }
    }

    /// Attaches a fault injector.
    #[must_use]
    pub fn with_injector(mut self, injector: FaultInjector) -> Self {
        self.injector = injector;
        self
    }

    /// Host-side read through the decoder (no fault injection, no stats).
    ///
    /// # Errors
    ///
    /// Returns [`MemoryFault`] if the stored word is already uncorrectable.
    ///
    /// # Panics
    ///
    /// Panics if `word_index` is out of range.
    pub fn load(&self, word_index: usize) -> Result<u32, MemoryFault> {
        match self.code.decode(self.data[word_index] as u128) {
            DecodeOutcome::Clean { data } | DecodeOutcome::Corrected { data, .. } => {
                Ok(data as u32)
            }
            _ => Err(MemoryFault { word_index }),
        }
    }

    /// Host-side write (no fault injection, no stats).
    ///
    /// # Panics
    ///
    /// Panics if `word_index` is out of range.
    pub fn store(&mut self, word_index: usize, value: u32) {
        self.data[word_index] = self.code.encode(value as u64) as u64;
    }

    /// Protection statistics so far.
    pub fn stats(&self) -> ProtectionStats {
        self.stats
    }

    /// Bits flipped so far by the injector.
    pub fn injected_bits(&self) -> u64 {
        self.injector.injected()
    }

    /// Applies a standby retention event to the stored codewords (39 bits
    /// per word flip with probability `p_bit`). Returns the bits lost.
    /// Follow with a scrub pass (read every word) to repair singles.
    ///
    /// # Panics
    ///
    /// Panics unless `p_bit` is a probability.
    pub fn inject_retention_event(&mut self, p_bit: f64, seed: u64) -> u64 {
        let mut inj = FaultInjector::with_p(p_bit, seed);
        let mut masks = [0u128; MASK_BLOCK_WORDS];
        for ws in self.data.chunks_mut(MASK_BLOCK_WORDS) {
            let ms = &mut masks[..ws.len()];
            inj.mask_block(39, ms);
            for (w, &m) in ws.iter_mut().zip(ms.iter()) {
                *w ^= m as u64;
            }
        }
        inj.injected()
    }

    /// Scrub pass: reads every word through the decoder, repairing single
    /// errors in place. Returns `(corrected_bits, uncorrectable_words)`.
    pub fn scrub(&mut self) -> (u64, u64) {
        let before = self.stats;
        for i in 0..self.data.len() {
            let _ = self.read(i);
        }
        (
            self.stats.corrected_bits - before.corrected_bits,
            self.stats.uncorrectable - before.uncorrectable,
        )
    }
}

impl DataPort for SecdedMemory {
    fn read(&mut self, word_index: usize) -> Result<u32, MemoryFault> {
        let mask = self.injector.mask(39) as u64;
        self.data[word_index] ^= mask;
        match self.code.decode(self.data[word_index] as u128) {
            DecodeOutcome::Clean { data } => {
                self.stats.clean_reads += 1;
                Ok(data as u32)
            }
            DecodeOutcome::Corrected { data, bit } => {
                self.stats.corrected_bits += 1;
                // Scrub: repair the stored copy too.
                self.data[word_index] ^= 1u64 << bit;
                Ok(data as u32)
            }
            DecodeOutcome::DoubleDetected | DecodeOutcome::UncorrectableDetected => {
                self.stats.uncorrectable += 1;
                Err(MemoryFault { word_index })
            }
        }
    }

    fn write(&mut self, word_index: usize, value: u32) -> Result<(), MemoryFault> {
        let mask = self.injector.mask(39) as u64;
        self.data[word_index] = (self.code.encode(value as u64) as u64) ^ mask;
        Ok(())
    }

    fn words(&self) -> usize {
        self.data.len()
    }
}

/// The OCEAN protected buffer: one (57,32) quad-correcting BCH codeword
/// per word.
#[derive(Debug, Clone)]
pub struct ProtectedMemory {
    code: BchQuad,
    data: Vec<u64>,
    injector: FaultInjector,
    stats: ProtectionStats,
}

impl ProtectedMemory {
    /// An error-free protected buffer of `words` words.
    ///
    /// # Panics
    ///
    /// Panics if `words == 0`.
    pub fn new(words: usize) -> Self {
        assert!(words > 0, "memory must have at least one word");
        let code = BchQuad::new();
        Self {
            data: vec![code.encode(0); words],
            code,
            injector: FaultInjector::disabled(),
            stats: ProtectionStats::default(),
        }
    }

    /// Attaches a fault injector.
    #[must_use]
    #[cfg(test)]
    pub(crate) fn with_injector(mut self, injector: FaultInjector) -> Self {
        self.injector = injector;
        self
    }

    /// Host-side read through the decoder (no fault injection, no stats).
    ///
    /// # Errors
    ///
    /// Returns [`MemoryFault`] if the stored word is already uncorrectable.
    ///
    /// # Panics
    ///
    /// Panics if `word_index` is out of range.
    pub fn load(&self, word_index: usize) -> Result<u32, MemoryFault> {
        match self.code.decode(self.data[word_index]) {
            BchOutcome::Detected => Err(MemoryFault { word_index }),
            ok => Ok(ok.data().expect("non-detected outcome carries data")),
        }
    }

    /// Host-side write (no fault injection, no stats).
    ///
    /// # Panics
    ///
    /// Panics if `word_index` is out of range.
    #[cfg(test)]
    pub(crate) fn store(&mut self, word_index: usize, value: u32) {
        self.data[word_index] = self.code.encode(value);
    }

    /// Protection statistics so far.
    #[cfg(test)]
    pub(crate) fn stats(&self) -> ProtectionStats {
        self.stats
    }

    /// XORs `mask` into the stored codeword (test / experiment hook).
    ///
    /// # Panics
    ///
    /// Panics if `word_index` is out of range.
    pub fn corrupt(&mut self, word_index: usize, mask: u64) {
        self.data[word_index] ^= mask;
    }

    /// Applies a standby retention event to the stored codewords (57 bits
    /// per word flip with probability `p_bit`). Returns the bits lost.
    ///
    /// # Panics
    ///
    /// Panics unless `p_bit` is a probability.
    pub fn inject_retention_event(&mut self, p_bit: f64, seed: u64) -> u64 {
        let bits = self.code.codeword_bits();
        let mut inj = FaultInjector::with_p(p_bit, seed);
        let mut masks = [0u128; MASK_BLOCK_WORDS];
        for ws in self.data.chunks_mut(MASK_BLOCK_WORDS) {
            let ms = &mut masks[..ws.len()];
            inj.mask_block(bits, ms);
            for (w, &m) in ws.iter_mut().zip(ms.iter()) {
                *w ^= m as u64;
            }
        }
        inj.injected()
    }

    /// Scrub pass: reads every word, re-encoding corrected data in place.
    /// Returns `(corrected_bits, uncorrectable_words)`.
    pub fn scrub(&mut self) -> (u64, u64) {
        let before = self.stats;
        for i in 0..self.data.len() {
            let _ = self.read(i);
        }
        (
            self.stats.corrected_bits - before.corrected_bits,
            self.stats.uncorrectable - before.uncorrectable,
        )
    }
}

impl DataPort for ProtectedMemory {
    fn read(&mut self, word_index: usize) -> Result<u32, MemoryFault> {
        let mask = self.injector.mask(self.code.codeword_bits()) as u64;
        self.data[word_index] ^= mask;
        match self.code.decode(self.data[word_index]) {
            BchOutcome::Clean { data } => {
                self.stats.clean_reads += 1;
                Ok(data)
            }
            BchOutcome::Corrected { data, repaired } => {
                self.stats.corrected_bits += repaired as u64;
                // Scrub by re-encoding the corrected data.
                self.data[word_index] = self.code.encode(data);
                Ok(data)
            }
            BchOutcome::Detected => {
                self.stats.uncorrectable += 1;
                Err(MemoryFault { word_index })
            }
        }
    }

    fn write(&mut self, word_index: usize, value: u32) -> Result<(), MemoryFault> {
        let mask = self.injector.mask(self.code.codeword_bits()) as u64;
        self.data[word_index] = self.code.encode(value) ^ mask;
        Ok(())
    }

    fn words(&self) -> usize {
        self.data.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mask_block_is_bit_identical_to_scalar_masks() {
        // Rates spanning the rewind-never to rewind-often regimes, word
        // widths covering the three memory backends plus the wide-word
        // scalar fallback, and run lengths exercising partial blocks.
        for &p in &[0.0, 1e-6, 2e-3, 0.08, 0.6, 1.0] {
            for &bits in &[1u32, 32, 39, 57, 64, 128] {
                for &n in &[1usize, 31, 32, 33, 200] {
                    let mut scalar = FaultInjector::with_p(p, 17);
                    let want: Vec<u128> = (0..n).map(|_| scalar.mask(bits)).collect();
                    let mut batched = FaultInjector::with_p(p, 17);
                    let mut got = vec![0u128; n];
                    batched.mask_block(bits, &mut got);
                    assert_eq!(got, want, "p = {p}, bits = {bits}, n = {n}");
                    assert_eq!(batched.injected(), scalar.injected());
                    // Both generators sit at the same stream position.
                    assert_eq!(batched.mask(bits), scalar.mask(bits));
                }
            }
        }
    }

    #[test]
    fn retention_events_are_reproducible_across_backends() {
        // The chunked injection is a pure function of (p_bit, seed) — a
        // second pass over identical contents flips identical bits.
        let mut a = RawMemory::new(500);
        let mut b = RawMemory::new(500);
        assert_eq!(
            a.inject_retention_event(1e-3, 9),
            b.inject_retention_event(1e-3, 9)
        );
        for i in 0..500 {
            assert_eq!(a.load(i), b.load(i));
        }
    }

    #[test]
    fn raw_memory_clean_round_trip() {
        let mut m = RawMemory::new(8);
        m.write(3, 0xDEAD_BEEF).unwrap();
        assert_eq!(m.read(3).unwrap(), 0xDEAD_BEEF);
        assert_eq!(m.words(), 8);
    }

    #[test]
    fn raw_memory_silently_corrupts_under_faults() {
        let mut m = RawMemory::new(64).with_injector(FaultInjector::with_p(0.02, 7));
        let mut mismatches = 0;
        for i in 0..64 {
            m.write(i, 0xAAAA_5555).unwrap();
        }
        for i in 0..64 {
            // Reads never fail, but data may differ.
            if m.read(i).unwrap() != 0xAAAA_5555 {
                mismatches += 1;
            }
        }
        assert!(mismatches > 0, "2% bit error rate must corrupt something");
        assert!(m.injected_bits() > 0);
    }

    #[test]
    fn secded_corrects_under_moderate_faults() {
        // Every successful read must return exact data; detected doubles
        // are allowed (and repaired by the host to keep the test going),
        // but silent corruption never is.
        let mut m = SecdedMemory::new(256).with_injector(FaultInjector::with_p(3e-4, 11));
        for i in 0..256 {
            m.write(i, i as u32 * 0x0101_0101).unwrap();
        }
        for round in 0..20 {
            for i in 0..256 {
                match m.read(i) {
                    Ok(got) => assert_eq!(got, i as u32 * 0x0101_0101, "round {round} word {i}"),
                    Err(_) => m.store(i, i as u32 * 0x0101_0101), // detected, repair
                }
            }
        }
        let s = m.stats();
        assert!(s.corrected_bits > 0, "some corrections must have happened");
        assert!(s.uncorrectable < 20, "doubles must stay rare at p = 3e-4");
    }

    #[test]
    fn secded_faults_on_double_error() {
        let mut m = SecdedMemory::new(4);
        m.store(0, 123);
        // Manually corrupt two stored bits.
        m.data[0] ^= 0b11;
        assert_eq!(m.read(0), Err(MemoryFault { word_index: 0 }));
        assert_eq!(m.stats().uncorrectable, 1);
        assert!(m.load(0).is_err());
    }

    #[test]
    fn secded_scrubs_on_read() {
        let mut m = SecdedMemory::new(4);
        m.store(0, 77);
        m.data[0] ^= 1 << 5; // single error
        assert_eq!(m.read(0).unwrap(), 77);
        assert_eq!(m.stats().corrected_bits, 1);
        // The stored copy was repaired, so a second error is again single.
        m.data[0] ^= 1 << 7;
        assert_eq!(m.read(0).unwrap(), 77);
    }

    #[test]
    fn protected_memory_survives_any_quadruple() {
        let mut m = ProtectedMemory::new(4);
        m.store(1, 0x0BAD_F00D);
        m.data[1] ^= 0b1111 << 8; // 4 adjacent stored bits
        assert_eq!(m.read(1).unwrap(), 0x0BAD_F00D);
        assert_eq!(m.stats().corrected_bits, 4);
        // Scattered quadruple too — the quad BCH corrects *any* 4.
        m.store(2, 77);
        m.data[2] ^= (1 << 0) | (1 << 13) | (1 << 14) | (1 << 50);
        assert_eq!(m.read(2).unwrap(), 77);
    }

    #[test]
    fn protected_memory_faults_on_five_bit_burst() {
        let mut m = ProtectedMemory::new(4);
        m.store(1, 42);
        m.data[1] ^= 0b11111;
        assert!(m.read(1).is_err());
        assert_eq!(m.stats().uncorrectable, 1);
    }

    #[test]
    fn protected_memory_tolerates_much_higher_error_rates_than_secded() {
        // At a rate where SECDED words regularly take double hits, the
        // interleaved buffer still survives long enough to matter. Compare
        // uncorrectable counts over identical workloads.
        let p = 6e-3;
        let mut sec = SecdedMemory::new(128).with_injector(FaultInjector::with_p(p, 3));
        let mut prot = ProtectedMemory::new(128).with_injector(FaultInjector::with_p(p, 3));
        let mut sec_failures = 0u64;
        let mut prot_failures = 0u64;
        for round in 0..50 {
            for i in 0..128 {
                sec.write(i, round ^ i as u32).unwrap();
                prot.write(i, round ^ i as u32).unwrap();
                if sec.read(i).is_err() {
                    sec_failures += 1;
                    sec.store(i, round ^ i as u32); // repair to keep going
                }
                if prot.read(i).is_err() {
                    prot_failures += 1;
                    prot.store(i, round ^ i as u32);
                }
            }
        }
        // For *random* (non-burst) errors the lane partition buys roughly
        // C(78,2) / (4·C(26,2)) ≈ 2.3x fewer uncorrectable words; the full
        // OCEAN advantage (4-bit correction per word) shows in the word-
        // failure statistics the FIT solver uses, not in this raw ratio.
        assert!(
            (sec_failures as f64) > 1.5 * prot_failures.max(1) as f64,
            "SECDED {sec_failures} vs protected {prot_failures}"
        );
    }

    #[test]
    fn injector_statistics_match_probability() {
        let mut inj = FaultInjector::with_p(1e-2, 99);
        let accesses = 100_000u64;
        for _ in 0..accesses {
            inj.mask(39);
        }
        let expected = accesses as f64 * 39.0 * 1e-2;
        let got = inj.injected() as f64;
        assert!((got / expected - 1.0).abs() < 0.05, "got {got}, expected {expected}");
    }

    #[test]
    fn injector_from_law_zero_above_knee() {
        let law = AccessLaw::cell_based_40nm();
        let mut inj = FaultInjector::from_law(&law, 0.6, 1);
        for _ in 0..1000 {
            assert_eq!(inj.mask(39), 0);
        }
    }

    #[test]
    #[should_panic(expected = "p_bit must be a probability")]
    fn injector_rejects_bad_probability() {
        FaultInjector::with_p(1.5, 0);
    }

    #[test]
    #[should_panic(expected = "at least one word")]
    fn memories_reject_zero_size() {
        RawMemory::new(0);
    }

    #[test]
    fn fault_display() {
        assert!(!MemoryFault { word_index: 3 }.to_string().is_empty());
    }

    #[test]
    fn retention_event_and_scrub_recover_secded() {
        // A standby dip at a voltage where singles are common but doubles
        // rare: the wake-up scrub restores everything.
        let mut m = SecdedMemory::new(512);
        for i in 0..512 {
            m.store(i, (i as u32).wrapping_mul(2654435761));
        }
        let lost = m.inject_retention_event(4e-4, 9);
        assert!(lost > 0, "the event must cost some bits");
        let (corrected, uncorrectable) = m.scrub();
        assert_eq!(corrected, lost, "every lost bit repaired");
        assert_eq!(uncorrectable, 0);
        for i in 0..512 {
            assert_eq!(m.load(i), Ok((i as u32).wrapping_mul(2654435761)));
        }
    }

    #[test]
    fn retention_event_corrupts_raw_memory_permanently() {
        let mut m = RawMemory::new(512);
        for i in 0..512 {
            m.store(i, 0xA5A5_5A5A);
        }
        let lost = m.inject_retention_event(4e-4, 9);
        assert!(lost > 0);
        let wrong = (0..512).filter(|&i| m.load(i) != 0xA5A5_5A5A).count();
        assert!(wrong > 0, "no mitigation means data loss");
    }

    #[test]
    fn protected_memory_scrub_survives_deeper_standby() {
        // At a retention rate that would defeat SECDED words regularly,
        // the interleaved buffer still scrubs clean far more often.
        let mut m = ProtectedMemory::new(512);
        for i in 0..512 {
            m.store(i, i as u32);
        }
        m.inject_retention_event(4e-3, 21);
        let (_, uncorrectable) = m.scrub();
        let mut sec = SecdedMemory::new(512);
        for i in 0..512 {
            sec.store(i, i as u32);
        }
        sec.inject_retention_event(4e-3, 21);
        let (_, sec_uncorrectable) = sec.scrub();
        assert!(
            uncorrectable <= sec_uncorrectable,
            "interleaved {uncorrectable} vs SECDED {sec_uncorrectable}"
        );
    }
}
