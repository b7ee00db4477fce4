//! The DMA engine of Figure 6's OCEAN hardware additions.
//!
//! OCEAN's checkpoint and restore traffic does not trickle through the
//! core: the paper's platform adds a DMA block that moves chunks between
//! the scratchpad and the protected memory while the core stalls. The
//! [`Dma`] engine models that: block transfers with a fixed setup cost
//! plus a per-word beat cost, charged to the platform as stall cycles,
//! with every word moving through the real protection schemes (so a
//! transfer can *detect* an error and abort, which is exactly the signal
//! the OCEAN runtime acts on).

use crate::memory::{DataPort, MemoryFault};
use crate::platform::Platform;
use std::fmt;

/// Cumulative DMA statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DmaStats {
    /// Transfers started.
    pub transfers: u64,
    /// Words successfully moved.
    pub words_moved: u64,
    /// Transfers aborted on a detected error.
    pub aborts: u64,
    /// Stall cycles charged to the platform.
    pub stall_cycles: u64,
}

/// A block-transfer DMA engine between scratchpad and protected memory.
///
/// # Example
///
/// See the OCEAN runtime (`ntc-ocean`), which owns one of these for its
/// checkpoint traffic; the unit tests below exercise transfers directly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dma {
    setup_cycles: u64,
    cycles_per_word: u64,
    stats: DmaStats,
}

impl Dma {
    /// Creates an engine with a per-transfer setup cost and per-word beat
    /// cost (cycles).
    ///
    /// # Panics
    ///
    /// Panics if `cycles_per_word == 0` (a free bus breaks the energy
    /// accounting assumptions).
    pub fn new(setup_cycles: u64, cycles_per_word: u64) -> Self {
        assert!(cycles_per_word > 0, "per-word cost must be nonzero");
        Self {
            setup_cycles,
            cycles_per_word,
            stats: DmaStats::default(),
        }
    }

    /// The Figure 6 defaults: 8 setup cycles, 2 cycles per word.
    pub fn figure6_default() -> Self {
        Self::new(8, 2)
    }

    /// Statistics so far.
    pub fn stats(&self) -> DmaStats {
        self.stats
    }

    /// Cycle cost of a `words`-word transfer.
    pub fn transfer_cycles(&self, words: usize) -> u64 {
        self.setup_cycles + self.cycles_per_word * words as u64
    }

    /// Copies `words` words scratchpad → protected memory.
    ///
    /// Stall cycles are charged for the portion transferred (plus setup).
    /// A detected scratchpad error aborts the transfer at the failing
    /// word.
    ///
    /// # Errors
    ///
    /// Returns the scratchpad's [`MemoryFault`].
    ///
    /// # Panics
    ///
    /// Panics if the platform has no protected buffer.
    pub fn sp_to_pm<M: DataPort>(
        &mut self,
        platform: &mut Platform<M>,
        sp_base: usize,
        pm_base: usize,
        words: usize,
    ) -> Result<(), MemoryFault> {
        self.stats.transfers += 1;
        for i in 0..words {
            match platform.sp_capture(sp_base + i) {
                Ok(value) => {
                    platform
                        .pm_write(pm_base + i, value)
                        .expect("pm writes are infallible");
                    self.stats.words_moved += 1;
                }
                Err(fault) => {
                    self.stats.aborts += 1;
                    self.charge(platform, i + 1);
                    return Err(fault);
                }
            }
        }
        self.charge(platform, words);
        Ok(())
    }

    /// Copies `words` words protected memory → scratchpad (restore).
    ///
    /// # Errors
    ///
    /// Returns the protected buffer's [`MemoryFault`] (an uncorrectable
    /// checkpoint word — the OCEAN system-failure event).
    ///
    /// # Panics
    ///
    /// Panics if the platform has no protected buffer.
    pub fn pm_to_sp<M: DataPort>(
        &mut self,
        platform: &mut Platform<M>,
        pm_base: usize,
        sp_base: usize,
        words: usize,
    ) -> Result<(), MemoryFault> {
        self.stats.transfers += 1;
        for i in 0..words {
            match platform.pm_read(pm_base + i) {
                Ok(value) => {
                    platform
                        .sp_restore(sp_base + i, value)
                        .expect("restore writes do not fault");
                    self.stats.words_moved += 1;
                }
                Err(fault) => {
                    self.stats.aborts += 1;
                    self.charge(platform, i + 1);
                    return Err(fault);
                }
            }
        }
        self.charge(platform, words);
        Ok(())
    }

    fn charge<M: DataPort>(&mut self, platform: &mut Platform<M>, words: usize) {
        let cycles = self.transfer_cycles(words);
        platform.charge_stall(cycles);
        self.stats.stall_cycles += cycles;
    }
}

impl fmt::Display for Dma {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "DMA ({} setup + {}/word cycles; {} transfers, {} words, {} aborts)",
            self.setup_cycles,
            self.cycles_per_word,
            self.stats.transfers,
            self.stats.words_moved,
            self.stats.aborts
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;
    use crate::memory::{ProtectedMemory, RawMemory};
    use crate::platform::{PlatformConfig, Protection};

    fn platform_with_pm() -> Platform<RawMemory> {
        let cfg = PlatformConfig::mparm_like(0.5, 1e6, Protection::None)
            .with_protected_buffer(64);
        let program = assemble("halt").unwrap();
        let mut sp = RawMemory::new(64);
        for i in 0..64 {
            sp.store(i, (i as u32) * 3 + 1);
        }
        Platform::new(&cfg, program, sp, Some(ProtectedMemory::new(64)))
    }

    #[test]
    fn round_trip_preserves_data_and_charges_stalls() {
        let mut p = platform_with_pm();
        let mut dma = Dma::figure6_default();
        dma.sp_to_pm(&mut p, 0, 0, 32).unwrap();
        // Clobber the scratchpad, then restore.
        for i in 0..32 {
            p.scratchpad_mut().store(i, 0);
        }
        dma.pm_to_sp(&mut p, 0, 0, 32).unwrap();
        for i in 0..32 {
            assert_eq!(p.scratchpad().load(i), (i as u32) * 3 + 1);
        }
        let s = dma.stats();
        assert_eq!(s.transfers, 2);
        assert_eq!(s.words_moved, 64);
        assert_eq!(s.aborts, 0);
        assert_eq!(s.stall_cycles, 2 * (8 + 2 * 32));
        assert_eq!(p.cycles(), s.stall_cycles, "stalls land on the platform clock");
        // Both memories' energy was charged.
        assert!(p.ledger().module("sp").dynamic_j > 0.0);
        assert!(p.ledger().module("pm").dynamic_j > 0.0);
    }

    #[test]
    fn restore_aborts_on_uncorrectable_checkpoint() {
        let mut p = platform_with_pm();
        let mut dma = Dma::figure6_default();
        dma.sp_to_pm(&mut p, 0, 0, 16).unwrap();
        // Destroy a checkpoint word beyond quadruple correction.
        p.protected_mut().unwrap().corrupt(5, 0b11111);
        let err = dma.pm_to_sp(&mut p, 0, 0, 16).unwrap_err();
        assert_eq!(err.word_index, 5);
        assert_eq!(dma.stats().aborts, 1);
        // Words before the fault were moved.
        assert_eq!(dma.stats().words_moved, 16 + 5);
    }

    #[test]
    fn transfer_cost_model() {
        let dma = Dma::new(10, 3);
        assert_eq!(dma.transfer_cycles(0), 10);
        assert_eq!(dma.transfer_cycles(100), 310);
    }

    #[test]
    #[should_panic(expected = "per-word cost")]
    fn zero_beat_cost_rejected() {
        Dma::new(0, 0);
    }

    #[test]
    fn display_nonempty() {
        assert!(!Dma::figure6_default().to_string().is_empty());
    }
}
