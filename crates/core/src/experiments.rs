//! The full-system mitigation study (Figures 8 and 9, plus the headline
//! savings numbers of the abstract).
//!
//! Each experiment runs the 1K-point fixed-point FFT on the simulated
//! platform at the operating voltage the FIT solver assigns to a
//! mitigation policy, injects access errors per the memory style's
//! measured failure law, verifies the numerical result against the golden
//! model, and reports the per-module power breakdown (core, instruction
//! memory, scratchpad, protected memory — the bars of Figures 8/9).

use crate::fit::{FitSolver, Scheme, VoltageGrid};
use ntc_ocean::detect::DetectOnlyMemory;
use ntc_ocean::runtime::{Granularity, OceanConfig, OceanError, OceanRuntime};
use ntc_sim::asm::assemble;
use ntc_sim::fft::{fft_fixed, fft_program, random_input, twiddle_table};
use ntc_sim::fir;
use ntc_sim::memory::{FaultInjector, ProtectedMemory, RawMemory, SecdedMemory};
use ntc_sim::platform::{Platform, PlatformConfig, Protection};
use ntc_sram::failure::AccessLaw;
use ntc_sram::styles::CellStyle;
use ntc_stats::exec::par_map_slice;
use std::fmt;

/// A mitigation policy under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MitigationPolicy {
    /// Unprotected scratchpad.
    NoMitigation,
    /// (39,32) SECDED scratchpad.
    Secded,
    /// OCEAN: detect-only scratchpad + protected checkpoint buffer.
    Ocean,
}

impl MitigationPolicy {
    /// All policies in the paper's order.
    pub const ALL: [MitigationPolicy; 3] = [
        MitigationPolicy::NoMitigation,
        MitigationPolicy::Secded,
        MitigationPolicy::Ocean,
    ];

    /// The FIT-solver scheme this policy corresponds to.
    pub fn scheme(&self) -> Scheme {
        match self {
            MitigationPolicy::NoMitigation => Scheme::NoMitigation,
            MitigationPolicy::Secded => Scheme::Secded,
            MitigationPolicy::Ocean => Scheme::Ocean,
        }
    }
}

impl fmt::Display for MitigationPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.scheme())
    }
}

/// Dotted-lowercase policy name for `ntc-obs` span names.
fn policy_slug(policy: MitigationPolicy) -> &'static str {
    match policy {
        MitigationPolicy::NoMitigation => "no_mitigation",
        MitigationPolicy::Secded => "secded",
        MitigationPolicy::Ocean => "ocean",
    }
}

/// Power drawn by one platform module at the operating point.
#[derive(Debug, Clone, PartialEq)]
pub struct ModulePower {
    /// Module name (`core`, `im`, `sp`, `pm`).
    pub name: String,
    /// Dynamic power, watts.
    pub dynamic_w: f64,
    /// Leakage power, watts.
    pub leakage_w: f64,
}

impl ModulePower {
    /// Total power of the module.
    pub(crate) fn total_w(&self) -> f64 {
        self.dynamic_w + self.leakage_w
    }
}

/// Outcome of one mitigation experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentResult {
    /// The policy that ran.
    pub policy: MitigationPolicy,
    /// Operating voltage, volts.
    pub vdd: f64,
    /// Clock frequency, hertz.
    pub frequency_hz: f64,
    /// Whether the run completed (no unrecoverable trap).
    pub completed: bool,
    /// Words of the FFT output that match the golden model exactly.
    pub correct_words: usize,
    /// Total FFT output words.
    pub total_words: usize,
    /// Cycles including mitigation overheads.
    pub cycles: u64,
    /// Bit errors injected by the fault model.
    pub injected_bits: u64,
    /// Errors repaired (ECC corrections or OCEAN recoveries).
    pub repaired: u64,
    /// Per-module power breakdown.
    pub modules: Vec<ModulePower>,
}

impl ExperimentResult {
    /// Total platform power, watts.
    pub fn total_power_w(&self) -> f64 {
        self.modules.iter().map(ModulePower::total_w).sum()
    }

    /// Total dynamic power, watts.
    pub fn dynamic_power_w(&self) -> f64 {
        self.modules.iter().map(|m| m.dynamic_w).sum()
    }

    /// Whether every output word matched the golden model.
    pub fn is_exact(&self) -> bool {
        self.completed && self.correct_words == self.total_words
    }
}

impl fmt::Display for ExperimentResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<14} @ {:.2} V: {:>9.3} µW ({} of {} words exact, {} repairs)",
            self.policy.to_string(),
            self.vdd,
            self.total_power_w() * 1e6,
            self.correct_words,
            self.total_words,
            self.repaired
        )
    }
}

/// The streaming workload an experiment runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Radix-2 FFT of the given size (power of two, 8..=1024).
    Fft {
        /// Transform length.
        n: usize,
    },
    /// Block FIR filter.
    Fir {
        /// Number of samples.
        n: usize,
        /// Number of taps.
        taps: usize,
        /// Samples per phase block.
        block: usize,
    },
}

impl Workload {
    /// Assembly source + initial memory image + golden output
    /// (`(base_word, expected_words)`).
    fn build(&self, seed: u64) -> (String, Vec<u32>, usize, Vec<u32>) {
        match *self {
            Workload::Fft { n } => {
                let input = random_input(n, seed);
                let tw = twiddle_table(n);
                let mut golden = input.clone();
                fft_fixed(&mut golden, &tw);
                let image: Vec<u32> = input.iter().chain(tw.iter()).copied().collect();
                (fft_program(n), image, 0, golden)
            }
            Workload::Fir { n, taps, block } => {
                let input = fir::random_signal(n, seed);
                let coeffs = fir::moving_average_taps(taps);
                let golden: Vec<u32> = fir::fir_fixed(&input, &coeffs)
                    .into_iter()
                    .map(|v| v as u32)
                    .collect();
                let image: Vec<u32> = input
                    .iter()
                    .chain(coeffs.iter())
                    .map(|&v| v as u32)
                    .collect();
                (fir::fir_program(n, taps, block), image, n + taps, golden)
            }
        }
    }

    /// Scratchpad words the workload's layout needs.
    fn scratchpad_words(&self) -> usize {
        match *self {
            Workload::Fft { n } => ntc_sim::fft::scratchpad_words(n),
            Workload::Fir { n, taps, .. } => fir::scratchpad_words(n, taps),
        }
    }
}

/// Configuration of one experiment run.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Policy under test.
    pub policy: MitigationPolicy,
    /// Operating voltage, volts.
    pub vdd: f64,
    /// Clock frequency, hertz.
    pub frequency_hz: f64,
    /// The workload to run.
    pub workload: Workload,
    /// Memory style whose failure law drives injection.
    pub style: CellStyle,
    /// Random seed (input signal and fault process).
    pub seed: u64,
}

impl ExperimentConfig {
    /// A 1K-point run of `policy` at `vdd`/`frequency_hz` on the
    /// cell-based memory (the Figure 8 regime).
    pub fn cell_based(policy: MitigationPolicy, vdd: f64, frequency_hz: f64) -> Self {
        Self {
            policy,
            vdd,
            frequency_hz,
            workload: Workload::Fft { n: 1024 },
            style: CellStyle::CellBasedAoi,
            seed: 2014,
        }
    }

    /// The commercial-memory regime of Figure 9.
    pub(crate) fn commercial(policy: MitigationPolicy, vdd: f64, frequency_hz: f64) -> Self {
        Self {
            style: CellStyle::Commercial6T,
            ..Self::cell_based(policy, vdd, frequency_hz)
        }
    }
}

/// Runs one mitigation experiment.
///
/// # Panics
///
/// Panics on invalid workload parameters (propagated from the kernel
/// generators).
pub fn run_experiment(cfg: &ExperimentConfig) -> ExperimentResult {
    let (source, image, golden_base, golden) = cfg.workload.build(cfg.seed);
    let program = assemble(&source).expect("generated kernel assembles");
    let n = golden.len();
    let law = cfg.style.access_law();
    let injector_seed = cfg.seed ^ 0x5EED_F00D;
    let region_words = cfg.workload.scratchpad_words();
    let sp_words = region_words.next_power_of_two().max(2048.min(region_words * 2));

    let protection = match cfg.policy {
        MitigationPolicy::NoMitigation => Protection::None,
        MitigationPolicy::Secded => Protection::Secded,
        MitigationPolicy::Ocean => Protection::DetectOnly,
    };
    let mut pconfig = PlatformConfig::mparm_like(cfg.vdd, cfg.frequency_hz, protection)
        .with_memory_style(cfg.style);
    if cfg.policy == MitigationPolicy::Ocean {
        pconfig = pconfig.with_protected_buffer(region_words as u32);
    }

    match cfg.policy {
        MitigationPolicy::NoMitigation => {
            let mut sp = RawMemory::new(sp_words)
                .with_injector(FaultInjector::from_law(&law, cfg.vdd, injector_seed));
            for (i, &w) in image.iter().enumerate() {
                sp.store(i, w);
            }
            let mut platform = Platform::new(&pconfig, program, sp, None);
            let completed = platform.run(u64::MAX).is_ok();
            let correct = (0..n)
                .filter(|&i| platform.scratchpad().load(golden_base + i) == golden[i])
                .count();
            let injected = platform.scratchpad().injected_bits();
            finish(cfg, platform.cycles(), completed, correct, n, injected, 0, collect(
                &platform, cfg,
            ))
        }
        MitigationPolicy::Secded => {
            let mut sp = SecdedMemory::new(sp_words)
                .with_injector(FaultInjector::from_law(&law, cfg.vdd, injector_seed));
            for (i, &w) in image.iter().enumerate() {
                sp.store(i, w);
            }
            let mut platform = Platform::new(&pconfig, program, sp, None);
            let completed = platform.run(u64::MAX).is_ok();
            let correct = (0..n)
                .filter(|&i| platform.scratchpad().load(golden_base + i) == Ok(golden[i]))
                .count();
            let stats = platform.scratchpad().stats();
            let injected = platform.scratchpad().injected_bits();
            finish(
                cfg,
                platform.cycles(),
                completed,
                correct,
                n,
                injected,
                stats.corrected_bits,
                collect(&platform, cfg),
            )
        }
        MitigationPolicy::Ocean => {
            let sp = DetectOnlyMemory::new(sp_words)
                .with_injector(FaultInjector::from_law(&law, cfg.vdd, injector_seed));
            let pm = ProtectedMemory::new(region_words);
            let mut platform = Platform::new(&pconfig, program, sp, Some(pm));
            let mut initial = image.clone();
            initial.resize(region_words, 0);
            for (i, &w) in initial.iter().enumerate() {
                platform.scratchpad_mut().store(i, w);
            }
            let ocean_cfg = OceanConfig::new(0, region_words)
                .with_granularity(Granularity::WriteThrough);
            let mut runtime = OceanRuntime::new(ocean_cfg);
            let run = runtime.run(&mut platform, &initial, u64::MAX);
            let completed = !matches!(
                run,
                Err(OceanError::ProtectedBufferFailure { .. })
                    | Err(OceanError::RollbackStorm { .. })
                    | Err(OceanError::Trap(_))
                    | Err(OceanError::UnprotectedFault { .. })
            );
            // Verify against the golden copy maintained in the protected
            // buffer (the authoritative output under OCEAN).
            let correct = (0..n)
                .filter(|&i| {
                    platform
                        .protected()
                        .expect("buffer attached")
                        .load(golden_base + i)
                        .map(|v| v == golden[i])
                        .unwrap_or(false)
                })
                .count();
            let stats = runtime.stats();
            finish(
                cfg,
                platform.cycles(),
                completed,
                correct,
                n,
                0,
                stats.word_recoveries,
                collect(&platform, cfg),
            )
        }
    }
}

/// Snapshots the ledger into power figures at the configured frequency.
fn collect<M: ntc_sim::memory::DataPort>(
    platform: &Platform<M>,
    cfg: &ExperimentConfig,
) -> Vec<ModulePower> {
    let elapsed = platform.cycles() as f64 / cfg.frequency_hz;
    platform
        .ledger()
        .iter()
        .map(|(name, e)| ModulePower {
            name: name.to_string(),
            dynamic_w: e.dynamic_j / elapsed,
            leakage_w: e.leakage_j / elapsed,
        })
        .collect()
}

#[allow(clippy::too_many_arguments)]
fn finish(
    cfg: &ExperimentConfig,
    cycles: u64,
    completed: bool,
    correct_words: usize,
    total_words: usize,
    injected_bits: u64,
    repaired: u64,
    modules: Vec<ModulePower>,
) -> ExperimentResult {
    ExperimentResult {
        policy: cfg.policy,
        vdd: cfg.vdd,
        frequency_hz: cfg.frequency_hz,
        completed,
        correct_words,
        total_words,
        cycles,
        injected_bits,
        repaired,
        modules,
    }
}

/// The row for `policy` in a set of experiment results, looked up by
/// policy identity rather than position — reorderings of the result set
/// cannot silently redirect a savings computation to the wrong row.
pub(crate) fn result_for(
    rows: &[ExperimentResult],
    policy: MitigationPolicy,
) -> Option<&ExperimentResult> {
    rows.iter().find(|r| r.policy == policy)
}

/// Fractional total-power saving of `new` relative to `base`
/// (`1 − P_new / P_base`).
pub(crate) fn power_saving(base: &ExperimentResult, new: &ExperimentResult) -> f64 {
    1.0 - new.total_power_w() / base.total_power_w()
}

/// The Figure 8 experiment: 290 kHz on the cell-based memory at the
/// Table 2 voltages (0.55 / 0.44 / 0.33 V).
///
/// The three mitigation policies run concurrently via the parallel
/// engine; [`run_experiment`] is a pure function of its config (all
/// randomness is seeded inside), so the rows are identical to a serial
/// map and come back in policy order.
pub fn figure8() -> Vec<ExperimentResult> {
    figure8_seeded(2014)
}

/// [`figure8`] with an explicit input/fault seed.
pub fn figure8_seeded(seed: u64) -> Vec<ExperimentResult> {
    let solver =
        FitSolver::new(AccessLaw::cell_based_40nm(), 1e-15).with_grid(VoltageGrid::PaperGrid);
    par_map_slice(&MitigationPolicy::ALL, |&policy| {
        let _span = ntc_obs::span(format!("experiments.fig8.{}", policy_slug(policy)));
        let vdd = solver.min_voltage(policy.scheme());
        run_experiment(&ExperimentConfig {
            seed,
            ..ExperimentConfig::cell_based(policy, vdd, 290e3)
        })
    })
}

/// The Figure 9 experiment: 11 MHz on the commercial memory at
/// 0.88 / 0.77 / 0.66 V. Policies run concurrently, as in [`figure8`].
pub(crate) fn figure9() -> Vec<ExperimentResult> {
    figure9_seeded(2014)
}

/// `figure9` with an explicit input/fault seed.
pub fn figure9_seeded(seed: u64) -> Vec<ExperimentResult> {
    let solver =
        FitSolver::new(AccessLaw::commercial_40nm(), 1e-15).with_grid(VoltageGrid::PaperGrid);
    par_map_slice(&MitigationPolicy::ALL, |&policy| {
        let _span = ntc_obs::span(format!("experiments.fig9.{}", policy_slug(policy)));
        let vdd = solver.min_voltage(policy.scheme());
        run_experiment(&ExperimentConfig {
            seed,
            ..ExperimentConfig::commercial(policy, vdd, 11e6)
        })
    })
}

/// The abstract's headline ratios, measured on this reproduction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Headline {
    /// Power saving of OCEAN vs. no mitigation at 290 kHz (paper: ≤ 70 %).
    pub ocean_vs_none_290khz: f64,
    /// Power saving of OCEAN vs. ECC at 290 kHz (paper: ≤ 48 %).
    pub ocean_vs_ecc_290khz: f64,
    /// Power saving of OCEAN vs. no mitigation at 11 MHz (paper: 34 %).
    pub ocean_vs_none_11mhz: f64,
    /// Power saving of OCEAN vs. ECC at 11 MHz (paper: 26 %).
    pub ocean_vs_ecc_11mhz: f64,
    /// Dynamic-power ratio between error-free-limit operation (0.55 V) and
    /// mitigated operation (0.33 V) — the conclusion's "3.3x lower
    /// dynamic power beyond the voltage limit for error free operation".
    pub dynamic_power_gain: f64,
}

impl Headline {
    /// Computes the headline ratios from already-measured Figure 8/9 rows.
    ///
    /// Rows are located by [`MitigationPolicy`], not by position, so any
    /// ordering of the inputs yields the same ratios.
    ///
    /// # Panics
    ///
    /// Panics if either slice is missing one of the three policies.
    pub(crate) fn from_rows(f8: &[ExperimentResult], f9: &[ExperimentResult]) -> Headline {
        let pick = |rows: &[ExperimentResult], policy| -> ExperimentResult {
            result_for(rows, policy)
                .unwrap_or_else(|| panic!("missing {policy:?} row"))
                .clone()
        };
        let (none8, ecc8, ocean8) = (
            pick(f8, MitigationPolicy::NoMitigation),
            pick(f8, MitigationPolicy::Secded),
            pick(f8, MitigationPolicy::Ocean),
        );
        let (none9, ecc9, ocean9) = (
            pick(f9, MitigationPolicy::NoMitigation),
            pick(f9, MitigationPolicy::Secded),
            pick(f9, MitigationPolicy::Ocean),
        );
        Headline {
            ocean_vs_none_290khz: power_saving(&none8, &ocean8),
            ocean_vs_ecc_290khz: power_saving(&ecc8, &ocean8),
            ocean_vs_none_11mhz: power_saving(&none9, &ocean9),
            ocean_vs_ecc_11mhz: power_saving(&ecc9, &ocean9),
            dynamic_power_gain: none8.dynamic_power_w() / ocean8.dynamic_power_w(),
        }
    }
}

/// Computes the headline ratios from the Figure 8/9 experiments.
pub fn headline() -> Headline {
    Headline::from_rows(&figure8(), &figure9())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(policy: MitigationPolicy, vdd: f64) -> ExperimentConfig {
        ExperimentConfig {
            workload: Workload::Fft { n: 128 },
            ..ExperimentConfig::cell_based(policy, vdd, 290e3)
        }
    }

    fn small_fir(policy: MitigationPolicy, vdd: f64) -> ExperimentConfig {
        ExperimentConfig {
            workload: Workload::Fir { n: 128, taps: 8, block: 32 },
            ..ExperimentConfig::cell_based(policy, vdd, 290e3)
        }
    }

    #[test]
    fn no_mitigation_is_exact_at_error_free_voltage() {
        let r = run_experiment(&small(MitigationPolicy::NoMitigation, 0.55));
        assert!(r.completed);
        assert!(r.is_exact(), "{} of {} words", r.correct_words, r.total_words);
        assert_eq!(r.injected_bits, 0, "no errors at the knee");
    }

    #[test]
    fn no_mitigation_corrupts_below_the_knee() {
        // 0.33 V: the OCEAN operating point, hopeless without mitigation.
        let r = run_experiment(&small(MitigationPolicy::NoMitigation, 0.33));
        // Errors happen and nothing repairs them: silent corruption (or a
        // crash from corrupted addresses).
        assert!(r.injected_bits > 0);
        assert!(!r.is_exact(), "unprotected run must corrupt at 0.33 V");
    }

    #[test]
    fn secded_is_exact_at_its_solved_voltage() {
        let r = run_experiment(&small(MitigationPolicy::Secded, 0.44));
        assert!(r.completed);
        assert!(r.is_exact());
    }

    #[test]
    fn ocean_is_exact_at_its_solved_voltage_with_recoveries() {
        let r = run_experiment(&small(MitigationPolicy::Ocean, 0.33));
        assert!(r.completed);
        assert!(r.is_exact(), "{} of {}", r.correct_words, r.total_words);
        assert!(r.repaired > 0, "0.33 V must exercise the recovery path");
    }

    #[test]
    fn power_breakdown_has_all_modules() {
        let r = run_experiment(&small(MitigationPolicy::Ocean, 0.33));
        let names: Vec<&str> = r.modules.iter().map(|m| m.name.as_str()).collect();
        for want in ["core", "im", "sp", "pm"] {
            assert!(names.contains(&want), "missing module {want}");
        }
        assert!(r.total_power_w() > 0.0);
        assert!(!r.to_string().is_empty());
    }

    #[test]
    fn lower_voltage_lower_power_under_protection() {
        let hi = run_experiment(&small(MitigationPolicy::Secded, 0.55));
        let lo = run_experiment(&small(MitigationPolicy::Secded, 0.44));
        assert!(lo.total_power_w() < hi.total_power_w());
    }

    #[test]
    fn figure8_shape_matches_paper() {
        let rows = figure8();
        assert_eq!(rows.len(), 3);
        // Everyone completes and is numerically exact at their voltage.
        for r in &rows {
            assert!(r.is_exact(), "{}: {} of {}", r.policy, r.correct_words, r.total_words);
        }
        let p_none = rows[0].total_power_w();
        let p_ecc = rows[1].total_power_w();
        let p_ocean = rows[2].total_power_w();
        // The ordering the paper reports: mitigation saves power, OCEAN
        // saves the most.
        assert!(p_ecc < p_none, "ECC must beat no mitigation");
        assert!(p_ocean < p_ecc, "OCEAN must beat ECC");
        // Shape targets: ~70 % and ~48 % savings (generous bands).
        let s_none = 1.0 - p_ocean / p_none;
        let s_ecc = 1.0 - p_ocean / p_ecc;
        assert!((0.45..0.85).contains(&s_none), "OCEAN vs none: {s_none:.2}");
        assert!((0.20..0.65).contains(&s_ecc), "OCEAN vs ECC: {s_ecc:.2}");
    }

    #[test]
    fn figure9_shape_matches_paper() {
        let rows = figure9();
        for r in &rows {
            assert!(r.is_exact(), "{}: {} of {}", r.policy, r.correct_words, r.total_words);
        }
        let p_none = rows[0].total_power_w();
        let p_ecc = rows[1].total_power_w();
        let p_ocean = rows[2].total_power_w();
        assert!(p_ocean < p_ecc && p_ecc < p_none);
        let s_none = 1.0 - p_ocean / p_none;
        let s_ecc = 1.0 - p_ocean / p_ecc;
        // Paper: 34 % and 26 %.
        assert!((0.15..0.60).contains(&s_none), "OCEAN vs none: {s_none:.2}");
        assert!((0.10..0.50).contains(&s_ecc), "OCEAN vs ECC: {s_ecc:.2}");
        // And the 11 MHz case burns an order of magnitude more power than
        // the 290 kHz case.
        let f8 = figure8();
        assert!(p_none > 5.0 * f8[0].total_power_w());
    }

    #[test]
    fn fir_workload_exact_under_all_policies() {
        // The paper: "the analysis is applicable to other streaming
        // applications as well" — verified at system level.
        for (policy, vdd) in [
            (MitigationPolicy::NoMitigation, 0.55),
            (MitigationPolicy::Secded, 0.44),
            (MitigationPolicy::Ocean, 0.33),
        ] {
            let r = run_experiment(&small_fir(policy, vdd));
            assert!(r.is_exact(), "{policy} at {vdd} V: {}/{}", r.correct_words, r.total_words);
        }
    }

    #[test]
    fn fir_corrupts_without_mitigation_at_ntv() {
        let r = run_experiment(&small_fir(MitigationPolicy::NoMitigation, 0.33));
        assert!(!r.is_exact(), "unprotected FIR must corrupt at 0.33 V");
    }
}
