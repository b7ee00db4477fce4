//! End-to-end integration: the full stack from assembler to OCEAN
//! recovery, exercised the way a user of the library would.

use ntc::experiments::{run_experiment, ExperimentConfig, MitigationPolicy, Workload};
use ntc::fit::{paper_platform_f_max, FitSolver, Scheme, VoltageGrid};
use ntc_ocean::detect::DetectOnlyMemory;
use ntc_ocean::runtime::{Granularity, OceanConfig, OceanRuntime};
use ntc_sim::asm::assemble;
use ntc_sim::fft::{fft_fixed, fft_program, random_input, scratchpad_words, twiddle_table};
use ntc_sim::memory::{FaultInjector, ProtectedMemory, RawMemory, SecdedMemory};
use ntc_sim::platform::{Platform, PlatformConfig, Protection};
use ntc_sram::failure::AccessLaw;

/// The flagship run: 1K-point FFT in simulated assembly equals the native
/// fixed-point model bit for bit on an error-free platform.
#[test]
fn full_1k_fft_on_the_platform_matches_native() {
    let n = 1024;
    let program = assemble(&fft_program(n)).expect("kernel assembles");
    let cfg = PlatformConfig::mparm_like(0.55, 290e3, Protection::None);
    let mut sp = RawMemory::new(2048);
    let input = random_input(n, 99);
    let tw = twiddle_table(n);
    for (i, &w) in input.iter().chain(tw.iter()).enumerate() {
        sp.store(i, w);
    }
    let mut platform = Platform::new(&cfg, program, sp, None);
    let out = platform.run(u64::MAX).expect("fft completes");
    assert!(out.halted);

    let mut golden = input;
    fft_fixed(&mut golden, &tw);
    for (i, &g) in golden.iter().enumerate() {
        assert_eq!(platform.scratchpad().load(i), g, "word {i}");
    }
    // Plausible cycle count for an ARM9-class core: a 1K FFT takes a few
    // hundred thousand cycles.
    assert!(out.cycles > 100_000 && out.cycles < 2_000_000, "{} cycles", out.cycles);
}

/// ECC keeps the same program exact at 0.44 V where raw storage breaks.
#[test]
fn secded_rescues_the_fft_where_raw_fails() {
    let n = 256;
    let law = AccessLaw::cell_based_40nm();
    let vdd = 0.36; // well below the knee: raw is hopeless, SECDED mostly holds
    let program = assemble(&fft_program(n)).unwrap();
    let input = random_input(n, 5);
    let tw = twiddle_table(n);
    let mut golden = input.clone();
    fft_fixed(&mut golden, &tw);

    // Raw: silent corruption.
    let cfg = PlatformConfig::mparm_like(vdd, 290e3, Protection::None);
    let mut sp = RawMemory::new(512).with_injector(FaultInjector::from_law(&law, vdd, 1));
    for (i, &w) in input.iter().chain(tw.iter()).enumerate() {
        sp.store(i, w);
    }
    let mut raw_platform = Platform::new(&cfg, program.clone(), sp, None);
    let _ = raw_platform.run(u64::MAX);
    let raw_correct = (0..n)
        .filter(|&i| raw_platform.scratchpad().load(i) == golden[i])
        .count();
    assert!(raw_correct < n, "raw platform must corrupt at {vdd} V");

    // SECDED: exact (double errors are possible but rare at this rate;
    // the fixed seed keeps this deterministic).
    let cfg = PlatformConfig::mparm_like(vdd, 290e3, Protection::Secded);
    let mut sp = SecdedMemory::new(512).with_injector(FaultInjector::from_law(&law, vdd, 1));
    for (i, &w) in input.iter().chain(tw.iter()).enumerate() {
        sp.store(i, w);
    }
    let mut ecc_platform = Platform::new(&cfg, program, sp, None);
    ecc_platform.run(u64::MAX).expect("ECC platform completes");
    let ecc_correct = (0..n)
        .filter(|&i| ecc_platform.scratchpad().load(i) == Ok(golden[i]))
        .count();
    assert_eq!(ecc_correct, n, "SECDED output must be exact");
    assert!(
        ecc_platform.scratchpad().stats().corrected_bits > 0,
        "corrections must actually have happened"
    );
}

/// OCEAN completes exactly at a voltage where even SECDED's word-failure
/// probability is far beyond the FIT budget.
#[test]
fn ocean_runs_exact_at_0v33() {
    let n = 512;
    let law = AccessLaw::cell_based_40nm();
    let vdd = 0.33;
    let program = assemble(&fft_program(n)).unwrap();
    let input = random_input(n, 31);
    let tw = twiddle_table(n);
    let mut golden = input.clone();
    fft_fixed(&mut golden, &tw);
    let region = scratchpad_words(n);

    let cfg = PlatformConfig::mparm_like(vdd, 290e3, Protection::DetectOnly)
        .with_protected_buffer(region as u32);
    let sp = DetectOnlyMemory::new(1024).with_injector(FaultInjector::from_law(&law, vdd, 3));
    let mut platform = Platform::new(&cfg, program, sp, Some(ProtectedMemory::new(region)));
    let initial: Vec<u32> = input.iter().chain(tw.iter()).copied().collect();
    for (i, &w) in initial.iter().enumerate() {
        platform.scratchpad_mut().store(i, w);
    }
    let mut runtime = OceanRuntime::new(
        OceanConfig::new(0, region).with_granularity(Granularity::WriteThrough),
    );
    runtime
        .run(&mut platform, &initial, u64::MAX)
        .expect("OCEAN completes at 0.33 V");
    assert!(runtime.stats().word_recoveries > 0, "recoveries expected");
    for (i, &g) in golden.iter().enumerate() {
        let got = platform.protected().unwrap().load(i).expect("golden copy readable");
        assert_eq!(got, g, "word {i}");
    }
}

/// The solver, the experiment driver and the energy ledger agree: running
/// each policy at its solved voltage completes exactly, and power drops
/// monotonically with mitigation strength.
#[test]
fn solved_voltages_are_consistent_with_execution() {
    let solver =
        FitSolver::new(AccessLaw::cell_based_40nm(), 1e-15).with_grid(VoltageGrid::PaperGrid);
    let mut last_power = f64::INFINITY;
    for policy in MitigationPolicy::ALL {
        let vdd = solver.min_voltage(policy.scheme());
        let result = run_experiment(&ExperimentConfig {
            workload: Workload::Fft { n: 256 },
            ..ExperimentConfig::cell_based(policy, vdd, 290e3)
        });
        assert!(result.is_exact(), "{policy} at {vdd} V must be exact");
        let p = result.total_power_w();
        assert!(p < last_power, "{policy}: power must decrease with voltage");
        last_power = p;
    }
}

/// Standby end to end: compute, drop to the mitigated retention voltage,
/// take the retention hit, wake up, scrub, and verify nothing was lost —
/// the Section II standby story exercised functionally.
#[test]
fn standby_dip_with_scrub_preserves_results() {
    use ntc_memcalc::instance::{MemoryMacro, MemoryOrganization};
    use ntc_sram::styles::CellStyle;

    let n = 256;
    let program = assemble(&fft_program(n)).unwrap();
    let input = random_input(n, 77);
    let tw = twiddle_table(n);
    let mut golden = input.clone();
    fft_fixed(&mut golden, &tw);

    // Compute at the ECC operating point (error-free run for clarity).
    let cfg = PlatformConfig::mparm_like(0.44, 290e3, Protection::Secded);
    let mut sp = SecdedMemory::new(512);
    for (i, &w) in input.iter().chain(tw.iter()).enumerate() {
        sp.store(i, w);
    }
    let mut platform = Platform::new(&cfg, program, sp, None);
    platform.run(u64::MAX).unwrap();

    // Sleep at the SECDED standby point: the lowest supply at which the
    // reference macro's retention failures stay within SECDED's FIT
    // budget of 1e-15.
    let v_sleep = 0.347_010_848_051_855_45;
    // Take a noticeably harder hit than the solved point predicts (a
    // cold-corner standby), still within single-error-per-word territory.
    let p_bit = MemoryMacro::new(
        CellStyle::CellBasedAoi,
        MemoryOrganization::reference_1kx32(),
        ntc_tech::card::n40lp(),
    )
    .retention_law()
    .p_bit(v_sleep - 0.04);
    let lost = platform.scratchpad_mut().inject_retention_event(p_bit, 3);
    assert!(lost > 0, "the dip must cost bits (p = {p_bit:.2e})");

    // Wake-up scrub repairs everything; results verify exactly.
    let (corrected, uncorrectable) = platform.scratchpad_mut().scrub();
    assert_eq!(corrected, lost);
    assert_eq!(uncorrectable, 0);
    for (i, &g) in golden.iter().enumerate() {
        assert_eq!(platform.scratchpad().load(i), Ok(g), "word {i}");
    }
}

/// Performance constraints flow end to end: the 1.96 MHz requirement lifts
/// OCEAN's operating point from 0.33 V to 0.44 V.
#[test]
fn performance_constraint_lifts_ocean() {
    let solver =
        FitSolver::new(AccessLaw::cell_based_40nm(), 1e-15).with_grid(VoltageGrid::PaperGrid);
    let slow = solver.solve(Scheme::Ocean, 290e3, paper_platform_f_max);
    let fast = solver.solve(Scheme::Ocean, 1.96e6, paper_platform_f_max);
    assert_eq!(slow.operating, 0.33);
    assert_eq!(fast.operating, 0.44);
}
