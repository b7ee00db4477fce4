//! Phase planning from measured workload profiles.
//!
//! The paper's OCEAN "applies nonlinear programming to achieve the minimal
//! energy overhead possible"; the inputs of that program are workload
//! numbers — cycles to re-execute, accesses that can trigger detection,
//! checkpoint size. Rather than hand-estimating them, this module plugs an
//! [`ntc_sim::profile::Profile`] measured on an error-free run into the
//! [`PhaseCostModel`], closing the loop from simulator to optimizer.

use crate::optimizer::{ModelError, PhaseCostModel};
use ntc_sim::profile::Profile;
use ntc_sram::failure::AccessLaw;

/// Builds a phase cost model from a measured profile.
///
/// * `profile` — measured on an error-free run (see
///   [`ntc_sim::profile::profile`]).
/// * `region_words` — checkpoint size per phase boundary.
/// * `law`, `vdd` — the scratchpad failure law and operating point; the
///   per-access *word* detection probability is `1 − (1−p_bit)^39` for the
///   39-bit detect-only storage.
///
/// # Errors
///
/// Returns [`ModelError`] if the profile is degenerate (no cycles or no
/// accesses) or the word-error probability reaches 1.
pub(crate) fn model_from_profile(
    profile: &Profile,
    region_words: u32,
    law: &AccessLaw,
    vdd: f64,
) -> Result<PhaseCostModel, ModelError> {
    let p_word = 1.0 - (1.0 - law.p_bit(vdd)).powi(39_i32);
    PhaseCostModel::new(profile.cycles, profile.accesses(), region_words, p_word)
}

/// The optimal phase count for a measured workload at an operating point,
/// searched up to `max_phases`.
///
/// # Errors
///
/// Propagates [`ModelError`] from `model_from_profile`.
pub fn planned_phase_count(
    profile: &Profile,
    region_words: u32,
    law: &AccessLaw,
    vdd: f64,
    max_phases: u32,
) -> Result<u32, ModelError> {
    Ok(model_from_profile(profile, region_words, law, vdd)?.optimal_phase_count(max_phases))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ntc_sim::asm::assemble;
    use ntc_sim::fft::{fft_program, random_input, scratchpad_words, twiddle_table};
    use ntc_sim::memory::RawMemory;
    use ntc_sim::profile::profile;

    fn fft_profile(n: usize) -> Profile {
        let program = assemble(&fft_program(n)).unwrap();
        let mut mem = RawMemory::new(scratchpad_words(n).next_power_of_two());
        for (i, &w) in random_input(n, 1)
            .iter()
            .chain(twiddle_table(n).iter())
            .enumerate()
        {
            mem.store(i, w);
        }
        profile(&program, &mut mem, u64::MAX).unwrap()
    }

    #[test]
    fn fft_plan_scales_with_voltage() {
        let p = fft_profile(256);
        let law = AccessLaw::cell_based_40nm();
        let region = scratchpad_words(256) as u32;
        // Error-free voltage: a single phase is optimal.
        let clean = planned_phase_count(&p, region, &law, 0.56, 64).unwrap();
        assert_eq!(clean, 1);
        // At the OCEAN operating point, finer phases pay off.
        let ntv = planned_phase_count(&p, region, &law, 0.33, 64).unwrap();
        assert!(ntv > 1, "expected multi-phase plan at 0.33 V, got {ntv}");
        // And the plan grows monotonically as the voltage falls.
        let mid = planned_phase_count(&p, region, &law, 0.40, 64).unwrap();
        assert!(clean <= mid && mid <= ntv, "{clean} <= {mid} <= {ntv}");
    }

    #[test]
    fn natural_stage_phasing_is_too_coarse_at_0v33() {
        // At the OCEAN operating point the optimizer wants phases much
        // finer than the FFT's natural stage boundaries — the quantitative
        // version of why the paper emphasizes "finer granularity" (and why
        // the runtime's write-through mode exists).
        let n = 256;
        let p = fft_profile(n);
        let natural = p.phase_markers as u32; // 1 + log2(n) = 9
        let law = AccessLaw::cell_based_40nm();
        let planned =
            planned_phase_count(&p, scratchpad_words(n) as u32, &law, 0.33, 256).unwrap();
        assert!(
            planned > 4 * natural,
            "expected a much finer plan than the {natural} stages, got {planned}"
        );
        // At a mild voltage the stage granularity is already enough.
        let easy = planned_phase_count(&p, scratchpad_words(n) as u32, &law, 0.47, 256).unwrap();
        assert!(easy <= natural, "at 0.47 V got {easy}");
    }

    #[test]
    fn degenerate_profiles_rejected() {
        let empty = Profile::default();
        let law = AccessLaw::cell_based_40nm();
        assert!(model_from_profile(&empty, 64, &law, 0.4).is_err());
    }
}
