//! Standby (data-retention) analysis — Section II's second argument for
//! voltage-scaled memories.
//!
//! "Applications benefitting from NTC typically have significant standby
//! times. Whereas digital logic can largely be powered off, memories have
//! to retain their content. [Supply voltage scaling] achieves a
//! significant leakage power reduction." This module quantifies that: the
//! minimal standby voltage is set by the retention failure law (Eqs. 2–4)
//! — and, exactly as with access errors, *error mitigation pushes it
//! lower*: a SECDED-scrubbed array can ride out one failed bit per word,
//! an OCEAN-style protected copy four.
//!
//! Failure semantics in standby differ from access: a retention failure
//! is a *static* event (the bit's retention voltage is above the supply),
//! so the budget is per word per standby period, not per transaction.

use crate::fit::Scheme;
use ntc_memcalc::instance::MemoryMacro;
use ntc_sram::words::WordErrorModel;
use std::fmt;

/// One operating point of the standby design space.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StandbyPoint {
    /// Mitigation scheme protecting the sleeping array.
    pub scheme: Scheme,
    /// Minimal safe standby voltage, volts.
    pub vdd: f64,
    /// Standby power at that voltage, watts.
    pub power_w: f64,
}

/// Standby analysis for one memory macro.
///
/// # Example
///
/// ```
/// use ntc::standby::StandbyAnalysis;
/// use ntc::fit::Scheme;
/// use ntc::calculator::MemoryCalculator;
///
/// let a = StandbyAnalysis::new(
///     MemoryCalculator::cell_based_reference().macro_model().clone(),
///     1e-15,
/// );
/// // Mitigation lowers the safe standby voltage.
/// let v_raw = a.min_standby_voltage(Scheme::NoMitigation);
/// let v_ecc = a.min_standby_voltage(Scheme::Secded);
/// assert!(v_ecc < v_raw);
/// ```
#[derive(Debug, Clone)]
pub struct StandbyAnalysis {
    inner: MemoryMacro,
    fit_target: f64,
}

impl StandbyAnalysis {
    /// Creates an analysis with a per-word loss budget for one standby
    /// period.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < fit_target < 1`.
    pub fn new(inner: MemoryMacro, fit_target: f64) -> Self {
        assert!(
            fit_target > 0.0 && fit_target < 1.0,
            "FIT target must be in (0, 1), got {fit_target}"
        );
        Self { inner, fit_target }
    }

    /// The wrapped macro.
    pub fn macro_model(&self) -> &MemoryMacro {
        &self.inner
    }

    /// Minimal standby voltage keeping the per-word loss probability
    /// within budget for `scheme`.
    pub fn min_standby_voltage(&self, scheme: Scheme) -> f64 {
        let w = WordErrorModel::new(scheme.word_bits());
        let p = w
            .max_p_bit_for_target(scheme.correctable_bits(), self.fit_target)
            .expect("positive target");
        self.inner.retention_law().vdd_for_p(p)
    }

    /// Standby power at the scheme's minimal voltage.
    pub fn standby_point(&self, scheme: Scheme) -> StandbyPoint {
        let vdd = self.min_standby_voltage(scheme);
        StandbyPoint {
            scheme,
            vdd,
            power_w: self.inner.retention_power(vdd),
        }
    }

    /// All three schemes' standby points, in the paper's scheme order.
    pub fn design_space(&self) -> [StandbyPoint; 3] {
        [
            self.standby_point(Scheme::NoMitigation),
            self.standby_point(Scheme::Secded),
            self.standby_point(Scheme::Ocean),
        ]
    }

    /// Average power of a duty-cycled system: active a fraction
    /// `active_fraction` of the time at `v_active` (active leakage +
    /// `dynamic_w` switching power), asleep the rest at the scheme's
    /// standby point.
    ///
    /// # Panics
    ///
    /// Panics unless `active_fraction` is in `[0, 1]` and `dynamic_w` is
    /// non-negative and finite.
    pub fn duty_cycled_power(
        &self,
        scheme: Scheme,
        v_active: f64,
        dynamic_w: f64,
        active_fraction: f64,
    ) -> f64 {
        assert!(
            (0.0..=1.0).contains(&active_fraction),
            "active fraction must be in [0, 1], got {active_fraction}"
        );
        assert!(
            dynamic_w.is_finite() && dynamic_w >= 0.0,
            "dynamic power must be non-negative"
        );
        let active = dynamic_w + self.inner.leakage_power(v_active);
        let sleep = self.standby_point(scheme).power_w;
        active_fraction * active + (1.0 - active_fraction) * sleep
    }

    /// Standby-power saving of voltage-scaled sleep (at the scheme's
    /// minimal voltage) relative to holding the array at `v_active`
    /// (a ratio > 1 means savings).
    pub fn scaling_gain(&self, scheme: Scheme, v_active: f64) -> f64 {
        self.inner.retention_power(v_active) / self.standby_point(scheme).power_w
    }
}

impl fmt::Display for StandbyAnalysis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "standby analysis for {} (loss ≤ {:.1e}/word)",
            self.inner, self.fit_target
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ntc_memcalc::instance::MemoryOrganization;
    use ntc_sram::styles::CellStyle;

    fn analysis() -> StandbyAnalysis {
        StandbyAnalysis::new(
            MemoryMacro::new(
                CellStyle::CellBasedAoi,
                MemoryOrganization::reference_1kx32(),
                ntc_tech::card::n40lp(),
            ),
            1e-15,
        )
    }

    #[test]
    fn mitigation_lowers_standby_voltage_monotonically() {
        let a = analysis();
        let [none, ecc, ocean] = a.design_space();
        assert!(none.vdd > ecc.vdd && ecc.vdd > ocean.vdd);
        assert!(none.power_w > ecc.power_w && ecc.power_w > ocean.power_w);
    }

    #[test]
    fn unprotected_standby_voltage_is_plausible() {
        // Gaussian retention with µ = 0.20, σ = 0.030: an 8-sigma-ish
        // margin for 1e-15/39-bit-word lands in the 0.4–0.5 V region.
        let v = analysis().min_standby_voltage(Scheme::NoMitigation);
        assert!((0.38..0.52).contains(&v), "got {v}");
    }

    #[test]
    fn scaling_gain_is_order_of_magnitude() {
        // The Section II claim: standby scaling buys ~10x static power.
        let a = analysis();
        let g = a.scaling_gain(Scheme::Secded, 1.1);
        assert!(g > 5.0, "gain {g}");
    }

    #[test]
    fn duty_cycle_limits() {
        let a = analysis();
        let sleep_only = a.duty_cycled_power(Scheme::Secded, 0.55, 1e-6, 0.0);
        let active_only = a.duty_cycled_power(Scheme::Secded, 0.55, 1e-6, 1.0);
        assert!((sleep_only - a.standby_point(Scheme::Secded).power_w).abs() < 1e-18);
        assert!(active_only > sleep_only);
        // Mostly-idle duty cycle sits near the sleep floor.
        let idle = a.duty_cycled_power(Scheme::Secded, 0.55, 1e-6, 0.01);
        assert!(idle < 0.1 * active_only);
    }

    #[test]
    #[should_panic(expected = "active fraction")]
    fn rejects_bad_duty_cycle() {
        analysis().duty_cycled_power(Scheme::Secded, 0.55, 1e-6, 1.5);
    }

    #[test]
    fn display_nonempty() {
        assert!(!analysis().to_string().is_empty());
    }
}
