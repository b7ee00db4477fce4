//! The "memory calculator" of Section IV: one object that "estimates key
//! figures of merit over a wide range of input parameters".
//!
//! [`MemoryCalculator`] wraps a calibrated macro together with the FIT
//! machinery so a designer can ask, in one call, everything the paper's
//! flow needs about an operating point: energy, leakage, timing, error
//! rate, and which mitigation schemes keep the FIT budget — and sweep
//! those answers across voltage, organization, or style.

use crate::fit::Scheme;
use ntc_memcalc::instance::{MemoryMacro, MemoryOrganization};
use ntc_sram::styles::CellStyle;
use ntc_sram::words::WordErrorModel;
use ntc_tech::card::TechnologyCard;
use std::fmt;

/// Key figures of merit of one memory instance at one supply point.
#[derive(Debug, Clone, PartialEq)]
pub struct FiguresOfMerit {
    /// Supply voltage, volts.
    pub vdd: f64,
    /// Dynamic energy per access, joules.
    pub access_energy_j: f64,
    /// Active leakage power, watts.
    pub leakage_w: f64,
    /// Data-retention (standby) power, watts.
    pub retention_w: f64,
    /// Maximum operating frequency, hertz.
    pub f_max_hz: f64,
    /// Macro area, mm².
    pub area_mm2: f64,
    /// Per-bit access error probability at this supply.
    pub p_bit: f64,
    /// Schemes whose word-failure probability stays within the FIT budget
    /// at this supply.
    pub fit_capable: Vec<Scheme>,
}

impl fmt::Display for FiguresOfMerit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:.2} V: {:.3} pJ/access, {:.2} µW leak, {:.3} MHz, p_bit {:.2e}, ok: {}",
            self.vdd,
            self.access_energy_j * 1e12,
            self.leakage_w * 1e6,
            self.f_max_hz / 1e6,
            self.p_bit,
            self.fit_capable
                .iter()
                .map(|s| s.to_string())
                .collect::<Vec<_>>()
                .join(" / ")
        )
    }
}

/// The memory calculator.
///
/// # Example
///
/// ```
/// use ntc::calculator::MemoryCalculator;
/// use ntc_sram::CellStyle;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let calc = MemoryCalculator::cell_based_reference();
/// let fom = calc.figures_at(0.44);
/// // At the paper's SECDED operating point, ECC (and OCEAN) hold the
/// // budget but unprotected operation does not.
/// assert!(fom.fit_capable.iter().any(|s| s.to_string().contains("OCEAN")));
/// assert_eq!(calc.style(), CellStyle::CellBasedAoi);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct MemoryCalculator {
    inner: MemoryMacro,
    fit_target: f64,
}

impl MemoryCalculator {
    /// Wraps a macro with the paper's default FIT budget (1e-15).
    pub fn new(inner: MemoryMacro) -> Self {
        Self {
            inner,
            fit_target: 1e-15,
        }
    }

    /// The paper's reference instance: 1k × 32 b cell-based AOI on 40 nm.
    pub fn cell_based_reference() -> Self {
        Self::new(MemoryMacro::new(
            CellStyle::CellBasedAoi,
            MemoryOrganization::reference_1kx32(),
            ntc_tech::card::n40lp(),
        ))
    }

    /// The commercial 1k × 32 b instance.
    pub fn commercial_reference() -> Self {
        Self::new(MemoryMacro::new(
            CellStyle::Commercial6T,
            MemoryOrganization::reference_1kx32(),
            ntc_tech::card::n40lp(),
        ))
    }

    /// Overrides the FIT budget.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < target < 1`.
    #[must_use]
    pub fn with_fit_target(mut self, target: f64) -> Self {
        assert!(
            target > 0.0 && target < 1.0,
            "FIT target must be in (0, 1), got {target}"
        );
        self.fit_target = target;
        self
    }

    /// The wrapped macro.
    pub fn macro_model(&self) -> &MemoryMacro {
        &self.inner
    }

    /// The bit-cell style.
    pub fn style(&self) -> CellStyle {
        self.inner.style()
    }

    /// Figures of merit at one supply point.
    ///
    /// # Panics
    ///
    /// Panics if `vdd` is not finite and positive (delegated to the macro).
    pub fn figures_at(&self, vdd: f64) -> FiguresOfMerit {
        let p_bit = self.inner.access_law().p_bit(vdd);
        let fit_capable = Scheme::ALL
            .into_iter()
            .filter(|s| {
                WordErrorModel::new(s.word_bits()).p_word_failure(s.correctable_bits(), p_bit)
                    <= self.fit_target
            })
            .collect();
        FiguresOfMerit {
            vdd,
            access_energy_j: self.inner.access_energy(vdd),
            leakage_w: self.inner.leakage_power(vdd),
            retention_w: self.inner.retention_power(vdd),
            f_max_hz: self.inner.f_max(vdd),
            area_mm2: self.inner.area_mm2(),
            p_bit,
            fit_capable,
        }
    }

    /// Sweeps [`figures_at`](Self::figures_at) over a voltage grid.
    pub fn sweep(&self, voltages: &[f64]) -> Vec<FiguresOfMerit> {
        voltages.iter().map(|&v| self.figures_at(v)).collect()
    }

    /// The lowest grid voltage at which `scheme` holds the FIT budget, or
    /// `None` if none on the grid does.
    pub fn min_capable_voltage(&self, scheme: Scheme, voltages: &[f64]) -> Option<f64> {
        voltages
            .iter()
            .copied()
            .filter(|&v| self.figures_at(v).fit_capable.contains(&scheme))
            .fold(None, |acc, v| Some(acc.map_or(v, |a: f64| a.min(v))))
    }

    /// Energy-per-access improvement of running at `v_low` instead of
    /// `v_high` (a ratio > 1 means savings).
    ///
    /// # Panics
    ///
    /// Panics if either voltage is invalid (delegated).
    pub fn energy_gain(&self, v_high: f64, v_low: f64) -> f64 {
        self.inner.access_energy(v_high) / self.inner.access_energy(v_low)
    }
}

impl fmt::Display for MemoryCalculator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "memory calculator for {} (FIT ≤ {:.1e})",
            self.inner, self.fit_target
        )
    }
}

/// Builds a calculator for an arbitrary style/organization/card triple.
///
/// # Errors
///
/// Returns the organization error if the dimensions are invalid.
pub fn calculator_for(
    style: CellStyle,
    words: u32,
    bits_per_word: u32,
    card: TechnologyCard,
) -> Result<MemoryCalculator, ntc_memcalc::instance::MacroError> {
    let org = MemoryOrganization::new(words, bits_per_word)?;
    Ok(MemoryCalculator::new(MemoryMacro::new(style, org, card)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ntc_stats::sweep::voltage_grid;

    #[test]
    fn figures_are_consistent_with_table1() {
        let calc = MemoryCalculator::cell_based_reference();
        let fom = calc.figures_at(1.1);
        assert!((fom.access_energy_j / 1.4e-12 - 1.0).abs() < 1e-9);
        assert!((fom.leakage_w / 5.9e-6 - 1.0).abs() < 1e-9);
        assert!((fom.f_max_hz / 96e6 - 1.0).abs() < 1e-9);
        // Error-free at nominal: every scheme capable.
        assert_eq!(fom.fit_capable.len(), 3);
        assert_eq!(fom.p_bit, 0.0);
    }

    #[test]
    fn capability_shrinks_with_voltage() {
        let calc = MemoryCalculator::cell_based_reference();
        let n = |v: f64| calc.figures_at(v).fit_capable.len();
        assert_eq!(n(0.60), 3, "above the knee everyone works");
        assert_eq!(n(0.50), 2, "no-mitigation drops first");
        assert_eq!(n(0.40), 1, "then SECDED");
        assert_eq!(n(0.30), 0, "below 0.33 V even OCEAN fails");
    }

    #[test]
    fn min_capable_voltage_matches_solver() {
        let calc = MemoryCalculator::cell_based_reference();
        let grid = voltage_grid(0.30, 0.60, 5);
        let v = calc.min_capable_voltage(Scheme::Ocean, &grid).unwrap();
        assert!((v - 0.33).abs() < 0.011, "grid-resolution match, got {v}");
        assert_eq!(
            calc.min_capable_voltage(Scheme::NoMitigation, &voltage_grid(0.30, 0.40, 10)),
            None,
            "no grid point below the knee works unprotected"
        );
    }

    #[test]
    fn energy_gain_quadratic() {
        let calc = MemoryCalculator::cell_based_reference();
        let g = calc.energy_gain(0.66, 0.33);
        assert!((g - 4.0).abs() < 1e-9);
    }

    #[test]
    fn sweep_and_display() {
        let calc = MemoryCalculator::commercial_reference().with_fit_target(1e-9);
        let rows = calc.sweep(&voltage_grid(0.60, 0.90, 50));
        assert_eq!(rows.len(), 7);
        assert!(rows.iter().all(|r| !r.to_string().is_empty()));
        assert!(!calc.to_string().is_empty());
    }

    #[test]
    fn custom_builder() {
        let calc = calculator_for(
            CellStyle::CellBasedAoi,
            4096,
            32,
            ntc_tech::card::n40lp(),
        )
        .unwrap();
        // Deeper array, more leakage than the 1k reference.
        let small = MemoryCalculator::cell_based_reference();
        assert!(calc.figures_at(1.1).leakage_w > small.figures_at(1.1).leakage_w);
    }

    #[test]
    #[should_panic(expected = "FIT target")]
    fn rejects_bad_target() {
        let _ = MemoryCalculator::cell_based_reference().with_fit_target(0.0);
    }
}
