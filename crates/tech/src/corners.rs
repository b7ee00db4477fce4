//! Process corners and PVT margin accounting.
//!
//! Table 1 is quoted at the TT corner, 1.1 V, 25 °C; the paper's central
//! margin argument (Section IV) is that a commercial IP provider must
//! specify limits that "account for all PVT variations and ageing over
//! the lifetime of a product", while measured typical silicon has far
//! more headroom. This module makes the corner dimension explicit: a
//! [`Corner`] derives a shifted [`TechnologyCard`], and
//! [`MarginStack`] composes the process, temperature and ageing
//! contributions into the provider-style guardband.

use crate::card::TechnologyCard;
use std::fmt;

/// A global process corner (all devices shifted together).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Corner {
    /// Fast-fast: thresholds 3σ_global low.
    FF,
    /// Typical-typical.
    TT,
    /// Slow-slow: thresholds 3σ_global high.
    SS,
}

impl Corner {
    /// All corners, fast to slow.
    pub const ALL: [Corner; 3] = [Corner::FF, Corner::TT, Corner::SS];

    /// Global threshold shift of this corner in units of the global σ.
    pub fn sigma_multiplier(&self) -> f64 {
        match self {
            Corner::FF => -3.0,
            Corner::TT => 0.0,
            Corner::SS => 3.0,
        }
    }

    /// Derives a card at this corner. `sigma_global_v` is the lot-to-lot
    /// threshold σ (typically 10–20 mV in a 40 nm LP process).
    ///
    /// # Panics
    ///
    /// Panics if `sigma_global_v` is negative/non-finite, or the shifted
    /// threshold leaves the card's valid range.
    pub fn derive(&self, card: &TechnologyCard, sigma_global_v: f64) -> TechnologyCard {
        assert!(
            sigma_global_v.is_finite() && sigma_global_v >= 0.0,
            "global sigma must be non-negative"
        );
        let shift = self.sigma_multiplier() * sigma_global_v;
        TechnologyCard::builder(format!("{} {}", card.name(), self))
            .node_nm(card.node_nm())
            .architecture(card.architecture())
            .vdd_nominal(card.vdd_nominal())
            .vth(card.vth() + shift)
            .ss_mv_per_dec(card.ss_mv_per_dec())
            .dibl_mv_per_v(card.dibl_mv_per_v())
            .avt_mv_um(card.avt_mv_um())
            .min_gate_area_um2(card.min_gate_area_um2())
            .ion_per_um(card.ion_per_um())
            .ioff_per_um(card.ioff_per_um())
            .cgate_per_um(card.cgate_per_um())
            .cwire_per_mm(card.cwire_per_mm())
            .temperature_k(card.temperature_k())
            .build()
            .expect("corner shift keeps the card valid")
    }
}

impl fmt::Display for Corner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Corner::FF => "FF",
            Corner::TT => "TT",
            Corner::SS => "SS",
        };
        f.write_str(s)
    }
}

/// A provider-style worst-case margin stack over a typical measured limit.
///
/// The provider's specified minimum voltage is
///
/// ```text
/// V_spec = V_typ + ΔV_corner + ΔV_temperature + ΔV_ageing + ΔV_tester
/// ```
///
/// — each term a voltage adder covering one source of variation over the
/// product population and lifetime.
///
/// # Example
///
/// ```
/// use ntc_tech::corners::MarginStack;
///
/// // The paper's gap: commercial retention measured ~0.44 V typical,
/// // specified 0.85 V.
/// let stack = MarginStack::commercial_40nm_retention();
/// let spec = stack.specified_limit(0.44);
/// assert!((spec - 0.85).abs() < 0.03, "spec = {spec}");
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MarginStack {
    /// Slow-corner adder, volts.
    pub corner_v: f64,
    /// Worst-temperature adder, volts.
    pub temperature_v: f64,
    /// End-of-life ageing adder, volts.
    pub ageing_v: f64,
    /// Tester/guardband adder, volts.
    pub tester_v: f64,
}

impl MarginStack {
    /// A margin stack with explicit adders.
    ///
    /// # Panics
    ///
    /// Panics if any adder is negative or non-finite.
    pub fn new(corner_v: f64, temperature_v: f64, ageing_v: f64, tester_v: f64) -> Self {
        for (v, what) in [
            (corner_v, "corner"),
            (temperature_v, "temperature"),
            (ageing_v, "ageing"),
            (tester_v, "tester"),
        ] {
            assert!(v.is_finite() && v >= 0.0, "{what} adder must be non-negative");
        }
        Self {
            corner_v,
            temperature_v,
            ageing_v,
            tester_v,
        }
    }

    /// The stack reconstructing the commercial 40 nm retention spec:
    /// 3σ slow corner ≈ 150 mV, full temperature range ≈ 110 mV,
    /// ten-year ageing ≈ 100 mV, tester guardband ≈ 50 mV — which takes
    /// a 0.44 V typical measured retention to the 0.85 V datasheet limit.
    pub fn commercial_40nm_retention() -> Self {
        Self::new(0.15, 0.11, 0.10, 0.05)
    }

    /// Total guardband, volts.
    pub fn total_v(&self) -> f64 {
        self.corner_v + self.temperature_v + self.ageing_v + self.tester_v
    }

    /// The provider-specified limit over a typical measured limit.
    pub fn specified_limit(&self, typical_v: f64) -> f64 {
        typical_v + self.total_v()
    }

    /// The margin recoverable by run-time monitoring: everything except
    /// the residual tester guardband (monitoring tracks the actual die,
    /// temperature and age — Section IV's control-loop argument).
    pub fn recoverable_v(&self) -> f64 {
        self.corner_v + self.temperature_v + self.ageing_v
    }
}

impl fmt::Display for MarginStack {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "margins: corner {:.0} mV + temp {:.0} mV + ageing {:.0} mV + tester {:.0} mV = {:.0} mV",
            self.corner_v * 1000.0,
            self.temperature_v * 1000.0,
            self.ageing_v * 1000.0,
            self.tester_v * 1000.0,
            self.total_v() * 1000.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::card::n40lp;
    use crate::device::Device;

    #[test]
    fn corners_order_drive_strength() {
        let tt = n40lp();
        let ff = Corner::FF.derive(&tt, 0.015);
        let ss = Corner::SS.derive(&tt, 0.015);
        let v = 0.5;
        let i_ff = Device::new(&ff, 1.0).drain_current(v);
        let i_tt = Device::new(&tt, 1.0).drain_current(v);
        let i_ss = Device::new(&ss, 1.0).drain_current(v);
        assert!(i_ff > i_tt && i_tt > i_ss, "FF fastest, SS slowest");
    }

    #[test]
    fn tt_derivation_is_identity_in_vth() {
        let tt = n40lp();
        let derived = Corner::TT.derive(&tt, 0.02);
        assert_eq!(derived.vth(), tt.vth());
    }

    #[test]
    fn corner_names_propagate() {
        let ss = Corner::SS.derive(&n40lp(), 0.01);
        assert!(ss.name().contains("SS"));
        assert_eq!(Corner::FF.to_string(), "FF");
    }

    #[test]
    fn commercial_retention_spec_reconstructed() {
        // The headline gap of Section IV: typical 0.44 V, spec 0.85 V.
        let stack = MarginStack::commercial_40nm_retention();
        assert!((stack.specified_limit(0.44) - 0.85).abs() < 0.02);
        // Monitoring recovers everything but the tester guardband.
        assert!((stack.recoverable_v() - 0.36).abs() < 1e-12);
    }

    #[test]
    fn stack_composition() {
        let s = MarginStack::new(0.1, 0.05, 0.02, 0.01);
        assert!((s.total_v() - 0.18).abs() < 1e-12);
        assert!((s.specified_limit(0.5) - 0.68).abs() < 1e-12);
        assert!(!s.to_string().is_empty());
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_adder_rejected() {
        MarginStack::new(-0.1, 0.0, 0.0, 0.0);
    }

    #[test]
    #[should_panic(expected = "global sigma")]
    fn negative_sigma_rejected() {
        Corner::SS.derive(&n40lp(), -0.01);
    }
}
