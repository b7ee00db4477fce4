//! Transregional MOS device model.
//!
//! Near-threshold work needs a drain-current expression that is smooth from
//! deep subthreshold to strong inversion, because the interesting voltages
//! sit exactly at the transition. We use the classic EKV interpolation
//!
//! ```text
//! I(VGS) = Ispec · ln²(1 + exp((VGS − Vth) / (2·n·vT)))
//! ```
//!
//! which reduces to the exponential subthreshold law for `VGS ≪ Vth` and to
//! a square law above threshold. `Ispec` is calibrated per card so that the
//! model reproduces the card's `Ion` at nominal supply; leakage follows the
//! card's `Ioff` with DIBL-driven supply sensitivity.

use crate::card::TechnologyCard;

/// A calibrated transistor instance of a given width on a technology card.
///
/// The optional threshold shift (`with_vth_shift`) is how process variation
/// enters: Monte-Carlo loops sample a Gaussian ΔVth per device and ask the
/// shifted device for current or delay.
///
/// # Example
///
/// ```
/// use ntc_tech::{card, Device};
///
/// let dev = Device::new(&card::n40lp(), 1.0);
/// // Current rises monotonically with gate voltage.
/// assert!(dev.drain_current(0.3) < dev.drain_current(0.6));
/// // At nominal VDD the model reproduces the card's Ion.
/// let ion = dev.drain_current(1.1);
/// assert!((ion / 530e-6 - 1.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Device {
    width_um: f64,
    vth: f64,
    n: f64,
    v_t: f64,
    ispec_per_um: f64,
    ioff_per_um: f64,
    dibl_v_per_v: f64,
    vdd_nominal: f64,
}

impl Device {
    /// Creates a device of `width_um` micrometers on `card`, calibrated so
    /// that `drain_current(vdd_nominal)` equals the card's `Ion·width`.
    ///
    /// # Panics
    ///
    /// Panics if `width_um` is not a finite positive number.
    pub fn new(card: &TechnologyCard, width_um: f64) -> Self {
        assert!(
            width_um.is_finite() && width_um > 0.0,
            "device width must be positive, got {width_um}"
        );
        let n = card.ideality();
        let v_t = card.thermal_voltage();
        let vth = card.vth();
        let vdd = card.vdd_nominal();
        let shape = ekv_shape((vdd - vth) / (2.0 * n * v_t));
        let ispec_per_um = card.ion_per_um() / shape;
        Self {
            width_um,
            vth,
            n,
            v_t,
            ispec_per_um,
            ioff_per_um: card.ioff_per_um(),
            dibl_v_per_v: card.dibl_mv_per_v() / 1000.0,
            vdd_nominal: vdd,
        }
    }

    /// Returns a copy of this device with its threshold shifted by
    /// `delta_v` volts (positive = slower device). This is the hook for
    /// mismatch sampling.
    #[must_use]
    pub fn with_vth_shift(&self, delta_v: f64) -> Self {
        let mut d = self.clone();
        d.vth += delta_v;
        d
    }

    /// Drain current at gate-source voltage `vgs` (saturation assumed), in
    /// amperes. Continuous across the sub/near/super-threshold regions.
    pub fn drain_current(&self, vgs: f64) -> f64 {
        let x = (vgs - self.vth) / (2.0 * self.n * self.v_t);
        self.ispec_per_um * self.width_um * ekv_shape(x)
    }

    /// Off-state (VGS = 0) leakage current at supply `vdd`, in amperes.
    ///
    /// Anchored to the card's `Ioff` at nominal supply and scaled by the
    /// DIBL-driven effective-threshold change:
    /// `Ioff(V) = Ioff_nom · exp(λ·(V − Vnom)/(n·vT))`.
    pub fn leakage_current(&self, vdd: f64) -> f64 {
        let dvth = self.dibl_v_per_v * (vdd - self.vdd_nominal);
        self.ioff_per_um * self.width_um * (dvth / (self.n * self.v_t)).exp()
    }

    /// Logarithmic sensitivity of drive current to threshold voltage,
    /// `∂ln I / ∂Vth` at the given gate voltage (always negative).
    ///
    /// In deep subthreshold this approaches `−1/(n·vT)` (≈ −25/V at room
    /// temperature for n = 1.5); above threshold it flattens — exactly the
    /// mechanism that makes near-threshold delay spread balloon.
    pub(crate) fn dlni_dvth(&self, vgs: f64) -> f64 {
        let h = 1e-6;
        let lo = self.with_vth_shift(-h).drain_current(vgs).ln();
        let hi = self.with_vth_shift(h).drain_current(vgs).ln();
        (hi - lo) / (2.0 * h)
    }
}

/// The EKV interpolation shape `ln²(1 + eˣ)`, evaluated stably for large x.
fn ekv_shape(x: f64) -> f64 {
    // ln(1 + e^x): for large x this is x + ln(1 + e^-x) ≈ x.
    let l = if x > 30.0 {
        x
    } else {
        x.exp().ln_1p()
    };
    l * l
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::card;

    #[test]
    fn current_is_monotone_in_vgs() {
        let d = Device::new(&card::n40lp(), 1.0);
        let mut prev = 0.0;
        for i in 1..=22 {
            let v = i as f64 * 0.05;
            let cur = d.drain_current(v);
            assert!(cur > prev, "non-monotone at {v}");
            prev = cur;
        }
    }

    #[test]
    fn current_scales_with_width() {
        let d1 = Device::new(&card::n40lp(), 1.0);
        let d2 = Device::new(&card::n40lp(), 2.0);
        let r = d2.drain_current(0.6) / d1.drain_current(0.6);
        assert!((r - 2.0).abs() < 1e-12);
    }

    #[test]
    fn subthreshold_slope_matches_card() {
        // Below threshold the current should change by one decade per SS mV.
        let c = card::n40lp();
        let d = Device::new(&c, 1.0);
        let v1 = 0.20;
        let v2 = v1 + c.ideality() * c.thermal_voltage() * std::f64::consts::LN_10;
        let decades = (d.drain_current(v2) / d.drain_current(v1)).log10();
        assert!((decades - 1.0).abs() < 0.03, "got {decades} decades");
    }

    #[test]
    fn calibrated_to_ion_at_nominal() {
        for c in [card::n40lp(), card::n65lp(), card::n14finfet(), card::n10gaa()] {
            let d = Device::new(&c, 1.0);
            let i = d.drain_current(c.vdd_nominal());
            assert!(
                (i / c.ion_per_um() - 1.0).abs() < 1e-9,
                "{} Ion mismatch",
                c.name()
            );
        }
    }

    #[test]
    fn leakage_anchored_and_dibl_scaled() {
        let c = card::n40lp();
        let d = Device::new(&c, 1.0);
        let at_nom = d.leakage_current(c.vdd_nominal());
        assert!((at_nom / c.ioff_per_um() - 1.0).abs() < 1e-12);
        // Lower supply leaks less (DIBL relief).
        assert!(d.leakage_current(0.5) < at_nom);
        // 40nm LP: ~10x leakage reduction from 1.1 V down to ~0.4 V is the
        // paper's Section II claim ("up to 10x better static power").
        let ratio = at_nom / d.leakage_current(0.4);
        assert!(ratio > 5.0 && ratio < 50.0, "leakage ratio {ratio}");
    }

    #[test]
    fn vth_shift_slows_device() {
        let d = Device::new(&card::n40lp(), 1.0);
        let slow = d.with_vth_shift(0.05);
        let fast = d.with_vth_shift(-0.05);
        assert!(slow.drain_current(0.5) < d.drain_current(0.5));
        assert!(fast.drain_current(0.5) > d.drain_current(0.5));
    }

    #[test]
    fn vth_sensitivity_larger_near_threshold() {
        let d = Device::new(&card::n40lp(), 1.0);
        let sub = d.dlni_dvth(0.3).abs();
        let sup = d.dlni_dvth(1.1).abs();
        assert!(sub > 3.0 * sup, "sub {sub} vs super {sup}");
        // Deep subthreshold limit ≈ 1/(n·vT).
        let deep = d.dlni_dvth(0.1).abs();
        let limit = 1.0 / (d.n * d.v_t);
        assert!((deep / limit - 1.0).abs() < 0.05, "deep {deep} vs {limit}");
    }

    #[test]
    fn ekv_shape_stable_for_large_x() {
        assert!(ekv_shape(1000.0).is_finite());
        assert!((ekv_shape(50.0) - 2500.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "width must be positive")]
    fn zero_width_rejected() {
        Device::new(&card::n40lp(), 0.0);
    }
}
