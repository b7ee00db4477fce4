//! Property tests for the device and delay models.

use ntc_tech::card::{self, TechnologyCard};
use ntc_tech::device::Device;
use ntc_tech::inverter::Inverter;
use proptest::prelude::*;

fn any_card() -> impl Strategy<Value = TechnologyCard> {
    prop::sample::select(vec![
        card::n40lp(),
        card::n65lp(),
        card::n14finfet(),
        card::n10gaa(),
    ])
}

proptest! {
    /// Drain current is strictly monotone in gate voltage on every card.
    #[test]
    fn current_monotone(c in any_card(), v1 in 0.05f64..1.2, v2 in 0.05f64..1.2) {
        prop_assume!(v1 < v2);
        let d = Device::new(&c, 1.0);
        prop_assert!(d.drain_current(v1) < d.drain_current(v2));
    }

    /// Current is exactly linear in device width.
    #[test]
    fn current_linear_in_width(c in any_card(), w in 0.05f64..20.0, vgs in 0.1f64..1.0) {
        let unit = Device::new(&c, 1.0);
        let wide = Device::new(&c, w);
        let ratio = wide.drain_current(vgs) / unit.drain_current(vgs);
        prop_assert!((ratio / w - 1.0).abs() < 1e-9);
    }

    /// A positive threshold shift always slows the device.
    #[test]
    fn vth_shift_direction(c in any_card(), dv in 1e-4f64..0.2, vgs in 0.1f64..1.0) {
        let d = Device::new(&c, 1.0);
        prop_assert!(d.with_vth_shift(dv).drain_current(vgs) < d.drain_current(vgs));
        prop_assert!(d.with_vth_shift(-dv).drain_current(vgs) > d.drain_current(vgs));
    }

    /// Inverter delay decreases monotonically with supply on every card.
    #[test]
    fn delay_monotone(c in any_card(), v1 in 0.2f64..1.1, v2 in 0.2f64..1.1) {
        prop_assume!(v1 < v2);
        let inv = Inverter::fo4(&c);
        prop_assert!(inv.delay(v1) > inv.delay(v2));
    }

    /// Relative delay spread decreases with supply (variation matters more
    /// near threshold) and stays positive.
    #[test]
    fn spread_decreases_with_supply(c in any_card(), v1 in 0.25f64..0.9, v2 in 0.25f64..0.9) {
        prop_assume!(v1 + 0.05 < v2);
        let inv = Inverter::fo4(&c);
        let s1 = inv.relative_sigma(v1);
        let s2 = inv.relative_sigma(v2);
        prop_assert!(s1 > 0.0 && s2 > 0.0);
        prop_assert!(s1 >= s2, "σ/µ({v1}) = {s1} < σ/µ({v2}) = {s2}");
    }

    /// Pelgrom: mismatch scales as 1/√area for any card.
    #[test]
    fn pelgrom_scaling(c in any_card(), area in 0.001f64..1.0, factor in 1.1f64..16.0) {
        let s1 = c.sigma_vth(area);
        let s2 = c.sigma_vth(area * factor);
        prop_assert!((s1 / s2 / factor.sqrt() - 1.0).abs() < 1e-9);
    }

    /// Leakage grows with supply (DIBL) on every card.
    #[test]
    fn leakage_monotone(c in any_card(), v1 in 0.2f64..1.2, v2 in 0.2f64..1.2) {
        prop_assume!(v1 < v2);
        let d = Device::new(&c, 1.0);
        prop_assert!(d.leakage_current(v1) <= d.leakage_current(v2));
    }
}
