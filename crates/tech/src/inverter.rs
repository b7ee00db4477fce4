//! Inverter delay and its process-variation spread vs. supply voltage.
//!
//! This is the model behind the paper's Figure 10 ("Inverter delay in
//! finFETs"): the mean delay is set by the drive current of the
//! [`Device`] at the given supply, and the spread is set by threshold
//! mismatch amplified by the near-threshold `∂ln I/∂Vth` sensitivity.
//! Both an analytic (first-order log-normal) spread and a Monte-Carlo
//! estimator are provided; tests cross-check them.

use crate::card::TechnologyCard;
use crate::device::Device;
use ntc_stats::mc::Moments;
use ntc_stats::rng::Source;

/// A loaded inverter on a technology card.
///
/// # Example
///
/// ```
/// use ntc_tech::{card, Inverter};
///
/// let inv = Inverter::fo4(&card::n14finfet());
/// // Delay explodes as the supply approaches threshold.
/// assert!(inv.delay(0.35) > 20.0 * inv.delay(0.8));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Inverter {
    device: Device,
    load_f: f64,
    sigma_vth: f64,
}

impl Inverter {
    /// A fanout-of-4 inverter with a width-scaled drive device: the standard
    /// delay yardstick used for cross-node comparisons.
    pub fn fo4(card: &TechnologyCard) -> Self {
        // Drive width tracks the node so the layout is "the same inverter"
        // drawn in each technology: 25 gate-widths of drive.
        let width_um = 25.0 * card.node_nm() / 1000.0;
        // FO4 load: four copies of the input gate plus one unit of self cap.
        let load_f = 5.0 * card.cgate_per_um() * width_um;
        // The switching pair has ~2 minimum devices' worth of matched area.
        let sigma_vth = card.sigma_vth(2.0 * card.min_gate_area_um2());
        Self {
            device: Device::new(card, width_um),
            load_f,
            sigma_vth,
        }
    }

    /// An inverter with explicit drive width (µm) and load (F).
    ///
    /// # Panics
    ///
    /// Panics if `width_um` or `load_f` is not finite and positive
    /// (width validation is delegated to [`Device::new`]).
    pub fn with_load(card: &TechnologyCard, width_um: f64, load_f: f64) -> Self {
        assert!(
            load_f.is_finite() && load_f > 0.0,
            "load capacitance must be positive, got {load_f}"
        );
        let sigma_vth = card.sigma_vth(2.0 * card.min_gate_area_um2());
        Self {
            device: Device::new(card, width_um),
            load_f,
            sigma_vth,
        }
    }

    /// Nominal (typical-device) propagation delay at supply `vdd`, in
    /// seconds: `t = C·VDD / (2·I_on(VDD))`.
    ///
    /// # Panics
    ///
    /// Panics if `vdd` is not finite and positive.
    pub fn delay(&self, vdd: f64) -> f64 {
        assert!(vdd.is_finite() && vdd > 0.0, "vdd must be positive, got {vdd}");
        self.load_f * vdd / (2.0 * self.device.drain_current(vdd))
    }

    /// Delay of a mismatch-shifted instance (`delta_vth` volts).
    pub(crate) fn delay_shifted(&self, vdd: f64, delta_vth: f64) -> f64 {
        assert!(vdd.is_finite() && vdd > 0.0, "vdd must be positive, got {vdd}");
        let shifted = self.device.with_vth_shift(delta_vth);
        self.load_f * vdd / (2.0 * shifted.drain_current(vdd))
    }

    /// First-order analytic relative delay spread `σ(t)/µ(t)` at `vdd`.
    ///
    /// Delay is log-normal to first order: `σ_ln t = |∂ln I/∂Vth|·σ(Vth)`,
    /// and for small spread `σ/µ ≈ σ_ln t`.
    pub fn relative_sigma(&self, vdd: f64) -> f64 {
        let s_ln = self.device.dlni_dvth(vdd).abs() * self.sigma_vth;
        // Exact log-normal relation keeps validity at large spread.
        ((s_ln * s_ln).exp_m1()).sqrt()
    }

    /// Monte-Carlo delay statistics at `vdd` over `samples` mismatch draws.
    ///
    /// # Panics
    ///
    /// Panics if `samples == 0`.
    pub fn monte_carlo(&self, vdd: f64, samples: u32, src: &mut Source) -> DelaySpread {
        assert!(samples > 0, "need at least one sample");
        let mut m = Moments::new();
        for _ in 0..samples {
            let dv = src.normal(0.0, self.sigma_vth);
            m.push(self.delay_shifted(vdd, dv));
        }
        DelaySpread {
            vdd,
            mean: m.mean(),
            sigma: m.std_dev(),
            min: m.min(),
            max: m.max(),
        }
    }

    /// Sweeps `delay` and `relative_sigma` over a voltage grid — the series
    /// plotted in the paper's Figure 10.
    pub fn sweep(&self, voltages: &[f64]) -> Vec<DelayPoint> {
        voltages
            .iter()
            .map(|&vdd| DelayPoint {
                vdd,
                delay: self.delay(vdd),
                relative_sigma: self.relative_sigma(vdd),
            })
            .collect()
    }
}

/// One point of a delay-vs-voltage sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DelayPoint {
    /// Supply voltage in volts.
    pub vdd: f64,
    /// Typical-device delay in seconds.
    pub delay: f64,
    /// Relative spread σ(t)/µ(t).
    pub relative_sigma: f64,
}

/// Monte-Carlo delay statistics at one supply point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DelaySpread {
    /// Supply voltage in volts.
    pub vdd: f64,
    /// Sample mean delay in seconds.
    pub mean: f64,
    /// Sample standard deviation in seconds.
    pub sigma: f64,
    /// Fastest sampled instance.
    pub min: f64,
    /// Slowest sampled instance.
    pub max: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::card;

    #[test]
    fn delay_monotone_decreasing_in_vdd() {
        let inv = Inverter::fo4(&card::n40lp());
        let mut prev = f64::INFINITY;
        for i in 0..18 {
            let v = 0.25 + i as f64 * 0.05;
            let d = inv.delay(v);
            assert!(d < prev, "delay not decreasing at {v}");
            prev = d;
        }
    }

    #[test]
    fn delay_plausible_magnitude_at_nominal() {
        // An FO4 in 40 nm is tens of picoseconds at nominal.
        let inv = Inverter::fo4(&card::n40lp());
        let d = inv.delay(1.1);
        assert!(d > 1e-12 && d < 100e-12, "FO4 = {d} s");
    }

    #[test]
    fn ten_nm_roughly_twice_as_fast_as_fourteen() {
        // The paper's Figure 10 headline: "Going from 14nm to 10nm results
        // in a 2x speed-up".
        let inv14 = Inverter::fo4(&card::n14finfet());
        let inv10 = Inverter::fo4(&card::n10gaa());
        for v in [0.5, 0.6, 0.7] {
            let s = inv14.delay(v) / inv10.delay(v);
            assert!((1.6..=3.4).contains(&s), "speedup {s} at {v} V");
        }
    }

    #[test]
    fn finfet_sigma_tighter_than_planar() {
        let p = Inverter::fo4(&card::n40lp());
        let f = Inverter::fo4(&card::n14finfet());
        let g = Inverter::fo4(&card::n10gaa());
        // At matched near-threshold depth (Vth + 50 mV) the modern nodes
        // must show smaller relative spread — Figure 10's second message.
        let sp = p.relative_sigma(0.49 + 0.05);
        let sf = f.relative_sigma(0.35 + 0.05);
        let sg = g.relative_sigma(0.33 + 0.05);
        assert!(sf < sp, "finFET {sf} vs planar {sp}");
        assert!(sg < sf, "GAA {sg} vs finFET {sf}");
    }

    #[test]
    fn sigma_grows_toward_threshold() {
        let inv = Inverter::fo4(&card::n14finfet());
        assert!(inv.relative_sigma(0.35) > 3.0 * inv.relative_sigma(0.8));
    }

    #[test]
    fn monte_carlo_agrees_with_analytic() {
        let inv = Inverter::fo4(&card::n14finfet());
        let mut src = Source::seeded(1234);
        for v in [0.45, 0.6, 0.8] {
            let mc = inv.monte_carlo(v, 20_000, &mut src);
            let analytic = inv.relative_sigma(v);
            let mc_rel = mc.sigma / mc.mean;
            assert!(
                (mc_rel / analytic - 1.0).abs() < 0.15,
                "at {v} V: MC {mc_rel} vs analytic {analytic}"
            );
        }
    }

    #[test]
    fn sweep_covers_grid() {
        let inv = Inverter::fo4(&card::n10gaa());
        let grid = ntc_stats::sweep::linspace(0.3, 0.75, 10);
        let pts = inv.sweep(&grid);
        assert_eq!(pts.len(), 10);
        assert_eq!(pts[0].vdd, 0.3);
        assert!(pts.iter().all(|p| p.delay > 0.0 && p.relative_sigma > 0.0));
    }

    #[test]
    fn with_load_scales_delay() {
        let c = card::n40lp();
        let a = Inverter::with_load(&c, 1.0, 1e-15);
        let b = Inverter::with_load(&c, 1.0, 2e-15);
        let r = b.delay(0.8) / a.delay(0.8);
        assert!((r - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "vdd must be positive")]
    fn delay_rejects_zero_vdd() {
        Inverter::fo4(&card::n40lp()).delay(0.0);
    }

    #[test]
    #[should_panic(expected = "load capacitance")]
    fn with_load_rejects_zero_load() {
        Inverter::with_load(&card::n40lp(), 1.0, 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn monte_carlo_rejects_zero_samples() {
        let inv = Inverter::fo4(&card::n40lp());
        inv.monte_carlo(0.5, 0, &mut Source::seeded(0));
    }
}
