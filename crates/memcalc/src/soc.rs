//! Component-level SoC energy model: energy per cycle vs. supply voltage.
//!
//! This reproduces the paper's Figure 1 (energy/cycle measurements of a
//! 40 nm signal processor \[3\]) and provides the platform timing anchor the
//! mitigation experiments use ("290 kHz — the minimum allowable frequency
//! at the lowest voltage").
//!
//! Two effects make the memory the bottleneck in Figure 1 and both are
//! modeled here:
//!
//! 1. **Supply floor** — commercial memory IP cannot scale below its spec
//!    limit (0.7 V in \[3\]), so its dynamic energy per access stops shrinking
//!    while the logic keeps gaining quadratically.
//! 2. **Leakage per cycle** — when the platform runs at the maximum
//!    frequency each voltage allows, cycle time grows near-exponentially at
//!    low voltage, so the leakage *energy per cycle* blows up below
//!    ~0.6 V even as leakage *power* falls.

use ntc_tech::card::TechnologyCard;
use std::fmt;

/// One energy-consuming component of the platform.
#[derive(Debug, Clone, PartialEq)]
pub struct SocComponent {
    name: String,
    e_dyn_ref: f64,
    activity: f64,
    leak_ref: f64,
    supply_floor: Option<f64>,
}

impl SocComponent {
    /// Creates a component.
    ///
    /// * `e_dyn_ref` — dynamic energy per *active* cycle at the model's
    ///   reference voltage, in joules.
    /// * `activity` — fraction of cycles the component is active (0 ..= 1).
    /// * `leak_ref` — leakage power at the reference voltage, in watts.
    ///
    /// # Panics
    ///
    /// Panics if `activity` is outside `[0, 1]` or an energy/power is
    /// negative or non-finite.
    pub fn new(name: impl Into<String>, e_dyn_ref: f64, activity: f64, leak_ref: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&activity),
            "activity must be in [0, 1], got {activity}"
        );
        assert!(
            e_dyn_ref.is_finite() && e_dyn_ref >= 0.0,
            "dynamic energy must be non-negative"
        );
        assert!(
            leak_ref.is_finite() && leak_ref >= 0.0,
            "leakage must be non-negative"
        );
        Self {
            name: name.into(),
            e_dyn_ref,
            activity,
            leak_ref,
            supply_floor: None,
        }
    }

    /// Marks this component as unable to scale its supply below `floor`
    /// volts (commercial memory IP limit). Below the floor the component
    /// keeps running at the floor voltage.
    ///
    /// # Panics
    ///
    /// Panics if `floor` is not finite and positive.
    #[must_use]
    pub fn with_supply_floor(mut self, floor: f64) -> Self {
        assert!(floor.is_finite() && floor > 0.0, "floor must be positive");
        self.supply_floor = Some(floor);
        self
    }

    /// The effective supply this component sees when the system runs at
    /// `vdd` (clamped to the floor if one is set).
    pub fn effective_supply(&self, vdd: f64) -> f64 {
        match self.supply_floor {
            Some(floor) => vdd.max(floor),
            None => vdd,
        }
    }
}

/// Energy-per-cycle breakdown of one component at one operating point.
#[derive(Debug, Clone, PartialEq)]
pub struct ComponentEnergy {
    /// Component name.
    pub name: String,
    /// Dynamic energy per cycle, in joules.
    pub dynamic_j: f64,
    /// Leakage energy per cycle, in joules.
    pub leakage_j: f64,
}

impl ComponentEnergy {
    /// Total energy per cycle.
    pub fn total_j(&self) -> f64 {
        self.dynamic_j + self.leakage_j
    }
}

/// One operating point of the platform sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct OperatingPoint {
    /// Supply voltage, volts.
    pub vdd: f64,
    /// Clock frequency, hertz.
    pub frequency: f64,
    /// Per-component energy breakdown.
    pub components: Vec<ComponentEnergy>,
}

impl OperatingPoint {
    /// Total energy per cycle over all components.
    pub fn total_j(&self) -> f64 {
        self.components.iter().map(ComponentEnergy::total_j).sum()
    }

    /// Total dynamic energy per cycle.
    pub fn dynamic_j(&self) -> f64 {
        self.components.iter().map(|c| c.dynamic_j).sum()
    }

    /// Total leakage energy per cycle.
    pub fn leakage_j(&self) -> f64 {
        self.components.iter().map(|c| c.leakage_j).sum()
    }

    /// Total power at this operating point, watts.
    pub fn power_w(&self) -> f64 {
        self.total_j() * self.frequency
    }
}

/// A platform energy model: components + timing anchor on a technology.
///
/// # Example
///
/// ```
/// use ntc_memcalc::soc::SocEnergyModel;
///
/// let soc = SocEnergyModel::exg_processor_40nm();
/// // Figure 1: the energy/cycle optimum sits in the NTC region…
/// let v_opt = soc.optimal_voltage(0.4, 1.1, 71);
/// assert!(v_opt > 0.45 && v_opt < 0.85, "optimum at {v_opt}");
/// // …and leakage dominates below 0.6 V.
/// let pt = soc.operating_point(0.45);
/// assert!(pt.leakage_j() > pt.dynamic_j());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SocEnergyModel {
    components: Vec<SocComponent>,
    vref: f64,
    card: TechnologyCard,
    timing_vth: f64,
    f_anchor_hz: f64,
    f_anchor_v: f64,
}

impl SocEnergyModel {
    /// Creates a model from components on `card`, with energies referenced
    /// to `vref` and the platform clock anchored at `f_anchor_hz` when
    /// running at `f_anchor_v`. `timing_vth` is the critical path's fitted
    /// timing threshold (see [`MemoryMacro`](crate::MemoryMacro)'s docs for
    /// the fitting approach).
    ///
    /// # Panics
    ///
    /// Panics if `components` is empty or any voltage/frequency parameter
    /// is not finite and positive.
    pub fn new(
        components: Vec<SocComponent>,
        vref: f64,
        card: TechnologyCard,
        timing_vth: f64,
        f_anchor_hz: f64,
        f_anchor_v: f64,
    ) -> Self {
        assert!(!components.is_empty(), "need at least one component");
        for (v, name) in [
            (vref, "vref"),
            (timing_vth, "timing_vth"),
            (f_anchor_hz, "f_anchor_hz"),
            (f_anchor_v, "f_anchor_v"),
        ] {
            assert!(v.is_finite() && v > 0.0, "{name} must be positive, got {v}");
        }
        Self {
            components,
            vref,
            card,
            timing_vth,
            f_anchor_hz,
            f_anchor_v,
        }
    }

    /// The Figure 1 platform: an advanced 40 nm LP signal processor whose
    /// memories dominate energy and cannot scale below 0.7 V.
    ///
    /// Calibration: at nominal 1.1 V the memories carry ~60 % of dynamic
    /// energy and ~75 % of leakage, matching the "memories tend to dominate
    /// the overall power figures" observation of Section II.
    pub fn exg_processor_40nm() -> Self {
        let card = ntc_tech::card::n40lp();
        let components = vec![
            SocComponent::new("logic", 18e-12, 1.0, 45e-6),
            SocComponent::new("memory", 28e-12, 1.0, 140e-6).with_supply_floor(0.7),
        ];
        // Timing anchor: ~1 MHz in the 0.5 V region, calibrated so the
        // leakage-per-cycle share crosses 50 % just below 0.6 V as the
        // published curve shows.
        Self::new(components, 1.1, card, 0.45, 1e6, 0.5)
    }

    /// The single-supply variant of the same platform after replacing the
    /// memories with cell-based NTC memories: no supply floor.
    pub fn exg_processor_cell_based_40nm() -> Self {
        let card = ntc_tech::card::n40lp();
        let components = vec![
            SocComponent::new("logic", 18e-12, 1.0, 45e-6),
            // Cell-based memory: ~2x dynamic energy at nominal (area and
            // wire penalty) but full-swing voltage scaling.
            SocComponent::new("memory", 33e-12, 1.0, 160e-6),
        ];
        Self::new(components, 1.1, card, 0.45, 1e6, 0.5)
    }

    /// Maximum platform clock at supply `vdd`, in hertz (EKV delay scaling
    /// through the fitted timing threshold, anchored per construction).
    ///
    /// # Panics
    ///
    /// Panics if `vdd` is not finite and positive.
    pub fn f_max(&self, vdd: f64) -> f64 {
        assert!(vdd.is_finite() && vdd > 0.0, "vdd must be positive, got {vdd}");
        let nvt2 = 2.0 * self.card.ideality() * self.card.thermal_voltage();
        let shape = |v: f64| {
            let x = (v - self.timing_vth) / nvt2;
            let l = if x > 30.0 { x } else { x.exp().ln_1p() };
            l * l
        };
        // delay ∝ V / I(V); f ∝ I(V) / V.
        self.f_anchor_hz * (shape(vdd) / shape(self.f_anchor_v)) * (self.f_anchor_v / vdd)
    }

    /// The energy breakdown when running at `vdd` and frequency `f_hz`.
    ///
    /// # Panics
    ///
    /// Panics if `f_hz` exceeds `f_max(vdd)` (timing violation) or inputs
    /// are not finite and positive.
    pub fn operating_point_at(&self, vdd: f64, f_hz: f64) -> OperatingPoint {
        assert!(f_hz.is_finite() && f_hz > 0.0, "frequency must be positive");
        let fmax = self.f_max(vdd);
        assert!(
            f_hz <= fmax * (1.0 + 1e-9),
            "{f_hz} Hz exceeds f_max({vdd} V) = {fmax} Hz"
        );
        let lambda = self.card.dibl_mv_per_v() / 1000.0;
        let nvt = self.card.ideality() * self.card.thermal_voltage();
        let components = self
            .components
            .iter()
            .map(|c| {
                let v = c.effective_supply(vdd);
                let r = v / self.vref;
                let dynamic_j = c.e_dyn_ref * c.activity * r * r;
                let leak_w = c.leak_ref * (v / self.vref) * (lambda * (v - self.vref) / nvt).exp();
                ComponentEnergy {
                    name: c.name.clone(),
                    dynamic_j,
                    leakage_j: leak_w / f_hz,
                }
            })
            .collect();
        OperatingPoint {
            vdd,
            frequency: f_hz,
            components,
        }
    }

    /// The energy breakdown at `vdd` running at the maximum frequency that
    /// voltage allows — the way Figure 1's energy/cycle curve is measured.
    pub fn operating_point(&self, vdd: f64) -> OperatingPoint {
        self.operating_point_at(vdd, self.f_max(vdd))
    }

    /// The voltage minimizing total energy per cycle on a uniform grid of
    /// `n` points over `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2` or the range is invalid (delegated to
    /// [`ntc_stats::sweep::linspace`]).
    pub fn optimal_voltage(&self, lo: f64, hi: f64, n: usize) -> f64 {
        let grid = ntc_stats::sweep::linspace(lo, hi, n);
        let mut best = (f64::INFINITY, lo);
        for v in grid {
            let e = self.operating_point(v).total_j();
            if e < best.0 {
                best = (e, v);
            }
        }
        best.1
    }
}

impl fmt::Display for SocEnergyModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "SoC model ({} components on {}, anchored {:.3} MHz @ {} V)",
            self.components.len(),
            self.card.name(),
            self.f_anchor_hz / 1e6,
            self.f_anchor_v
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_memory_energy_flattens_below_floor() {
        let soc = SocEnergyModel::exg_processor_40nm();
        let at_07 = soc.operating_point(0.7);
        let at_05 = soc.operating_point(0.5);
        let mem_dyn_07 = at_07.components[1].dynamic_j;
        let mem_dyn_05 = at_05.components[1].dynamic_j;
        assert_eq!(
            mem_dyn_07, mem_dyn_05,
            "memory dynamic energy must be flat below the 0.7 V floor"
        );
        // While the logic keeps scaling quadratically.
        let logic_ratio = at_05.components[0].dynamic_j / at_07.components[0].dynamic_j;
        assert!((logic_ratio - (0.5f64 / 0.7).powi(2)).abs() < 1e-9);
    }

    #[test]
    fn fig1_leakage_dominates_below_0v6() {
        let soc = SocEnergyModel::exg_processor_40nm();
        let pt = soc.operating_point(0.5);
        assert!(pt.leakage_j() > pt.dynamic_j(), "leakage must dominate at 0.5 V");
        let pt = soc.operating_point(1.0);
        assert!(pt.dynamic_j() > pt.leakage_j(), "dynamic must dominate at 1.0 V");
    }

    #[test]
    fn fig1_energy_per_cycle_has_interior_minimum() {
        let soc = SocEnergyModel::exg_processor_40nm();
        let v_opt = soc.optimal_voltage(0.4, 1.1, 141);
        assert!(v_opt > 0.42 && v_opt < 1.0, "optimum at {v_opt}");
        let e_opt = soc.operating_point(v_opt).total_j();
        assert!(e_opt < soc.operating_point(1.1).total_j());
        assert!(e_opt < soc.operating_point(0.4).total_j());
    }

    #[test]
    fn cell_based_platform_scales_deeper() {
        // Replacing the memories removes the floor: the cell-based platform
        // keeps gaining below 0.7 V where the COTS platform has flattened.
        let cots = SocEnergyModel::exg_processor_40nm();
        let cell = SocEnergyModel::exg_processor_cell_based_40nm();
        let gain_cots = cots.operating_point(0.7).dynamic_j() / cots.operating_point(0.55).dynamic_j();
        let gain_cell = cell.operating_point(0.7).dynamic_j() / cell.operating_point(0.55).dynamic_j();
        assert!(gain_cell > gain_cots, "cell-based must keep scaling");
    }

    #[test]
    fn f_max_is_anchored_and_monotone() {
        let soc = SocEnergyModel::exg_processor_40nm();
        assert!((soc.f_max(0.5) / 1e6 - 1.0).abs() < 1e-9, "anchor");
        let mut prev = 0.0;
        for i in 0..15 {
            let v = 0.35 + i as f64 * 0.05;
            let f = soc.f_max(v);
            assert!(f > prev);
            prev = f;
        }
    }

    #[test]
    fn power_consistency() {
        let soc = SocEnergyModel::exg_processor_40nm();
        let pt = soc.operating_point(0.8);
        assert!((pt.power_w() - pt.total_j() * pt.frequency).abs() < 1e-18);
        assert!((pt.total_j() - (pt.dynamic_j() + pt.leakage_j())).abs() < 1e-18);
    }

    #[test]
    #[should_panic(expected = "exceeds f_max")]
    fn timing_violation_rejected() {
        let soc = SocEnergyModel::exg_processor_40nm();
        let fmax = soc.f_max(0.5);
        soc.operating_point_at(0.5, fmax * 2.0);
    }

    #[test]
    #[should_panic(expected = "activity must be in")]
    fn component_rejects_bad_activity() {
        SocComponent::new("x", 1e-12, 1.5, 0.0);
    }

    #[test]
    fn supply_floor_clamps() {
        let c = SocComponent::new("mem", 1e-12, 1.0, 1e-6).with_supply_floor(0.7);
        assert_eq!(c.effective_supply(0.5), 0.7);
        assert_eq!(c.effective_supply(0.9), 0.9);
        let c = SocComponent::new("logic", 1e-12, 1.0, 1e-6);
        assert_eq!(c.effective_supply(0.5), 0.5);
    }

    #[test]
    fn display_nonempty() {
        assert!(!SocEnergyModel::exg_processor_40nm().to_string().is_empty());
    }
}
