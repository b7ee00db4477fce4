//! Technology cards: per-node process parameters.
//!
//! A [`TechnologyCard`] carries everything the device, memory and SoC models
//! need to know about a process node. The presets are calibrated so that the
//! workspace reproduces the published anchor points:
//!
//! * [`n40lp`] — the 40 nm low-power node of the paper's test chip
//!   (Figures 1–5, Table 1): ~1.1 V nominal, high-Vt, planar.
//! * [`n65lp`] — the 65 nm node of the cell-based reference design
//!   (Andersson et al., Table 1 third column).
//! * [`n14finfet`] / [`n10gaa`] — the finFET / multi-gate outlook nodes of
//!   Figure 10: steeper subthreshold slope, tighter mismatch, ~2× drive
//!   improvement from 14 nm to 10 nm.

use std::fmt;

/// Transistor architecture of a node, which sets electrostatics quality
/// (subthreshold slope, DIBL) and matching behavior.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeviceArchitecture {
    /// Planar bulk CMOS (the paper's 40/65 nm measurement nodes).
    PlanarBulk,
    /// FinFET (the paper's 14 nm outlook node).
    FinFet,
    /// Gate-all-around / multi-gate (the paper's 10 nm outlook node).
    GateAllAround,
}

impl fmt::Display for DeviceArchitecture {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DeviceArchitecture::PlanarBulk => "planar bulk",
            DeviceArchitecture::FinFet => "finFET",
            DeviceArchitecture::GateAllAround => "gate-all-around",
        };
        f.write_str(s)
    }
}

/// Error returned when a [`TechnologyCardBuilder`] is given inconsistent
/// parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BuildCardError {
    what: &'static str,
}

impl fmt::Display for BuildCardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid technology card: {}", self.what)
    }
}

impl std::error::Error for BuildCardError {}

/// Process parameters of one technology node.
///
/// Constructed via [`TechnologyCard::builder`] or one of the node presets
/// ([`n40lp`], [`n65lp`], [`n14finfet`], [`n10gaa`]).
#[derive(Debug, Clone, PartialEq)]
pub struct TechnologyCard {
    name: String,
    node_nm: f64,
    architecture: DeviceArchitecture,
    vdd_nominal: f64,
    vth: f64,
    ss_mv_per_dec: f64,
    dibl_mv_per_v: f64,
    avt_mv_um: f64,
    min_gate_area_um2: f64,
    ion_per_um: f64,
    ioff_per_um: f64,
    cgate_per_um: f64,
    cwire_per_mm: f64,
    temperature_k: f64,
}

impl TechnologyCard {
    /// Starts building a card. `name` labels the node in reports.
    pub fn builder(name: impl Into<String>) -> TechnologyCardBuilder {
        TechnologyCardBuilder::new(name)
    }

    /// Human-readable node name, e.g. `"40nm LP"`.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Feature size in nanometers.
    pub fn node_nm(&self) -> f64 {
        self.node_nm
    }

    /// Nominal supply voltage in volts.
    pub fn vdd_nominal(&self) -> f64 {
        self.vdd_nominal
    }

    /// Typical threshold voltage in volts (TT corner, 25 °C).
    pub(crate) fn vth(&self) -> f64 {
        self.vth
    }

    /// Drain-induced barrier lowering in mV of Vth per volt of VDS.
    pub fn dibl_mv_per_v(&self) -> f64 {
        self.dibl_mv_per_v
    }

    /// Gate area of a minimum-size device in µm².
    pub(crate) fn min_gate_area_um2(&self) -> f64 {
        self.min_gate_area_um2
    }

    /// Saturation drive current per µm of width at nominal VDD, in A/µm.
    pub(crate) fn ion_per_um(&self) -> f64 {
        self.ion_per_um
    }

    /// Off-state leakage per µm of width at nominal VDD, in A/µm.
    pub(crate) fn ioff_per_um(&self) -> f64 {
        self.ioff_per_um
    }

    /// Gate capacitance per µm of width, in F/µm.
    pub(crate) fn cgate_per_um(&self) -> f64 {
        self.cgate_per_um
    }

    /// Thermal voltage `kT/q` at the card temperature, in volts.
    pub fn thermal_voltage(&self) -> f64 {
        const K_OVER_Q: f64 = 8.617_333_262e-5; // V/K
        K_OVER_Q * self.temperature_k
    }

    /// Subthreshold ideality factor `n = SS / (vT·ln 10)`.
    pub fn ideality(&self) -> f64 {
        (self.ss_mv_per_dec / 1000.0) / (self.thermal_voltage() * std::f64::consts::LN_10)
    }

    /// Threshold-voltage mismatch σ for a device of `area_um2` gate area,
    /// in volts (Pelgrom's law).
    ///
    /// # Panics
    ///
    /// Panics if `area_um2` is not a finite positive number.
    pub fn sigma_vth(&self, area_um2: f64) -> f64 {
        assert!(
            area_um2.is_finite() && area_um2 > 0.0,
            "gate area must be positive, got {area_um2}"
        );
        self.avt_mv_um / 1000.0 / area_um2.sqrt()
    }
}

impl fmt::Display for TechnologyCard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({} nm {}, VDD {} V, Vth {} V, SS {} mV/dec)",
            self.name,
            self.node_nm,
            self.architecture,
            self.vdd_nominal,
            self.vth,
            self.ss_mv_per_dec
        )
    }
}

/// Incremental builder for a [`TechnologyCard`].
///
/// # Example
///
/// ```
/// use ntc_tech::card::{DeviceArchitecture, TechnologyCard};
///
/// # fn main() -> Result<(), ntc_tech::card::BuildCardError> {
/// let card = TechnologyCard::builder("custom 28nm")
///     .node_nm(28.0)
///     .architecture(DeviceArchitecture::PlanarBulk)
///     .vdd_nominal(1.0)
///     .vth(0.42)
///     .ss_mv_per_dec(92.0)
///     .dibl_mv_per_v(110.0)
///     .avt_mv_um(2.8)
///     .min_gate_area_um2(0.012)
///     .ion_per_um(550e-6)
///     .ioff_per_um(40e-12)
///     .cgate_per_um(0.9e-15)
///     .cwire_per_mm(190e-15)
///     .build()?;
/// assert_eq!(card.node_nm(), 28.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct TechnologyCardBuilder {
    card: TechnologyCard,
}

impl TechnologyCardBuilder {
    fn new(name: impl Into<String>) -> Self {
        Self {
            card: TechnologyCard {
                name: name.into(),
                node_nm: 0.0,
                architecture: DeviceArchitecture::PlanarBulk,
                vdd_nominal: 0.0,
                vth: 0.0,
                ss_mv_per_dec: 0.0,
                dibl_mv_per_v: 0.0,
                avt_mv_um: 0.0,
                min_gate_area_um2: 0.0,
                ion_per_um: 0.0,
                ioff_per_um: 0.0,
                cgate_per_um: 0.0,
                cwire_per_mm: 0.0,
                temperature_k: 298.15,
            },
        }
    }

    /// Sets the feature size in nanometers.
    pub fn node_nm(mut self, v: f64) -> Self {
        self.card.node_nm = v;
        self
    }

    /// Sets the device architecture.
    pub fn architecture(mut self, v: DeviceArchitecture) -> Self {
        self.card.architecture = v;
        self
    }

    /// Sets the nominal supply voltage in volts.
    pub fn vdd_nominal(mut self, v: f64) -> Self {
        self.card.vdd_nominal = v;
        self
    }

    /// Sets the typical threshold voltage in volts.
    pub fn vth(mut self, v: f64) -> Self {
        self.card.vth = v;
        self
    }

    /// Sets the subthreshold slope in mV/decade.
    pub fn ss_mv_per_dec(mut self, v: f64) -> Self {
        self.card.ss_mv_per_dec = v;
        self
    }

    /// Sets DIBL in mV/V.
    pub fn dibl_mv_per_v(mut self, v: f64) -> Self {
        self.card.dibl_mv_per_v = v;
        self
    }

    /// Sets the Pelgrom coefficient in mV·µm.
    pub fn avt_mv_um(mut self, v: f64) -> Self {
        self.card.avt_mv_um = v;
        self
    }

    /// Sets the minimum gate area in µm².
    pub fn min_gate_area_um2(mut self, v: f64) -> Self {
        self.card.min_gate_area_um2 = v;
        self
    }

    /// Sets the on-current per µm at nominal VDD, in A/µm.
    pub fn ion_per_um(mut self, v: f64) -> Self {
        self.card.ion_per_um = v;
        self
    }

    /// Sets the off-current per µm at nominal VDD, in A/µm.
    pub fn ioff_per_um(mut self, v: f64) -> Self {
        self.card.ioff_per_um = v;
        self
    }

    /// Sets gate capacitance per µm, in F/µm.
    pub fn cgate_per_um(mut self, v: f64) -> Self {
        self.card.cgate_per_um = v;
        self
    }

    /// Sets wire capacitance per mm, in F/mm.
    pub fn cwire_per_mm(mut self, v: f64) -> Self {
        self.card.cwire_per_mm = v;
        self
    }

    /// Validates and returns the card.
    ///
    /// # Errors
    ///
    /// Returns [`BuildCardError`] if any required field is missing,
    /// non-finite, or non-positive, or if `vth >= vdd_nominal` (a node that
    /// could never switch on at nominal supply).
    pub fn build(self) -> Result<TechnologyCard, BuildCardError> {
        let c = &self.card;
        let positive = [
            (c.node_nm, "node_nm"),
            (c.vdd_nominal, "vdd_nominal"),
            (c.vth, "vth"),
            (c.ss_mv_per_dec, "ss_mv_per_dec"),
            (c.avt_mv_um, "avt_mv_um"),
            (c.min_gate_area_um2, "min_gate_area_um2"),
            (c.ion_per_um, "ion_per_um"),
            (c.ioff_per_um, "ioff_per_um"),
            (c.cgate_per_um, "cgate_per_um"),
            (c.cwire_per_mm, "cwire_per_mm"),
            (c.temperature_k, "temperature_k"),
        ];
        for (v, name) in positive {
            if !v.is_finite() || v <= 0.0 {
                return Err(BuildCardError { what: name });
            }
        }
        if !c.dibl_mv_per_v.is_finite() || c.dibl_mv_per_v < 0.0 {
            return Err(BuildCardError {
                what: "dibl_mv_per_v",
            });
        }
        if c.vth >= c.vdd_nominal {
            return Err(BuildCardError {
                what: "vth must be below vdd_nominal",
            });
        }
        // Physical floor: SS cannot be below the 60 mV/dec thermionic limit
        // at room temperature (scaled by T/300).
        let ss_floor = 59.6 * c.temperature_k / 300.0;
        if c.ss_mv_per_dec < ss_floor {
            return Err(BuildCardError {
                what: "subthreshold slope below the thermionic limit",
            });
        }
        Ok(self.card)
    }
}

/// The paper's measurement node: 40 nm low-power planar bulk CMOS
/// (test chip of Figures 2–5, Table 1; nominal 1.1 V, TT, 25 °C).
pub fn n40lp() -> TechnologyCard {
    TechnologyCard::builder("40nm LP")
        .node_nm(40.0)
        .architecture(DeviceArchitecture::PlanarBulk)
        .vdd_nominal(1.1)
        .vth(0.49)
        .ss_mv_per_dec(95.0)
        .dibl_mv_per_v(120.0)
        .avt_mv_um(3.5)
        .min_gate_area_um2(0.018)
        .ion_per_um(530e-6)
        .ioff_per_um(25e-12)
        .cgate_per_um(1.0e-15)
        .cwire_per_mm(200e-15)
        .build()
        .expect("preset card is valid")
}

/// The 65 nm low-power node of the cell-based reference design in Table 1
/// (Andersson et al., ESSCIRC 2013).
pub fn n65lp() -> TechnologyCard {
    TechnologyCard::builder("65nm LP")
        .node_nm(65.0)
        .architecture(DeviceArchitecture::PlanarBulk)
        .vdd_nominal(1.2)
        .vth(0.45)
        .ss_mv_per_dec(92.0)
        .dibl_mv_per_v(100.0)
        .avt_mv_um(4.5)
        .min_gate_area_um2(0.042)
        .ion_per_um(480e-6)
        .ioff_per_um(15e-12)
        .cgate_per_um(1.3e-15)
        .cwire_per_mm(210e-15)
        .build()
        .expect("preset card is valid")
}

/// The 14 nm finFET outlook node of Figure 10: steeper subthreshold slope
/// and tighter matching than planar bulk.
pub fn n14finfet() -> TechnologyCard {
    TechnologyCard::builder("14nm finFET")
        .node_nm(14.0)
        .architecture(DeviceArchitecture::FinFet)
        .vdd_nominal(0.8)
        .vth(0.35)
        .ss_mv_per_dec(72.0)
        .dibl_mv_per_v(40.0)
        .avt_mv_um(1.3)
        .min_gate_area_um2(0.008)
        .ion_per_um(900e-6)
        .ioff_per_um(10e-12)
        .cgate_per_um(0.9e-15)
        .cwire_per_mm(230e-15)
        .build()
        .expect("preset card is valid")
}

/// The 10 nm multi-gate (gate-all-around) outlook node of Figure 10:
/// roughly 2× the 14 nm drive at matched capacitance, still tighter σ.
pub fn n10gaa() -> TechnologyCard {
    TechnologyCard::builder("10nm multi-gate")
        .node_nm(10.0)
        .architecture(DeviceArchitecture::GateAllAround)
        .vdd_nominal(0.75)
        .vth(0.33)
        .ss_mv_per_dec(66.0)
        .dibl_mv_per_v(30.0)
        .avt_mv_um(1.0)
        .min_gate_area_um2(0.006)
        .ion_per_um(1250e-6)
        .ioff_per_um(8e-12)
        .cgate_per_um(0.62e-15)
        .cwire_per_mm(240e-15)
        .build()
        .expect("preset card is valid")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_valid_and_distinct() {
        let cards = [n40lp(), n65lp(), n14finfet(), n10gaa()];
        for c in &cards {
            assert!(c.vth() < c.vdd_nominal());
            assert!(c.ideality() >= 1.0, "{}: n = {}", c.name(), c.ideality());
            assert!(!c.to_string().is_empty());
        }
        let names: Vec<&str> = cards.iter().map(|c| c.name()).collect();
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len());
    }

    #[test]
    fn finfet_has_steeper_slope_and_tighter_mismatch_than_planar() {
        let planar = n40lp();
        let fin = n14finfet();
        let gaa = n10gaa();
        assert!(fin.ss_mv_per_dec < planar.ss_mv_per_dec);
        assert!(gaa.ss_mv_per_dec < fin.ss_mv_per_dec);
        assert!(fin.avt_mv_um < planar.avt_mv_um);
        assert!(gaa.avt_mv_um < fin.avt_mv_um);
    }

    #[test]
    fn thermal_voltage_room_temperature() {
        let c = n40lp();
        assert!((c.thermal_voltage() - 0.02569).abs() < 1e-4);
    }

    #[test]
    fn sigma_vth_follows_pelgrom() {
        let c = n40lp();
        let s1 = c.sigma_vth(0.01);
        let s4 = c.sigma_vth(0.04);
        assert!((s1 / s4 - 2.0).abs() < 1e-12, "σ ∝ 1/√area");
    }

    #[test]
    #[should_panic(expected = "gate area")]
    fn sigma_vth_rejects_zero_area() {
        n40lp().sigma_vth(0.0);
    }

    #[test]
    fn builder_rejects_missing_fields() {
        let r = TechnologyCard::builder("incomplete").node_nm(40.0).build();
        assert!(r.is_err());
    }

    #[test]
    fn builder_rejects_vth_above_vdd() {
        let r = TechnologyCard::builder("bad")
            .node_nm(40.0)
            .vdd_nominal(0.4)
            .vth(0.5)
            .ss_mv_per_dec(90.0)
            .dibl_mv_per_v(100.0)
            .avt_mv_um(3.0)
            .min_gate_area_um2(0.02)
            .ion_per_um(500e-6)
            .ioff_per_um(20e-12)
            .cgate_per_um(1e-15)
            .cwire_per_mm(200e-15)
            .build();
        assert!(r.is_err());
    }

    #[test]
    fn builder_rejects_sub_thermionic_slope() {
        let r = TechnologyCard::builder("bad")
            .node_nm(40.0)
            .vdd_nominal(1.0)
            .vth(0.4)
            .ss_mv_per_dec(40.0) // below 60 mV/dec limit
            .dibl_mv_per_v(100.0)
            .avt_mv_um(3.0)
            .min_gate_area_um2(0.02)
            .ion_per_um(500e-6)
            .ioff_per_um(20e-12)
            .cgate_per_um(1e-15)
            .cwire_per_mm(200e-15)
            .build();
        assert!(r.is_err());
    }

    #[test]
    fn error_display_nonempty() {
        let e = TechnologyCard::builder("x").build().unwrap_err();
        assert!(!e.to_string().is_empty());
    }

    #[test]
    fn architecture_display() {
        assert_eq!(DeviceArchitecture::FinFet.to_string(), "finFET");
    }
}
