//! Memory macro instances: energy, leakage, timing and area vs. voltage.
//!
//! A [`MemoryMacro`] combines a bit-cell style, an organization and a
//! technology card into a calculator calibrated so that the paper's
//! 1k × 32 b / 40 nm / 1.1 V reference instance reproduces Table 1:
//!
//! | style              | E/access | leakage | f_max        |
//! |--------------------|----------|---------|--------------|
//! | COTS 6T            | 12 pJ    | 2.2 µW  | 820 MHz      |
//! | custom 6T \[12\]   | 3.6 pJ   | 11 µW   | 454 MHz      |
//! | cell-based 65nm \[13\] | 7.0 pJ¹  | 8 µW @0.35 V | 9.5 MHz @0.65 V |
//! | cell-based AOI     | 1.4 pJ   | 5.9 µW  | 96 MHz       |
//!
//! ¹ back-scaled from the published 0.93 pJ @ 0.4 V with the quadratic law
//!   the paper's own reduced-voltage rows follow.
//!
//! Scaling laws: dynamic energy `∝ V²` (full-swing styles), leakage
//! `∝ V·exp(λ_DIBL·(V−Vref)/(n·vT))`, and timing through the EKV drive-
//! current shape with a per-style *timing threshold* fitted to the
//! published frequency pairs (e.g. the AOI macro's 96 MHz @ 1.1 V vs.
//! 0.4 MHz @ 0.45 V).

use ntc_sram::failure::RetentionLaw;
use ntc_sram::styles::CellStyle;
use ntc_tech::card::TechnologyCard;
use std::fmt;

/// Error returned for invalid memory organizations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MacroError {
    what: &'static str,
}

impl fmt::Display for MacroError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid memory macro: {}", self.what)
    }
}

impl std::error::Error for MacroError {}

/// Logical organization of a memory instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemoryOrganization {
    words: u32,
    bits_per_word: u32,
}

impl MemoryOrganization {
    /// Creates an organization of `words` × `bits_per_word`.
    ///
    /// # Errors
    ///
    /// Returns [`MacroError`] if either dimension is zero.
    pub fn new(words: u32, bits_per_word: u32) -> Result<Self, MacroError> {
        if words == 0 || bits_per_word == 0 {
            return Err(MacroError {
                what: "organization dimensions must be nonzero",
            });
        }
        Ok(Self {
            words,
            bits_per_word,
        })
    }

    /// The paper's reference organization: 1k words × 32 bits (4 KB).
    pub fn reference_1kx32() -> Self {
        Self {
            words: 1024,
            bits_per_word: 32,
        }
    }

    /// Number of words.
    pub(crate) fn words(&self) -> u32 {
        self.words
    }

    /// Bits per word.
    pub fn bits_per_word(&self) -> u32 {
        self.bits_per_word
    }

    /// Total bits.
    pub(crate) fn bits(&self) -> u64 {
        self.words as u64 * self.bits_per_word as u64
    }

    /// Capacity in kibibytes.
    pub fn kib(&self) -> f64 {
        self.bits() as f64 / 8.0 / 1024.0
    }
}

impl fmt::Display for MemoryOrganization {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}x{}b", self.words, self.bits_per_word)
    }
}

/// Per-style calibration anchors at the 1k × 32 b reference instance.
#[derive(Debug, Clone, Copy)]
struct StyleAnchors {
    /// Access energy (J) at the anchor voltage.
    e_access: f64,
    e_access_v: f64,
    /// Leakage power (W) at the anchor voltage.
    leak: f64,
    leak_v: f64,
    /// Maximum frequency (Hz) at the anchor voltage.
    f_max: f64,
    f_max_v: f64,
    /// Fitted timing threshold (V) reproducing published slowdown.
    timing_vth: f64,
}

fn anchors_for(style: CellStyle) -> StyleAnchors {
    match style {
        CellStyle::Commercial6T => StyleAnchors {
            e_access: 12e-12,
            e_access_v: 1.1,
            leak: 2.2e-6,
            leak_v: 1.1,
            f_max: 820e6,
            f_max_v: 1.1,
            timing_vth: 0.50,
        },
        CellStyle::Custom6T => StyleAnchors {
            e_access: 3.6e-12,
            e_access_v: 1.1,
            leak: 11e-6,
            leak_v: 1.1,
            f_max: 454e6,
            f_max_v: 1.1,
            timing_vth: 0.50,
        },
        CellStyle::CellBasedLatch65 => StyleAnchors {
            // Published: 0.93 pJ @ 0.4 V (scaled to bits and node).
            e_access: 0.93e-12,
            e_access_v: 0.4,
            leak: 8e-6,
            leak_v: 0.35,
            f_max: 9.5e6,
            f_max_v: 0.65,
            // Fitted to the 9.5 MHz @ 0.65 V vs 0.1 MHz @ 0.45 V pair.
            timing_vth: 0.80,
        },
        CellStyle::CellBasedAoi => StyleAnchors {
            e_access: 1.4e-12,
            e_access_v: 1.1,
            leak: 5.9e-6,
            leak_v: 1.1,
            f_max: 96e6,
            f_max_v: 1.1,
            // Fitted to the 96 MHz @ 1.1 V vs 0.4 MHz @ 0.45 V pair.
            timing_vth: 0.54,
        },
    }
}

/// A calibrated memory macro.
#[derive(Debug, Clone)]
pub struct MemoryMacro {
    style: CellStyle,
    org: MemoryOrganization,
    card: TechnologyCard,
    anchors: StyleAnchors,
    banks: u32,
}

impl MemoryMacro {
    /// Creates a macro of `style` and `org` on `card` (single bank).
    pub fn new(style: CellStyle, org: MemoryOrganization, card: TechnologyCard) -> Self {
        Self {
            style,
            org,
            card,
            anchors: anchors_for(style),
            banks: 1,
        }
    }

    /// Hierarchically subdivides the array into `banks` banks — the
    /// Section III technique: "low-power dynamic access is best achieved
    /// by hierarchical subdividing the memory as to limit switching
    /// activity to short local bit and/or word-lines".
    ///
    /// Per-access bitline energy shrinks with the √banks-shorter local
    /// lines, at the cost of duplicated periphery (global routing energy,
    /// leakage and area grow with log₂/linear bank count).
    ///
    /// # Panics
    ///
    /// Panics unless `banks` is a power of two dividing the word count.
    #[must_use]
    pub fn with_banks(mut self, banks: u32) -> Self {
        assert!(
            banks > 0 && banks.is_power_of_two(),
            "bank count must be a power of two, got {banks}"
        );
        assert!(
            self.org.words().is_multiple_of(banks),
            "banks ({banks}) must divide the word count ({})",
            self.org.words()
        );
        self.banks = banks;
        self
    }

    /// The organization.
    pub fn organization(&self) -> MemoryOrganization {
        self.org
    }

    /// The technology card.
    pub fn card(&self) -> &TechnologyCard {
        &self.card
    }

    /// The retention-failure law of the underlying cells.
    pub fn retention_law(&self) -> RetentionLaw {
        self.style.retention_law()
    }

    /// Scale factor of this organization relative to the 1k × 32 b anchor:
    /// word energy scales with word width, and bitline length (≈ energy of
    /// the accessed column slice) with the square root of the word count.
    fn org_energy_factor(&self) -> f64 {
        let width = self.org.bits_per_word as f64 / 32.0;
        // Only the selected bank's (shorter) local bitlines switch; the
        // global routing that reaches the bank spans the whole macro and
        // grows with the hierarchy depth — an *additive* term, which is
        // what makes the banking gain saturate and eventually reverse.
        let full_depth = (self.org.words as f64 / 1024.0).sqrt();
        let local = (self.org.words as f64 / self.banks as f64 / 1024.0).sqrt();
        let global = 0.04 * (self.banks as f64).log2() * full_depth;
        width * (local + global)
    }

    /// Leakage overhead of duplicated bank periphery.
    fn bank_leak_factor(&self) -> f64 {
        1.0 + 0.04 * (self.banks as f64).log2()
    }

    /// Area overhead of duplicated bank periphery.
    fn bank_area_factor(&self) -> f64 {
        1.0 + 0.08 * (self.banks as f64).log2()
    }

    /// Dynamic energy of one read or write access at supply `vdd`, in
    /// joules. Quadratic in voltage, as the paper's Table 1
    /// reduced-voltage rows confirm for both cell-based designs.
    ///
    /// # Panics
    ///
    /// Panics if `vdd` is not finite and positive.
    pub fn access_energy(&self, vdd: f64) -> f64 {
        assert!(vdd.is_finite() && vdd > 0.0, "vdd must be positive, got {vdd}");
        let a = &self.anchors;
        let r = vdd / a.e_access_v;
        a.e_access * r * r * self.org_energy_factor()
    }

    /// Active leakage power at supply `vdd`, in watts:
    /// `P(V) = P_ref · (V/Vref) · exp(λ·(V − Vref)/(n·vT))`.
    ///
    /// # Panics
    ///
    /// Panics if `vdd` is not finite and positive.
    pub fn leakage_power(&self, vdd: f64) -> f64 {
        assert!(vdd.is_finite() && vdd > 0.0, "vdd must be positive, got {vdd}");
        let a = &self.anchors;
        let lambda = self.card.dibl_mv_per_v() / 1000.0;
        let nvt = self.card.ideality() * self.card.thermal_voltage();
        let bits_factor = self.org.bits() as f64 / (32.0 * 1024.0);
        a.leak
            * (vdd / a.leak_v)
            * (lambda * (vdd - a.leak_v) / nvt).exp()
            * bits_factor
            * self.bank_leak_factor()
    }

    /// Retention (standby) leakage power at `vdd`: the array held at the
    /// retention supply with periphery clock-gated — modeled as 60 % of the
    /// active leakage at the same voltage (bit array share of total
    /// transistor width).
    pub fn retention_power(&self, vdd: f64) -> f64 {
        0.6 * self.leakage_power(vdd)
    }

    /// Maximum operating frequency at supply `vdd`, in hertz.
    ///
    /// Timing scales with the EKV drive shape at the style's fitted timing
    /// threshold; see the module docs for the published pairs each style is
    /// fitted to.
    ///
    /// # Panics
    ///
    /// Panics if `vdd` is not finite and positive.
    pub fn f_max(&self, vdd: f64) -> f64 {
        assert!(vdd.is_finite() && vdd > 0.0, "vdd must be positive, got {vdd}");
        let a = &self.anchors;
        a.f_max / self.delay_ratio(vdd, a.f_max_v)
    }

    /// Access (cycle) time at `vdd`, in seconds.
    pub fn cycle_time(&self, vdd: f64) -> f64 {
        1.0 / self.f_max(vdd)
    }

    /// Delay at `v` relative to delay at `vref` using the EKV drive shape
    /// at the style's timing threshold.
    fn delay_ratio(&self, v: f64, vref: f64) -> f64 {
        let nvt2 = 2.0 * self.card.ideality() * self.card.thermal_voltage();
        let vth = self.anchors.timing_vth;
        let shape = |vdd: f64| {
            let x = (vdd - vth) / nvt2;
            let l = if x > 30.0 { x } else { x.exp().ln_1p() };
            l * l
        };
        (v / vref) * (shape(vref) / shape(v))
    }

    /// Macro area in mm² at the card's node.
    pub fn area_mm2(&self) -> f64 {
        let f_um = self.card.node_nm() / 1000.0;
        self.style.area_f2_per_bit() * f_um * f_um * self.org.bits() as f64 / 1e6
            * self.bank_area_factor()
    }

    /// Energy per bit per access at `vdd`, in joules (a common figure of
    /// merit, e.g. the 114 fJ/bit of the custom SRAM reference).
    pub fn energy_per_bit(&self, vdd: f64) -> f64 {
        self.access_energy(vdd) / self.org.bits_per_word as f64
    }
}

impl fmt::Display for MemoryMacro {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} @ {}", self.style, self.org, self.card.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ntc_tech::card;

    fn reference(style: CellStyle) -> MemoryMacro {
        let c = match style {
            CellStyle::CellBasedLatch65 => card::n65lp(),
            _ => card::n40lp(),
        };
        MemoryMacro::new(style, MemoryOrganization::reference_1kx32(), c)
    }

    #[test]
    fn organization_validation_and_accessors() {
        assert!(MemoryOrganization::new(0, 32).is_err());
        assert!(MemoryOrganization::new(1024, 0).is_err());
        let org = MemoryOrganization::new(2048, 32).unwrap();
        assert_eq!(org.bits(), 65536);
        assert!((org.kib() - 8.0).abs() < 1e-12);
        assert_eq!(org.to_string(), "2048x32b");
    }

    #[test]
    fn table1_dynamic_energy_anchors() {
        assert!((reference(CellStyle::Commercial6T).access_energy(1.1) / 12e-12 - 1.0).abs() < 1e-9);
        assert!((reference(CellStyle::Custom6T).access_energy(1.1) / 3.6e-12 - 1.0).abs() < 1e-9);
        assert!((reference(CellStyle::CellBasedAoi).access_energy(1.1) / 1.4e-12 - 1.0).abs() < 1e-9);
        // Reduced-voltage rows of Table 1.
        assert!(
            (reference(CellStyle::CellBasedAoi).access_energy(0.4) / 0.18e-12 - 1.0).abs() < 0.03
        );
        assert!(
            (reference(CellStyle::CellBasedLatch65).access_energy(0.4) / 0.93e-12 - 1.0).abs()
                < 1e-9
        );
    }

    #[test]
    fn table1_leakage_anchors() {
        assert!((reference(CellStyle::Commercial6T).leakage_power(1.1) / 2.2e-6 - 1.0).abs() < 1e-9);
        assert!((reference(CellStyle::CellBasedAoi).leakage_power(1.1) / 5.9e-6 - 1.0).abs() < 1e-9);
        assert!(
            (reference(CellStyle::CellBasedLatch65).leakage_power(0.35) / 8e-6 - 1.0).abs() < 1e-9
        );
    }

    #[test]
    fn table1_performance_anchors() {
        assert!((reference(CellStyle::Commercial6T).f_max(1.1) / 820e6 - 1.0).abs() < 1e-9);
        assert!((reference(CellStyle::Custom6T).f_max(1.1) / 454e6 - 1.0).abs() < 1e-9);
        assert!((reference(CellStyle::CellBasedAoi).f_max(1.1) / 96e6 - 1.0).abs() < 1e-9);
        // Reduced-voltage pairs (fitted, allow 35 % model error).
        let aoi = reference(CellStyle::CellBasedAoi);
        assert!(
            (aoi.f_max(0.45) / 0.4e6 - 1.0).abs() < 0.35,
            "AOI @0.45 V: {} MHz",
            aoi.f_max(0.45) / 1e6
        );
        let latch = reference(CellStyle::CellBasedLatch65);
        assert!(
            (latch.f_max(0.45) / 0.1e6 - 1.0).abs() < 0.35,
            "latch @0.45 V: {} MHz",
            latch.f_max(0.45) / 1e6
        );
    }

    #[test]
    fn leakage_reduction_at_low_voltage() {
        // The Section II claim: supply scaling buys up to ~10x static power.
        let m = reference(CellStyle::CellBasedAoi);
        let ratio = m.leakage_power(1.1) / m.leakage_power(0.4);
        assert!(ratio > 5.0, "leakage ratio {ratio}");
    }

    #[test]
    fn energy_scales_with_organization() {
        let card = card::n40lp();
        let small = MemoryMacro::new(
            CellStyle::CellBasedAoi,
            MemoryOrganization::new(1024, 32).unwrap(),
            card.clone(),
        );
        let wide = MemoryMacro::new(
            CellStyle::CellBasedAoi,
            MemoryOrganization::new(1024, 64).unwrap(),
            card.clone(),
        );
        let deep = MemoryMacro::new(
            CellStyle::CellBasedAoi,
            MemoryOrganization::new(4096, 32).unwrap(),
            card,
        );
        assert!((wide.access_energy(1.1) / small.access_energy(1.1) - 2.0).abs() < 1e-9);
        assert!((deep.access_energy(1.1) / small.access_energy(1.1) - 2.0).abs() < 1e-9);
        // Leakage scales with total bits.
        assert!((deep.leakage_power(1.1) / small.leakage_power(1.1) - 4.0).abs() < 1e-9);
    }

    #[test]
    fn f_max_monotone_in_voltage() {
        let m = reference(CellStyle::CellBasedAoi);
        let mut prev = 0.0;
        for i in 0..20 {
            let v = 0.3 + i as f64 * 0.04;
            let f = m.f_max(v);
            assert!(f > prev, "f_max not increasing at {v}");
            prev = f;
        }
    }

    #[test]
    fn area_matches_style() {
        let m = reference(CellStyle::Commercial6T);
        assert!((m.area_mm2() / 0.010 - 1.0).abs() < 0.1);
        let m = reference(CellStyle::CellBasedAoi);
        assert!((m.area_mm2() / 0.058 - 1.0).abs() < 0.1);
    }

    #[test]
    fn retention_power_below_active() {
        let m = reference(CellStyle::CellBasedAoi);
        assert!(m.retention_power(0.32) < m.leakage_power(0.32));
    }

    #[test]
    fn energy_per_bit_custom_sram() {
        // The custom SRAM reference is billed as 114 fJ/bit: 3.6 pJ / 32.
        let m = reference(CellStyle::Custom6T);
        assert!((m.energy_per_bit(1.1) / 112.5e-15 - 1.0).abs() < 0.05);
    }

    #[test]
    fn banking_trades_access_energy_for_leakage_and_area() {
        let flat = reference(CellStyle::CellBasedAoi);
        let banked = reference(CellStyle::CellBasedAoi).with_banks(4);
        // Shorter local bitlines: less dynamic energy per access…
        assert!(banked.access_energy(1.1) < flat.access_energy(1.1));
        // …paid in duplicated periphery.
        assert!(banked.leakage_power(1.1) > flat.leakage_power(1.1));
        assert!(banked.area_mm2() > flat.area_mm2());
        assert_eq!(banked.banks, 4);
    }

    #[test]
    fn banking_gain_saturates() {
        // The √banks gain shrinks against the log-global overhead: going
        // 16 → 32 banks buys less than 1 → 2.
        let e = |b: u32| reference(CellStyle::CellBasedAoi).with_banks(b).access_energy(1.1);
        let first = e(1) / e(2);
        let late = e(16) / e(32);
        assert!(first > late, "first doubling {first:.3}, late {late:.3}");
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn banks_must_be_power_of_two() {
        let _ = reference(CellStyle::CellBasedAoi).with_banks(3);
    }

    #[test]
    #[should_panic(expected = "vdd must be positive")]
    fn access_energy_rejects_zero_vdd() {
        reference(CellStyle::Commercial6T).access_energy(0.0);
    }

    #[test]
    fn display_nonempty() {
        assert!(!reference(CellStyle::CellBasedAoi).to_string().is_empty());
        assert!(!MacroError { what: "x" }.to_string().is_empty());
    }
}
