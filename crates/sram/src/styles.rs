//! Bit-cell styles compared by the paper (Section III / Table 1).
//!
//! The paper's design-space exploration spans "the two extremes" of NTC
//! memory implementation plus two published references:
//!
//! * the **commercial 6T macro** (COTS IP, tight SRAM design rules, lowest
//!   area, highest minimum voltage),
//! * a **custom 6T SRAM** (Rooseleer & Dehaene, ESSCIRC 2013),
//! * a **cell-based latch memory** in 65 nm (Andersson et al., ESSCIRC
//!   2013, sequential elements), and
//! * the **cell-based AOI memory** measured on the imec test chip — a
//!   cross-coupled pair of AND-OR-INVERT gates per bit, placed and routed
//!   under standard digital design rules, which is what lets it track the
//!   logic supply all the way into the NTC regime.
//!
//! Each style bundles its failure laws and layout density so the rest of
//! the workspace can ask one object for everything reliability-related.

use crate::failure::{AccessLaw, RetentionLaw};
use std::fmt;

/// A bit-cell implementation style.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CellStyle {
    /// Commercial 6T SRAM macro (COTS IP) in 40 nm.
    Commercial6T,
    /// Custom-designed 6T SRAM (Rooseleer, ESSCIRC 2013) in 40 nm.
    Custom6T,
    /// Standard-cell latch-based memory (Andersson, ESSCIRC 2013) in 65 nm.
    CellBasedLatch65,
    /// Standard-cell cross-coupled AOI memory (imec test chip) in 40 nm.
    CellBasedAoi,
}

impl CellStyle {
    /// All styles, in Table 1 column order.
    pub const ALL: [CellStyle; 4] = [
        CellStyle::Commercial6T,
        CellStyle::Custom6T,
        CellStyle::CellBasedLatch65,
        CellStyle::CellBasedAoi,
    ];

    /// Transistors per bit cell.
    pub fn transistors_per_bit(&self) -> u32 {
        match self {
            CellStyle::Commercial6T | CellStyle::Custom6T => 6,
            // A latch cell is ~4 gates' worth of devices.
            CellStyle::CellBasedLatch65 => 20,
            // Cross-coupled AOI22 pair plus read/write access gating.
            CellStyle::CellBasedAoi => 14,
        }
    }

    /// Layout density in units of F² (squared feature size) per bit,
    /// including the array-level share of periphery wiring.
    ///
    /// Calibrated against Table 1's areas at 1k × 32 b: the commercial
    /// macro reaches ~190 F²/bit, the AOI cell-based design ~1100 F²/bit —
    /// the area penalty the paper accepts to buy voltage compatibility.
    pub fn area_f2_per_bit(&self) -> f64 {
        match self {
            CellStyle::Commercial6T => 190.0,
            CellStyle::Custom6T => 460.0,
            CellStyle::CellBasedLatch65 => 1700.0,
            CellStyle::CellBasedAoi => 1100.0,
        }
    }

    /// Whether the cell is placed and routed under standard digital design
    /// rules (true for the cell-based styles) — the property that makes the
    /// macro scale with the logic supply without custom re-design.
    pub fn standard_cell_rules(&self) -> bool {
        matches!(self, CellStyle::CellBasedLatch65 | CellStyle::CellBasedAoi)
    }

    /// Feature size the style was published at, in nanometers.
    pub fn native_node_nm(&self) -> f64 {
        match self {
            CellStyle::CellBasedLatch65 => 65.0,
            _ => 40.0,
        }
    }

    /// The retention failure law measured/assumed for this style.
    pub fn retention_law(&self) -> RetentionLaw {
        match self {
            CellStyle::Commercial6T => RetentionLaw::commercial_40nm(),
            // The custom 6T targets speed, not low-voltage retention;
            // model it like the commercial cell.
            CellStyle::Custom6T => RetentionLaw::commercial_40nm(),
            CellStyle::CellBasedLatch65 => RetentionLaw::cell_based_65nm(),
            CellStyle::CellBasedAoi => RetentionLaw::cell_based_40nm(),
        }
    }

    /// The read/write access failure law for this style.
    pub fn access_law(&self) -> AccessLaw {
        match self {
            CellStyle::Commercial6T | CellStyle::Custom6T => AccessLaw::commercial_40nm(),
            CellStyle::CellBasedLatch65 => {
                // 65 nm sub-VT design: functional to ~0.45 V per the
                // publication; model the knee there with the cell-based
                // exponent.
                AccessLaw::new(3.82, 7.20, 0.45).expect("constants are valid")
            }
            CellStyle::CellBasedAoi => AccessLaw::cell_based_40nm(),
        }
    }

    /// Area of a `bits`-bit array in mm² at the style's native node.
    ///
    /// # Panics
    ///
    /// Panics if `bits == 0`.
    pub fn array_area_mm2(&self, bits: u64) -> f64 {
        assert!(bits > 0, "array must contain at least one bit");
        let f_um = self.native_node_nm() / 1000.0;
        let per_bit_um2 = self.area_f2_per_bit() * f_um * f_um;
        per_bit_um2 * bits as f64 / 1e6
    }
}

impl fmt::Display for CellStyle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CellStyle::Commercial6T => "COTS 6T (40nm)",
            CellStyle::Custom6T => "custom 6T SRAM (40nm)",
            CellStyle::CellBasedLatch65 => "cell-based latch (65nm)",
            CellStyle::CellBasedAoi => "cell-based AOI (40nm)",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn area_ordering_matches_paper() {
        // Commercial is densest; cell-based pays the area penalty.
        let a6t = CellStyle::Commercial6T.area_f2_per_bit();
        let aoi = CellStyle::CellBasedAoi.area_f2_per_bit();
        let latch = CellStyle::CellBasedLatch65.area_f2_per_bit();
        assert!(a6t < CellStyle::Custom6T.area_f2_per_bit());
        assert!(aoi > a6t);
        // The AOI composition beats the latch one ("better area efficiency
        // … cross-coupled pair of AND-OR-INVERT gates", Section IV).
        assert!(aoi < latch);
    }

    #[test]
    fn table1_area_anchors() {
        // Table 1, scaled to 1k × 32 b: COTS ~0.01 mm², imec ~0.058 mm².
        let bits = 32 * 1024;
        let cots = CellStyle::Commercial6T.array_area_mm2(bits);
        assert!((cots / 0.010 - 1.0).abs() < 0.1, "COTS area {cots}");
        let aoi = CellStyle::CellBasedAoi.array_area_mm2(bits);
        assert!((aoi / 0.058 - 1.0).abs() < 0.1, "AOI area {aoi}");
    }

    #[test]
    fn standard_cell_styles_scale_with_logic() {
        assert!(!CellStyle::Commercial6T.standard_cell_rules());
        assert!(!CellStyle::Custom6T.standard_cell_rules());
        assert!(CellStyle::CellBasedLatch65.standard_cell_rules());
        assert!(CellStyle::CellBasedAoi.standard_cell_rules());
    }

    #[test]
    fn cell_based_access_knee_below_commercial() {
        // The whole point of the cell-based design: usable access down to
        // 0.55 V where the commercial macro stops at 0.85 V.
        let aoi = CellStyle::CellBasedAoi.access_law();
        let cots = CellStyle::Commercial6T.access_law();
        assert!(aoi.v0() < cots.v0());
    }

    #[test]
    fn retention_below_access_for_all_styles() {
        // Retention is always possible below the minimal access voltage.
        for style in CellStyle::ALL {
            let ret = style.retention_law();
            let acc = style.access_law();
            assert!(
                ret.macro_retention_voltage(32 * 1024) < acc.v0(),
                "{style}: retention must undercut access knee"
            );
        }
    }

    #[test]
    fn transistor_counts() {
        assert_eq!(CellStyle::Commercial6T.transistors_per_bit(), 6);
        assert!(CellStyle::CellBasedAoi.transistors_per_bit() > 6);
    }

    #[test]
    #[should_panic(expected = "at least one bit")]
    fn area_rejects_zero_bits() {
        CellStyle::Commercial6T.array_area_mm2(0);
    }

    #[test]
    fn displays_distinct_and_nonempty() {
        let names: Vec<String> = CellStyle::ALL.iter().map(|s| s.to_string()).collect();
        let mut unique = names.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), names.len());
        assert!(names.iter().all(|n| !n.is_empty()));
    }
}
