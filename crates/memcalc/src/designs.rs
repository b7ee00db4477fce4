//! The four memory designs compared in the paper's Table 1, with both the
//! published figures (verbatim, including the scaling footnotes already
//! applied) and the figures this workspace's calculator produces for the
//! same 1k × 32 b instance.

use crate::instance::{MemoryMacro, MemoryOrganization};
use ntc_sram::styles::CellStyle;
use ntc_tech::card;
use std::fmt;

/// One row of Table 1 (one memory design, scaled to 1k × 32 b).
#[derive(Debug, Clone, PartialEq)]
pub struct Table1Row {
    /// Design label as it appears in the paper.
    pub design: String,
    /// The bit-cell style of the design.
    pub style: CellStyle,
    /// Dynamic energy per access in pJ, with the voltage it is quoted at.
    pub dyn_energy_pj: (f64, f64),
    /// Dynamic energy at reduced voltage, if quoted: (pJ, V).
    pub dyn_energy_reduced: Option<(f64, f64)>,
    /// Active leakage in µW, with the voltage it is quoted at, if quoted.
    pub leakage_uw: Option<(f64, f64)>,
    /// Area in mm².
    pub area_mm2: f64,
    /// Minimal retention voltage in volts, if quoted.
    pub retention_v: Option<f64>,
    /// Performance in MHz, with the voltage it is quoted at.
    pub performance_mhz: (f64, f64),
    /// Performance at reduced voltage, if quoted: (MHz, V).
    pub performance_reduced: Option<(f64, f64)>,
}

impl fmt::Display for Table1Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<28} {:>7.2} pJ @{:.2} V  {:>9} {:>9.4} mm²  {:>8} {:>9.2} MHz @{:.2} V",
            self.design,
            self.dyn_energy_pj.0,
            self.dyn_energy_pj.1,
            self.leakage_uw
                .map(|(p, v)| format!("{p:.1}µW@{v:.2}"))
                .unwrap_or_else(|| "—".into()),
            self.area_mm2,
            self.retention_v
                .map(|v| format!("{v:.2} V"))
                .unwrap_or_else(|| "—".into()),
            self.performance_mhz.0,
            self.performance_mhz.1,
        )
    }
}

/// The paper's Table 1, verbatim (scaling footnotes already applied by the
/// authors; the 65 nm area is additionally node-scaled in the paper via
/// footnote *4, by the squared node ratio).
pub fn published_rows() -> Vec<Table1Row> {
    vec![
        Table1Row {
            design: "COTS 40nm".into(),
            style: CellStyle::Commercial6T,
            dyn_energy_pj: (12.0, 1.1),
            dyn_energy_reduced: None,
            leakage_uw: Some((2.2, 1.1)),
            area_mm2: 0.01,
            retention_v: Some(0.85),
            performance_mhz: (820.0, 1.1),
            performance_reduced: None,
        },
        Table1Row {
            design: "Custom SRAM [12] 40nm".into(),
            style: CellStyle::Custom6T,
            dyn_energy_pj: (3.6, 1.1),
            dyn_energy_reduced: None,
            leakage_uw: Some((11.0, 1.1)),
            area_mm2: 0.024,
            retention_v: None,
            performance_mhz: (454.0, 1.1),
            performance_reduced: None,
        },
        Table1Row {
            design: "Cell-based SRAM [13] 65nm".into(),
            style: CellStyle::CellBasedLatch65,
            dyn_energy_pj: (7.03, 1.1), // back-scaled from 0.93 pJ @ 0.4 V
            dyn_energy_reduced: Some((0.93, 0.4)),
            leakage_uw: Some((8.0, 0.35)),
            area_mm2: 0.19,
            retention_v: Some(0.25),
            performance_mhz: (9.5, 0.65),
            performance_reduced: Some((0.1, 0.45)),
        },
        Table1Row {
            design: "Cell-based imec 40nm".into(),
            style: CellStyle::CellBasedAoi,
            dyn_energy_pj: (1.4, 1.1),
            dyn_energy_reduced: Some((0.18, 0.4)),
            leakage_uw: Some((5.9, 1.1)),
            area_mm2: 0.058,
            retention_v: Some(0.32),
            performance_mhz: (96.0, 1.1),
            performance_reduced: Some((0.4, 0.45)),
        },
    ]
}

/// The same table regenerated by this workspace's calculator for a
/// 1k × 32 b instance of each style.
pub fn computed_rows() -> Vec<Table1Row> {
    let org = MemoryOrganization::reference_1kx32();
    CellStyle::ALL
        .iter()
        .map(|&style| {
            let tech = match style {
                CellStyle::CellBasedLatch65 => card::n65lp(),
                _ => card::n40lp(),
            };
            let m = MemoryMacro::new(style, org, tech);
            let f_v = match style {
                CellStyle::CellBasedLatch65 => 0.65,
                _ => 1.1,
            };
            let reduced = match style {
                CellStyle::CellBasedLatch65 => Some((0.45, 0.45)),
                CellStyle::CellBasedAoi => Some((0.4, 0.45)),
                _ => None,
            };
            Table1Row {
                design: format!("{style} (computed)"),
                style,
                dyn_energy_pj: (m.access_energy(1.1) * 1e12, 1.1),
                dyn_energy_reduced: reduced
                    .map(|(ev, _)| (m.access_energy(ev) * 1e12, ev)),
                leakage_uw: Some(match style {
                    CellStyle::CellBasedLatch65 => (m.leakage_power(0.35) * 1e6, 0.35),
                    _ => (m.leakage_power(1.1) * 1e6, 1.1),
                }),
                area_mm2: m.area_mm2(),
                retention_v: Some(m.retention_law().macro_retention_voltage(org.bits())),
                performance_mhz: (m.f_max(f_v) / 1e6, f_v),
                performance_reduced: reduced.map(|(_, fv)| (m.f_max(fv) / 1e6, fv)),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn published_rows_cover_all_styles_in_order() {
        let rows = published_rows();
        assert_eq!(rows.len(), 4);
        for (row, style) in rows.iter().zip(CellStyle::ALL) {
            assert_eq!(row.style, style);
        }
    }

    #[test]
    fn computed_matches_published_energy_anchors() {
        let published = published_rows();
        let computed = computed_rows();
        for (p, c) in published.iter().zip(&computed) {
            // Same quoting voltage…
            assert_eq!(p.dyn_energy_pj.1, c.dyn_energy_pj.1, "{}", p.design);
            // …and energy within 10 %.
            let rel = (c.dyn_energy_pj.0 / p.dyn_energy_pj.0 - 1.0).abs();
            assert!(rel < 0.10, "{}: {} vs {}", p.design, c.dyn_energy_pj.0, p.dyn_energy_pj.0);
        }
    }

    #[test]
    fn computed_matches_published_performance_anchors() {
        for (p, c) in published_rows().iter().zip(&computed_rows()) {
            let rel = (c.performance_mhz.0 / p.performance_mhz.0 - 1.0).abs();
            assert!(rel < 0.10, "{}: {} vs {} MHz", p.design, c.performance_mhz.0, p.performance_mhz.0);
        }
    }

    #[test]
    fn computed_retention_anchors() {
        let computed = computed_rows();
        // Cell-based rows must match Table 1's measured retention voltages.
        assert!((computed[2].retention_v.unwrap() - 0.25).abs() < 0.01);
        assert!((computed[3].retention_v.unwrap() - 0.32).abs() < 0.01);
        // The COTS row differs by design: our model reports the *measured*
        // retention, far below the 0.85 V provider spec the paper quotes.
        assert!(computed[0].retention_v.unwrap() < 0.5);
    }

    #[test]
    fn area_penalty_visible() {
        let computed = computed_rows();
        let cots = computed[0].area_mm2;
        let aoi = computed[3].area_mm2;
        assert!(aoi / cots > 4.0, "cell-based pays a clear area penalty");
    }

    #[test]
    fn rows_render() {
        for row in published_rows().iter().chain(&computed_rows()) {
            assert!(!row.to_string().is_empty());
        }
    }
}
