//! Structural + numeric comparison of artifacts against a committed
//! baseline.
//!
//! `repro diff <baseline-dir>` re-runs the registry and compares every
//! table cell, series point and scalar of each artifact against the
//! JSON a previous `repro run --out` wrote. Artifacts are pure
//! functions of `(id, seed, scale)`, so on the same platform the
//! comparison is byte-exact; across platforms only libm-backed
//! transcendentals (`powf`, `ln`, `exp`) may differ in the last ulp,
//! which is why value comparisons take a [`Tolerance`] (defaulting to
//! a relative 1e-6) instead of demanding bit equality.
//!
//! The comparison is *keyed*, not positional, at the item level: tables
//! pair by name, series by label, scalars by label. Reordering items is
//! reported as structure drift only if a key disappears; a changed
//! number is reported with both values and the relative error so the
//! offending quantity can be read straight out of CI logs.

use super::{Artifact, Cell, Item};
use std::fmt;

/// Absolute + relative tolerance for pairing floating-point values:
/// `a` matches `b` iff `|a − b| ≤ atol + rtol·max(|a|, |b|)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tolerance {
    /// Relative term, scaled by the larger magnitude.
    pub rtol: f64,
    /// Absolute floor, for values near zero.
    pub atol: f64,
}

impl Default for Tolerance {
    /// Tight enough to catch any model change, loose enough to absorb
    /// last-ulp libm differences between the platform that wrote the
    /// baseline and the one checking it.
    fn default() -> Self {
        Self { rtol: 1e-6, atol: 0.0 }
    }
}

impl Tolerance {
    /// A purely relative tolerance.
    pub fn rel(rtol: f64) -> Self {
        Self { rtol, atol: 0.0 }
    }

    /// Whether `a` and `b` agree within this tolerance. NaN never
    /// matches anything (a NaN appearing in an artifact is itself a
    /// regression); equal infinities match.
    pub(crate) fn matches(&self, a: f64, b: f64) -> bool {
        if a == b {
            return true; // covers equal infinities and exact zeros
        }
        if !a.is_finite() || !b.is_finite() {
            return false; // NaN or a lone infinity: never within tolerance
        }
        (a - b).abs() <= self.atol + self.rtol * a.abs().max(b.abs())
    }
}

/// What kind of drift a [`DiffEntry`] reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiffKind {
    /// Shape changed: item missing/added, columns renamed, point counts
    /// differ, text cells changed — anything not expressible as a
    /// numeric delta.
    Structure,
    /// A number moved outside the tolerance.
    Value,
}

/// One detected difference between baseline and current.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffEntry {
    /// Structure or value drift.
    pub kind: DiffKind,
    /// Where: `"<artifact>/<item>/<cell>"`, e.g.
    /// `fig5/series[mc cross-check]/point[3].y`.
    pub path: String,
    /// Baseline value, when the difference is numeric.
    pub baseline: Option<f64>,
    /// Current value, when the difference is numeric.
    pub current: Option<f64>,
    /// Human-readable description of the drift.
    pub detail: String,
}

impl DiffEntry {
    fn structure(path: String, detail: String) -> Self {
        Self { kind: DiffKind::Structure, path, baseline: None, current: None, detail }
    }

    fn value(path: String, baseline: f64, current: f64) -> Self {
        let rel = if baseline != 0.0 {
            ((current - baseline) / baseline).abs()
        } else {
            f64::INFINITY
        };
        Self {
            kind: DiffKind::Value,
            path,
            baseline: Some(baseline),
            current: Some(current),
            detail: format!("baseline {baseline} -> current {current} (rel err {rel:.3e})"),
        }
    }
}

impl fmt::Display for DiffEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let kind = match self.kind {
            DiffKind::Structure => "structure",
            DiffKind::Value => "value",
        };
        write!(f, "[{kind}] {}: {}", self.path, self.detail)
    }
}

/// The full comparison result for one artifact pair.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ArtifactDiff {
    /// Every detected difference, in artifact item order.
    pub entries: Vec<DiffEntry>,
}

impl ArtifactDiff {
    /// True when baseline and current agree everywhere.
    pub fn is_clean(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Compares `current` against `baseline` with the given tolerance.
///
/// Items pair by key (table name / series label / scalar label); keys
/// present on one side only are structure drift. Within paired items,
/// every number is compared under `tol` and every string exactly.
pub fn diff_artifacts(baseline: &Artifact, current: &Artifact, tol: Tolerance) -> ArtifactDiff {
    let mut d = ArtifactDiff::default();
    let id = &baseline.id;
    if baseline.id != current.id {
        d.entries.push(DiffEntry::structure(
            id.clone(),
            format!("artifact id changed: {} -> {}", baseline.id, current.id),
        ));
    }
    if baseline.title != current.title {
        d.entries.push(DiffEntry::structure(
            id.clone(),
            format!("title changed: {:?} -> {:?}", baseline.title, current.title),
        ));
    }

    for b_item in &baseline.items {
        match b_item {
            Item::Table(bt) => match current.table(&bt.name) {
                None => d.entries.push(DiffEntry::structure(
                    format!("{id}/table[{}]", bt.name),
                    "table missing from current run".into(),
                )),
                Some(ct) => diff_table(&mut d, id, bt, ct, tol),
            },
            Item::Series(bs) => {
                match current.series().find(|s| s.label == bs.label) {
                    None => d.entries.push(DiffEntry::structure(
                        format!("{id}/series[{}]", bs.label),
                        "series missing from current run".into(),
                    )),
                    Some(cs) => diff_series(&mut d, id, bs, cs, tol),
                }
            }
            Item::Scalar(bsc) => {
                match current.scalars().find(|s| s.label == bsc.label) {
                    None => d.entries.push(DiffEntry::structure(
                        format!("{id}/scalar[{}]", bsc.label),
                        "scalar missing from current run".into(),
                    )),
                    Some(csc) => {
                        let path = format!("{id}/scalar[{}]", bsc.label);
                        if bsc.unit != csc.unit {
                            d.entries.push(DiffEntry::structure(
                                path.clone(),
                                format!("unit changed: {:?} -> {:?}", bsc.unit, csc.unit),
                            ));
                        }
                        if bsc.paper != csc.paper {
                            d.entries.push(DiffEntry::structure(
                                path.clone(),
                                "paper anchor definition changed".into(),
                            ));
                        }
                        if !tol.matches(bsc.value, csc.value) {
                            d.entries.push(DiffEntry::value(path, bsc.value, csc.value));
                        }
                    }
                }
            }
        }
    }

    // Keys that appeared only in the current run.
    for item in &current.items {
        let (kind, key, found) = match item {
            Item::Table(t) => ("table", &t.name, baseline.table(&t.name).is_some()),
            Item::Series(s) => (
                "series",
                &s.label,
                baseline.series().any(|b| b.label == s.label),
            ),
            Item::Scalar(s) => (
                "scalar",
                &s.label,
                baseline.scalars().any(|b| b.label == s.label),
            ),
        };
        if !found {
            d.entries.push(DiffEntry::structure(
                format!("{id}/{kind}[{key}]"),
                format!("{kind} not present in baseline"),
            ));
        }
    }
    d
}

fn diff_table(
    d: &mut ArtifactDiff,
    id: &str,
    b: &super::Table,
    c: &super::Table,
    tol: Tolerance,
) {
    let path = format!("{id}/table[{}]", b.name);
    if b.columns != c.columns {
        d.entries.push(DiffEntry::structure(path, "columns changed".into()));
        return;
    }
    if b.rows().len() != c.rows().len() {
        d.entries.push(DiffEntry::structure(
            path,
            format!("row count changed: {} -> {}", b.rows().len(), c.rows().len()),
        ));
        return;
    }
    for (ri, (br, cr)) in b.rows().iter().zip(c.rows()).enumerate() {
        for (ci, (bc, cc)) in br.iter().zip(cr).enumerate() {
            let cell_path = || {
                format!(
                    "{id}/table[{}]/row[{ri}].{}",
                    b.name, b.columns[ci].name
                )
            };
            match (bc, cc) {
                (Cell::Text(bt), Cell::Text(ct)) => {
                    if bt != ct {
                        d.entries.push(DiffEntry::structure(
                            cell_path(),
                            format!("text changed: {bt:?} -> {ct:?}"),
                        ));
                    }
                }
                (Cell::Num(bn), Cell::Num(cn)) => {
                    if !tol.matches(*bn, *cn) {
                        d.entries.push(DiffEntry::value(cell_path(), *bn, *cn));
                    }
                }
                _ => d.entries.push(DiffEntry::structure(
                    cell_path(),
                    "cell kind changed (text vs number)".into(),
                )),
            }
        }
    }
}

fn diff_series(
    d: &mut ArtifactDiff,
    id: &str,
    b: &super::Series,
    c: &super::Series,
    tol: Tolerance,
) {
    let path = format!("{id}/series[{}]", b.label);
    let axes_b = (&b.x_name, &b.x_unit, &b.y_name, &b.y_unit);
    let axes_c = (&c.x_name, &c.x_unit, &c.y_name, &c.y_unit);
    if axes_b != axes_c {
        d.entries.push(DiffEntry::structure(path, "axes changed".into()));
        return;
    }
    if b.points.len() != c.points.len() {
        d.entries.push(DiffEntry::structure(
            path,
            format!("point count changed: {} -> {}", b.points.len(), c.points.len()),
        ));
        return;
    }
    for (i, (&(bx, by), &(cx, cy))) in b.points.iter().zip(&c.points).enumerate() {
        if !tol.matches(bx, cx) {
            d.entries.push(DiffEntry::value(
                format!("{id}/series[{}]/point[{i}].x", b.label),
                bx,
                cx,
            ));
        }
        if !tol.matches(by, cy) {
            d.entries.push(DiffEntry::value(
                format!("{id}/series[{}]/point[{i}].y", b.label),
                by,
                cy,
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::{Column, PaperRef, Series, Table};
    use super::*;

    fn sample() -> Artifact {
        Artifact::new("fig_t", "diff sample")
            .with_table(
                Table::new("rows", vec![Column::bare("key"), Column::new("vdd", "V")])
                    .with_row(vec![Cell::Text("a".into()), Cell::Num(0.33)])
                    .with_row(vec![Cell::Text("b".into()), Cell::Num(0.44)]),
            )
            .with_series(Series::new(
                "ber",
                ("VDD", "V"),
                ("BER", ""),
                vec![(0.3, 1e-3), (0.4, 1e-7)],
            ))
            .with_anchor("vmin", "V", 0.33, PaperRef::abs(0.33, 0.01))
            .with_scalar("free", "", 1.25)
    }

    #[test]
    fn identical_artifacts_diff_clean() {
        let d = diff_artifacts(&sample(), &sample(), Tolerance::default());
        assert!(d.is_clean(), "{:?}", d.entries);
    }

    #[test]
    fn tolerance_absorbs_tiny_drift_but_not_regressions() {
        let mut cur = sample();
        // Nudge the scalar by 1 part in 1e9: inside the default 1e-6.
        if let Item::Scalar(s) = &mut cur.items[3] {
            s.value *= 1.0 + 1e-9;
        }
        assert!(diff_artifacts(&sample(), &cur, Tolerance::default()).is_clean());
        // A 1% move is a regression.
        if let Item::Scalar(s) = &mut cur.items[3] {
            s.value *= 1.01;
        }
        let d = diff_artifacts(&sample(), &cur, Tolerance::default());
        assert_eq!(d.entries.len(), 1);
        assert_eq!(d.entries[0].kind, DiffKind::Value);
        assert!(d.entries[0].path.contains("scalar[free]"));
        assert!(d.entries[0].to_string().contains("rel err"));
        // ...unless the caller asked for a loose tolerance.
        assert!(diff_artifacts(&sample(), &cur, Tolerance::rel(0.05)).is_clean());
    }

    #[test]
    fn series_point_drift_is_located() {
        let mut cur = sample();
        if let Item::Series(s) = &mut cur.items[1] {
            s.points[1].1 = 2e-7;
        }
        let d = diff_artifacts(&sample(), &cur, Tolerance::default());
        assert_eq!(d.entries.len(), 1);
        assert!(d.entries[0].path.ends_with("point[1].y"));
        assert_eq!(d.entries[0].baseline, Some(1e-7));
        assert_eq!(d.entries[0].current, Some(2e-7));
    }

    #[test]
    fn table_cell_drift_is_located_by_row_and_column() {
        let mut cur = sample();
        if let Item::Table(t) = &mut cur.items[0] {
            let mut rows: Vec<Vec<Cell>> = t.rows().to_vec();
            rows[1][1] = Cell::Num(0.45);
            *t = Table::new("rows", t.columns.clone());
            for r in rows {
                t.push_row(r);
            }
        }
        let d = diff_artifacts(&sample(), &cur, Tolerance::default());
        assert_eq!(d.entries.len(), 1);
        assert!(d.entries[0].path.contains("row[1].vdd"));
    }

    #[test]
    fn structural_drift_is_reported() {
        // Missing scalar.
        let mut cur = sample();
        cur.items.remove(3);
        let d = diff_artifacts(&sample(), &cur, Tolerance::default());
        assert!(d.entries.iter().any(|e| {
            e.kind == DiffKind::Structure && e.path.contains("scalar[free]")
        }));
        // Extra series.
        let cur = sample().with_series(Series::new("new", ("x", ""), ("y", ""), vec![]));
        let d = diff_artifacts(&sample(), &cur, Tolerance::default());
        assert!(d.entries.iter().any(|e| e.path.contains("series[new]")
            && e.detail.contains("not present in baseline")));
        // Changed anchor definition.
        let mut cur = sample();
        if let Item::Scalar(s) = &mut cur.items[2] {
            s.paper = Some(PaperRef::abs(0.33, 0.05));
        }
        let d = diff_artifacts(&sample(), &cur, Tolerance::default());
        assert!(d.entries.iter().any(|e| e.detail.contains("anchor definition")));
        // Point count change.
        let mut cur = sample();
        if let Item::Series(s) = &mut cur.items[1] {
            s.points.pop();
        }
        let d = diff_artifacts(&sample(), &cur, Tolerance::default());
        assert!(d.entries.iter().any(|e| e.detail.contains("point count")));
    }

    #[test]
    fn nan_in_current_run_is_a_regression() {
        let mut cur = sample();
        if let Item::Scalar(s) = &mut cur.items[3] {
            s.value = f64::NAN;
        }
        let d = diff_artifacts(&sample(), &cur, Tolerance::default());
        assert_eq!(d.entries.len(), 1);
        assert_eq!(d.entries[0].kind, DiffKind::Value);
    }

    #[test]
    fn tolerance_matches_edge_cases() {
        let t = Tolerance::default();
        assert!(t.matches(0.0, 0.0));
        assert!(t.matches(f64::INFINITY, f64::INFINITY));
        assert!(!t.matches(f64::INFINITY, 1.0));
        assert!(!t.matches(f64::NAN, f64::NAN), "NaN never matches");
        let abs = Tolerance { rtol: 0.0, atol: 1e-12 };
        assert!(abs.matches(0.0, 1e-13));
        assert!(!abs.matches(0.0, 1e-11));
    }
}
