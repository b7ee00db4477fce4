//! Typed experiment artifacts with paper anchors.
//!
//! Every reproduction in this workspace produces an [`Artifact`]: a named
//! bundle of [`Table`]s (named, united columns), [`Series`] (x/y sweeps)
//! and [`Scalar`]s. A scalar may carry a [`PaperRef`] — the value the paper
//! publishes for that quantity plus a tolerance [`Band`] — which turns the
//! artifact into a machine-checkable record: [`Artifact::checks`] yields
//! every anchored quantity and [`Artifact::passed`] tells whether the
//! reproduction currently sits inside every band. The `repro` CLI, the
//! paper-number tests and the figure benches all consume the same
//! artifacts, so each published anchor lives in exactly one place (the
//! experiment that measures it).
//!
//! Artifacts serialize to JSON through the deterministic writer in
//! [`json`]: key order is fixed by construction and numbers are printed
//! with Rust's shortest round-trip formatting, so two runs that compute
//! bit-equal values emit byte-identical documents regardless of thread
//! count. [`Artifact::from_json`] parses them back losslessly.
//!
//! The build environment has no registry access, so there is no serde:
//! the byte format lives here.

use std::fmt;

pub mod diff;
pub mod json;

use json::{JsonError, JsonValue};

/// Tolerance band of a paper anchor.
///
/// `Abs`, `Rel` and the one-sided/two-sided range variants express the
/// different kinds of agreement the reproduction targets: exact grid
/// voltages (`Abs(0.0)`), calibrated model constants (`Rel(0.02)`), and
/// qualitative shape claims where the paper quotes a headline value but
/// the model family only supports a band (`Range`, `AtLeast`, `AtMost` on
/// the *measured* value).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Band {
    /// Measured must lie within ± the tolerance of the paper value.
    Abs(f64),
    /// Measured must lie within ± the fraction of the paper value.
    Rel(f64),
    /// Measured must lie in `[lo, hi]` (absolute bounds).
    Range(f64, f64),
    /// Measured must be at least the bound.
    AtLeast(f64),
    /// Measured must be at most the bound.
    AtMost(f64),
}

impl Band {
    /// Whether `measured` satisfies the band around `paper`.
    pub fn admits(&self, paper: f64, measured: f64) -> bool {
        match *self {
            Band::Abs(tol) => (measured - paper).abs() <= tol,
            Band::Rel(tol) => (measured - paper).abs() <= tol * paper.abs(),
            Band::Range(lo, hi) => measured >= lo && measured <= hi,
            Band::AtLeast(lo) => measured >= lo,
            Band::AtMost(hi) => measured <= hi,
        }
    }

    /// The admissible interval `[lo, hi]` around `paper`; one-sided
    /// bands return ±∞ on their open side.
    pub(crate) fn bounds(&self, paper: f64) -> (f64, f64) {
        match *self {
            Band::Abs(tol) => (paper - tol, paper + tol),
            Band::Rel(tol) => {
                let half = tol * paper.abs();
                (paper - half, paper + half)
            }
            Band::Range(lo, hi) => (lo, hi),
            Band::AtLeast(lo) => (lo, f64::INFINITY),
            Band::AtMost(hi) => (f64::NEG_INFINITY, hi),
        }
    }
}

impl fmt::Display for Band {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Band::Abs(tol) => write!(f, "±{tol}"),
            Band::Rel(tol) => write!(f, "±{}%", tol * 100.0),
            Band::Range(lo, hi) => write!(f, "in [{lo}, {hi}]"),
            Band::AtLeast(lo) => write!(f, "≥ {lo}"),
            Band::AtMost(hi) => write!(f, "≤ {hi}"),
        }
    }
}

/// A published paper value with its acceptance band.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PaperRef {
    /// The value the paper publishes (or implies) for this quantity.
    pub paper: f64,
    /// The band the measured value must land in.
    pub band: Band,
}

impl PaperRef {
    /// Anchor that must match the paper value within an absolute tolerance.
    pub fn abs(paper: f64, tol: f64) -> Self {
        Self { paper, band: Band::Abs(tol) }
    }

    /// Anchor that must match the paper value within a relative tolerance.
    pub fn rel(paper: f64, tol: f64) -> Self {
        Self { paper, band: Band::Rel(tol) }
    }

    /// Anchor that must match the paper value exactly (bit-level: the
    /// quantity is constructed from the same constant the paper quotes).
    pub fn exact(paper: f64) -> Self {
        Self::abs(paper, 0.0)
    }

    /// Anchor whose measured value must land in `[lo, hi]` while the paper
    /// quotes `paper` as the headline.
    pub fn range(paper: f64, lo: f64, hi: f64) -> Self {
        Self { paper, band: Band::Range(lo, hi) }
    }

    /// Anchor whose measured value must be at least `lo`.
    pub(crate) fn at_least(paper: f64, lo: f64) -> Self {
        Self { paper, band: Band::AtLeast(lo) }
    }

    /// Anchor whose measured value must be at most `hi`.
    pub(crate) fn at_most(paper: f64, hi: f64) -> Self {
        Self { paper, band: Band::AtMost(hi) }
    }

    /// Whether `measured` satisfies this anchor.
    pub fn holds(&self, measured: f64) -> bool {
        self.band.admits(self.paper, measured)
    }
}

/// A single named quantity, optionally anchored to the paper.
#[derive(Debug, Clone, PartialEq)]
pub struct Scalar {
    /// What the quantity is.
    pub label: String,
    /// Its unit (empty for dimensionless).
    pub unit: String,
    /// The measured value.
    pub value: f64,
    /// The paper anchor, if the paper publishes this quantity.
    pub paper: Option<PaperRef>,
}

/// A table column: name plus unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Column {
    /// Column name.
    pub name: String,
    /// Column unit (empty for text or dimensionless columns).
    pub unit: String,
}

impl Column {
    /// A column with a unit.
    pub fn new(name: &str, unit: &str) -> Self {
        Self { name: name.to_string(), unit: unit.to_string() }
    }

    /// A unit-less column.
    pub fn bare(name: &str) -> Self {
        Self::new(name, "")
    }
}

/// One table cell.
#[derive(Debug, Clone, PartialEq)]
pub enum Cell {
    /// A textual cell (row keys, labels).
    Text(String),
    /// A numeric cell in the column's unit.
    Num(f64),
}

impl Cell {
    /// Numeric value, if the cell is numeric.
    pub(crate) fn as_num(&self) -> Option<f64> {
        match self {
            Cell::Num(v) => Some(*v),
            Cell::Text(_) => None,
        }
    }

    /// Text value, if the cell is textual.
    pub(crate) fn as_text(&self) -> Option<&str> {
        match self {
            Cell::Text(s) => Some(s),
            Cell::Num(_) => None,
        }
    }
}

impl fmt::Display for Cell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Cell::Text(s) => f.write_str(s),
            Cell::Num(v) => write!(f, "{v}"),
        }
    }
}

/// A rectangular table with named, united columns.
///
/// Rows are looked up *by key*, never by position: `Table::row_by_key`
/// finds the row whose cell in a given column matches a text key, so
/// downstream consumers (savings lines, checks, renderers) cannot silently
/// misreport if row ordering changes.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    /// Table name.
    pub name: String,
    /// Column headers.
    pub columns: Vec<Column>,
    /// Rows; every row has exactly `columns.len()` cells.
    rows: Vec<Vec<Cell>>,
}

impl Table {
    /// An empty table with the given columns.
    ///
    /// # Panics
    ///
    /// Panics if no columns are given.
    pub fn new(name: &str, columns: Vec<Column>) -> Self {
        assert!(!columns.is_empty(), "table needs at least one column");
        Self { name: name.to_string(), columns, rows: Vec::new() }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width does not match the column count.
    pub(crate) fn push_row(&mut self, row: Vec<Cell>) {
        assert_eq!(
            row.len(),
            self.columns.len(),
            "row width must match column count in table {}",
            self.name
        );
        self.rows.push(row);
    }

    /// Builder-style `Table::push_row`.
    #[must_use]
    pub fn with_row(mut self, row: Vec<Cell>) -> Self {
        self.push_row(row);
        self
    }

    /// The rows.
    pub fn rows(&self) -> &[Vec<Cell>] {
        &self.rows
    }

    /// Index of a column by name.
    pub(crate) fn column_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.name == name)
    }

    /// The row whose `key_column` cell equals `key` (textual match).
    pub(crate) fn row_by_key(&self, key_column: &str, key: &str) -> Option<&[Cell]> {
        let ki = self.column_index(key_column)?;
        self.rows
            .iter()
            .find(|r| r[ki].as_text() == Some(key))
            .map(Vec::as_slice)
    }

    /// Numeric cell at (`key` row of `key_column`, `column`).
    pub fn num(&self, key_column: &str, key: &str, column: &str) -> Option<f64> {
        let ci = self.column_index(column)?;
        self.row_by_key(key_column, key)?[ci].as_num()
    }
}

/// A sampled x/y sweep (one curve of a figure).
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// Curve label.
    pub label: String,
    /// x-axis name.
    pub x_name: String,
    /// x-axis unit.
    pub x_unit: String,
    /// y-axis name.
    pub y_name: String,
    /// y-axis unit.
    pub y_unit: String,
    /// The sampled points, in sweep order.
    pub points: Vec<(f64, f64)>,
}

impl Series {
    /// A new series over named/united axes.
    pub fn new(label: &str, x: (&str, &str), y: (&str, &str), points: Vec<(f64, f64)>) -> Self {
        Self {
            label: label.to_string(),
            x_name: x.0.to_string(),
            x_unit: x.1.to_string(),
            y_name: y.0.to_string(),
            y_unit: y.1.to_string(),
            points,
        }
    }
}

/// One item of an artifact.
#[derive(Debug, Clone, PartialEq)]
pub enum Item {
    /// A table.
    Table(Table),
    /// A curve.
    Series(Series),
    /// A named quantity.
    Scalar(Scalar),
}

/// An anchored quantity extracted from an artifact, with its verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct Check {
    /// Which artifact the anchor came from.
    pub artifact: String,
    /// The anchored quantity.
    pub label: String,
    /// Its unit.
    pub unit: String,
    /// The measured value.
    pub measured: f64,
    /// The paper value and band.
    pub paper: PaperRef,
}

impl Check {
    /// Fraction of a band's width below which a passing anchor is
    /// reported as at-risk (see [`Check::at_risk`]).
    pub const AT_RISK_MARGIN: f64 = 0.10;

    /// Whether the measured value sits inside the band.
    pub fn passes(&self) -> bool {
        self.paper.holds(self.measured)
    }

    /// Signed distance from the measured value to the nearest band
    /// edge, normalized so "how close is this anchor to failing?" is
    /// comparable across anchors:
    ///
    /// * **Two-sided band** (`Abs`, `Rel`, `Range`): distance to the
    ///   nearer edge divided by band width. Inside the band the value
    ///   runs from `0` (on an edge) to `0.5` (dead center); outside it
    ///   is negative. A zero-width band (`PaperRef::exact`) has no
    ///   interior to normalize by: `+∞` on an exact match, `−∞` on a
    ///   miss.
    /// * **One-sided band** (`AtLeast`, `AtMost`): distance to the
    ///   bound divided by `max(|bound|, |measured|)` (relative
    ///   headroom; `0.0` when both are zero — sitting exactly on a
    ///   zero bound).
    ///
    /// The sign always agrees with [`Check::passes`]: negative iff the
    /// anchor misses (up to the `<=` edge convention, where the margin
    /// is `0` and the check passes).
    pub fn margin(&self) -> f64 {
        let (lo, hi) = self.paper.band.bounds(self.paper.paper);
        let m = self.measured;
        match (lo.is_finite(), hi.is_finite()) {
            (true, true) => {
                let width = hi - lo;
                if width == 0.0 {
                    if self.passes() {
                        f64::INFINITY
                    } else {
                        f64::NEG_INFINITY
                    }
                } else {
                    (m - lo).min(hi - m) / width
                }
            }
            (true, false) => one_sided_margin(m - lo, lo, m),
            (false, true) => one_sided_margin(hi - m, hi, m),
            (false, false) => f64::INFINITY, // unbounded band: cannot fail
        }
    }

    /// Whether this anchor passes but sits within
    /// [`Check::AT_RISK_MARGIN`] of its band edge — close enough that
    /// ordinary model drift could push it out.
    pub fn at_risk(&self) -> bool {
        let margin = self.margin();
        self.passes() && margin.is_finite() && margin < Self::AT_RISK_MARGIN
    }

    /// The margin formatted for tables: `+0.312` / `-0.044`, or `exact`
    /// for the infinite margins of zero-width bands.
    pub fn margin_display(&self) -> String {
        let m = self.margin();
        if m == f64::INFINITY {
            "exact".to_string()
        } else if m == f64::NEG_INFINITY {
            "exact-miss".to_string()
        } else {
            format!("{m:+.3}")
        }
    }
}

/// Normalized one-sided margin: `headroom` (signed distance into the
/// admissible side) over the larger magnitude of bound and measured.
fn one_sided_margin(headroom: f64, bound: f64, measured: f64) -> f64 {
    let scale = bound.abs().max(measured.abs());
    if scale == 0.0 {
        0.0
    } else {
        headroom / scale
    }
}

impl fmt::Display for Check {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<12} {:<44} paper {:>10.4} {:<3} measured {:>10.4} {:<3} ({})  margin {:>10}  {}",
            self.artifact,
            self.label,
            self.paper.paper,
            self.unit,
            self.measured,
            self.unit,
            self.paper.band,
            self.margin_display(),
            if self.passes() {
                if self.at_risk() {
                    "ok (AT RISK)"
                } else {
                    "ok"
                }
            } else {
                "MISS"
            }
        )
    }
}

/// The structured result of one experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct Artifact {
    /// Registry id of the experiment that produced this artifact.
    pub id: String,
    /// Human title (figure/table caption).
    pub title: String,
    /// The tables, series and scalars, in presentation order.
    pub items: Vec<Item>,
}

impl Artifact {
    /// An empty artifact.
    pub fn new(id: &str, title: &str) -> Self {
        Self { id: id.to_string(), title: title.to_string(), items: Vec::new() }
    }

    /// Adds a table.
    #[must_use]
    pub fn with_table(mut self, table: Table) -> Self {
        self.items.push(Item::Table(table));
        self
    }

    /// Adds a series.
    #[must_use]
    pub fn with_series(mut self, series: Series) -> Self {
        self.items.push(Item::Series(series));
        self
    }

    /// Adds an unanchored scalar.
    #[must_use]
    pub fn with_scalar(mut self, label: &str, unit: &str, value: f64) -> Self {
        self.items.push(Item::Scalar(Scalar {
            label: label.to_string(),
            unit: unit.to_string(),
            value,
            paper: None,
        }));
        self
    }

    /// Adds a paper-anchored scalar.
    #[must_use]
    pub fn with_anchor(mut self, label: &str, unit: &str, value: f64, paper: PaperRef) -> Self {
        self.items.push(Item::Scalar(Scalar {
            label: label.to_string(),
            unit: unit.to_string(),
            value,
            paper: Some(paper),
        }));
        self
    }

    /// All tables, in order.
    pub fn tables(&self) -> impl Iterator<Item = &Table> {
        self.items.iter().filter_map(|i| match i {
            Item::Table(t) => Some(t),
            _ => None,
        })
    }

    /// All series, in order.
    pub fn series(&self) -> impl Iterator<Item = &Series> {
        self.items.iter().filter_map(|i| match i {
            Item::Series(s) => Some(s),
            _ => None,
        })
    }

    /// All scalars, in order.
    pub fn scalars(&self) -> impl Iterator<Item = &Scalar> {
        self.items.iter().filter_map(|i| match i {
            Item::Scalar(s) => Some(s),
            _ => None,
        })
    }

    /// The value of the scalar with the given label.
    pub fn scalar(&self, label: &str) -> Option<f64> {
        self.scalars().find(|s| s.label == label).map(|s| s.value)
    }

    /// The table with the given name.
    pub fn table(&self, name: &str) -> Option<&Table> {
        self.tables().find(|t| t.name == name)
    }

    /// Every paper-anchored quantity with its verdict.
    pub fn checks(&self) -> Vec<Check> {
        self.scalars()
            .filter_map(|s| {
                s.paper.map(|paper| Check {
                    artifact: self.id.clone(),
                    label: s.label.clone(),
                    unit: s.unit.clone(),
                    measured: s.value,
                    paper,
                })
            })
            .collect()
    }

    /// Whether every anchor lands inside its band.
    pub fn passed(&self) -> bool {
        self.checks().iter().all(Check::passes)
    }

    /// The anchors currently outside their band.
    pub fn failures(&self) -> Vec<Check> {
        self.checks().into_iter().filter(|c| !c.passes()).collect()
    }

    /// Serializes the artifact to deterministic, pretty-printed JSON.
    ///
    /// Key order is fixed by construction, numbers use Rust's shortest
    /// round-trip formatting: equal in-memory artifacts always produce
    /// byte-identical documents.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        self.to_json_value().write_pretty(&mut s, 0);
        s.push('\n');
        s
    }

    /// The artifact as a [`JsonValue`] tree.
    pub fn to_json_value(&self) -> JsonValue {
        JsonValue::Obj(vec![
            ("id".into(), JsonValue::Str(self.id.clone())),
            ("title".into(), JsonValue::Str(self.title.clone())),
            (
                "items".into(),
                JsonValue::Arr(self.items.iter().map(item_to_json).collect()),
            ),
        ])
    }

    /// Parses an artifact back from [`Artifact::to_json`] output.
    pub fn from_json(text: &str) -> Result<Self, JsonError> {
        let v = json::parse(text)?;
        artifact_from_json(&v)
    }
}

impl fmt::Display for Artifact {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} — {} ({} items)", self.id, self.title, self.items.len())
    }
}

fn num(v: f64) -> JsonValue {
    JsonValue::num(v)
}

fn band_to_json(b: &Band) -> JsonValue {
    let (kind, fields) = match *b {
        Band::Abs(tol) => ("abs", vec![("tol".to_string(), num(tol))]),
        Band::Rel(tol) => ("rel", vec![("tol".to_string(), num(tol))]),
        Band::Range(lo, hi) => (
            "range",
            vec![("lo".to_string(), num(lo)), ("hi".to_string(), num(hi))],
        ),
        Band::AtLeast(lo) => ("at_least", vec![("lo".to_string(), num(lo))]),
        Band::AtMost(hi) => ("at_most", vec![("hi".to_string(), num(hi))]),
    };
    let mut obj = vec![("kind".to_string(), JsonValue::Str(kind.to_string()))];
    obj.extend(fields);
    JsonValue::Obj(obj)
}

fn band_from_json(v: &JsonValue) -> Result<Band, JsonError> {
    let kind = v
        .get("kind")
        .and_then(JsonValue::as_str)
        .ok_or_else(|| JsonError::schema("band.kind"))?;
    let f = |k: &str| -> Result<f64, JsonError> {
        v.get(k)
            .and_then(JsonValue::as_num)
            .ok_or_else(|| JsonError::schema("band bound"))
    };
    Ok(match kind {
        "abs" => Band::Abs(f("tol")?),
        "rel" => Band::Rel(f("tol")?),
        "range" => Band::Range(f("lo")?, f("hi")?),
        "at_least" => Band::AtLeast(f("lo")?),
        "at_most" => Band::AtMost(f("hi")?),
        other => return Err(JsonError::schema_owned(format!("unknown band kind {other}"))),
    })
}

fn item_to_json(item: &Item) -> JsonValue {
    match item {
        Item::Scalar(s) => {
            let mut obj = vec![
                ("kind".to_string(), JsonValue::Str("scalar".into())),
                ("label".to_string(), JsonValue::Str(s.label.clone())),
                ("unit".to_string(), JsonValue::Str(s.unit.clone())),
                ("value".to_string(), num(s.value)),
            ];
            if let Some(p) = &s.paper {
                obj.push((
                    "paper".to_string(),
                    JsonValue::Obj(vec![
                        ("value".to_string(), num(p.paper)),
                        ("band".to_string(), band_to_json(&p.band)),
                    ]),
                ));
            }
            JsonValue::Obj(obj)
        }
        Item::Series(s) => JsonValue::Obj(vec![
            ("kind".to_string(), JsonValue::Str("series".into())),
            ("label".to_string(), JsonValue::Str(s.label.clone())),
            ("x_name".to_string(), JsonValue::Str(s.x_name.clone())),
            ("x_unit".to_string(), JsonValue::Str(s.x_unit.clone())),
            ("y_name".to_string(), JsonValue::Str(s.y_name.clone())),
            ("y_unit".to_string(), JsonValue::Str(s.y_unit.clone())),
            (
                "points".to_string(),
                JsonValue::Arr(
                    s.points
                        .iter()
                        .map(|&(x, y)| JsonValue::Arr(vec![num(x), num(y)]))
                        .collect(),
                ),
            ),
        ]),
        Item::Table(t) => JsonValue::Obj(vec![
            ("kind".to_string(), JsonValue::Str("table".into())),
            ("name".to_string(), JsonValue::Str(t.name.clone())),
            (
                "columns".to_string(),
                JsonValue::Arr(
                    t.columns
                        .iter()
                        .map(|c| {
                            JsonValue::Obj(vec![
                                ("name".to_string(), JsonValue::Str(c.name.clone())),
                                ("unit".to_string(), JsonValue::Str(c.unit.clone())),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "rows".to_string(),
                JsonValue::Arr(
                    t.rows()
                        .iter()
                        .map(|row| {
                            JsonValue::Arr(
                                row.iter()
                                    .map(|c| match c {
                                        Cell::Text(s) => JsonValue::Obj(vec![(
                                            "t".to_string(),
                                            JsonValue::Str(s.clone()),
                                        )]),
                                        Cell::Num(v) => JsonValue::Obj(vec![(
                                            "n".to_string(),
                                            num(*v),
                                        )]),
                                    })
                                    .collect(),
                            )
                        })
                        .collect(),
                    ),
            ),
        ]),
    }
}

fn str_field(v: &JsonValue, key: &str) -> Result<String, JsonError> {
    v.get(key)
        .and_then(JsonValue::as_str)
        .map(str::to_string)
        .ok_or_else(|| JsonError::schema_owned(format!("missing string field {key}")))
}

fn item_from_json(v: &JsonValue) -> Result<Item, JsonError> {
    let kind = v
        .get("kind")
        .and_then(JsonValue::as_str)
        .ok_or_else(|| JsonError::schema("item.kind"))?;
    match kind {
        "scalar" => {
            let paper = match v.get("paper") {
                None => None,
                Some(p) => Some(PaperRef {
                    paper: p
                        .get("value")
                        .and_then(JsonValue::as_num)
                        .ok_or_else(|| JsonError::schema("paper.value"))?,
                    band: band_from_json(
                        p.get("band").ok_or_else(|| JsonError::schema("paper.band"))?,
                    )?,
                }),
            };
            Ok(Item::Scalar(Scalar {
                label: str_field(v, "label")?,
                unit: str_field(v, "unit")?,
                value: v
                    .get("value")
                    .and_then(JsonValue::as_num)
                    .ok_or_else(|| JsonError::schema("scalar.value"))?,
                paper,
            }))
        }
        "series" => {
            let points = v
                .get("points")
                .and_then(JsonValue::as_arr)
                .ok_or_else(|| JsonError::schema("series.points"))?
                .iter()
                .map(|p| {
                    let pair = p.as_arr().filter(|a| a.len() == 2);
                    match pair {
                        Some(a) => match (a[0].as_num(), a[1].as_num()) {
                            (Some(x), Some(y)) => Ok((x, y)),
                            _ => Err(JsonError::schema("series point")),
                        },
                        None => Err(JsonError::schema("series point")),
                    }
                })
                .collect::<Result<Vec<_>, _>>()?;
            Ok(Item::Series(Series {
                label: str_field(v, "label")?,
                x_name: str_field(v, "x_name")?,
                x_unit: str_field(v, "x_unit")?,
                y_name: str_field(v, "y_name")?,
                y_unit: str_field(v, "y_unit")?,
                points,
            }))
        }
        "table" => {
            let columns = v
                .get("columns")
                .and_then(JsonValue::as_arr)
                .ok_or_else(|| JsonError::schema("table.columns"))?
                .iter()
                .map(|c| {
                    Ok(Column {
                        name: str_field(c, "name")?,
                        unit: str_field(c, "unit")?,
                    })
                })
                .collect::<Result<Vec<_>, JsonError>>()?;
            let mut table = Table::new(&str_field(v, "name")?, columns);
            for row in v
                .get("rows")
                .and_then(JsonValue::as_arr)
                .ok_or_else(|| JsonError::schema("table.rows"))?
            {
                let cells = row
                    .as_arr()
                    .ok_or_else(|| JsonError::schema("table row"))?
                    .iter()
                    .map(|c| {
                        if let Some(s) = c.get("t").and_then(JsonValue::as_str) {
                            Ok(Cell::Text(s.to_string()))
                        } else if let Some(n) = c.get("n").and_then(JsonValue::as_num) {
                            Ok(Cell::Num(n))
                        } else {
                            Err(JsonError::schema("table cell"))
                        }
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                if cells.len() != table.columns.len() {
                    return Err(JsonError::schema("table row width"));
                }
                table.push_row(cells);
            }
            Ok(Item::Table(table))
        }
        other => Err(JsonError::schema_owned(format!("unknown item kind {other}"))),
    }
}

fn artifact_from_json(v: &JsonValue) -> Result<Artifact, JsonError> {
    let items = v
        .get("items")
        .and_then(JsonValue::as_arr)
        .ok_or_else(|| JsonError::schema("artifact.items"))?
        .iter()
        .map(item_from_json)
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Artifact {
        id: str_field(v, "id")?,
        title: str_field(v, "title")?,
        items,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Artifact {
        Artifact::new("t", "sample")
            .with_table(
                Table::new(
                    "rows",
                    vec![Column::bare("policy"), Column::new("vdd", "V")],
                )
                .with_row(vec![Cell::Text("OCEAN".into()), Cell::Num(0.33)])
                .with_row(vec![Cell::Text("ECC (SECDED)".into()), Cell::Num(0.44)]),
            )
            .with_series(Series::new(
                "ber",
                ("VDD", "V"),
                ("BER", ""),
                vec![(0.3, 1e-3), (0.4, 1e-7)],
            ))
            .with_anchor("ocean vdd", "V", 0.33, PaperRef::exact(0.33))
            .with_scalar("free", "", 1.25)
    }

    #[test]
    fn band_semantics() {
        assert!(Band::Abs(0.01).admits(0.55, 0.559));
        assert!(!Band::Abs(0.01).admits(0.55, 0.561));
        assert!(Band::Rel(0.1).admits(10.0, 10.9));
        assert!(!Band::Rel(0.1).admits(10.0, 11.1));
        assert!(Band::Range(1.0, 2.0).admits(5.0, 1.5));
        assert!(Band::AtLeast(3.0).admits(0.0, 3.0));
        assert!(!Band::AtMost(3.0).admits(0.0, 3.1));
        assert!(PaperRef::exact(0.33).holds(0.33));
        assert!(!PaperRef::exact(0.33).holds(0.33 + 1e-12));
    }

    #[test]
    fn key_lookup_is_order_independent() {
        let a = sample();
        let t = a.table("rows").unwrap();
        assert_eq!(t.num("policy", "OCEAN", "vdd"), Some(0.33));
        assert_eq!(t.num("policy", "ECC (SECDED)", "vdd"), Some(0.44));
        assert_eq!(t.num("policy", "nope", "vdd"), None);
        assert_eq!(t.num("nope", "OCEAN", "vdd"), None);
    }

    #[test]
    fn checks_extract_only_anchored_scalars() {
        let a = sample();
        let checks = a.checks();
        assert_eq!(checks.len(), 1);
        assert!(checks[0].passes());
        assert!(a.passed());
        assert!(a.failures().is_empty());
        assert!(checks[0].to_string().contains("ok"));
    }

    #[test]
    fn failed_anchor_is_reported() {
        let a = Artifact::new("x", "x").with_anchor("v", "V", 0.5, PaperRef::abs(0.33, 0.01));
        assert!(!a.passed());
        assert_eq!(a.failures().len(), 1);
        assert!(a.failures()[0].to_string().contains("MISS"));
    }

    fn check_of(measured: f64, paper: PaperRef) -> Check {
        Check {
            artifact: "t".into(),
            label: "x".into(),
            unit: "".into(),
            measured,
            paper,
        }
    }

    #[test]
    fn band_bounds_cover_every_variant() {
        assert_eq!(Band::Abs(0.1).bounds(1.0), (0.9, 1.1));
        assert_eq!(Band::Rel(0.1).bounds(-2.0), (-2.2, -1.8));
        assert_eq!(Band::Range(1.0, 2.0).bounds(5.0), (1.0, 2.0));
        let (lo, hi) = Band::AtLeast(3.0).bounds(0.0);
        assert_eq!(lo, 3.0);
        assert!(hi.is_infinite());
        let (lo, hi) = Band::AtMost(3.0).bounds(0.0);
        assert!(lo.is_infinite() && lo < 0.0);
        assert_eq!(hi, 3.0);
    }

    #[test]
    fn margin_two_sided_semantics() {
        // Dead center of an Abs band: margin 0.5.
        let c = check_of(1.0, PaperRef::abs(1.0, 0.1));
        assert!((c.margin() - 0.5).abs() < 1e-12);
        assert!(!c.at_risk());
        // 90% of the way to the edge: margin 0.05 -> at risk.
        let c = check_of(1.09, PaperRef::abs(1.0, 0.1));
        assert!((c.margin() - 0.05).abs() < 1e-9);
        assert!(c.passes() && c.at_risk());
        // Outside: negative margin, agrees with passes().
        let c = check_of(1.2, PaperRef::abs(1.0, 0.1));
        assert!(c.margin() < 0.0);
        assert!(!c.passes() && !c.at_risk());
        // Range band uses its own edges, not the paper headline.
        let c = check_of(1.25, PaperRef::range(9.9, 1.0, 2.0));
        assert!((c.margin() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn margin_exact_band_is_infinite() {
        let hit = check_of(0.33, PaperRef::exact(0.33));
        assert_eq!(hit.margin(), f64::INFINITY);
        assert!(!hit.at_risk(), "exact hit cannot drift gradually");
        assert_eq!(hit.margin_display(), "exact");
        let miss = check_of(0.34, PaperRef::exact(0.33));
        assert_eq!(miss.margin(), f64::NEG_INFINITY);
        assert_eq!(miss.margin_display(), "exact-miss");
    }

    #[test]
    fn margin_one_sided_semantics() {
        // 20% headroom above an AtLeast bound.
        let c = check_of(1.0, PaperRef::at_least(1.0, 0.8));
        assert!((c.margin() - 0.2).abs() < 1e-12);
        // Just under an AtMost bound: tiny positive margin -> at risk.
        let c = check_of(0.99, PaperRef::at_most(1.0, 1.0));
        assert!(c.margin() > 0.0 && c.margin() < 0.10);
        assert!(c.at_risk());
        // Violation: negative.
        let c = check_of(1.5, PaperRef::at_most(1.0, 1.0));
        assert!(c.margin() < 0.0);
        // Degenerate zero-on-zero bound.
        let c = check_of(0.0, PaperRef::at_least(0.0, 0.0));
        assert_eq!(c.margin(), 0.0);
        assert!(c.passes());
    }

    #[test]
    fn margin_sign_always_agrees_with_passes() {
        let anchors = [
            PaperRef::abs(1.0, 0.1),
            PaperRef::rel(1.0, 0.05),
            PaperRef::range(1.0, 0.8, 1.3),
            PaperRef::at_least(1.0, 0.9),
            PaperRef::at_most(1.0, 1.1),
        ];
        for paper in anchors {
            for i in 0..200 {
                let measured = 0.5 + f64::from(i) * 0.005;
                let c = check_of(measured, paper);
                if c.margin() > 0.0 {
                    assert!(c.passes(), "{paper:?} at {measured}");
                }
                if c.margin() < 0.0 {
                    assert!(!c.passes(), "{paper:?} at {measured}");
                }
            }
        }
    }

    #[test]
    fn at_risk_display_marker() {
        let c = check_of(1.09, PaperRef::abs(1.0, 0.1));
        assert!(c.to_string().contains("AT RISK"));
        let ok = check_of(1.0, PaperRef::abs(1.0, 0.1));
        assert!(!ok.to_string().contains("AT RISK"));
    }

    #[test]
    fn json_round_trip_is_lossless() {
        let a = sample();
        let text = a.to_json();
        let back = Artifact::from_json(&text).expect("parses");
        assert_eq!(a, back);
        // And byte-stable: re-serializing gives the identical document.
        assert_eq!(text, back.to_json());
    }

    #[test]
    fn json_rejects_garbage() {
        assert!(Artifact::from_json("not json").is_err());
        assert!(Artifact::from_json("{\"id\": \"x\"}").is_err());
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn table_rejects_ragged_rows() {
        let mut t = Table::new("t", vec![Column::bare("a"), Column::bare("b")]);
        t.push_row(vec![Cell::Num(1.0)]);
    }

    #[test]
    fn display_forms() {
        assert_eq!(Band::Abs(0.01).to_string(), "±0.01");
        assert_eq!(Band::Rel(0.1).to_string(), "±10%");
        assert_eq!(Band::Range(1.0, 2.0).to_string(), "in [1, 2]");
        assert!(sample().to_string().contains("sample"));
        assert_eq!(Cell::Text("x".into()).to_string(), "x");
        assert_eq!(Cell::Num(0.5).to_string(), "0.5");
    }
}
