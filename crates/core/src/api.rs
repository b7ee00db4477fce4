//! Shared typed wire model for the HTTP surface and the CLI.
//!
//! Every request and response body that crosses a process boundary —
//! `ntc-serve` handlers, the `repro` subcommands, the load generator —
//! is built from the types in this one module, so the wire format cannot
//! drift between producers: a body is always serialized by the same
//! `to_json_value()` and parsed by the same `from_json_value()`. The
//! one hot encoder, [`QueryResponse::write_compact`], streams the bytes
//! of its `to_json_value()` without the tree, and a property test holds
//! the two equal.
//!
//! The DTOs are:
//!
//! * [`QueryRequest`] / [`QueryResponse`] — the `/v1/query` point
//!   lookups (`ber`, `vmin`, `energy`), with an optional client `id`
//!   echoed back per item so batched responses can be correlated.
//! * [`RunRequest`] — the `/v1/run` experiment trigger.
//! * [`OptimizeRequest`] / [`OptimizeResponse`] — the design-space
//!   autotuner. Requests are **canonicalized at parse time** (axis
//!   candidate lists sorted and deduplicated), so two requests naming
//!   the same design space in different enumeration orders are the same
//!   request: same [`OptimizeRequest::request_hash`], same memo entry,
//!   same byte-identical response.
//! * [`ErrorBody`] — the stable `{"error":{kind,message}}` envelope.
//!
//! [`ENDPOINTS`] is the machine-readable route table served by
//! `GET /v1/api`; the serve e2e suite drives every row, so the listing
//! cannot drift from the handlers.

use crate::artifact::json::{write_num, write_str, JsonValue};
use crate::error::NtcError;
use crate::fit::{Scheme, VoltageGrid};
use crate::repro::Scale;
use ntc_sram::styles::CellStyle;

/// FNV-1a 64-bit hash, the memoization key for canonical request bytes.
pub use ntc_stats::ckpt::fnv64;

// ---------------------------------------------------------------------
// Field-level parse helpers (shared by every DTO).
// ---------------------------------------------------------------------

/// Required string field of a JSON object.
pub fn str_field<'a>(obj: &'a JsonValue, field: &str) -> Result<&'a str, NtcError> {
    match obj.get(field) {
        None => Err(NtcError::missing_field(field)),
        Some(v) => v
            .as_str()
            .ok_or_else(|| NtcError::invalid_param(field, "expected a string")),
    }
}

/// Required finite number field of a JSON object.
pub fn num_field(obj: &JsonValue, field: &str) -> Result<f64, NtcError> {
    match obj.get(field) {
        None => Err(NtcError::missing_field(field)),
        Some(v) => v
            .as_num()
            .filter(|v| v.is_finite())
            .ok_or_else(|| NtcError::invalid_param(field, "expected a finite number")),
    }
}

/// Optional finite number field (`null` counts as absent).
pub fn optional_num(obj: &JsonValue, field: &str) -> Result<Option<f64>, NtcError> {
    match obj.get(field) {
        None | Some(JsonValue::Null) => Ok(None),
        Some(v) => v
            .as_num()
            .filter(|v| v.is_finite())
            .map(Some)
            .ok_or_else(|| NtcError::invalid_param(field, "expected a finite number")),
    }
}

/// Optional string field (`null` counts as absent).
pub fn optional_str(obj: &JsonValue, field: &str) -> Result<Option<String>, NtcError> {
    match obj.get(field) {
        None | Some(JsonValue::Null) => Ok(None),
        Some(v) => v
            .as_str()
            .map(|s| Some(s.to_string()))
            .ok_or_else(|| NtcError::invalid_param(field, "expected a string")),
    }
}

/// Validates a strictly positive value.
pub fn positive(field: &str, v: f64) -> Result<f64, NtcError> {
    if v > 0.0 {
        Ok(v)
    } else {
        Err(NtcError::invalid_param(field, format!("must be positive, got {v}")))
    }
}

fn non_negative_int(field: &str, v: f64) -> Result<u64, NtcError> {
    if v >= 0.0 && v.fract() == 0.0 && v <= 2f64.powi(53) {
        Ok(v as u64)
    } else {
        Err(NtcError::invalid_param(
            field,
            format!("expected a non-negative integer, got {v}"),
        ))
    }
}

// ---------------------------------------------------------------------
// Enumerations with stable wire names.
// ---------------------------------------------------------------------

/// Which failure law family a BER query reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LawKind {
    /// Eq. 5: access errors vs supply.
    Access,
    /// Eq. 4: retention errors vs supply.
    Retention,
}

impl LawKind {
    /// Stable wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            LawKind::Access => "access",
            LawKind::Retention => "retention",
        }
    }
}

/// Which characterized memory a BER query targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Memory {
    /// The commercial 40 nm macro.
    Commercial40,
    /// The cell-based 40 nm macro.
    CellBased40,
    /// The cell-based 65 nm macro (retention law only).
    CellBased65,
}

impl Memory {
    /// Stable wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            Memory::Commercial40 => "commercial_40nm",
            Memory::CellBased40 => "cell_based_40nm",
            Memory::CellBased65 => "cell_based_65nm",
        }
    }

    /// Parses a wire name; the error names `field`.
    pub fn parse(s: &str, field: &str) -> Result<Memory, NtcError> {
        match s {
            "commercial_40nm" => Ok(Memory::Commercial40),
            "cell_based_40nm" => Ok(Memory::CellBased40),
            "cell_based_65nm" => Ok(Memory::CellBased65),
            other => Err(NtcError::invalid_param(
                field,
                format!("unknown memory `{other}` — one of commercial_40nm, cell_based_40nm, cell_based_65nm"),
            )),
        }
    }
}

/// Which SoC energy model an energy query evaluates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnergyModel {
    /// COTS-memory 40 nm signal processor (Fig. 1 upper curve).
    Cots40,
    /// Cell-based-memory variant (Fig. 1 lower curve).
    CellBased40,
}

impl EnergyModel {
    /// Stable wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            EnergyModel::Cots40 => "cots_40nm",
            EnergyModel::CellBased40 => "cell_based_40nm",
        }
    }
}

/// Stable wire name of a mitigation scheme.
pub fn scheme_str(s: Scheme) -> &'static str {
    match s {
        Scheme::NoMitigation => "no_mitigation",
        Scheme::Secded => "secded",
        Scheme::Ocean => "ocean",
    }
}

/// Parses a mitigation scheme wire name (`ecc` is a `secded` alias).
pub fn parse_scheme(s: &str) -> Result<Scheme, NtcError> {
    match s {
        "no_mitigation" => Ok(Scheme::NoMitigation),
        "secded" | "ecc" => Ok(Scheme::Secded),
        "ocean" => Ok(Scheme::Ocean),
        other => Err(NtcError::invalid_param(
            "scheme",
            format!("unknown scheme `{other}` — one of no_mitigation, secded, ocean"),
        )),
    }
}

/// Stable wire name of a voltage grid.
pub fn grid_str(g: VoltageGrid) -> &'static str {
    match g {
        VoltageGrid::PaperGrid => "paper",
        // `CeilStep` is an internal solver knob; `parse_grid` never
        // produces it, so no DTO ever carries it onto the wire.
        VoltageGrid::Exact | VoltageGrid::CeilStep(_) => "exact",
    }
}

/// Parses a voltage grid wire name.
pub fn parse_grid(s: &str) -> Result<VoltageGrid, NtcError> {
    match s {
        "paper" => Ok(VoltageGrid::PaperGrid),
        "exact" => Ok(VoltageGrid::Exact),
        other => Err(NtcError::invalid_param(
            "grid",
            format!("expected \"paper\" or \"exact\", got \"{other}\""),
        )),
    }
}

/// Stable wire name of a run scale.
pub fn scale_str(s: Scale) -> &'static str {
    s.name()
}

/// Parses a run scale; absent defaults to [`Scale::Quick`], matching
/// the server's historical `/run` behavior.
pub fn parse_scale(s: Option<&str>) -> Result<Scale, NtcError> {
    match s {
        None | Some("quick") => Ok(Scale::Quick),
        Some("paper") => Ok(Scale::Paper),
        Some(other) => Err(NtcError::invalid_param(
            "scale",
            format!("expected \"quick\" or \"paper\", got \"{other}\""),
        )),
    }
}

/// Stable wire name of a cell family in the optimizer design space.
pub fn cell_style_str(s: CellStyle) -> &'static str {
    match s {
        CellStyle::Commercial6T => "commercial_6t",
        CellStyle::Custom6T => "custom_6t",
        CellStyle::CellBasedLatch65 => "cell_based_latch_65",
        CellStyle::CellBasedAoi => "cell_based_aoi",
    }
}

/// Parses a cell family wire name. The 65 nm latch family is rejected:
/// the optimizer evaluates everything on the 40 nm technology card.
pub fn parse_cell_style(s: &str) -> Result<CellStyle, NtcError> {
    match s {
        "commercial_6t" => Ok(CellStyle::Commercial6T),
        "custom_6t" => Ok(CellStyle::Custom6T),
        "cell_based_aoi" => Ok(CellStyle::CellBasedAoi),
        "cell_based_latch_65" => Err(NtcError::invalid_param(
            "cells",
            "cell_based_latch_65 is a 65 nm family; the optimizer runs on the 40 nm card",
        )),
        other => Err(NtcError::invalid_param(
            "cells",
            format!("unknown cell family `{other}` — one of commercial_6t, custom_6t, cell_based_aoi"),
        )),
    }
}

// ---------------------------------------------------------------------
// ErrorBody
// ---------------------------------------------------------------------

/// The stable error envelope every endpoint returns on failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ErrorBody {
    /// Stable machine-readable kind (snake_case).
    pub kind: String,
    /// Human-readable message.
    pub message: String,
}

impl ErrorBody {
    /// Builds an envelope from parts.
    pub fn new(kind: impl Into<String>, message: impl Into<String>) -> Self {
        Self {
            kind: kind.into(),
            message: message.into(),
        }
    }

    /// Builds the envelope for an [`NtcError`].
    pub fn from_error(err: &NtcError) -> Self {
        Self::new(err.kind(), err.to_string())
    }

    /// `{"error":{"kind":...,"message":...}}`.
    pub fn to_json_value(&self) -> JsonValue {
        JsonValue::Obj(vec![(
            "error".into(),
            JsonValue::Obj(vec![
                ("kind".into(), JsonValue::Str(self.kind.clone())),
                ("message".into(), JsonValue::Str(self.message.clone())),
            ]),
        )])
    }

    /// Compact serialized form.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        self.to_json_value().write_compact(&mut s);
        s
    }

    /// Parses the envelope back out of a response body.
    pub fn from_json(text: &str) -> Result<Self, NtcError> {
        let v = crate::artifact::json::parse(text)?;
        let err = v
            .get("error")
            .ok_or_else(|| NtcError::missing_field("error"))?;
        Ok(Self {
            kind: str_field(err, "kind")?.to_string(),
            message: str_field(err, "message")?.to_string(),
        })
    }
}

// ---------------------------------------------------------------------
// RunRequest
// ---------------------------------------------------------------------

/// `POST /v1/run` body: run one registry experiment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunRequest {
    /// Registry experiment name (e.g. `"table2"`).
    pub id: crate::repro::ExperimentId,
    /// Monte-Carlo scale; the wire default is `quick`.
    pub scale: Scale,
    /// Seed override; the server applies its default when absent.
    pub seed: Option<u64>,
}

impl RunRequest {
    /// Parses a request body (already-parsed JSON).
    pub fn from_json_value(v: &JsonValue) -> Result<Self, NtcError> {
        if !matches!(v, JsonValue::Obj(_)) {
            return Err(NtcError::invalid_param("run", "expected a JSON object"));
        }
        let id = str_field(v, "id")?.parse::<crate::repro::ExperimentId>()?;
        let scale = parse_scale(v.get("scale").and_then(JsonValue::as_str))?;
        if matches!(v.get("scale"), Some(s) if s.as_str().is_none()) {
            return Err(NtcError::invalid_param("scale", "expected a string"));
        }
        let seed = match optional_num(v, "seed")? {
            None => None,
            Some(n) => Some(non_negative_int("seed", n)?),
        };
        Ok(Self { id, scale, seed })
    }

    /// Serializes the request in canonical field order.
    pub fn to_json_value(&self) -> JsonValue {
        let mut fields = vec![
            ("id".into(), JsonValue::Str(self.id.as_str().into())),
            ("scale".into(), JsonValue::Str(scale_str(self.scale).into())),
        ];
        if let Some(seed) = self.seed {
            fields.push(("seed".into(), JsonValue::num(seed as f64)));
        }
        JsonValue::Obj(fields)
    }

    /// Compact serialized form, for clients assembling request bodies.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        self.to_json_value().write_compact(&mut s);
        s
    }
}

// ---------------------------------------------------------------------
// QueryRequest / QueryResponse
// ---------------------------------------------------------------------

/// The model lookup a query performs (the `kind` discriminator).
#[derive(Debug, Clone, PartialEq)]
pub enum QueryKind {
    /// Bit error rate at a voltage.
    Ber {
        /// Law family (Eq. 4 or Eq. 5).
        law: LawKind,
        /// Which memory's calibration.
        memory: Memory,
        /// Supply voltage, volts.
        vdd: f64,
    },
    /// Minimum supply for a scheme under a FIT budget.
    Vmin {
        /// Mitigation scheme.
        scheme: Scheme,
        /// Which memory's access law constrains errors.
        memory: Memory,
        /// FIT budget per transaction.
        fit_target: f64,
        /// Required clock, if performance-constrained.
        frequency_hz: Option<f64>,
        /// Voltage grid for the reported operating point.
        grid: VoltageGrid,
    },
    /// Energy/power breakdown at an operating point.
    Energy {
        /// Which SoC model.
        model: EnergyModel,
        /// Supply voltage, volts.
        vdd: f64,
        /// Clock to evaluate at (defaults to `f_max(vdd)`).
        frequency_hz: Option<f64>,
    },
}

/// One `/v1/query` item: the lookup plus an optional client-chosen id
/// echoed back in the matching response item.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryRequest {
    /// Client correlation id, echoed per response item.
    pub id: Option<String>,
    /// The lookup to perform.
    pub kind: QueryKind,
}

impl QueryRequest {
    /// Parses one query object (already-parsed JSON).
    pub fn from_json_value(v: &JsonValue) -> Result<Self, NtcError> {
        if !matches!(v, JsonValue::Obj(_)) {
            return Err(NtcError::invalid_param("query", "expected a JSON object"));
        }
        let id = optional_str(v, "id")?;
        let kind = match str_field(v, "kind")? {
            "ber" => {
                let law = match str_field(v, "law")? {
                    "access" => LawKind::Access,
                    "retention" => LawKind::Retention,
                    other => {
                        return Err(NtcError::invalid_param(
                            "law",
                            format!("unknown law `{other}` — one of access, retention"),
                        ))
                    }
                };
                let memory = Memory::parse(str_field(v, "memory")?, "memory")?;
                if law == LawKind::Access && memory == Memory::CellBased65 {
                    return Err(NtcError::invalid_param(
                        "memory",
                        "no access law is characterized for cell_based_65nm (retention only)",
                    ));
                }
                let vdd = positive("vdd", num_field(v, "vdd")?)?;
                QueryKind::Ber { law, memory, vdd }
            }
            "vmin" => {
                let scheme = parse_scheme(str_field(v, "scheme")?)?;
                let memory = match v.get("memory") {
                    None => Memory::CellBased40,
                    Some(_) => Memory::parse(str_field(v, "memory")?, "memory")?,
                };
                if memory == Memory::CellBased65 {
                    return Err(NtcError::invalid_param(
                        "memory",
                        "vmin solves against an access law; cell_based_65nm has none",
                    ));
                }
                let fit_target = match optional_num(v, "fit_target")? {
                    None => 1e-15,
                    Some(t) if t > 0.0 && t < 1.0 => t,
                    Some(t) => {
                        return Err(NtcError::invalid_param(
                            "fit_target",
                            format!("must be in (0, 1), got {t}"),
                        ))
                    }
                };
                let frequency_hz = match optional_num(v, "frequency_hz")? {
                    None => None,
                    Some(f) => Some(positive("frequency_hz", f)?),
                };
                let grid = match v.get("grid").map(|g| g.as_str()) {
                    None => VoltageGrid::PaperGrid,
                    Some(Some(s)) => parse_grid(s)?,
                    Some(None) => {
                        return Err(NtcError::invalid_param("grid", "expected a string"))
                    }
                };
                QueryKind::Vmin { scheme, memory, fit_target, frequency_hz, grid }
            }
            "energy" => {
                let model = match str_field(v, "model")? {
                    "cots_40nm" => EnergyModel::Cots40,
                    "cell_based_40nm" => EnergyModel::CellBased40,
                    other => {
                        return Err(NtcError::invalid_param(
                            "model",
                            format!("unknown model `{other}` — one of cots_40nm, cell_based_40nm"),
                        ))
                    }
                };
                let vdd = positive("vdd", num_field(v, "vdd")?)?;
                let frequency_hz = match optional_num(v, "frequency_hz")? {
                    None => None,
                    Some(f) => Some(positive("frequency_hz", f)?),
                };
                QueryKind::Energy { model, vdd, frequency_hz }
            }
            other => {
                return Err(NtcError::Unsupported {
                    what: format!("query kind `{other}` — one of ber, vmin, energy"),
                })
            }
        };
        Ok(Self { id, kind })
    }

    /// Serializes the request in canonical field order (the shape the
    /// load generator and CLI clients send).
    pub fn to_json_value(&self) -> JsonValue {
        let mut fields: Vec<(String, JsonValue)> = Vec::new();
        if let Some(id) = &self.id {
            fields.push(("id".into(), JsonValue::Str(id.clone())));
        }
        match &self.kind {
            QueryKind::Ber { law, memory, vdd } => {
                fields.push(("kind".into(), JsonValue::Str("ber".into())));
                fields.push(("law".into(), JsonValue::Str(law.as_str().into())));
                fields.push(("memory".into(), JsonValue::Str(memory.as_str().into())));
                fields.push(("vdd".into(), JsonValue::num(*vdd)));
            }
            QueryKind::Vmin { scheme, memory, fit_target, frequency_hz, grid } => {
                fields.push(("kind".into(), JsonValue::Str("vmin".into())));
                fields.push(("scheme".into(), JsonValue::Str(scheme_str(*scheme).into())));
                fields.push(("memory".into(), JsonValue::Str(memory.as_str().into())));
                fields.push(("fit_target".into(), JsonValue::num(*fit_target)));
                if let Some(f) = frequency_hz {
                    fields.push(("frequency_hz".into(), JsonValue::num(*f)));
                }
                fields.push(("grid".into(), JsonValue::Str(grid_str(*grid).into())));
            }
            QueryKind::Energy { model, vdd, frequency_hz } => {
                fields.push(("kind".into(), JsonValue::Str("energy".into())));
                fields.push(("model".into(), JsonValue::Str(model.as_str().into())));
                fields.push(("vdd".into(), JsonValue::num(*vdd)));
                if let Some(f) = frequency_hz {
                    fields.push(("frequency_hz".into(), JsonValue::num(*f)));
                }
            }
        }
        JsonValue::Obj(fields)
    }

    /// Compact serialized form.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        self.to_json_value().write_compact(&mut s);
        s
    }
}

/// One `/v1/query` response item, typed per kind.
///
/// Field order in the serialized form is frozen — it predates this
/// module and baselines/clients grep it — so each variant's
/// `to_json_value` emits exactly the historical layout, with the echoed
/// `id` (when the request carried one) prepended.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryResponse {
    /// `ber` result.
    Ber {
        /// Echoed client id.
        id: Option<String>,
        /// Law family evaluated.
        law: LawKind,
        /// Memory evaluated.
        memory: Memory,
        /// Supply voltage, volts.
        vdd: f64,
        /// Per-bit failure probability.
        p_bit: f64,
    },
    /// `vmin` result.
    Vmin {
        /// Echoed client id.
        id: Option<String>,
        /// Mitigation scheme.
        scheme: Scheme,
        /// Memory evaluated.
        memory: Memory,
        /// FIT budget per transaction.
        fit_target: f64,
        /// Tolerable per-bit error probability under the scheme.
        max_p_bit: f64,
        /// Clock constraint echoed when the request had one.
        frequency_hz: Option<f64>,
        /// Error-constrained minimum supply, volts.
        error_constrained: f64,
        /// Performance-constrained supply, volts (when constrained).
        performance_constrained: Option<f64>,
        /// Operating point on the requested grid, volts.
        operating: f64,
    },
    /// `energy` result.
    Energy {
        /// Echoed client id.
        id: Option<String>,
        /// SoC model evaluated.
        model: EnergyModel,
        /// Supply voltage, volts.
        vdd: f64,
        /// Maximum clock at `vdd`, Hz.
        f_max_hz: f64,
        /// Energy per cycle at `f_max`, joules.
        energy_per_cycle_j: f64,
        /// Total energy per cycle at the operating point, joules.
        total_j: f64,
        /// Dynamic component, joules.
        dynamic_j: f64,
        /// Leakage component, joules.
        leakage_j: f64,
        /// Power at the operating point, watts.
        power_w: f64,
    },
}

impl QueryResponse {
    /// The echoed client id.
    fn id(&self) -> Option<&str> {
        match self {
            QueryResponse::Ber { id, .. }
            | QueryResponse::Vmin { id, .. }
            | QueryResponse::Energy { id, .. } => id.as_deref(),
        }
    }

    /// Serializes the response item in the frozen field order.
    pub fn to_json_value(&self) -> JsonValue {
        let mut fields: Vec<(String, JsonValue)> = Vec::new();
        if let Some(id) = self.id() {
            fields.push(("id".into(), JsonValue::Str(id.to_string())));
        }
        match self {
            QueryResponse::Ber { law, memory, vdd, p_bit, .. } => {
                fields.push(("kind".into(), JsonValue::Str("ber".into())));
                fields.push(("law".into(), JsonValue::Str(law.as_str().into())));
                fields.push(("memory".into(), JsonValue::Str(memory.as_str().into())));
                fields.push(("vdd".into(), JsonValue::num(*vdd)));
                fields.push(("p_bit".into(), JsonValue::num(*p_bit)));
            }
            QueryResponse::Vmin {
                scheme,
                memory,
                fit_target,
                max_p_bit,
                frequency_hz,
                error_constrained,
                performance_constrained,
                operating,
                ..
            } => {
                fields.push(("kind".into(), JsonValue::Str("vmin".into())));
                fields.push(("scheme".into(), JsonValue::Str(scheme_str(*scheme).into())));
                fields.push(("memory".into(), JsonValue::Str(memory.as_str().into())));
                fields.push(("fit_target".into(), JsonValue::num(*fit_target)));
                fields.push(("max_p_bit".into(), JsonValue::num(*max_p_bit)));
                if let Some(f) = frequency_hz {
                    fields.push(("frequency_hz".into(), JsonValue::num(*f)));
                }
                fields.push(("error_constrained".into(), JsonValue::num(*error_constrained)));
                fields.push((
                    "performance_constrained".into(),
                    performance_constrained.map_or(JsonValue::Null, JsonValue::num),
                ));
                fields.push(("operating".into(), JsonValue::num(*operating)));
            }
            QueryResponse::Energy {
                model,
                vdd,
                f_max_hz,
                energy_per_cycle_j,
                total_j,
                dynamic_j,
                leakage_j,
                power_w,
                ..
            } => {
                fields.push(("kind".into(), JsonValue::Str("energy".into())));
                fields.push(("model".into(), JsonValue::Str(model.as_str().into())));
                fields.push(("vdd".into(), JsonValue::num(*vdd)));
                fields.push(("f_max_hz".into(), JsonValue::num(*f_max_hz)));
                fields.push(("energy_per_cycle_j".into(), JsonValue::num(*energy_per_cycle_j)));
                fields.push(("total_j".into(), JsonValue::num(*total_j)));
                fields.push(("dynamic_j".into(), JsonValue::num(*dynamic_j)));
                fields.push(("leakage_j".into(), JsonValue::num(*leakage_j)));
                fields.push(("power_w".into(), JsonValue::num(*power_w)));
            }
        }
        JsonValue::Obj(fields)
    }

    /// Appends the compact serialization to `out`: the bytes of
    /// `self.to_json_value().write_compact(out)`, written straight into
    /// the buffer instead of through a tree of owned keys and values.
    pub fn write_compact(&self, out: &mut String) {
        fn num(out: &mut String, key: &str, v: f64) {
            out.push_str(key);
            write_num(out, v);
        }
        fn name(out: &mut String, key: &str, v: &str) {
            out.push_str(key);
            write_str(out, v);
        }
        out.push('{');
        if let Some(id) = self.id() {
            name(out, "\"id\":", id);
            out.push(',');
        }
        match self {
            QueryResponse::Ber { law, memory, vdd, p_bit, .. } => {
                out.push_str("\"kind\":\"ber\"");
                name(out, ",\"law\":", law.as_str());
                name(out, ",\"memory\":", memory.as_str());
                num(out, ",\"vdd\":", *vdd);
                num(out, ",\"p_bit\":", *p_bit);
            }
            QueryResponse::Vmin {
                scheme,
                memory,
                fit_target,
                max_p_bit,
                frequency_hz,
                error_constrained,
                performance_constrained,
                operating,
                ..
            } => {
                out.push_str("\"kind\":\"vmin\"");
                name(out, ",\"scheme\":", scheme_str(*scheme));
                name(out, ",\"memory\":", memory.as_str());
                num(out, ",\"fit_target\":", *fit_target);
                num(out, ",\"max_p_bit\":", *max_p_bit);
                if let Some(f) = frequency_hz {
                    num(out, ",\"frequency_hz\":", *f);
                }
                num(out, ",\"error_constrained\":", *error_constrained);
                match performance_constrained {
                    Some(v) => num(out, ",\"performance_constrained\":", *v),
                    None => out.push_str(",\"performance_constrained\":null"),
                }
                num(out, ",\"operating\":", *operating);
            }
            QueryResponse::Energy {
                model,
                vdd,
                f_max_hz,
                energy_per_cycle_j,
                total_j,
                dynamic_j,
                leakage_j,
                power_w,
                ..
            } => {
                out.push_str("\"kind\":\"energy\"");
                name(out, ",\"model\":", model.as_str());
                num(out, ",\"vdd\":", *vdd);
                num(out, ",\"f_max_hz\":", *f_max_hz);
                num(out, ",\"energy_per_cycle_j\":", *energy_per_cycle_j);
                num(out, ",\"total_j\":", *total_j);
                num(out, ",\"dynamic_j\":", *dynamic_j);
                num(out, ",\"leakage_j\":", *leakage_j);
                num(out, ",\"power_w\":", *power_w);
            }
        }
        out.push('}');
    }
}

// ---------------------------------------------------------------------
// OptimizeRequest / OptimizeResponse
// ---------------------------------------------------------------------

/// Axis length cap: keeps a hostile request from turning one POST into
/// an unbounded search.
const MAX_AXIS: usize = 64;

/// User weights on the optimizer objective. Terms are normalized to
/// O(1) engineering units before weighting: energy per access in pJ,
/// cycle time in ns, area in mm².
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ObjectiveWeights {
    /// Weight on energy per access (pJ).
    pub energy: f64,
    /// Weight on macro cycle time (ns).
    pub delay: f64,
    /// Weight on macro area (mm²).
    pub area: f64,
}

impl Default for ObjectiveWeights {
    /// Energy-only, the paper's Table 2 objective.
    fn default() -> Self {
        Self { energy: 1.0, delay: 0.0, area: 0.0 }
    }
}

/// Hard constraints every candidate design must satisfy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OptimizeConstraints {
    /// Required platform clock, Hz (the paper's performance constraint).
    pub frequency_hz: f64,
    /// FIT budget per transaction (Table 2 uses 1e-15).
    pub fit_target: f64,
    /// Minimum word count (data capacity floor), if any.
    pub min_words: Option<u32>,
}

/// The VDD axis: a bracketed interval plus the quantization grid.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VddRange {
    /// Lower bound, volts.
    pub lo: f64,
    /// Upper bound, volts.
    pub hi: f64,
    /// `paper` snaps candidates to the 110 mV grid; `exact` refines
    /// continuously by golden section.
    pub grid: VoltageGrid,
}

/// Candidate sets per discrete axis. Lists are canonicalized (sorted,
/// deduplicated) at parse time, so enumeration order never matters.
#[derive(Debug, Clone, PartialEq)]
pub struct DesignSpaceSpec {
    /// Bank counts (powers of two).
    pub banks: Vec<u32>,
    /// Word counts.
    pub words: Vec<u32>,
    /// Cell families (40 nm card).
    pub cells: Vec<CellStyle>,
    /// Mitigation schemes.
    pub schemes: Vec<Scheme>,
    /// Supply voltage axis.
    pub vdd: VddRange,
}

impl DesignSpaceSpec {
    /// The paper's design space: the Fig. 1/Table 2 cell families, the
    /// banking ablation's bank axis, scratchpad-scale word counts, all
    /// three mitigation schemes, and the paper's 110 mV voltage grid.
    pub fn paper() -> Self {
        Self {
            banks: vec![1, 2, 4, 8, 16, 32],
            words: vec![512, 1024, 2048, 4096, 8192],
            cells: vec![CellStyle::CellBasedAoi, CellStyle::Commercial6T, CellStyle::Custom6T],
            schemes: vec![Scheme::NoMitigation, Scheme::Secded, Scheme::Ocean],
            vdd: VddRange { lo: 0.2, hi: 1.2, grid: VoltageGrid::PaperGrid },
        }
    }

    fn canonicalize(&mut self) {
        self.banks.sort_unstable();
        self.banks.dedup();
        self.words.sort_unstable();
        self.words.dedup();
        self.cells.sort_by_key(|c| cell_style_str(*c));
        self.cells.dedup();
        self.schemes.sort_by_key(|s| match s {
            Scheme::NoMitigation => 0,
            Scheme::Secded => 1,
            Scheme::Ocean => 2,
        });
        self.schemes.dedup();
    }
}

/// `POST /v1/optimize` body: a constrained design-space search.
#[derive(Debug, Clone, PartialEq)]
pub struct OptimizeRequest {
    /// Objective weights.
    pub objective: ObjectiveWeights,
    /// Hard constraints.
    pub constraints: OptimizeConstraints,
    /// The candidate space.
    pub space: DesignSpaceSpec,
    /// Root seed for the optimizer restarts.
    pub seed: u64,
    /// Restart count (1..=64).
    pub restarts: u32,
}

impl OptimizeRequest {
    /// The paper constraint set at one clock: paper design space,
    /// energy-only objective, 1e-15 FIT, 8 KB capacity floor.
    pub fn paper(frequency_hz: f64) -> Self {
        Self {
            objective: ObjectiveWeights::default(),
            constraints: OptimizeConstraints {
                frequency_hz,
                fit_target: 1e-15,
                min_words: Some(2048),
            },
            space: DesignSpaceSpec::paper(),
            seed: 2014,
            restarts: 8,
        }
    }

    /// Sorts and deduplicates every axis candidate list. `from_json_value`
    /// does this automatically; callers constructing requests in code
    /// should call it before hashing.
    pub fn canonicalize(&mut self) {
        self.space.canonicalize();
    }

    /// Parses and canonicalizes a request body (already-parsed JSON).
    pub fn from_json_value(v: &JsonValue) -> Result<Self, NtcError> {
        if !matches!(v, JsonValue::Obj(_)) {
            return Err(NtcError::invalid_param("optimize", "expected a JSON object"));
        }
        let objective = match v.get("objective") {
            None => ObjectiveWeights::default(),
            Some(o) if matches!(o, JsonValue::Obj(_)) => {
                let w = ObjectiveWeights {
                    energy: optional_num(o, "energy")?.unwrap_or(1.0),
                    delay: optional_num(o, "delay")?.unwrap_or(0.0),
                    area: optional_num(o, "area")?.unwrap_or(0.0),
                };
                for (name, x) in [("energy", w.energy), ("delay", w.delay), ("area", w.area)] {
                    if x < 0.0 {
                        return Err(NtcError::invalid_param(
                            "objective",
                            format!("weight `{name}` must be non-negative, got {x}"),
                        ));
                    }
                }
                if w.energy + w.delay + w.area <= 0.0 {
                    return Err(NtcError::invalid_param(
                        "objective",
                        "at least one weight must be positive",
                    ));
                }
                w
            }
            Some(_) => {
                return Err(NtcError::invalid_param("objective", "expected a JSON object"))
            }
        };
        let constraints = {
            let c = v
                .get("constraints")
                .ok_or_else(|| NtcError::missing_field("constraints"))?;
            if !matches!(c, JsonValue::Obj(_)) {
                return Err(NtcError::invalid_param("constraints", "expected a JSON object"));
            }
            let frequency_hz = positive("frequency_hz", num_field(c, "frequency_hz")?)?;
            let fit_target = match optional_num(c, "fit_target")? {
                None => 1e-15,
                Some(t) if t > 0.0 && t < 1.0 => t,
                Some(t) => {
                    return Err(NtcError::invalid_param(
                        "fit_target",
                        format!("must be in (0, 1), got {t}"),
                    ))
                }
            };
            let min_words = match optional_num(c, "min_words")? {
                None => None,
                Some(n) => {
                    let n = non_negative_int("min_words", n)?;
                    if n == 0 || n > u64::from(u32::MAX) {
                        return Err(NtcError::invalid_param(
                            "min_words",
                            format!("must be in 1..=2^32-1, got {n}"),
                        ));
                    }
                    Some(n as u32)
                }
            };
            OptimizeConstraints { frequency_hz, fit_target, min_words }
        };
        let space = match v.get("space") {
            None => DesignSpaceSpec::paper(),
            Some(s) if matches!(s, JsonValue::Obj(_)) => {
                let paper = DesignSpaceSpec::paper();
                let banks = parse_u32_axis(s, "banks", &paper.banks)?;
                for &b in &banks {
                    if !b.is_power_of_two() {
                        return Err(NtcError::invalid_param(
                            "banks",
                            format!("bank counts must be powers of two, got {b}"),
                        ));
                    }
                }
                let words = parse_u32_axis(s, "words", &paper.words)?;
                let cells = match s.get("cells") {
                    None => paper.cells.clone(),
                    Some(JsonValue::Arr(items)) => {
                        check_axis_len("cells", items.len())?;
                        items
                            .iter()
                            .map(|i| {
                                i.as_str()
                                    .ok_or_else(|| {
                                        NtcError::invalid_param("cells", "expected strings")
                                    })
                                    .and_then(parse_cell_style)
                            })
                            .collect::<Result<Vec<_>, _>>()?
                    }
                    Some(_) => {
                        return Err(NtcError::invalid_param("cells", "expected an array"))
                    }
                };
                let schemes = match s.get("schemes") {
                    None => paper.schemes.clone(),
                    Some(JsonValue::Arr(items)) => {
                        check_axis_len("schemes", items.len())?;
                        items
                            .iter()
                            .map(|i| {
                                i.as_str()
                                    .ok_or_else(|| {
                                        NtcError::invalid_param("schemes", "expected strings")
                                    })
                                    .and_then(parse_scheme)
                            })
                            .collect::<Result<Vec<_>, _>>()?
                    }
                    Some(_) => {
                        return Err(NtcError::invalid_param("schemes", "expected an array"))
                    }
                };
                let vdd = match s.get("vdd") {
                    None => paper.vdd,
                    Some(r) if matches!(r, JsonValue::Obj(_)) => {
                        let lo = optional_num(r, "lo")?.unwrap_or(paper.vdd.lo);
                        let hi = optional_num(r, "hi")?.unwrap_or(paper.vdd.hi);
                        if !(lo > 0.0 && hi >= lo && hi <= 2.0) {
                            return Err(NtcError::invalid_param(
                                "vdd",
                                format!("need 0 < lo <= hi <= 2.0 V, got [{lo}, {hi}]"),
                            ));
                        }
                        let grid = match r.get("grid").and_then(JsonValue::as_str) {
                            None => paper.vdd.grid,
                            Some(g) => parse_grid(g)?,
                        };
                        VddRange { lo, hi, grid }
                    }
                    Some(_) => {
                        return Err(NtcError::invalid_param("vdd", "expected a JSON object"))
                    }
                };
                if banks.is_empty() || words.is_empty() || cells.is_empty() || schemes.is_empty()
                {
                    return Err(NtcError::invalid_param(
                        "space",
                        "every axis needs at least one candidate",
                    ));
                }
                DesignSpaceSpec { banks, words, cells, schemes, vdd }
            }
            Some(_) => return Err(NtcError::invalid_param("space", "expected a JSON object")),
        };
        let seed = match optional_num(v, "seed")? {
            None => 2014,
            Some(n) => non_negative_int("seed", n)?,
        };
        let restarts = match optional_num(v, "restarts")? {
            None => 8,
            Some(n) => {
                let n = non_negative_int("restarts", n)?;
                if !(1..=64).contains(&n) {
                    return Err(NtcError::invalid_param(
                        "restarts",
                        format!("must be in 1..=64, got {n}"),
                    ));
                }
                n as u32
            }
        };
        let mut req = Self { objective, constraints, space, seed, restarts };
        req.canonicalize();
        Ok(req)
    }

    /// Parses and canonicalizes a request from JSON text.
    pub fn from_json(text: &str) -> Result<Self, NtcError> {
        Self::from_json_value(&crate::artifact::json::parse(text)?)
    }

    /// Serializes the request in canonical field order. For a
    /// canonicalized request this rendering *is* the memoization key
    /// preimage.
    pub fn to_json_value(&self) -> JsonValue {
        let mut constraints = vec![
            ("frequency_hz".into(), JsonValue::num(self.constraints.frequency_hz)),
            ("fit_target".into(), JsonValue::num(self.constraints.fit_target)),
        ];
        if let Some(w) = self.constraints.min_words {
            constraints.push(("min_words".into(), JsonValue::num(f64::from(w))));
        }
        JsonValue::Obj(vec![
            (
                "objective".into(),
                JsonValue::Obj(vec![
                    ("energy".into(), JsonValue::num(self.objective.energy)),
                    ("delay".into(), JsonValue::num(self.objective.delay)),
                    ("area".into(), JsonValue::num(self.objective.area)),
                ]),
            ),
            ("constraints".into(), JsonValue::Obj(constraints)),
            (
                "space".into(),
                JsonValue::Obj(vec![
                    (
                        "banks".into(),
                        JsonValue::Arr(
                            self.space.banks.iter().map(|&b| JsonValue::num(f64::from(b))).collect(),
                        ),
                    ),
                    (
                        "words".into(),
                        JsonValue::Arr(
                            self.space.words.iter().map(|&w| JsonValue::num(f64::from(w))).collect(),
                        ),
                    ),
                    (
                        "cells".into(),
                        JsonValue::Arr(
                            self.space
                                .cells
                                .iter()
                                .map(|&c| JsonValue::Str(cell_style_str(c).into()))
                                .collect(),
                        ),
                    ),
                    (
                        "schemes".into(),
                        JsonValue::Arr(
                            self.space
                                .schemes
                                .iter()
                                .map(|&s| JsonValue::Str(scheme_str(s).into()))
                                .collect(),
                        ),
                    ),
                    (
                        "vdd".into(),
                        JsonValue::Obj(vec![
                            ("lo".into(), JsonValue::num(self.space.vdd.lo)),
                            ("hi".into(), JsonValue::num(self.space.vdd.hi)),
                            ("grid".into(), JsonValue::Str(grid_str(self.space.vdd.grid).into())),
                        ]),
                    ),
                ]),
            ),
            ("seed".into(), JsonValue::num(self.seed as f64)),
            ("restarts".into(), JsonValue::num(f64::from(self.restarts))),
        ])
    }

    /// Compact serialized form.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        self.to_json_value().write_compact(&mut s);
        s
    }

    /// FNV-64 over the canonical compact rendering — the memoization
    /// key shared by the server memo, the artifact store and the CLI.
    pub fn request_hash(&self) -> u64 {
        fnv64(self.to_json().as_bytes())
    }

    /// The hash formatted the way responses and store keys carry it.
    pub fn request_hash_hex(&self) -> String {
        format!("{:016x}", self.request_hash())
    }
}

fn check_axis_len(field: &str, len: usize) -> Result<(), NtcError> {
    if len > MAX_AXIS {
        return Err(NtcError::invalid_param(
            field,
            format!("at most {MAX_AXIS} candidates per axis, got {len}"),
        ));
    }
    Ok(())
}

fn parse_u32_axis(obj: &JsonValue, field: &str, default: &[u32]) -> Result<Vec<u32>, NtcError> {
    match obj.get(field) {
        None => Ok(default.to_vec()),
        Some(JsonValue::Arr(items)) => {
            check_axis_len(field, items.len())?;
            items
                .iter()
                .map(|i| {
                    let n = i
                        .as_num()
                        .filter(|n| n.is_finite())
                        .ok_or_else(|| NtcError::invalid_param(field, "expected numbers"))?;
                    let n = non_negative_int(field, n)?;
                    if n == 0 || n > 1 << 24 {
                        return Err(NtcError::invalid_param(
                            field,
                            format!("must be in 1..=2^24, got {n}"),
                        ));
                    }
                    Ok(n as u32)
                })
                .collect()
        }
        Some(_) => Err(NtcError::invalid_param(field, "expected an array")),
    }
}

/// The winning design point of an optimize run.
#[derive(Debug, Clone, PartialEq)]
pub struct BestDesign {
    /// Cell family.
    pub cell: CellStyle,
    /// Mitigation scheme.
    pub scheme: Scheme,
    /// Bank count.
    pub banks: u32,
    /// Word count.
    pub words: u32,
    /// Supply voltage, volts.
    pub vdd: f64,
    /// Energy per access at the constrained clock (access + leakage), pJ.
    pub energy_per_access_pj: f64,
    /// Macro cycle time at `vdd`, ns.
    pub cycle_time_ns: f64,
    /// Macro area, mm².
    pub area_mm2: f64,
    /// Macro f_max at `vdd`, Hz.
    pub f_max_hz: f64,
    /// Weighted objective value.
    pub objective: f64,
}

/// Convergence record of an optimize run.
#[derive(Debug, Clone, PartialEq)]
pub struct OptimizeConvergence {
    /// Restarts run.
    pub restarts: u32,
    /// Total coordinate sweeps.
    pub sweeps: u64,
    /// Total objective evaluations.
    pub evaluations: u64,
    /// Best objective per restart, in restart order (infeasible
    /// restarts report `null`).
    pub best_per_restart: Vec<f64>,
}

/// `POST /v1/optimize` response.
#[derive(Debug, Clone, PartialEq)]
pub struct OptimizeResponse {
    /// Hex FNV-64 of the canonical request — the memoization key.
    pub request_hash: String,
    /// Whether any candidate satisfied the constraints.
    pub feasible: bool,
    /// The winning design (absent when infeasible).
    pub best: Option<BestDesign>,
    /// How the search converged.
    pub convergence: OptimizeConvergence,
}

impl OptimizeResponse {
    /// Schema tag carried in the serialized form.
    pub const SCHEMA: &'static str = "ntc.optimize.v1";

    /// Serializes the response in canonical field order.
    pub fn to_json_value(&self) -> JsonValue {
        let best = match &self.best {
            None => JsonValue::Null,
            Some(b) => JsonValue::Obj(vec![
                ("cell".into(), JsonValue::Str(cell_style_str(b.cell).into())),
                ("scheme".into(), JsonValue::Str(scheme_str(b.scheme).into())),
                ("banks".into(), JsonValue::num(f64::from(b.banks))),
                ("words".into(), JsonValue::num(f64::from(b.words))),
                ("vdd".into(), JsonValue::num(b.vdd)),
                ("energy_per_access_pj".into(), JsonValue::num(b.energy_per_access_pj)),
                ("cycle_time_ns".into(), JsonValue::num(b.cycle_time_ns)),
                ("area_mm2".into(), JsonValue::num(b.area_mm2)),
                ("f_max_hz".into(), JsonValue::num(b.f_max_hz)),
                ("objective".into(), JsonValue::num(b.objective)),
            ]),
        };
        JsonValue::Obj(vec![
            ("schema".into(), JsonValue::Str(Self::SCHEMA.into())),
            ("request_hash".into(), JsonValue::Str(self.request_hash.clone())),
            ("feasible".into(), JsonValue::Bool(self.feasible)),
            ("best".into(), best),
            (
                "convergence".into(),
                JsonValue::Obj(vec![
                    ("restarts".into(), JsonValue::num(f64::from(self.convergence.restarts))),
                    ("sweeps".into(), JsonValue::num(self.convergence.sweeps as f64)),
                    (
                        "evaluations".into(),
                        JsonValue::num(self.convergence.evaluations as f64),
                    ),
                    (
                        "best_per_restart".into(),
                        JsonValue::Arr(
                            self.convergence
                                .best_per_restart
                                .iter()
                                .map(|&v| {
                                    if v.is_finite() {
                                        JsonValue::num(v)
                                    } else {
                                        JsonValue::Null
                                    }
                                })
                                .collect(),
                        ),
                    ),
                ]),
            ),
        ])
    }

    /// Compact serialized form — the exact bytes `POST /v1/optimize`
    /// returns and `repro optimize --out` writes.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        self.to_json_value().write_compact(&mut s);
        s
    }

    /// Parses a serialized response.
    pub fn from_json(text: &str) -> Result<Self, NtcError> {
        let v = crate::artifact::json::parse(text)?;
        let schema = str_field(&v, "schema")?;
        if schema != Self::SCHEMA {
            return Err(NtcError::Unsupported {
                what: format!("optimize response schema `{schema}`"),
            });
        }
        let request_hash = str_field(&v, "request_hash")?.to_string();
        let feasible = match v.get("feasible") {
            Some(JsonValue::Bool(b)) => *b,
            _ => return Err(NtcError::invalid_param("feasible", "expected a boolean")),
        };
        let best = match v.get("best") {
            None | Some(JsonValue::Null) => None,
            Some(b) => Some(BestDesign {
                cell: parse_cell_style(str_field(b, "cell")?)?,
                scheme: parse_scheme(str_field(b, "scheme")?)?,
                banks: num_field(b, "banks")? as u32,
                words: num_field(b, "words")? as u32,
                vdd: num_field(b, "vdd")?,
                energy_per_access_pj: num_field(b, "energy_per_access_pj")?,
                cycle_time_ns: num_field(b, "cycle_time_ns")?,
                area_mm2: num_field(b, "area_mm2")?,
                f_max_hz: num_field(b, "f_max_hz")?,
                objective: num_field(b, "objective")?,
            }),
        };
        let conv = v
            .get("convergence")
            .ok_or_else(|| NtcError::missing_field("convergence"))?;
        let best_per_restart = match conv.get("best_per_restart") {
            Some(JsonValue::Arr(items)) => items
                .iter()
                .map(|i| i.as_num().unwrap_or(f64::INFINITY))
                .collect(),
            _ => Vec::new(),
        };
        Ok(Self {
            request_hash,
            feasible,
            best,
            convergence: OptimizeConvergence {
                restarts: num_field(conv, "restarts")? as u32,
                sweeps: num_field(conv, "sweeps")? as u64,
                evaluations: num_field(conv, "evaluations")? as u64,
                best_per_restart,
            },
        })
    }
}

// ---------------------------------------------------------------------
// Endpoint schema (GET /v1/api)
// ---------------------------------------------------------------------

/// One row of the versioned route table.
#[derive(Debug, Clone, Copy)]
pub struct EndpointSpec {
    /// HTTP method.
    pub method: &'static str,
    /// Canonical `/v1` path (`{id}` marks a path parameter).
    pub path: &'static str,
    /// Request DTO name, if the endpoint takes a body.
    pub request: Option<&'static str>,
    /// Response DTO name.
    pub response: &'static str,
    /// One-line description.
    pub description: &'static str,
}

/// Every route the server answers.
pub const ENDPOINTS: &[EndpointSpec] = &[
    EndpointSpec {
        method: "GET",
        path: "/v1/api",
        request: None,
        response: "ApiSchema",
        description: "this machine-readable endpoint/DTO listing",
    },
    EndpointSpec {
        method: "GET",
        path: "/v1/healthz",
        request: None,
        response: "Health",
        description: "liveness, worker count, store version",
    },
    EndpointSpec {
        method: "GET",
        path: "/v1/metrics",
        request: None,
        response: "Metrics",
        description: "observability snapshot (json or ?format=prom)",
    },
    EndpointSpec {
        method: "GET",
        path: "/v1/progress",
        request: None,
        response: "Progress",
        description: "in-process sweep progress plus store fleet view",
    },
    EndpointSpec {
        method: "GET",
        path: "/v1/experiments",
        request: None,
        response: "ExperimentList",
        description: "the registry: ids, descriptions, paper refs",
    },
    EndpointSpec {
        method: "GET",
        path: "/v1/artifact/{id}",
        request: None,
        response: "Artifact",
        description: "one experiment artifact (?scale=quick|paper&seed=N)",
    },
    EndpointSpec {
        method: "POST",
        path: "/v1/run",
        request: Some("RunRequest"),
        response: "RunReply",
        description: "run an experiment, memoized by (id, scale, seed)",
    },
    EndpointSpec {
        method: "POST",
        path: "/v1/query",
        request: Some("QueryRequest"),
        response: "QueryResponse",
        description: "ber/vmin/energy point lookups, single or batched",
    },
    EndpointSpec {
        method: "POST",
        path: "/v1/optimize",
        request: Some("OptimizeRequest"),
        response: "OptimizeResponse",
        description: "design-space autotuner, memoized by request hash",
    },
];

/// DTO field descriptor for the schema listing.
struct DtoField {
    name: &'static str,
    ty: &'static str,
    required: bool,
}

struct DtoSpec {
    name: &'static str,
    fields: &'static [DtoField],
}

const DTOS: &[DtoSpec] = &[
    DtoSpec {
        name: "ErrorBody",
        fields: &[
            DtoField { name: "error.kind", ty: "string", required: true },
            DtoField { name: "error.message", ty: "string", required: true },
        ],
    },
    DtoSpec {
        name: "RunRequest",
        fields: &[
            DtoField { name: "id", ty: "string (experiment id)", required: true },
            DtoField { name: "scale", ty: "\"quick\" | \"paper\"", required: false },
            DtoField { name: "seed", ty: "integer", required: false },
        ],
    },
    DtoSpec {
        name: "QueryRequest",
        fields: &[
            DtoField { name: "kind", ty: "\"ber\" | \"vmin\" | \"energy\"", required: true },
            DtoField { name: "id", ty: "string (echoed per item)", required: false },
            DtoField { name: "law", ty: "\"access\" | \"retention\" (ber)", required: false },
            DtoField { name: "memory", ty: "string (ber/vmin)", required: false },
            DtoField { name: "vdd", ty: "number (ber/energy)", required: false },
            DtoField { name: "scheme", ty: "string (vmin)", required: false },
            DtoField { name: "fit_target", ty: "number (vmin)", required: false },
            DtoField { name: "frequency_hz", ty: "number (vmin/energy)", required: false },
            DtoField { name: "grid", ty: "\"paper\" | \"exact\" (vmin)", required: false },
            DtoField { name: "model", ty: "string (energy)", required: false },
        ],
    },
    DtoSpec {
        name: "OptimizeRequest",
        fields: &[
            DtoField { name: "objective", ty: "{energy, delay, area}", required: false },
            DtoField { name: "constraints.frequency_hz", ty: "number", required: true },
            DtoField { name: "constraints.fit_target", ty: "number", required: false },
            DtoField { name: "constraints.min_words", ty: "integer", required: false },
            DtoField { name: "space.banks", ty: "integer[]", required: false },
            DtoField { name: "space.words", ty: "integer[]", required: false },
            DtoField { name: "space.cells", ty: "string[]", required: false },
            DtoField { name: "space.schemes", ty: "string[]", required: false },
            DtoField { name: "space.vdd", ty: "{lo, hi, grid}", required: false },
            DtoField { name: "seed", ty: "integer", required: false },
            DtoField { name: "restarts", ty: "integer (1..=64)", required: false },
        ],
    },
    DtoSpec {
        name: "OptimizeResponse",
        fields: &[
            DtoField { name: "schema", ty: "\"ntc.optimize.v1\"", required: true },
            DtoField { name: "request_hash", ty: "string (hex fnv-64)", required: true },
            DtoField { name: "feasible", ty: "boolean", required: true },
            DtoField { name: "best", ty: "object | null", required: true },
            DtoField { name: "convergence", ty: "object", required: true },
        ],
    },
];

/// Builds the `GET /v1/api` response body.
pub fn api_schema() -> JsonValue {
    let endpoints = ENDPOINTS
        .iter()
        .map(|e| {
            JsonValue::Obj(vec![
                ("method".into(), JsonValue::Str(e.method.into())),
                ("path".into(), JsonValue::Str(e.path.into())),
                (
                    "request".into(),
                    e.request.map_or(JsonValue::Null, |r| JsonValue::Str(r.into())),
                ),
                ("response".into(), JsonValue::Str(e.response.into())),
                ("description".into(), JsonValue::Str(e.description.into())),
            ])
        })
        .collect();
    let dtos = DTOS
        .iter()
        .map(|d| {
            (
                d.name.to_string(),
                JsonValue::Arr(
                    d.fields
                        .iter()
                        .map(|f| {
                            JsonValue::Obj(vec![
                                ("name".into(), JsonValue::Str(f.name.into())),
                                ("type".into(), JsonValue::Str(f.ty.into())),
                                ("required".into(), JsonValue::Bool(f.required)),
                            ])
                        })
                        .collect(),
                ),
            )
        })
        .collect();
    JsonValue::Obj(vec![
        ("version".into(), JsonValue::Str("v1".into())),
        ("endpoints".into(), JsonValue::Arr(endpoints)),
        ("dtos".into(), JsonValue::Obj(dtos)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::json::parse;

    #[test]
    fn error_body_round_trips() {
        let e = ErrorBody::new("invalid_param", "vdd: must be positive");
        let back = ErrorBody::from_json(&e.to_json()).unwrap();
        assert_eq!(e, back);
        assert_eq!(
            e.to_json(),
            r#"{"error":{"kind":"invalid_param","message":"vdd: must be positive"}}"#
        );
    }

    #[test]
    fn run_request_round_trips() {
        let r = RunRequest {
            id: "table2".parse().unwrap(),
            scale: Scale::Quick,
            seed: Some(7),
        };
        let back = RunRequest::from_json_value(&parse(&r.to_json()).unwrap()).unwrap();
        assert_eq!(r, back);
        // Wire defaults: scale quick, no seed.
        let d = RunRequest::from_json_value(&parse(r#"{"id":"fig6"}"#).unwrap()).unwrap();
        assert_eq!(d.scale, Scale::Quick);
        assert_eq!(d.seed, None);
    }

    #[test]
    fn run_request_rejects_bad_fields() {
        for (text, kind) in [
            (r#"{"scale":"quick"}"#, "missing_field"),
            (r#"{"id":"fig99"}"#, "unknown_experiment"),
            (r#"{"id":"fig6","scale":"huge"}"#, "invalid_param"),
            (r#"{"id":"fig6","seed":-1}"#, "invalid_param"),
            (r#"{"id":"fig6","seed":1.5}"#, "invalid_param"),
        ] {
            let err = RunRequest::from_json_value(&parse(text).unwrap()).unwrap_err();
            assert_eq!(err.kind(), kind, "{text}");
        }
    }

    #[test]
    fn query_request_round_trips_with_id() {
        let text = r#"{"id":"q-7","kind":"vmin","scheme":"ocean","frequency_hz":290e3}"#;
        let q = QueryRequest::from_json_value(&parse(text).unwrap()).unwrap();
        assert_eq!(q.id.as_deref(), Some("q-7"));
        let back = QueryRequest::from_json_value(&parse(&q.to_json()).unwrap()).unwrap();
        assert_eq!(q, back);
    }

    /// Draws the fields of a [`QueryResponse`] from raw `u64`s, biased
    /// towards the values whose encoding has a special case: absent or
    /// escape-heavy ids, non-finite and signed-zero numbers, absent
    /// optionals.
    struct Draws(std::vec::IntoIter<u64>);

    impl Draws {
        fn next(&mut self) -> u64 {
            self.0.next().expect("enough raw draws for one case")
        }

        fn pick<T: Copy>(&mut self, from: &[T]) -> T {
            from[(self.next() % from.len() as u64) as usize]
        }

        fn num(&mut self) -> f64 {
            let specials = [
                f64::NAN,
                f64::INFINITY,
                f64::NEG_INFINITY,
                0.0,
                -0.0,
                1e-15,
                0.33,
                f64::MIN_POSITIVE,
                f64::MAX,
                -2.5e-7,
            ];
            let r = self.next();
            // Half the draws are arbitrary bit patterns (NaN payloads
            // and subnormals included).
            if r.is_multiple_of(2) {
                f64::from_bits(self.next())
            } else {
                specials[(r / 2 % specials.len() as u64) as usize]
            }
        }

        fn maybe_num(&mut self) -> Option<f64> {
            if self.next().is_multiple_of(3) {
                None
            } else {
                Some(self.num())
            }
        }

        fn id(&mut self) -> Option<String> {
            let alphabet = [
                'a', 'Z', '7', '-', '"', '\\', '/', '\n', '\r', '\t', '\u{0}', '\u{1f}', '\u{7f}',
                'µ', 'ü', '✓', '😀',
            ];
            match self.next() % 4 {
                0 => None,
                1 => Some(String::new()),
                _ => {
                    let len = self.next() % 12;
                    Some((0..len).map(|_| self.pick(&alphabet)).collect())
                }
            }
        }
    }

    proptest::proptest! {
        /// The streaming encoder writes exactly the tree encoder's bytes
        /// for every variant, id and numeric edge case.
        #[test]
        fn query_response_write_compact_matches_the_tree(
            raw in proptest::collection::vec(proptest::prelude::any::<u64>(), 96)
        ) {
            let mut d = Draws(raw.into_iter());
            let responses = [
                QueryResponse::Ber {
                    id: d.id(),
                    law: d.pick(&[LawKind::Access, LawKind::Retention]),
                    memory: d.pick(&[Memory::Commercial40, Memory::CellBased40, Memory::CellBased65]),
                    vdd: d.num(),
                    p_bit: d.num(),
                },
                QueryResponse::Vmin {
                    id: d.id(),
                    scheme: d.pick(&Scheme::ALL),
                    memory: d.pick(&[Memory::Commercial40, Memory::CellBased40]),
                    fit_target: d.num(),
                    max_p_bit: d.num(),
                    frequency_hz: d.maybe_num(),
                    error_constrained: d.num(),
                    performance_constrained: d.maybe_num(),
                    operating: d.num(),
                },
                QueryResponse::Energy {
                    id: d.id(),
                    model: d.pick(&[EnergyModel::Cots40, EnergyModel::CellBased40]),
                    vdd: d.num(),
                    f_max_hz: d.num(),
                    energy_per_cycle_j: d.num(),
                    total_j: d.num(),
                    dynamic_j: d.num(),
                    leakage_j: d.num(),
                    power_w: d.num(),
                },
            ];
            for r in &responses {
                let mut tree = String::new();
                r.to_json_value().write_compact(&mut tree);
                // Appending must not disturb what the buffer held.
                let mut streamed = String::from("[");
                r.write_compact(&mut streamed);
                proptest::prop_assert_eq!(&streamed[1..], tree.as_str());
            }
        }
    }

    #[test]
    fn query_response_write_compact_pins_the_wire_layout() {
        let r = QueryResponse::Vmin {
            id: Some("a\"b".into()),
            scheme: Scheme::Ocean,
            memory: Memory::CellBased40,
            fit_target: 1e-15,
            max_p_bit: f64::NAN,
            frequency_hz: None,
            error_constrained: f64::INFINITY,
            performance_constrained: None,
            operating: -0.0,
        };
        let mut out = String::new();
        r.write_compact(&mut out);
        assert_eq!(
            out,
            r#"{"id":"a\"b","kind":"vmin","scheme":"ocean","memory":"cell_based_40nm","fit_target":0.000000000000001,"max_p_bit":"NaN","error_constrained":"inf","performance_constrained":null,"operating":-0}"#
        );
    }

    #[test]
    fn query_request_rejects_non_string_id() {
        let err = QueryRequest::from_json_value(
            &parse(r#"{"id":7,"kind":"vmin","scheme":"ocean"}"#).unwrap(),
        )
        .unwrap_err();
        assert_eq!(err.kind(), "invalid_param");
    }

    #[test]
    fn optimize_request_defaults_to_the_paper_space() {
        let req =
            OptimizeRequest::from_json(r#"{"constraints":{"frequency_hz":290e3}}"#).unwrap();
        assert_eq!(req.space, {
            let mut s = DesignSpaceSpec::paper();
            s.canonicalize();
            s
        });
        assert_eq!(req.seed, 2014);
        assert_eq!(req.restarts, 8);
        assert_eq!(req.constraints.fit_target, 1e-15);
        assert_eq!(req.objective, ObjectiveWeights::default());
    }

    #[test]
    fn optimize_request_hash_is_axis_order_invariant() {
        let a = OptimizeRequest::from_json(
            r#"{"constraints":{"frequency_hz":290e3},
                "space":{"banks":[32,1,4,2,16,8],"cells":["custom_6t","cell_based_aoi","commercial_6t"],
                         "schemes":["ocean","no_mitigation","secded"],"words":[8192,512,2048,1024,4096]}}"#,
        )
        .unwrap();
        let b = OptimizeRequest::from_json(
            r#"{"constraints":{"frequency_hz":290e3},
                "space":{"banks":[1,2,4,8,16,32],"cells":["cell_based_aoi","commercial_6t","custom_6t"],
                         "schemes":["no_mitigation","secded","ocean"],"words":[512,1024,2048,4096,8192]}}"#,
        )
        .unwrap();
        assert_eq!(a, b);
        assert_eq!(a.request_hash_hex(), b.request_hash_hex());
        assert_eq!(a.to_json(), b.to_json());
    }

    #[test]
    fn optimize_request_validates() {
        for (text, needle) in [
            (r#"{}"#, "constraints"),
            (r#"{"constraints":{"frequency_hz":0}}"#, "positive"),
            (r#"{"constraints":{"frequency_hz":290e3,"fit_target":2}}"#, "(0, 1)"),
            (
                r#"{"constraints":{"frequency_hz":290e3},"space":{"banks":[3]}}"#,
                "powers of two",
            ),
            (
                r#"{"constraints":{"frequency_hz":290e3},"space":{"words":[]}}"#,
                "at least one",
            ),
            (
                r#"{"constraints":{"frequency_hz":290e3},"space":{"cells":["cell_based_latch_65"]}}"#,
                "65 nm",
            ),
            (
                r#"{"constraints":{"frequency_hz":290e3},"space":{"vdd":{"lo":0.9,"hi":0.3}}}"#,
                "lo <= hi",
            ),
            (
                r#"{"constraints":{"frequency_hz":290e3},"objective":{"energy":0,"delay":0,"area":0}}"#,
                "at least one weight",
            ),
            (r#"{"constraints":{"frequency_hz":290e3},"restarts":0}"#, "1..=64"),
        ] {
            let err = OptimizeRequest::from_json(text).unwrap_err();
            assert!(err.to_string().contains(needle), "{text}: {err}");
        }
    }

    #[test]
    fn optimize_response_round_trips() {
        let resp = OptimizeResponse {
            request_hash: "00ff00ff00ff00ff".into(),
            feasible: true,
            best: Some(BestDesign {
                cell: CellStyle::CellBasedAoi,
                scheme: Scheme::Ocean,
                banks: 1,
                words: 2048,
                vdd: 0.33,
                energy_per_access_pj: 4.5,
                cycle_time_ns: 80.0,
                area_mm2: 0.115,
                f_max_hz: 1.2e6,
                objective: 4.5,
            }),
            convergence: OptimizeConvergence {
                restarts: 8,
                sweeps: 24,
                evaluations: 900,
                best_per_restart: vec![4.5; 8],
            },
        };
        let back = OptimizeResponse::from_json(&resp.to_json()).unwrap();
        assert_eq!(resp, back);
    }

    #[test]
    fn endpoint_table_is_consistent() {
        // Every path is versioned, and every request DTO naming a
        // request body exists in DTOS.
        for e in ENDPOINTS {
            if let Some(req) = e.request {
                assert!(DTOS.iter().any(|d| d.name == req), "missing DTO {req}");
            }
            assert!(e.path.starts_with("/v1/"), "{}", e.path);
        }
        let schema = api_schema();
        let listed = schema.get("endpoints").unwrap();
        match listed {
            JsonValue::Arr(rows) => assert_eq!(rows.len(), ENDPOINTS.len()),
            _ => panic!("endpoints not an array"),
        }
    }

    #[test]
    fn fnv64_matches_reference_vectors() {
        // Published FNV-1a test vectors.
        assert_eq!(fnv64(b""), 0xcbf29ce484222325);
        assert_eq!(fnv64(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv64(b"foobar"), 0x85944171f73967e8);
    }
}
