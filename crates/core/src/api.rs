//! Shared typed wire model for the HTTP surface and the CLI.
//!
//! Every request and response body that crosses a process boundary —
//! `ntc-serve` handlers, the `repro` subcommands, the load generator —
//! is built from the types in this one module, so the wire format cannot
//! drift between producers.
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
//! # The codec
//!
//! Each DTO lists its fields once, in wire order and with their
//! defaults, in a `wire_struct!` (objects) or `wire_union!` (the
//! `kind`-tagged query shapes) declaration. From that one list the
//! macros generate the streaming writer (`write_compact`, `to_json`),
//! the tree form (`to_json_value`), the decoder (`from_json_value`,
//! `from_json`) and the DTO's `GET /v1/api` entry ([`api_schema`]).
//! Field values go through one `Wire` impl per value type; enums map to
//! their stable names through one `wire_enum!` table each
//! ([`WireName`]).
//!
//! Every field decodes by one rule: an absent or `null` field takes its
//! declared default, or is a `missing_field` if it has none (an
//! `Option` field reads `null` as `None`); a value of the wrong type is
//! an `invalid_param` naming the field. An `Option` field with a default
//! is left out of the output when `None`; one without a default is
//! written as `null`. Ranges and cross-field rules live in one
//! [`Check`] impl per DTO, which the decoder runs.
//!
//! [`ENDPOINTS`] is the route table `GET /v1/api` serves; the serve e2e
//! suite drives every row.

use crate::artifact::json::{write_num, write_str, JsonValue};
use crate::error::NtcError;
use crate::fit::{Scheme, VoltageGrid};
use crate::repro::{ExperimentId, Scale};
use ntc_sram::styles::CellStyle;

/// FNV-1a 64-bit hash, the memoization key for canonical request bytes.
pub use ntc_stats::ckpt::fnv64;

/// A value with a JSON wire form.
///
/// The `*_member` methods encode and decode the value as a member of an
/// enclosing object. Their defaults handle a plain `"key":value` pair;
/// a tagged union overrides them to spread its `kind` tag and fields
/// into the enclosing object.
trait Wire: Sized {
    /// The type as `GET /v1/api` lists it.
    fn schema_type() -> String;

    /// Appends the compact JSON of the value to `out`.
    fn write(&self, out: &mut String);

    /// The tree form; its `write_compact` writes the bytes of `write`.
    fn to_value(&self) -> JsonValue;

    /// Decodes a present, non-`null` value; errors name `field`.
    fn decode(v: &JsonValue, field: &str) -> Result<Self, NtcError>;

    /// Whether the value is a `None`, which a field with a default
    /// leaves out of the output.
    fn is_absent(&self) -> bool {
        false
    }

    /// Writes the member whose `"key":` text is `member`, unless
    /// `omittable` (the field has a default) and the value is absent.
    fn write_member(&self, member: &str, omittable: bool, out: &mut String) {
        if !(omittable && self.is_absent()) {
            write_key(out, member);
            self.write(out);
        }
    }

    /// Pushes the member `key` onto a tree object, by the same rule.
    fn push_member(&self, key: &str, omittable: bool, obj: &mut Vec<(String, JsonValue)>) {
        if !(omittable && self.is_absent()) {
            obj.push((key.to_string(), self.to_value()));
        }
    }

    /// Decodes member `key` of `obj`; `None` when absent or `null`.
    fn decode_member(obj: &JsonValue, key: &str) -> Result<Option<Self>, NtcError> {
        match obj.get(key) {
            None | Some(JsonValue::Null) => Ok(None),
            Some(v) => Self::decode(v, key).map(Some),
        }
    }

    /// Lists member `key` in the schema.
    fn schema_member(key: &str, required: bool, schema: &mut Schema) {
        schema.row(key, &Self::schema_type(), required);
    }
}

/// Writes a member's leading text, after a comma unless it opens the
/// object.
fn write_key(out: &mut String, member: &str) {
    if !out.ends_with('{') {
        out.push(',');
    }
    out.push_str(member);
}

/// `key` within the member `parent` (`parent.key`), for schema rows.
fn join(parent: &str, key: &str) -> String {
    if parent.is_empty() {
        key.to_string()
    } else {
        format!("{parent}.{key}")
    }
}

/// Decodes member `key` of `obj`: absent or `null`, it takes `default`,
/// or is a `missing_field` without one.
fn member<T: Wire>(obj: &JsonValue, key: &str, default: Option<fn() -> T>) -> Result<T, NtcError> {
    match (T::decode_member(obj, key)?, default) {
        (Some(value), _) => Ok(value),
        (None, Some(default)) => Ok(default()),
        (None, None) => Err(NtcError::missing_field(key)),
    }
}

/// A DTO with every field at its declared default: the decode of `{}`.
fn defaults<T: Wire>() -> T {
    T::decode(&JsonValue::Obj(Vec::new()), "defaults").expect("declared defaults are valid")
}

/// Value rules of a DTO beyond what its field types state: ranges and
/// cross-field checks. The decoder runs `check` then `canonicalize` on
/// every value it builds; callers holding a hand-built value (the DTO
/// fields are public) run `check` themselves.
pub trait Check {
    /// Rewrites the value into its canonical form (default: as is).
    fn canonicalize(&mut self) {}

    /// The value's rules (default: none).
    fn check(&self) -> Result<(), NtcError> {
        Ok(())
    }
}

/// An `invalid_param` error naming `field`.
fn invalid<T>(field: &str, message: impl Into<String>) -> Result<T, NtcError> {
    Err(NtcError::invalid_param(field, message))
}

/// `v` must be finite and positive.
fn positive(field: &str, v: f64) -> Result<(), NtcError> {
    match v {
        v if !v.is_finite() => invalid(field, "expected a finite number"),
        v if v > 0.0 => Ok(()),
        v => invalid(field, format!("must be positive, got {v}")),
    }
}

/// A FIT budget must lie in `(0, 1)`.
fn fit_target(t: f64) -> Result<(), NtcError> {
    if t > 0.0 && t < 1.0 {
        Ok(())
    } else {
        invalid("fit_target", format!("must be in (0, 1), got {t}"))
    }
}

/// The field rows of one DTO, as `GET /v1/api` lists them: one row
/// list per variant path of the tagged unions it holds (one unnamed
/// list for a plain object).
struct Schema {
    variants: Vec<(String, Vec<JsonValue>)>,
}

impl Schema {
    fn row(&mut self, name: &str, ty: &str, required: bool) {
        for (_, rows) in &mut self.variants {
            rows.push(JsonValue::Obj(vec![
                ("name".into(), JsonValue::Str(name.into())),
                ("type".into(), JsonValue::Str(ty.into())),
                ("required".into(), JsonValue::Bool(required)),
            ]));
        }
    }
}

impl Wire for f64 {
    fn schema_type() -> String {
        "number".into()
    }
    fn write(&self, out: &mut String) {
        write_num(out, *self);
    }
    fn to_value(&self) -> JsonValue {
        JsonValue::num(*self)
    }
    fn decode(v: &JsonValue, field: &str) -> Result<Self, NtcError> {
        v.as_num()
            .filter(|v| v.is_finite())
            .ok_or_else(|| NtcError::invalid_param(field, "expected a finite number"))
    }
}

/// Integers travel as JSON numbers, exact up to `max` (at most 2^53).
macro_rules! wire_integer {
    ($($ty:ty: $max:expr),*) => {$(
        impl Wire for $ty {
            fn schema_type() -> String {
                "integer".into()
            }
            fn write(&self, out: &mut String) {
                write_num(out, *self as f64);
            }
            fn to_value(&self) -> JsonValue {
                JsonValue::num(*self as f64)
            }
            fn decode(v: &JsonValue, field: &str) -> Result<Self, NtcError> {
                let n = f64::decode(v, field)?;
                if n >= 0.0 && n.fract() == 0.0 && n <= $max {
                    Ok(n as $ty)
                } else {
                    invalid(field, format!("expected an integer in 0..={}, got {n}", $max))
                }
            }
        }
    )*};
}

wire_integer!(u32: f64::from(u32::MAX), u64: 2f64.powi(53));

impl Wire for bool {
    fn schema_type() -> String {
        "boolean".into()
    }
    fn write(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }
    fn to_value(&self) -> JsonValue {
        JsonValue::Bool(*self)
    }
    fn decode(v: &JsonValue, field: &str) -> Result<Self, NtcError> {
        match v {
            JsonValue::Bool(b) => Ok(*b),
            _ => invalid(field, "expected a boolean"),
        }
    }
}

impl Wire for String {
    fn schema_type() -> String {
        "string".into()
    }
    fn write(&self, out: &mut String) {
        write_str(out, self);
    }
    fn to_value(&self) -> JsonValue {
        JsonValue::Str(self.clone())
    }
    fn decode(v: &JsonValue, field: &str) -> Result<Self, NtcError> {
        v.as_str()
            .map(str::to_string)
            .ok_or_else(|| NtcError::invalid_param(field, "expected a string"))
    }
}

impl<T: Wire> Wire for Option<T> {
    fn schema_type() -> String {
        format!("{} | null", T::schema_type())
    }
    fn write(&self, out: &mut String) {
        match self {
            Some(v) => v.write(out),
            None => out.push_str("null"),
        }
    }
    fn to_value(&self) -> JsonValue {
        self.as_ref().map_or(JsonValue::Null, T::to_value)
    }
    fn decode(v: &JsonValue, field: &str) -> Result<Self, NtcError> {
        match v {
            JsonValue::Null => Ok(None),
            v => T::decode(v, field).map(Some),
        }
    }
    fn is_absent(&self) -> bool {
        self.is_none()
    }
    fn decode_member(obj: &JsonValue, key: &str) -> Result<Option<Self>, NtcError> {
        obj.get(key).map(|v| Self::decode(v, key)).transpose()
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn schema_type() -> String {
        format!("[{}]", T::schema_type())
    }
    fn write(&self, out: &mut String) {
        out.push('[');
        for (i, item) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            item.write(out);
        }
        out.push(']');
    }
    fn to_value(&self) -> JsonValue {
        JsonValue::Arr(self.iter().map(T::to_value).collect())
    }
    fn decode(v: &JsonValue, field: &str) -> Result<Self, NtcError> {
        v.as_arr()
            .ok_or_else(|| NtcError::invalid_param(field, "expected an array"))?
            .iter()
            .map(|item| T::decode(item, field))
            .collect()
    }
}

/// A unit enum with stable wire names, from one `wire_enum!` table.
pub trait WireName: Copy + 'static {
    /// Every name the decoder accepts, in table order.
    const NAMES: &'static [&'static str];

    /// The name the value is written as.
    fn wire_name(self) -> &'static str;

    /// The value named `s`; the error names `field`.
    fn decode_name(s: &str, field: &str) -> Result<Self, NtcError>;
}

/// The error for a name no table lists.
fn unknown_name<T: WireName>(s: &str, field: &str) -> Result<T, NtcError> {
    invalid(
        field,
        format!("unknown value `{s}` — one of {}", T::NAMES.join(", ")),
    )
}

impl<T: WireName> Wire for T {
    fn schema_type() -> String {
        let quoted: Vec<String> = T::NAMES.iter().map(|n| format!("\"{n}\"")).collect();
        quoted.join(" | ")
    }
    fn write(&self, out: &mut String) {
        write_str(out, self.wire_name());
    }
    fn to_value(&self) -> JsonValue {
        JsonValue::Str(self.wire_name().into())
    }
    fn decode(v: &JsonValue, field: &str) -> Result<Self, NtcError> {
        match v.as_str() {
            Some(s) => T::decode_name(s, field),
            None => invalid(field, "expected a string"),
        }
    }
}

/// Declares the wire names of an enum: either the enum itself (which
/// also gets an inherent `as_str`), or, after `impl`, an enum declared
/// elsewhere. The first name of a variant is the one written; the
/// names after `|` are decode-only aliases; a trailing `_ => "name"`
/// writes the variants the table does not list.
macro_rules! wire_enum {
    (
        $(#[$attr:meta])*
        pub enum $ty:ident {
            $($(#[doc = $doc:literal])* $variant:ident = $name:literal,)*
        }
    ) => {
        $(#[$attr])*
        pub enum $ty {
            $($(#[doc = $doc])* $variant,)*
        }

        impl $ty {
            /// Stable wire name.
            pub fn as_str(self) -> &'static str {
                self.wire_name()
            }
        }

        wire_enum!(impl $ty { $($variant = $name,)* });
    };
    (
        impl $ty:ty {
            $($variant:ident = $name:literal $(| $alias:literal)*,)*
        } $(_ => $other:literal)?
    ) => {
        impl WireName for $ty {
            const NAMES: &'static [&'static str] = &[$($name, $($alias,)*)*];

            fn wire_name(self) -> &'static str {
                match self {
                    $(Self::$variant => $name,)*
                    $(_ => $other,)?
                }
            }

            fn decode_name(s: &str, field: &str) -> Result<Self, NtcError> {
                match s {
                    $($name $(| $alias)* => Ok(Self::$variant),)*
                    other => unknown_name(other, field),
                }
            }
        }
    };
}

wire_enum!(impl Scheme {
    NoMitigation = "no_mitigation",
    Secded = "secded" | "ecc",
    Ocean = "ocean",
});

// `CeilStep` is an internal solver knob no decoder produces; a
// hand-built request carrying one is written as `exact`.
wire_enum!(impl VoltageGrid {
    PaperGrid = "paper",
    Exact = "exact",
} _ => "exact");

wire_enum!(impl Scale {
    Quick = "quick",
    Paper = "paper",
});

wire_enum!(impl CellStyle {
    Commercial6T = "commercial_6t",
    Custom6T = "custom_6t",
    CellBasedLatch65 = "cell_based_latch_65",
    CellBasedAoi = "cell_based_aoi",
});

/// Experiment ids keep the registry's names, and an unknown id is an
/// `unknown_experiment` (HTTP 404), not an `invalid_param`.
impl WireName for ExperimentId {
    const NAMES: &'static [&'static str] = &ExperimentId::NAMES;

    fn wire_name(self) -> &'static str {
        self.as_str()
    }

    fn decode_name(s: &str, _field: &str) -> Result<Self, NtcError> {
        s.parse()
    }
}

/// Declares a DTO object: the struct, with each field listed once in
/// wire order as `name: Type` or `name: Type = default`, optionally
/// preceded by a constant `const tag = "value";` member written first.
/// Generates the struct's `Wire` impl and its public codec methods.
macro_rules! wire_struct {
    // Whether a field has a default, and the default as a thunk.
    (@opt) => { false };
    (@opt $default:expr) => { true };
    (@or) => { None };
    (@or $default:expr) => { Some(|| $default) };
    (
        $(#[$attr:meta])*
        pub struct $name:ident {
            $(const $tag:ident = $tag_value:literal;)?
            $($(#[doc = $doc:literal])* pub $field:ident: $ty:ty $(= $default:expr)?,)*
        }
    ) => {
        $(#[$attr])*
        pub struct $name {
            $($(#[doc = $doc])* pub $field: $ty,)*
        }

        impl Wire for $name {
            fn schema_type() -> String {
                "object".into()
            }

            fn write(&self, out: &mut String) {
                out.push('{');
                $(write_key(out, concat!("\"", stringify!($tag), "\":\"", $tag_value, "\""));)?
                $(self.$field.write_member(
                    concat!("\"", stringify!($field), "\":"),
                    wire_struct!(@opt $($default)?),
                    out,
                );)*
                out.push('}');
            }

            fn to_value(&self) -> JsonValue {
                let mut obj = Vec::new();
                $(obj.push((stringify!($tag).into(), JsonValue::Str($tag_value.into())));)?
                $(self.$field
                    .push_member(stringify!($field), wire_struct!(@opt $($default)?), &mut obj);)*
                JsonValue::Obj(obj)
            }

            fn decode(v: &JsonValue, field: &str) -> Result<Self, NtcError> {
                if !matches!(v, JsonValue::Obj(_)) {
                    return invalid(field, "expected a JSON object");
                }
                $(
                    let tag: String = member(v, stringify!($tag), None)?;
                    if tag != $tag_value {
                        let what =
                            format!("{} `{tag}` (expected `{}`)", stringify!($tag), $tag_value);
                        return Err(NtcError::Unsupported { what });
                    }
                )?
                let mut decoded = Self {
                    $($field: member(v, stringify!($field), wire_struct!(@or $($default)?))?,)*
                };
                Check::check(&decoded)?;
                Check::canonicalize(&mut decoded);
                Ok(decoded)
            }

            fn schema_member(key: &str, required: bool, schema: &mut Schema) {
                $(let tag = concat!("\"", $tag_value, "\"");
                schema.row(&join(key, stringify!($tag)), tag, required);)?
                $(<$ty as Wire>::schema_member(
                    &join(key, stringify!($field)),
                    required && !wire_struct!(@opt $($default)?),
                    schema,
                );)*
            }
        }

        impl $name {
            /// The tree form, in wire field order.
            pub fn to_json_value(&self) -> JsonValue {
                Wire::to_value(self)
            }

            /// Appends the compact serialization to `out`: the bytes of
            /// `self.to_json_value().write_compact(out)`, without the tree.
            pub fn write_compact(&self, out: &mut String) {
                Wire::write(self, out);
            }

            /// Compact serialized form.
            pub fn to_json(&self) -> String {
                let mut out = String::new();
                Wire::write(self, &mut out);
                out
            }

            /// Decodes and checks an already-parsed body.
            pub fn from_json_value(v: &JsonValue) -> Result<Self, NtcError> {
                <Self as Wire>::decode(v, stringify!($name))
            }

            /// Decodes and checks JSON text.
            pub fn from_json(text: &str) -> Result<Self, NtcError> {
                Self::from_json_value(&crate::artifact::json::parse(text)?)
            }
        }
    };
}

/// Declares a `kind`-tagged union: each variant with its tag and its
/// fields, listed as in `wire_struct!`. A union is always a member of
/// an enclosing `wire_struct!` object, into which it spreads its `kind`
/// tag and the fields of its variant.
macro_rules! wire_union {
    (
        $(#[$attr:meta])*
        pub enum $name:ident {$(
            $(#[doc = $vdoc:literal])*
            $variant:ident = $tag:literal {
                $($(#[doc = $doc:literal])* $field:ident: $ty:ty $(= $default:expr)?,)*
            },
        )*}
    ) => {
        $(#[$attr])*
        pub enum $name {$(
            $(#[doc = $vdoc])*
            $variant { $($(#[doc = $doc])* $field: $ty,)* },
        )*}

        impl Wire for $name {
            fn schema_type() -> String {
                "object".into()
            }

            fn write(&self, out: &mut String) {
                out.push('{');
                self.write_member("", false, out);
                out.push('}');
            }

            fn to_value(&self) -> JsonValue {
                let mut obj = Vec::new();
                self.push_member("", false, &mut obj);
                JsonValue::Obj(obj)
            }

            fn decode(v: &JsonValue, field: &str) -> Result<Self, NtcError> {
                if !matches!(v, JsonValue::Obj(_)) {
                    return invalid(field, "expected a JSON object");
                }
                let tag = match v.get("kind") {
                    None | Some(JsonValue::Null) => return Err(NtcError::missing_field("kind")),
                    Some(tag) => tag
                        .as_str()
                        .ok_or_else(|| NtcError::invalid_param("kind", "expected a string"))?,
                };
                let decoded = match tag {
                    $($tag => $name::$variant {
                        $($field: member(v, stringify!($field), wire_struct!(@or $($default)?))?,)*
                    },)*
                    other => {
                        let what = format!("kind `{other}` — one of {}", [$($tag),*].join(", "));
                        return Err(NtcError::Unsupported { what });
                    }
                };
                Check::check(&decoded)?;
                Ok(decoded)
            }

            fn write_member(&self, _: &str, _: bool, out: &mut String) {
                match self {$(
                    $name::$variant { $($field),* } => {
                        write_key(out, concat!("\"kind\":\"", $tag, "\""));
                        $($field.write_member(
                            concat!("\"", stringify!($field), "\":"),
                            wire_struct!(@opt $($default)?),
                            out,
                        );)*
                    }
                )*}
            }

            fn push_member(&self, _: &str, _: bool, obj: &mut Vec<(String, JsonValue)>) {
                match self {$(
                    $name::$variant { $($field),* } => {
                        obj.push(("kind".into(), JsonValue::Str($tag.into())));
                        $($field.push_member(
                            stringify!($field),
                            wire_struct!(@opt $($default)?),
                            obj,
                        );)*
                    }
                )*}
            }

            fn decode_member(obj: &JsonValue, key: &str) -> Result<Option<Self>, NtcError> {
                Self::decode(obj, key).map(Some)
            }

            fn schema_member(_key: &str, _required: bool, schema: &mut Schema) {
                for (path, rows) in std::mem::take(&mut schema.variants) {$(
                    let mut variant = Schema { variants: vec![(join(&path, $tag), rows.clone())] };
                    variant.row("kind", concat!("\"", $tag, "\""), true);
                    $(<$ty as Wire>::schema_member(
                        stringify!($field),
                        !wire_struct!(@opt $($default)?),
                        &mut variant,
                    );)*
                    schema.variants.append(&mut variant.variants);
                )*}
            }
        }
    };
}

wire_struct! {
    /// The stable error envelope every endpoint returns on failure.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct ErrorBody {
        /// The error itself.
        pub error: ErrorDetail,
    }
}

wire_struct! {
    /// The `error` member of an [`ErrorBody`].
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct ErrorDetail {
        /// Stable machine-readable kind (snake_case).
        pub kind: String,
        /// Human-readable message.
        pub message: String,
    }
}

impl ErrorBody {
    /// Builds an envelope from parts.
    pub fn new(kind: impl Into<String>, message: impl Into<String>) -> Self {
        Self {
            error: ErrorDetail {
                kind: kind.into(),
                message: message.into(),
            },
        }
    }

    /// Builds the envelope for an [`NtcError`].
    pub fn from_error(err: &NtcError) -> Self {
        Self::new(err.kind(), err.to_string())
    }
}

wire_struct! {
    /// `POST /v1/run` body: run one registry experiment.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct RunRequest {
        /// Registry experiment name (e.g. `"table2"`).
        pub id: ExperimentId,
        /// Monte-Carlo scale; the wire default is `quick`.
        pub scale: Scale = Scale::Quick,
        /// Seed override; the server applies its default when absent.
        pub seed: Option<u64> = None,
    }
}

wire_enum! {
    /// Which failure law family a BER query reads.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum LawKind {
        /// Eq. 5: access errors vs supply.
        Access = "access",
        /// Eq. 4: retention errors vs supply.
        Retention = "retention",
    }
}

wire_enum! {
    /// Which characterized memory a query targets.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum Memory {
        /// The commercial 40 nm macro.
        Commercial40 = "commercial_40nm",
        /// The cell-based 40 nm macro.
        CellBased40 = "cell_based_40nm",
        /// The cell-based 65 nm macro (retention law only).
        CellBased65 = "cell_based_65nm",
    }
}

wire_enum! {
    /// Which SoC energy model an energy query evaluates.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum EnergyModel {
        /// COTS-memory 40 nm signal processor (Fig. 1 upper curve).
        Cots40 = "cots_40nm",
        /// Cell-based-memory variant (Fig. 1 lower curve).
        CellBased40 = "cell_based_40nm",
    }
}

wire_struct! {
    /// One `/v1/query` item: the lookup plus an optional client-chosen id
    /// echoed back in the matching response item.
    #[derive(Debug, Clone, PartialEq)]
    pub struct QueryRequest {
        /// Client correlation id, echoed per response item.
        pub id: Option<String> = None,
        /// The lookup to perform.
        pub kind: QueryKind,
    }
}

wire_union! {
    /// The model lookup a query performs (the `kind` discriminator).
    #[derive(Debug, Clone, PartialEq)]
    pub enum QueryKind {
        /// Bit error rate at a voltage.
        Ber = "ber" {
            /// Law family (Eq. 4 or Eq. 5).
            law: LawKind,
            /// Which memory's calibration.
            memory: Memory,
            /// Supply voltage, volts.
            vdd: f64,
        },
        /// Minimum supply for a scheme under a FIT budget.
        Vmin = "vmin" {
            /// Mitigation scheme.
            scheme: Scheme,
            /// Which memory's access law constrains errors.
            memory: Memory = Memory::CellBased40,
            /// FIT budget per transaction.
            fit_target: f64 = 1e-15,
            /// Required clock, if performance-constrained.
            frequency_hz: Option<f64> = None,
            /// Voltage grid for the reported operating point.
            grid: VoltageGrid = VoltageGrid::PaperGrid,
        },
        /// Energy/power breakdown at an operating point.
        Energy = "energy" {
            /// Which SoC model.
            model: EnergyModel,
            /// Supply voltage, volts.
            vdd: f64,
            /// Clock to evaluate at (defaults to `f_max(vdd)`).
            frequency_hz: Option<f64> = None,
        },
    }
}

impl Check for QueryKind {
    /// Every access-law lookup needs a memory with an access law, and
    /// every voltage, clock and FIT budget must be in range.
    fn check(&self) -> Result<(), NtcError> {
        use QueryKind::{Ber, Energy, Vmin};
        match *self {
            Ber {
                law: LawKind::Access,
                memory: Memory::CellBased65,
                ..
            } => invalid(
                "memory",
                "no access law is characterized for cell_based_65nm (retention only)",
            ),
            Ber { vdd, .. } => positive("vdd", vdd),
            Vmin {
                memory: Memory::CellBased65,
                ..
            } => invalid(
                "memory",
                "vmin solves against an access law; cell_based_65nm has none",
            ),
            Vmin {
                fit_target: t,
                frequency_hz,
                ..
            } => {
                fit_target(t)?;
                frequency_hz.map_or(Ok(()), |f| positive("frequency_hz", f))
            }
            Energy {
                vdd, frequency_hz, ..
            } => {
                positive("vdd", vdd)?;
                frequency_hz.map_or(Ok(()), |f| positive("frequency_hz", f))
            }
        }
    }
}

wire_struct! {
    /// One `/v1/query` response item: the echoed id and the typed result.
    ///
    /// The field order is frozen — baselines and clients grep it — so
    /// each variant lists exactly the historical layout.
    #[derive(Debug, Clone, PartialEq)]
    pub struct QueryResponse {
        /// Echoed client id.
        pub id: Option<String> = None,
        /// The lookup's result.
        pub result: QueryResult,
    }
}

wire_union! {
    /// The result of one query, per kind.
    #[derive(Debug, Clone, PartialEq)]
    pub enum QueryResult {
        /// `ber` result.
        Ber = "ber" {
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
        Vmin = "vmin" {
            /// Mitigation scheme.
            scheme: Scheme,
            /// Memory evaluated.
            memory: Memory,
            /// FIT budget per transaction.
            fit_target: f64,
            /// Tolerable per-bit error probability under the scheme.
            max_p_bit: f64,
            /// Clock constraint echoed when the request had one.
            frequency_hz: Option<f64> = None,
            /// Error-constrained minimum supply, volts.
            error_constrained: f64,
            /// Performance-constrained supply, volts (`null` unless
            /// constrained).
            performance_constrained: Option<f64>,
            /// Operating point on the requested grid, volts.
            operating: f64,
        },
        /// `energy` result.
        Energy = "energy" {
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
}

/// Axis length cap: keeps a hostile request from turning one POST into
/// an unbounded search.
const MAX_AXIS: usize = 64;

wire_struct! {
    /// User weights on the optimizer objective. Terms are normalized to
    /// O(1) engineering units before weighting: energy per access in pJ,
    /// cycle time in ns, area in mm². The default is energy only, the
    /// paper's Table 2 objective.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct ObjectiveWeights {
        /// Weight on energy per access (pJ).
        pub energy: f64 = 1.0,
        /// Weight on macro cycle time (ns).
        pub delay: f64 = 0.0,
        /// Weight on macro area (mm²).
        pub area: f64 = 0.0,
    }
}

impl Check for ObjectiveWeights {
    fn check(&self) -> Result<(), NtcError> {
        for (name, x) in [
            ("energy", self.energy),
            ("delay", self.delay),
            ("area", self.area),
        ] {
            if x < 0.0 {
                return invalid(
                    "objective",
                    format!("weight `{name}` must be non-negative, got {x}"),
                );
            }
        }
        if self.energy + self.delay + self.area <= 0.0 {
            return invalid("objective", "at least one weight must be positive");
        }
        Ok(())
    }
}

wire_struct! {
    /// Hard constraints every candidate design must satisfy.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct OptimizeConstraints {
        /// Required platform clock, Hz (the paper's performance constraint).
        pub frequency_hz: f64,
        /// FIT budget per transaction (Table 2 uses 1e-15).
        pub fit_target: f64 = 1e-15,
        /// Minimum word count (data capacity floor), if any.
        pub min_words: Option<u32> = None,
    }
}

impl Check for OptimizeConstraints {
    fn check(&self) -> Result<(), NtcError> {
        positive("frequency_hz", self.frequency_hz)?;
        fit_target(self.fit_target)?;
        match self.min_words {
            Some(0) => invalid("min_words", "must be at least 1, got 0"),
            _ => Ok(()),
        }
    }
}

wire_struct! {
    /// The VDD axis: a bracketed interval plus the quantization grid.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct VddRange {
        /// Lower bound, volts.
        pub lo: f64 = 0.2,
        /// Upper bound, volts.
        pub hi: f64 = 1.2,
        /// `paper` snaps candidates to the 110 mV grid; `exact` refines
        /// continuously by golden section.
        pub grid: VoltageGrid = VoltageGrid::PaperGrid,
    }
}

impl Check for VddRange {
    fn check(&self) -> Result<(), NtcError> {
        let (lo, hi) = (self.lo, self.hi);
        if lo > 0.0 && hi >= lo && hi <= 2.0 {
            Ok(())
        } else {
            invalid(
                "vdd",
                format!("need 0 < lo <= hi <= 2.0 V, got [{lo}, {hi}]"),
            )
        }
    }
}

wire_struct! {
    /// Candidate sets per discrete axis. Lists are canonicalized (sorted,
    /// deduplicated) at parse time, so enumeration order never matters.
    /// The defaults are the paper's space: the Fig. 1/Table 2 cell
    /// families, the banking ablation's bank axis, scratchpad-scale word
    /// counts, all three schemes, and the 110 mV voltage grid.
    #[derive(Debug, Clone, PartialEq)]
    pub struct DesignSpaceSpec {
        /// Bank counts (powers of two).
        pub banks: Vec<u32> = vec![1, 2, 4, 8, 16, 32],
        /// Word counts.
        pub words: Vec<u32> = vec![512, 1024, 2048, 4096, 8192],
        /// Cell families (40 nm card).
        pub cells: Vec<CellStyle> = vec![
            CellStyle::CellBasedAoi,
            CellStyle::Commercial6T,
            CellStyle::Custom6T,
        ],
        /// Mitigation schemes.
        pub schemes: Vec<Scheme> = Scheme::ALL.to_vec(),
        /// Supply voltage axis.
        pub vdd: VddRange = defaults(),
    }
}

impl Check for DesignSpaceSpec {
    fn canonicalize(&mut self) {
        self.banks.sort_unstable();
        self.banks.dedup();
        self.words.sort_unstable();
        self.words.dedup();
        self.cells.sort_by_key(|c| c.wire_name());
        self.cells.dedup();
        self.schemes
            .sort_by_key(|s| Scheme::ALL.iter().position(|x| x == s));
        self.schemes.dedup();
    }

    /// Every axis holds 1..=64 candidates; banks and words lie in
    /// 1..=2^24 and banks are powers of two; cells are 40 nm families.
    fn check(&self) -> Result<(), NtcError> {
        let (banks, words) = (&self.banks, &self.words);
        let lens = [
            banks.len(),
            words.len(),
            self.cells.len(),
            self.schemes.len(),
        ];
        for (axis, len) in ["banks", "words", "cells", "schemes"].into_iter().zip(lens) {
            if len > MAX_AXIS {
                return invalid(
                    axis,
                    format!("at most {MAX_AXIS} candidates per axis, got {len}"),
                );
            }
        }
        if lens.contains(&0) {
            return invalid("space", "every axis needs at least one candidate");
        }
        for (axis, values) in [("banks", banks), ("words", words)] {
            if let Some(n) = values.iter().find(|&&n| n == 0 || n > 1 << 24) {
                return invalid(axis, format!("must be in 1..=2^24, got {n}"));
            }
        }
        if let Some(b) = banks.iter().find(|b| !b.is_power_of_two()) {
            return invalid(
                "banks",
                format!("bank counts must be powers of two, got {b}"),
            );
        }
        if self.cells.contains(&CellStyle::CellBasedLatch65) {
            let why = "cell_based_latch_65 is a 65 nm family; the optimizer runs on the 40 nm card";
            return invalid("cells", why);
        }
        Ok(())
    }
}

wire_struct! {
    /// `POST /v1/optimize` body: a constrained design-space search. Its
    /// compact rendering, once canonicalized, is the memoization key
    /// preimage.
    #[derive(Debug, Clone, PartialEq)]
    pub struct OptimizeRequest {
        /// Objective weights.
        pub objective: ObjectiveWeights = defaults(),
        /// Hard constraints.
        pub constraints: OptimizeConstraints,
        /// The candidate space.
        pub space: DesignSpaceSpec = defaults(),
        /// Root seed for the optimizer restarts.
        pub seed: u64 = 2014,
        /// Restart count (1..=64).
        pub restarts: u32 = 8,
    }
}

impl Check for OptimizeRequest {
    fn canonicalize(&mut self) {
        self.space.canonicalize();
    }

    fn check(&self) -> Result<(), NtcError> {
        match self.restarts {
            1..=64 => Ok(()),
            n => invalid("restarts", format!("must be in 1..=64, got {n}")),
        }
    }
}

impl OptimizeRequest {
    /// The paper constraint set at one clock: paper design space,
    /// energy-only objective, 1e-15 FIT, 8 KB capacity floor.
    pub fn paper(frequency_hz: f64) -> Self {
        Self {
            objective: defaults(),
            constraints: OptimizeConstraints {
                frequency_hz,
                fit_target: 1e-15,
                min_words: Some(2048),
            },
            space: defaults(),
            seed: 2014,
            restarts: 8,
        }
    }

    /// Sorts and deduplicates every axis candidate list. `from_json_value`
    /// does this automatically; callers constructing requests in code
    /// should call it before hashing.
    pub fn canonicalize(&mut self) {
        Check::canonicalize(self);
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

wire_struct! {
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
}

wire_struct! {
    /// Convergence record of an optimize run.
    #[derive(Debug, Clone, PartialEq)]
    pub struct OptimizeConvergence {
        /// Restarts run.
        pub restarts: u32,
        /// Total coordinate sweeps.
        pub sweeps: u64,
        /// Total objective evaluations.
        pub evaluations: u64,
        /// Best objective per restart, in restart order (`None`, written
        /// `null`, for a restart that found no feasible design).
        pub best_per_restart: Vec<Option<f64>>,
    }
}

wire_struct! {
    /// `POST /v1/optimize` response; `to_json` gives the exact bytes the
    /// endpoint returns and `repro optimize --out` writes.
    #[derive(Debug, Clone, PartialEq)]
    pub struct OptimizeResponse {
        const schema = "ntc.optimize.v1";
        /// Hex FNV-64 of the canonical request — the memoization key.
        pub request_hash: String,
        /// Whether any candidate satisfied the constraints.
        pub feasible: bool,
        /// The winning design (`null` when infeasible).
        pub best: Option<BestDesign>,
        /// How the search converged.
        pub convergence: OptimizeConvergence,
    }
}

// DTOs whose field types state all their rules.
impl Check for ErrorBody {}
impl Check for ErrorDetail {}
impl Check for RunRequest {}
impl Check for QueryRequest {}
impl Check for QueryResponse {}
impl Check for QueryResult {}
impl Check for BestDesign {}
impl Check for OptimizeConvergence {}
impl Check for OptimizeResponse {}

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
#[rustfmt::skip]
pub const ENDPOINTS: &[EndpointSpec] = &[
    get("/v1/api", "ApiSchema", "this machine-readable endpoint/DTO listing"),
    get("/v1/healthz", "Health", "liveness, worker count, store version"),
    get("/v1/metrics", "Metrics", "observability snapshot (json or ?format=prom)"),
    get("/v1/progress", "Progress", "in-process sweep progress plus store fleet view"),
    get("/v1/experiments", "ExperimentList", "the registry: ids, descriptions, paper refs"),
    get("/v1/artifact/{id}", "Artifact", "one experiment artifact (?scale=quick|paper&seed=N)"),
    post("/v1/run", "RunRequest", "RunReply", "run an experiment, memoized by (id, scale, seed)"),
    post("/v1/query", "QueryRequest", "QueryResponse",
         "ber/vmin/energy point lookups, single or batched"),
    post("/v1/optimize", "OptimizeRequest", "OptimizeResponse",
         "design-space autotuner, memoized by request hash"),
];

/// A `GET` route: no request body.
const fn get(
    path: &'static str,
    response: &'static str,
    description: &'static str,
) -> EndpointSpec {
    EndpointSpec {
        method: "GET",
        path,
        request: None,
        response,
        description,
    }
}

/// A `POST` route taking a `request` body.
const fn post(
    path: &'static str,
    request: &'static str,
    response: &'static str,
    description: &'static str,
) -> EndpointSpec {
    EndpointSpec {
        method: "POST",
        path,
        request: Some(request),
        response,
        description,
    }
}

/// The `dtos` entry of one DTO: its field rows, or, for a DTO holding a
/// tagged union, an object of row lists keyed by the union's tag.
fn dto<T: Wire>() -> (String, JsonValue) {
    let name = std::any::type_name::<T>()
        .rsplit("::")
        .next()
        .unwrap_or_default();
    let mut schema = Schema {
        variants: vec![(String::new(), Vec::new())],
    };
    T::schema_member("", true, &mut schema);
    let entry = match schema.variants.as_slice() {
        [(path, rows)] if path.is_empty() => JsonValue::Arr(rows.clone()),
        variants => JsonValue::Obj(
            variants
                .iter()
                .map(|(path, rows)| (path.clone(), JsonValue::Arr(rows.clone())))
                .collect(),
        ),
    };
    (name.to_string(), entry)
}

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
                    e.request
                        .map_or(JsonValue::Null, |r| JsonValue::Str(r.into())),
                ),
                ("response".into(), JsonValue::Str(e.response.into())),
                ("description".into(), JsonValue::Str(e.description.into())),
            ])
        })
        .collect();
    let dtos = vec![
        dto::<ErrorBody>(),
        dto::<RunRequest>(),
        dto::<QueryRequest>(),
        dto::<QueryResponse>(),
        dto::<OptimizeRequest>(),
        dto::<OptimizeResponse>(),
    ];
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
                QueryResponse {
                    id: d.id(),
                    result: QueryResult::Ber {
                        law: d.pick(&[LawKind::Access, LawKind::Retention]),
                        memory: d.pick(&[Memory::Commercial40, Memory::CellBased40, Memory::CellBased65]),
                        vdd: d.num(),
                        p_bit: d.num(),
                    },
                },
                QueryResponse {
                    id: d.id(),
                    result: QueryResult::Vmin {
                        scheme: d.pick(&Scheme::ALL),
                        memory: d.pick(&[Memory::Commercial40, Memory::CellBased40]),
                        fit_target: d.num(),
                        max_p_bit: d.num(),
                        frequency_hz: d.maybe_num(),
                        error_constrained: d.num(),
                        performance_constrained: d.maybe_num(),
                        operating: d.num(),
                    },
                },
                QueryResponse {
                    id: d.id(),
                    result: QueryResult::Energy {
                        model: d.pick(&[EnergyModel::Cots40, EnergyModel::CellBased40]),
                        vdd: d.num(),
                        f_max_hz: d.num(),
                        energy_per_cycle_j: d.num(),
                        total_j: d.num(),
                        dynamic_j: d.num(),
                        leakage_j: d.num(),
                        power_w: d.num(),
                    },
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
        let r = QueryResponse {
            id: Some("a\"b".into()),
            result: QueryResult::Vmin {
                scheme: Scheme::Ocean,
                memory: Memory::CellBased40,
                fit_target: 1e-15,
                max_p_bit: f64::NAN,
                frequency_hz: None,
                error_constrained: f64::INFINITY,
                performance_constrained: None,
                operating: -0.0,
            },
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
        let req = OptimizeRequest::from_json(r#"{"constraints":{"frequency_hz":290e3}}"#).unwrap();
        assert_eq!(req.space, OptimizeRequest::paper(290e3).space);
        assert_eq!(req.seed, 2014);
        assert_eq!(req.restarts, 8);
        assert_eq!(req.constraints.fit_target, 1e-15);
        assert_eq!(
            req.objective,
            ObjectiveWeights {
                energy: 1.0,
                delay: 0.0,
                area: 0.0
            }
        );
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
            (
                r#"{"constraints":{"frequency_hz":290e3,"fit_target":2}}"#,
                "(0, 1)",
            ),
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
            (
                r#"{"constraints":{"frequency_hz":290e3},"restarts":0}"#,
                "1..=64",
            ),
        ] {
            let err = OptimizeRequest::from_json(text).unwrap_err();
            assert!(err.to_string().contains(needle), "{text}: {err}");
        }
    }

    fn sample_response(best: Option<BestDesign>) -> OptimizeResponse {
        OptimizeResponse {
            request_hash: "00ff00ff00ff00ff".into(),
            feasible: best.is_some(),
            best,
            convergence: OptimizeConvergence {
                restarts: 8,
                sweeps: 24,
                evaluations: 900,
                best_per_restart: vec![Some(4.5), None, Some(4.5)],
            },
        }
    }

    fn sample_best() -> BestDesign {
        BestDesign {
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
        }
    }

    #[test]
    fn optimize_response_round_trips() {
        for resp in [sample_response(Some(sample_best())), sample_response(None)] {
            let back = OptimizeResponse::from_json(&resp.to_json()).unwrap();
            assert_eq!(resp, back);
        }
        // The schema tag leads, an infeasible run writes `best` and each
        // infeasible restart as `null`.
        assert_eq!(
            sample_response(None).to_json(),
            r#"{"schema":"ntc.optimize.v1","request_hash":"00ff00ff00ff00ff","feasible":false,"best":null,"convergence":{"restarts":8,"sweeps":24,"evaluations":900,"best_per_restart":[4.5,null,4.5]}}"#
        );
    }

    /// Every DTO's `dtos` entry: a row list, or one per union variant.
    fn listed(name: &str) -> Vec<(String, Vec<JsonValue>)> {
        let schema = api_schema();
        match schema.get("dtos").and_then(|d| d.get(name)) {
            Some(JsonValue::Arr(rows)) => vec![(String::new(), rows.clone())],
            Some(JsonValue::Obj(variants)) => variants
                .iter()
                .map(|(tag, rows)| (tag.clone(), rows.as_arr().expect("row list").to_vec()))
                .collect(),
            other => panic!("{name}: no dtos entry ({other:?})"),
        }
    }

    #[test]
    fn endpoint_table_is_consistent() {
        // Every path is versioned, and every DTO an endpoint names as a
        // request body is listed.
        for e in ENDPOINTS {
            if let Some(req) = e.request {
                assert!(!listed(req).is_empty(), "missing DTO {req}");
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

    fn row_str<'a>(row: &'a JsonValue, key: &str) -> &'a str {
        row.get(key).and_then(JsonValue::as_str).expect("row field")
    }

    fn row_required(row: &JsonValue) -> bool {
        matches!(row.get("required"), Some(JsonValue::Bool(true)))
    }

    #[test]
    fn api_lists_one_row_list_per_union_variant() {
        for dto in ["QueryRequest", "QueryResponse"] {
            let variants = listed(dto);
            let tags: Vec<&str> = variants.iter().map(|(tag, _)| tag.as_str()).collect();
            assert_eq!(tags, ["ber", "vmin", "energy"], "{dto}");
            for (tag, rows) in &variants {
                let names: Vec<&str> = rows.iter().map(|r| row_str(r, "name")).collect();
                // The enclosing object's `id`, then the variant's tag.
                assert_eq!(names[..2], ["id", "kind"], "{dto}.{tag}");
                assert!(!row_required(&rows[0]), "{dto}.{tag}: id is optional");
                assert_eq!(row_str(&rows[1], "type"), format!("\"{tag}\""));
                assert!(row_required(&rows[1]));
                let mut unique = names.clone();
                unique.sort_unstable();
                unique.dedup();
                assert_eq!(unique.len(), names.len(), "{dto}.{tag}: {names:?}");
            }
        }
        // `required` is set per variant.
        let request = listed("QueryRequest");
        let required = |tag: &str, name: &str| {
            let (_, rows) = request.iter().find(|(t, _)| t == tag).unwrap();
            row_required(rows.iter().find(|r| row_str(r, "name") == name).unwrap())
        };
        assert!(required("ber", "memory"));
        assert!(!required("vmin", "memory"));
        assert!(required("vmin", "scheme"));
        assert!(required("energy", "vdd"));
        assert!(!required("energy", "frequency_hz"));
        // The response's schema tag is listed first, as a required constant.
        let (_, rows) = &listed("OptimizeResponse")[0];
        assert_eq!(row_str(&rows[0], "name"), "schema");
        assert_eq!(row_str(&rows[0], "type"), "\"ntc.optimize.v1\"");
        assert!(row_required(&rows[0]));
    }

    /// Removes the member at dotted `path`; whether it was there.
    fn remove_path(v: &mut JsonValue, path: &str) -> bool {
        let (head, rest) = path
            .split_once('.')
            .map_or((path, None), |(h, r)| (h, Some(r)));
        let JsonValue::Obj(fields) = v else {
            return false;
        };
        match rest {
            None => {
                let before = fields.len();
                fields.retain(|(k, _)| k != head);
                fields.len() < before
            }
            Some(rest) => fields
                .iter_mut()
                .find(|(k, _)| k == head)
                .is_some_and(|(_, inner)| remove_path(inner, rest)),
        }
    }

    /// Removing a member the schema lists as required fails the decode
    /// with `missing_field` naming it; removing any other still decodes.
    fn assert_schema_matches_decoder(
        dto: &str,
        samples: &[(&str, String)],
        decode: fn(&JsonValue) -> Result<(), NtcError>,
    ) {
        for (tag, rows) in listed(dto) {
            let (_, sample) = samples
                .iter()
                .find(|(t, _)| *t == tag)
                .unwrap_or_else(|| panic!("{dto}: no sample for `{tag}`"));
            let full = parse(sample).unwrap();
            decode(&full).unwrap_or_else(|e| panic!("{dto}.{tag} sample: {e}"));
            for row in &rows {
                let name = row_str(row, "name");
                let mut v = full.clone();
                assert!(
                    remove_path(&mut v, name),
                    "{dto}.{tag}: sample lacks `{name}`"
                );
                let got = decode(&v);
                if row_required(row) {
                    let leaf = name.rsplit('.').next().unwrap();
                    assert_eq!(
                        got,
                        Err(NtcError::missing_field(leaf)),
                        "{dto}.{tag} without `{name}`"
                    );
                } else {
                    assert_eq!(got, Ok(()), "{dto}.{tag} without `{name}`");
                }
            }
        }
    }

    #[test]
    fn schema_required_flags_match_the_decoder() {
        assert_schema_matches_decoder(
            "ErrorBody",
            &[("", ErrorBody::new("io", "disk full").to_json())],
            |v| ErrorBody::from_json_value(v).map(drop),
        );
        assert_schema_matches_decoder(
            "RunRequest",
            &[("", r#"{"id":"fig6","scale":"paper","seed":7}"#.into())],
            |v| RunRequest::from_json_value(v).map(drop),
        );
        assert_schema_matches_decoder(
            "QueryRequest",
            &[
                ("ber", r#"{"id":"a","kind":"ber","law":"access","memory":"commercial_40nm","vdd":0.4}"#.into()),
                (
                    "vmin",
                    r#"{"id":"a","kind":"vmin","scheme":"ocean","memory":"commercial_40nm","fit_target":1e-12,"frequency_hz":290e3,"grid":"exact"}"#.into(),
                ),
                ("energy", r#"{"id":"a","kind":"energy","model":"cots_40nm","vdd":0.5,"frequency_hz":1e5}"#.into()),
            ],
            |v| QueryRequest::from_json_value(v).map(drop),
        );
        let response = |result| {
            QueryResponse {
                id: Some("a".into()),
                result,
            }
            .to_json()
        };
        assert_schema_matches_decoder(
            "QueryResponse",
            &[
                (
                    "ber",
                    response(QueryResult::Ber {
                        law: LawKind::Retention,
                        memory: Memory::CellBased65,
                        vdd: 0.3,
                        p_bit: 1e-6,
                    }),
                ),
                (
                    "vmin",
                    response(QueryResult::Vmin {
                        scheme: Scheme::Secded,
                        memory: Memory::CellBased40,
                        fit_target: 1e-15,
                        max_p_bit: 1e-7,
                        frequency_hz: Some(290e3),
                        error_constrained: 0.33,
                        performance_constrained: Some(0.34),
                        operating: 0.44,
                    }),
                ),
                (
                    "energy",
                    response(QueryResult::Energy {
                        model: EnergyModel::CellBased40,
                        vdd: 0.5,
                        f_max_hz: 1e6,
                        energy_per_cycle_j: 1e-11,
                        total_j: 1e-11,
                        dynamic_j: 5e-12,
                        leakage_j: 5e-12,
                        power_w: 1e-5,
                    }),
                ),
            ],
            |v| QueryResponse::from_json_value(v).map(drop),
        );
        assert_schema_matches_decoder(
            "OptimizeRequest",
            &[("", OptimizeRequest::paper(290e3).to_json())],
            |v| OptimizeRequest::from_json_value(v).map(drop),
        );
        assert_schema_matches_decoder(
            "OptimizeResponse",
            &[("", sample_response(Some(sample_best())).to_json())],
            |v| OptimizeResponse::from_json_value(v).map(drop),
        );
    }

    #[test]
    fn every_decode_rule_applies_to_every_field() {
        // `null` reads as absent: a default where there is one, …
        let q = QueryRequest::from_json(r#"{"kind":"vmin","scheme":"ocean","memory":null}"#);
        assert_eq!(
            q.map(|q| q.kind),
            QueryRequest::from_json(r#"{"kind":"vmin","scheme":"ocean"}"#).map(|q| q.kind)
        );
        // … `missing_field` where there is none, …
        assert_eq!(
            QueryRequest::from_json(r#"{"kind":null}"#),
            Err(NtcError::missing_field("kind"))
        );
        // … and a wrong type is an `invalid_param` naming the field, at
        // any depth.
        let err = OptimizeRequest::from_json(
            r#"{"constraints":{"frequency_hz":290e3},"space":{"vdd":{"grid":7}}}"#,
        )
        .unwrap_err();
        assert!(
            matches!(&err, NtcError::InvalidParam { param, .. } if param == "grid"),
            "{err}"
        );
    }

    #[test]
    fn fnv64_matches_reference_vectors() {
        // Published FNV-1a test vectors.
        assert_eq!(fnv64(b""), 0xcbf29ce484222325);
        assert_eq!(fnv64(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv64(b"foobar"), 0x85944171f73967e8);
    }
}
