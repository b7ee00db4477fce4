//! `NtcError` — the workspace-level error type of the public facade.
//!
//! Library layers below this crate keep their own narrow error enums
//! (`LawError`, `JsonError`, …); this type is what crosses the public
//! API boundary: the `repro` CLI renders it to stderr, and `ntc-serve`
//! maps it to structured JSON error responses. Every variant carries a
//! stable machine-readable [`NtcError::kind`] (snake_case, never
//! renamed once published) next to the human-readable `Display` text,
//! so programmatic consumers match on the kind and humans read the
//! message.

use std::fmt;

use crate::artifact::json::JsonError;
use crate::repro::ExperimentId;

/// The error type of the `ntc` public facade.
#[derive(Debug, Clone, PartialEq)]
pub enum NtcError {
    /// An experiment id did not resolve against the registry. The
    /// `Display` text enumerates every valid id so a typo is
    /// self-correcting at the call site (CLI stderr or HTTP body).
    UnknownExperiment {
        /// The id that failed to resolve.
        id: String,
    },
    /// A request or call carried a parameter outside its domain
    /// (negative tolerance, FIT target outside `(0, 1)`, …).
    InvalidParam {
        /// The offending parameter name.
        param: String,
        /// What was wrong with it.
        message: String,
    },
    /// A required field was absent from a structured request.
    MissingField {
        /// The absent field's name.
        field: String,
    },
    /// A request body failed to parse as JSON.
    MalformedJson {
        /// Parser message.
        message: String,
        /// Byte offset where parsing stopped.
        offset: usize,
    },
    /// A request named an operation the facade does not provide.
    Unsupported {
        /// Description of the unsupported operation.
        what: String,
    },
    /// An I/O failure, with the operation that failed.
    Io {
        /// What was being attempted.
        context: String,
        /// The OS-level message.
        message: String,
    },
}

impl NtcError {
    /// Stable machine-readable discriminant. These strings are part of
    /// the public API (JSON error payloads key off them): they are
    /// never renamed once published.
    pub fn kind(&self) -> &'static str {
        match self {
            NtcError::UnknownExperiment { .. } => "unknown_experiment",
            NtcError::InvalidParam { .. } => "invalid_param",
            NtcError::MissingField { .. } => "missing_field",
            NtcError::MalformedJson { .. } => "malformed_json",
            NtcError::Unsupported { .. } => "unsupported",
            NtcError::Io { .. } => "io",
        }
    }

    /// Shorthand for an [`NtcError::InvalidParam`].
    pub fn invalid_param(param: &str, message: impl Into<String>) -> Self {
        NtcError::InvalidParam { param: param.to_string(), message: message.into() }
    }

    /// Shorthand for an [`NtcError::MissingField`].
    pub(crate) fn missing_field(field: &str) -> Self {
        NtcError::MissingField { field: field.to_string() }
    }
}

impl fmt::Display for NtcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NtcError::UnknownExperiment { id } => {
                write!(f, "unknown experiment `{id}` — valid ids: ")?;
                for (i, valid) in ExperimentId::ALL.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{valid}")?;
                }
                Ok(())
            }
            NtcError::InvalidParam { param, message } => {
                write!(f, "invalid parameter `{param}`: {message}")
            }
            NtcError::MissingField { field } => write!(f, "missing field `{field}`"),
            NtcError::MalformedJson { message, offset } => {
                write!(f, "malformed JSON: {message} at byte {offset}")
            }
            NtcError::Unsupported { what } => write!(f, "unsupported: {what}"),
            NtcError::Io { context, message } => write!(f, "{context}: {message}"),
        }
    }
}

impl std::error::Error for NtcError {}

impl From<JsonError> for NtcError {
    fn from(e: JsonError) -> Self {
        NtcError::MalformedJson { message: e.message, offset: e.offset }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_experiment_lists_every_valid_id() {
        let text = NtcError::UnknownExperiment { id: "fig2".into() }.to_string();
        assert!(text.contains("`fig2`"));
        for id in ExperimentId::ALL {
            assert!(text.contains(id.as_str()), "{id} missing from {text}");
        }
    }

    #[test]
    fn kinds_are_stable_snake_case() {
        for (e, kind) in [
            (NtcError::UnknownExperiment { id: "x".into() }, "unknown_experiment"),
            (NtcError::invalid_param("vdd", "must be finite"), "invalid_param"),
            (NtcError::missing_field("kind"), "missing_field"),
            (NtcError::MalformedJson { message: "x".into(), offset: 3 }, "malformed_json"),
            (NtcError::Unsupported { what: "x".into() }, "unsupported"),
            (NtcError::Io { context: "bind".into(), message: "denied".into() }, "io"),
        ] {
            assert_eq!(e.kind(), kind);
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn json_error_converts_with_offset() {
        let e: NtcError = JsonError { message: "expected , or }".into(), offset: 17 }.into();
        assert_eq!(e.kind(), "malformed_json");
        assert!(e.to_string().contains("byte 17"));
    }
}
