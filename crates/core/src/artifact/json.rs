//! A minimal deterministic JSON tree: writer and recursive-descent parser.
//!
//! The build environment has no registry access, so there is no serde and
//! the artifact layer carries its own byte format. Design constraints, in order:
//!
//! 1. **Determinism.** Objects are ordered vectors, not hash maps — the
//!    writer emits keys in insertion order, every time. Numbers are
//!    printed with Rust's shortest round-trip `Display` for `f64`, which
//!    is a pure function of the bit pattern. Equal values in, equal bytes
//!    out.
//! 2. **Losslessness.** Shortest round-trip formatting parses back to the
//!    bit-identical `f64`. Non-finite values (not representable in JSON
//!    numbers) are encoded as the strings `"NaN"`, `"inf"`, `"-inf"` by
//!    [`JsonValue::num`] and folded back by [`JsonValue::as_num`].
//! 3. **Smallness.** Only what the artifact schema needs: no comments, no
//!    trailing commas, UTF-8 strings with the mandatory escapes.

use std::fmt::{self, Write as _};

/// A parsed or constructed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A finite number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Encodes an `f64`, mapping non-finite values to marker strings so
    /// every value survives the trip through JSON.
    pub fn num(v: f64) -> JsonValue {
        match non_finite_marker(v) {
            None => JsonValue::Num(v),
            Some(marker) => JsonValue::Str(marker.to_string()),
        }
    }

    /// The numeric value, folding the non-finite marker strings back.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            JsonValue::Num(v) => Some(*v),
            JsonValue::Str(s) => match s.as_str() {
                "NaN" => Some(f64::NAN),
                "inf" => Some(f64::INFINITY),
                "-inf" => Some(f64::NEG_INFINITY),
                _ => None,
            },
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The value under `key`, if this is an object containing it.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(fields) => {
                fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
            }
            _ => None,
        }
    }

    /// Writes the value with two-space indentation at the given depth.
    pub(crate) fn write_pretty(&self, out: &mut String, depth: usize) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Num(v) => {
                debug_assert!(v.is_finite(), "use JsonValue::num for non-finite values");
                write!(out, "{v}").expect("writing to a String cannot fail");
            }
            JsonValue::Str(s) => write_str(out, s),
            JsonValue::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                // Arrays of scalars stay on one line; nested structures
                // get one element per line.
                let flat = items
                    .iter()
                    .all(|i| matches!(i, JsonValue::Num(_) | JsonValue::Str(_) | JsonValue::Null | JsonValue::Bool(_)))
                    || items.iter().all(|i| matches!(i, JsonValue::Arr(a) if a.len() <= 4));
                if flat {
                    out.push('[');
                    for (i, item) in items.iter().enumerate() {
                        if i > 0 {
                            out.push_str(", ");
                        }
                        item.write_compact(out);
                    }
                    out.push(']');
                } else {
                    out.push_str("[\n");
                    for (i, item) in items.iter().enumerate() {
                        indent(out, depth + 1);
                        item.write_pretty(out, depth + 1);
                        if i + 1 < items.len() {
                            out.push(',');
                        }
                        out.push('\n');
                    }
                    indent(out, depth);
                    out.push(']');
                }
            }
            JsonValue::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push_str("{\n");
                for (i, (k, v)) in fields.iter().enumerate() {
                    indent(out, depth + 1);
                    write_str(out, k);
                    out.push_str(": ");
                    v.write_pretty(out, depth + 1);
                    if i + 1 < fields.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                indent(out, depth);
                out.push('}');
            }
        }
    }

    /// Writes the value with no whitespace.
    pub fn write_compact(&self, out: &mut String) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Num(v) => write!(out, "{v}").expect("writing to a String cannot fail"),
            JsonValue::Str(s) => write_str(out, s),
            JsonValue::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_compact(out);
                }
                out.push(']');
            }
            JsonValue::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(out, k);
                    out.push(':');
                    v.write_compact(out);
                }
                out.push('}');
            }
        }
    }
}

impl fmt::Display for JsonValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut s = String::new();
        self.write_pretty(&mut s, 0);
        f.write_str(&s)
    }
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

/// The marker string [`JsonValue::num`] encodes a non-finite value as,
/// or `None` for a finite one.
fn non_finite_marker(v: f64) -> Option<&'static str> {
    if v.is_finite() {
        None
    } else if v.is_nan() {
        Some("NaN")
    } else if v > 0.0 {
        Some("inf")
    } else {
        Some("-inf")
    }
}

/// Writes `v` exactly as `JsonValue::num(v).write_compact` would: the
/// shortest round-trip number, or its non-finite marker string. For
/// encoders that stream into a buffer without building a tree.
pub(crate) fn write_num(out: &mut String, v: f64) {
    match non_finite_marker(v) {
        None => write!(out, "{v}").expect("writing to a String cannot fail"),
        Some(marker) => write_str(out, marker),
    }
}

/// Writes `s` as a quoted JSON string with the mandatory escapes, the
/// bytes `JsonValue::Str(s)` is written as.
pub(crate) fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                write!(out, "\\u{:04x}", c as u32).expect("writing to a String cannot fail");
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// `s` as a quoted JSON string: the bytes `write_str` writes, for
/// encoders that format a document around it.
pub fn quoted(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    write_str(&mut out, s);
    out
}

/// A parse or schema error, with the byte offset where parsing stopped.
#[derive(Debug, Clone, PartialEq)]
pub struct JsonError {
    /// What went wrong.
    pub message: String,
    /// Byte offset into the input (0 for schema errors).
    pub offset: usize,
}

impl JsonError {
    /// A schema-level error (structure parsed, content unexpected).
    pub(crate) fn schema(what: &str) -> Self {
        Self { message: format!("schema: {what}"), offset: 0 }
    }

    /// A schema-level error with an owned message.
    pub(crate) fn schema_owned(message: String) -> Self {
        Self { message: format!("schema: {message}"), offset: 0 }
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for JsonError {}

/// The deepest array/object nesting [`parse`] accepts. The deepest
/// committed document, a `baselines/quick` artifact, nests 6 levels, and
/// provenance sidecars and optimize responses nest 3; 128 leaves a wide
/// margin while keeping the recursion far inside a worker thread's stack.
const MAX_DEPTH: usize = 128;

/// Parses a JSON document.
pub fn parse(text: &str) -> Result<JsonValue, JsonError> {
    let bytes = text.as_bytes();
    let mut pos = 0;
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(err("trailing content", pos));
    }
    Ok(value)
}

fn err(message: &str, offset: usize) -> JsonError {
    JsonError { message: message.to_string(), offset }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, c: u8) -> Result<(), JsonError> {
    if *pos < bytes.len() && bytes[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(err("unexpected character", *pos))
    }
}

/// Parses the value at `pos`, `depth` containers deep.
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<JsonValue, JsonError> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err(err("unexpected end of input", *pos)),
        Some(b'{' | b'[') if depth == MAX_DEPTH => Err(err("nesting too deep", *pos)),
        Some(b'{') => parse_object(bytes, pos, depth + 1),
        Some(b'[') => parse_array(bytes, pos, depth + 1),
        Some(b'"') => Ok(JsonValue::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_lit(bytes, pos, "true", JsonValue::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, "false", JsonValue::Bool(false)),
        Some(b'n') => parse_lit(bytes, pos, "null", JsonValue::Null),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_lit(
    bytes: &[u8],
    pos: &mut usize,
    lit: &str,
    value: JsonValue,
) -> Result<JsonValue, JsonError> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(err("invalid literal", *pos))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, JsonError> {
    let start = *pos;
    if matches!(bytes.get(*pos), Some(b'-')) {
        *pos += 1;
    }
    while matches!(
        bytes.get(*pos),
        Some(b'0'..=b'9') | Some(b'.') | Some(b'e') | Some(b'E') | Some(b'+') | Some(b'-')
    ) {
        *pos += 1;
    }
    if *pos == start {
        return Err(err("expected a value", start));
    }
    std::str::from_utf8(&bytes[start..*pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .map(JsonValue::Num)
        .ok_or_else(|| err("malformed number", start))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, JsonError> {
    expect(bytes, pos, b'"')?;
    let start = *pos;
    let Some(n) = bytes[start..]
        .iter()
        .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
    else {
        return Err(err("unterminated string", bytes.len()));
    };
    let run = &bytes[start..start + n];
    *pos = start + n;
    if bytes[*pos] < 0x20 {
        return Err(err("control character in string", *pos));
    }
    if bytes[*pos] == b'"' {
        // No escape before the closing quote: copy the run once.
        *pos += 1;
        return std::str::from_utf8(run)
            .map(str::to_owned)
            .map_err(|_| err("invalid UTF-8", *pos));
    }
    let mut out = Vec::with_capacity(n + 16);
    out.extend_from_slice(run);
    loop {
        match bytes.get(*pos) {
            None => return Err(err("unterminated string", *pos)),
            Some(b'"') => {
                *pos += 1;
                return String::from_utf8(out).map_err(|_| err("invalid UTF-8", *pos));
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push(b'"'),
                    Some(b'\\') => out.push(b'\\'),
                    Some(b'/') => out.push(b'/'),
                    Some(b'n') => out.push(b'\n'),
                    Some(b'r') => out.push(b'\r'),
                    Some(b't') => out.push(b'\t'),
                    Some(b'b') => out.push(0x08),
                    Some(b'f') => out.push(0x0c),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .and_then(|h| u32::from_str_radix(h, 16).ok())
                            .ok_or_else(|| err("bad \\u escape", *pos))?;
                        // The writer only emits \u for control characters
                        // (< 0x20); surrogate pairs are never produced.
                        let c = char::from_u32(hex).ok_or_else(|| err("bad \\u escape", *pos))?;
                        let mut buf = [0u8; 4];
                        out.extend_from_slice(c.encode_utf8(&mut buf).as_bytes());
                        *pos += 4;
                    }
                    _ => return Err(err("bad escape", *pos)),
                }
                *pos += 1;
            }
            Some(&b) if b < 0x20 => return Err(err("control character in string", *pos)),
            Some(&b) => {
                out.push(b);
                *pos += 1;
            }
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<JsonValue, JsonError> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if matches!(bytes.get(*pos), Some(b']')) {
        *pos += 1;
        return Ok(JsonValue::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos, depth)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => {
                *pos += 1;
            }
            Some(b']') => {
                *pos += 1;
                return Ok(JsonValue::Arr(items));
            }
            _ => return Err(err("expected , or ]", *pos)),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<JsonValue, JsonError> {
    expect(bytes, pos, b'{')?;
    let mut fields = Vec::new();
    skip_ws(bytes, pos);
    if matches!(bytes.get(*pos), Some(b'}')) {
        *pos += 1;
        return Ok(JsonValue::Obj(fields));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        let value = parse_value(bytes, pos, depth)?;
        fields.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => {
                *pos += 1;
            }
            Some(b'}') => {
                *pos += 1;
                return Ok(JsonValue::Obj(fields));
            }
            _ => return Err(err("expected , or }", *pos)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(v: &JsonValue) -> JsonValue {
        let mut s = String::new();
        v.write_pretty(&mut s, 0);
        parse(&s).expect("round trip parses")
    }

    #[test]
    fn scalars_round_trip() {
        for v in [
            JsonValue::Null,
            JsonValue::Bool(true),
            JsonValue::Bool(false),
            JsonValue::Num(0.0),
            JsonValue::Num(-0.55),
            JsonValue::Num(1e-15),
            JsonValue::Num(1.0000000000000002),
            JsonValue::Str("he said \"µW\"\n".to_string()),
            JsonValue::Str("bell\u{7}\u{1f}".to_string()),
            // Escapes at the start, middle and end of a string, around
            // runs the parser copies in one piece.
            JsonValue::Str("\"leading quote".to_string()),
            JsonValue::Str("mid\\dle µ/ tab\there".to_string()),
            JsonValue::Str("trailing newline\n".to_string()),
            JsonValue::Str("\u{1}".to_string()),
            JsonValue::Str(String::new()),
        ] {
            assert_eq!(round_trip(&v), v);
        }
    }

    #[test]
    fn shortest_round_trip_is_bit_exact() {
        for bits in [0x3FE5555555555555u64, 0x3FF0000000000001, 0x0010000000000000] {
            let v = f64::from_bits(bits);
            let JsonValue::Num(back) = round_trip(&JsonValue::Num(v)) else {
                panic!("number expected");
            };
            assert_eq!(back.to_bits(), bits);
        }
    }

    #[test]
    fn non_finite_goes_through_markers() {
        assert_eq!(JsonValue::num(f64::INFINITY).as_num(), Some(f64::INFINITY));
        assert_eq!(JsonValue::num(f64::NEG_INFINITY).as_num(), Some(f64::NEG_INFINITY));
        assert!(JsonValue::num(f64::NAN).as_num().unwrap().is_nan());
        assert_eq!(JsonValue::num(1.5), JsonValue::Num(1.5));
    }

    #[test]
    fn nested_structures_round_trip() {
        let v = JsonValue::Obj(vec![
            ("a".to_string(), JsonValue::Arr(vec![JsonValue::Num(1.0), JsonValue::Num(2.5)])),
            (
                "b".to_string(),
                JsonValue::Obj(vec![("c".to_string(), JsonValue::Str("x".to_string()))]),
            ),
            ("empty_arr".to_string(), JsonValue::Arr(vec![])),
            ("empty_obj".to_string(), JsonValue::Obj(vec![])),
        ]);
        assert_eq!(round_trip(&v), v);
    }

    #[test]
    fn key_order_is_preserved() {
        let v = parse("{\"z\": 1, \"a\": 2}").unwrap();
        let JsonValue::Obj(fields) = &v else { panic!() };
        assert_eq!(fields[0].0, "z");
        assert_eq!(fields[1].0, "a");
        assert_eq!(v.get("z"), Some(&JsonValue::Num(1.0)));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn writer_is_deterministic() {
        let v = JsonValue::Obj(vec![(
            "points".to_string(),
            JsonValue::Arr(vec![
                JsonValue::Arr(vec![JsonValue::Num(0.4), JsonValue::Num(1e-3)]),
                JsonValue::Arr(vec![JsonValue::Num(0.5), JsonValue::Num(2e-6)]),
            ]),
        )]);
        let mut a = String::new();
        let mut b = String::new();
        v.write_pretty(&mut a, 0);
        v.write_pretty(&mut b, 0);
        assert_eq!(a, b);
    }

    #[test]
    fn parse_errors_carry_offsets() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("\"abc").is_err());
        assert!(parse("123 456").is_err());
        assert!(parse("nulL").is_err());
        let e = parse("[1, x]").unwrap_err();
        assert!(e.offset > 0);
        assert!(!e.to_string().is_empty());

        // String and nesting errors: the message and the exact byte offset.
        let long = format!("\"{}", "x".repeat(1000));
        let deep = "[".repeat(200_000);
        let deep_obj = "{\"k\":".repeat(MAX_DEPTH + 1);
        for (text, message, offset) in [
            ("\"abc", "unterminated string", 4),
            (long.as_str(), "unterminated string", 1001),
            ("\"a\\nbc", "unterminated string", 6),
            ("\"a\\", "bad escape", 3),
            ("\"\\q\"", "bad escape", 2),
            ("\"ab\\q\"", "bad escape", 4),
            ("\"ab\\n\\u12\"", "bad \\u escape", 6),
            ("{\"k\\x\":1}", "bad escape", 4),
            ("\"a\u{1}b\"", "control character in string", 2),
            ("\"a\\n\u{1f}\"", "control character in string", 4),
            ("\"a\nb\"", "control character in string", 2),
            ("{\"k\u{0}\":1}", "control character in string", 3),
            (deep.as_str(), "nesting too deep", MAX_DEPTH),
            (deep_obj.as_str(), "nesting too deep", 5 * MAX_DEPTH),
        ] {
            let e = parse(text).unwrap_err();
            assert_eq!((e.message.as_str(), e.offset), (message, offset), "{text:?}");
        }
        let deepest = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&deepest).is_ok());
    }

    #[test]
    fn compact_writer_parses_back() {
        let v = JsonValue::Obj(vec![
            ("a".to_string(), JsonValue::Num(1.5)),
            ("b".to_string(), JsonValue::Str("x\"y".to_string())),
            ("c".to_string(), JsonValue::Arr(vec![JsonValue::Num(-2e-7), JsonValue::Null])),
            ("d".to_string(), JsonValue::Str("\u{1}".to_string())),
        ]);
        let mut s = String::new();
        v.write_compact(&mut s);
        assert_eq!(s, r#"{"a":1.5,"b":"x\"y","c":[-0.0000002,null],"d":"\u0001"}"#);
        assert_eq!(parse(&s).unwrap(), v);
    }
}
