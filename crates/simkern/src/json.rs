//! Dependency-free JSON values, serialization, and parsing.
//!
//! The workspace persists experiment artifacts as JSON (`results/*.json`)
//! and the engine's determinism guarantee is stated over those bytes —
//! two runs of the same `RunSpec` list must serialize identically at any
//! thread count. That guarantee is easiest to audit when the serializer
//! is small and in-tree, and it frees the tier-1 build from crates.io:
//!
//! * [`Json`] — a value tree whose objects preserve insertion order, so
//!   serialization is a pure function of construction order (no hash-map
//!   iteration nondeterminism);
//! * compact and pretty writers with shortest-round-trip float
//!   formatting (`f64`'s `Display`);
//! * a strict recursive-descent [`parse`] used by tests and tools to
//!   read artifacts back;
//! * [`ToJson`] — the conversion trait result types implement instead of
//!   external-derive serialization.
//!
//! Not a general-purpose JSON library: no borrowed strings, no streaming,
//! numbers are `i128`-or-`f64`. That is exactly enough for artifacts.

use std::fmt::Write as _;

/// A JSON value. Objects keep their insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer (serialized without a decimal point).
    Int(i128),
    /// A float. Non-finite values serialize as `null`, like serde_json.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

/// Converts a value into a [`Json`] tree.
pub trait ToJson {
    /// The JSON form of `self`.
    fn to_json(&self) -> Json;
}

impl Json {
    /// An empty object.
    pub fn object() -> Json {
        Json::Obj(Vec::new())
    }

    /// Appends `key: value` to an object; panics on other variants.
    pub fn push_field(&mut self, key: &str, value: impl Into<Json>) -> &mut Json {
        match self {
            Json::Obj(fields) => fields.push((key.to_string(), value.into())),
            other => panic!("push_field on non-object {other:?}"),
        }
        self
    }

    /// Builds an object from `(key, value)` pairs, preserving order.
    pub fn obj<const N: usize>(fields: [(&str, Json); N]) -> Json {
        Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Object field lookup (first match); `None` on non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Array element lookup; `None` on non-arrays.
    pub fn at(&self, index: usize) -> Option<&Json> {
        match self {
            Json::Arr(items) => items.get(index),
            _ => None,
        }
    }

    /// The numeric value of `Int` / `Float` variants.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(i) => Some(*i as f64),
            Json::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// The string value of `Str` variants.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements of `Arr` variants.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Indented serialization (two spaces), for human-read artifacts.
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Json::Float(f) => write_f64(out, *f),
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    fn write_pretty(&self, out: &mut String, depth: usize) {
        match self {
            Json::Arr(items) if !items.is_empty() => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    out.push_str(if i > 0 { ",\n" } else { "\n" });
                    indent(out, depth + 1);
                    item.write_pretty(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push(']');
            }
            Json::Obj(fields) if !fields.is_empty() => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    out.push_str(if i > 0 { ",\n" } else { "\n" });
                    indent(out, depth + 1);
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write_pretty(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push('}');
            }
            other => other.write(out),
        }
    }
}

/// Compact serialization (no whitespace) — `to_string()` yields the
/// byte-deterministic form the executor's guarantees are stated over.
impl std::fmt::Display for Json {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut out = String::new();
        self.write(&mut out);
        f.write_str(&out)
    }
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

fn write_f64(out: &mut String, f: f64) {
    if !f.is_finite() {
        out.push_str("null");
    } else if f == f.trunc() && f.abs() < 1e15 {
        // Keep a decimal point so the value parses back as Float.
        let _ = write!(out, "{f:.1}");
    } else {
        // Rust's Display prints the shortest string that round-trips.
        let _ = write!(out, "{f}");
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::Float(v)
    }
}

macro_rules! int_from {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(v: $t) -> Json {
                Json::Int(v as i128)
            }
        }
    )*};
}
int_from!(i32, i64, u32, u64, usize);

impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_string())
    }
}

impl From<String> for Json {
    fn from(v: String) -> Json {
        Json::Str(v)
    }
}

impl From<&String> for Json {
    fn from(v: &String) -> Json {
        Json::Str(v.clone())
    }
}

impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(v: Vec<T>) -> Json {
        Json::Arr(v.into_iter().map(Into::into).collect())
    }
}

impl From<&[f64]> for Json {
    fn from(v: &[f64]) -> Json {
        Json::Arr(v.iter().map(|&y| Json::Float(y)).collect())
    }
}

impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        v.map_or(Json::Null, Into::into)
    }
}

impl ToJson for crate::series::TimeSeries {
    fn to_json(&self) -> Json {
        Json::obj([
            ("name", Json::from(&self.name)),
            ("xs", Json::from(self.xs())),
            ("ys", Json::from(self.ys())),
        ])
    }
}

impl ToJson for crate::stats::Summary {
    fn to_json(&self) -> Json {
        Json::obj([
            ("count", Json::from(self.count)),
            ("mean", Json::from(self.mean)),
            ("stddev", Json::from(self.stddev)),
            ("min", Json::from(self.min)),
            ("p25", Json::from(self.p25)),
            ("p50", Json::from(self.p50)),
            ("p75", Json::from(self.p75)),
            ("p95", Json::from(self.p95)),
            ("max", Json::from(self.max)),
        ])
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        self.as_ref().map_or(Json::Null, ToJson::to_json)
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        self.as_slice().to_json()
    }
}

/// Parses a complete JSON document. Trailing garbage is an error.
pub fn parse(text: &str) -> Result<Json, ParseError> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(ParseError::at(pos, "trailing characters"));
    }
    Ok(value)
}

/// A JSON parse failure with its byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the failure.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl ParseError {
    fn at(offset: usize, message: impl Into<String>) -> ParseError {
        ParseError {
            offset,
            message: message.into(),
        }
    }
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "JSON parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for ParseError {}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, token: &str) -> Result<(), ParseError> {
    if bytes[*pos..].starts_with(token.as_bytes()) {
        *pos += token.len();
        Ok(())
    } else {
        Err(ParseError::at(*pos, format!("expected `{token}`")))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, ParseError> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err(ParseError::at(*pos, "unexpected end of input")),
        Some(b'n') => expect(bytes, pos, "null").map(|()| Json::Null),
        Some(b't') => expect(bytes, pos, "true").map(|()| Json::Bool(true)),
        Some(b'f') => expect(bytes, pos, "false").map(|()| Json::Bool(false)),
        Some(b'"') => parse_string(bytes, pos).map(Json::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(ParseError::at(*pos, "expected `,` or `]`")),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, ":")?;
                let value = parse_value(bytes, pos)?;
                fields.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(fields));
                    }
                    _ => return Err(ParseError::at(*pos, "expected `,` or `}`")),
                }
            }
        }
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, ParseError> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(ParseError::at(*pos, "expected string"));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err(ParseError::at(*pos, "unterminated string")),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or_else(|| ParseError::at(*pos, "truncated \\u escape"))?;
                        let hex = std::str::from_utf8(hex)
                            .map_err(|_| ParseError::at(*pos, "bad \\u escape"))?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| ParseError::at(*pos, "bad \\u escape"))?;
                        // Surrogate pairs are unsupported (artifacts are
                        // ASCII + BMP); map lone surrogates to U+FFFD.
                        out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                        *pos += 4;
                    }
                    _ => return Err(ParseError::at(*pos, "bad escape")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Copy the whole run up to the next quote or backslash.
                // Both are ASCII, so in a &str the run ends on a char
                // boundary and each byte is visited once.
                let run = bytes[*pos..]
                    .iter()
                    .position(|&b| b == b'"' || b == b'\\')
                    .unwrap_or(bytes.len() - *pos);
                let text = std::str::from_utf8(&bytes[*pos..*pos + run])
                    .map_err(|_| ParseError::at(*pos, "invalid UTF-8"))?;
                out.push_str(text);
                *pos += run;
            }
        }
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, ParseError> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let mut is_float = false;
    while let Some(&b) = bytes.get(*pos) {
        match b {
            b'0'..=b'9' => *pos += 1,
            b'.' | b'e' | b'E' | b'+' | b'-' => {
                is_float = true;
                *pos += 1;
            }
            _ => break,
        }
    }
    let text = std::str::from_utf8(&bytes[start..*pos])
        .map_err(|_| ParseError::at(start, "invalid number"))?;
    if text.is_empty() || text == "-" {
        return Err(ParseError::at(start, "expected a value"));
    }
    if is_float {
        text.parse::<f64>()
            .map(Json::Float)
            .map_err(|_| ParseError::at(start, "invalid float"))
    } else {
        text.parse::<i128>()
            .map(Json::Int)
            .map_err(|_| ParseError::at(start, "invalid integer"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_serialization_is_canonical() {
        let v = Json::obj([
            ("name", Json::from("series \"a\"")),
            ("n", Json::from(3u64)),
            ("mean", Json::from(0.5f64)),
            ("tags", Json::from(vec![Json::Null, Json::Bool(true)])),
        ]);
        assert_eq!(
            v.to_string(),
            r#"{"name":"series \"a\"","n":3,"mean":0.5,"tags":[null,true]}"#
        );
    }

    #[test]
    fn floats_round_trip_exactly() {
        for &f in &[0.1, 1.0 / 3.0, 1e-300, 123456.789, -0.0, 2.0] {
            let s = Json::Float(f).to_string();
            let back = parse(&s).unwrap();
            assert_eq!(back.as_f64().unwrap().to_bits(), f.to_bits(), "value {f}");
        }
        assert_eq!(Json::Float(f64::NAN).to_string(), "null");
    }

    #[test]
    fn integers_stay_integers() {
        assert_eq!(Json::from(u64::MAX).to_string(), u64::MAX.to_string());
        assert_eq!(parse("42").unwrap(), Json::Int(42));
        assert_eq!(parse("2.0").unwrap(), Json::Float(2.0));
    }

    #[test]
    fn parse_round_trips_nested_documents() {
        let text = r#"{"a": [1, 2.5, "x", {"b": null}], "c": false}"#;
        let v = parse(text).unwrap();
        assert_eq!(v.get("c"), Some(&Json::Bool(false)));
        assert_eq!(
            v.get("a").unwrap().at(3).unwrap().get("b"),
            Some(&Json::Null)
        );
        let reparsed = parse(&v.to_string()).unwrap();
        assert_eq!(reparsed, v);
        let repretty = parse(&v.to_string_pretty()).unwrap();
        assert_eq!(repretty, v);
    }

    #[test]
    fn object_order_is_preserved() {
        let mut v = Json::object();
        v.push_field("z", 1u64);
        v.push_field("a", 2u64);
        assert_eq!(v.to_string(), r#"{"z":1,"a":2}"#);
    }

    #[test]
    fn parse_errors_carry_position() {
        assert!(parse("").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\" 1}").is_err());
        let e = parse("[1] x").unwrap_err();
        assert!(e.message.contains("trailing"));
        assert_eq!(e.offset, 4);
    }

    #[test]
    fn string_escapes_round_trip() {
        let s = "line\nquote\"back\\slash\ttab\u{1}";
        let v = Json::from(s);
        assert_eq!(parse(&v.to_string()).unwrap().as_str(), Some(s));
    }

    #[test]
    fn multibyte_runs_next_to_escapes_round_trip() {
        for s in [
            "é\"ü",
            "\\日本語\\",
            "ab\u{10348}\ncd",
            "\"\u{1F600}\"",
            "€",
            "x\u{7f}é\t",
        ] {
            let text = Json::from(s).to_string();
            assert_eq!(parse(&text).unwrap().as_str(), Some(s), "{text}");
            // A key takes the same path as a value.
            let obj = format!("{{{text}:{text}}}");
            assert_eq!(parse(&obj).unwrap().get(s).and_then(Json::as_str), Some(s));
        }
        // A `\u` escape between two multi-byte runs.
        let text = "\"é\\u00e9日\"";
        assert_eq!(parse(text).unwrap().as_str(), Some("éé日"));
        let e = parse("\"é").unwrap_err();
        assert_eq!((e.offset, e.message.as_str()), (3, "unterminated string"));
    }

    #[test]
    fn a_long_string_parses_in_linear_time() {
        // Re-validating the rest of the document per character made this
        // quadratic: minutes for 1 MiB in the debug profile.
        let s = "abcdéfgh\"".repeat((1 << 20) / 10);
        let text = Json::from(s.as_str()).to_string();
        let t0 = std::time::Instant::now();
        let back = parse(&text).unwrap();
        let took = t0.elapsed();
        assert_eq!(back.as_str(), Some(s.as_str()));
        assert!(
            took.as_secs_f64() < 2.0,
            "{took:?} for {} bytes",
            text.len()
        );
    }
}
