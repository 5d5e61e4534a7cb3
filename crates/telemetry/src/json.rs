//! Minimal hand-rolled JSON support.
//!
//! The simulator builds in offline environments with no registry access, so
//! trace export cannot depend on serde. This module provides the pieces the
//! exporters need: correct string escaping / number formatting for
//! *emission*, and one recursive-descent reader: [`parse`] returns a
//! [`Value`] tree so captured trace logs can be read back for deterministic
//! replay, and [`validate`] runs it to guarantee emitted traces are
//! well-formed JSON. Arrays and objects nested deeper than [`MAX_DEPTH`]
//! are an error, so hostile input cannot recurse the reader off the stack.

/// Escape `s` into a JSON string literal (including the surrounding quotes).
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Format a float as a JSON number. JSON has no NaN/Infinity, so
/// non-finite values are clamped to 0.
pub fn number(v: f64) -> String {
    if !v.is_finite() {
        return "0".to_string();
    }
    // `{}` on f64 prints the shortest string that round-trips, which is
    // always a valid JSON number for finite values.
    format!("{v}")
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn literal(b: &[u8], pos: &mut usize, word: &str) -> Result<(), String> {
    if b[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(())
    } else {
        Err(format!("bad literal at byte {pos}", pos = *pos))
    }
}

fn jstring(b: &[u8], pos: &mut usize) -> Result<(), String> {
    *pos += 1; // consume opening quote
    while let Some(&c) = b.get(*pos) {
        match c {
            b'"' => {
                *pos += 1;
                return Ok(());
            }
            b'\\' => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => *pos += 1,
                    Some(b'u') => {
                        *pos += 1;
                        for _ in 0..4 {
                            match b.get(*pos) {
                                Some(h) if h.is_ascii_hexdigit() => *pos += 1,
                                _ => {
                                    return Err(format!("bad \\u escape at byte {pos}", pos = *pos))
                                }
                            }
                        }
                    }
                    _ => return Err(format!("bad escape at byte {pos}", pos = *pos)),
                }
            }
            c if c < 0x20 => {
                return Err(format!(
                    "raw control char in string at byte {pos}",
                    pos = *pos
                ))
            }
            _ => *pos += 1,
        }
    }
    Err("unterminated string".to_string())
}

fn jnumber(b: &[u8], pos: &mut usize) -> Result<(), String> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let int_digits = eat_digits(b, pos);
    if int_digits == 0 {
        return Err(format!("bad number at byte {start}"));
    }
    if b.get(*pos) == Some(&b'.') {
        *pos += 1;
        if eat_digits(b, pos) == 0 {
            return Err(format!("bad fraction at byte {start}"));
        }
    }
    if matches!(b.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(b.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        if eat_digits(b, pos) == 0 {
            return Err(format!("bad exponent at byte {start}"));
        }
    }
    Ok(())
}

fn eat_digits(b: &[u8], pos: &mut usize) -> usize {
    let start = *pos;
    while matches!(b.get(*pos), Some(c) if c.is_ascii_digit()) {
        *pos += 1;
    }
    *pos - start
}

/// A parsed JSON value. Object member order is preserved (binary-stable
/// round-trips matter for trace logs); numbers are kept as `f64`, which is
/// exact for the integer magnitudes the trace log uses (< 2^53).
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Number(f64),
    /// A string, unescaped.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object, members in source order.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Member lookup on objects (first match), `None` otherwise.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number as `f64`, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The number as `u64` (must be a non-negative integer).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The boolean, if this is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// Deepest array/object nesting [`parse`] and [`validate`] accept. The
/// deepest document the simulator writes (fleet triage with embedded
/// post-mortems and span trees) nests about ten levels.
pub const MAX_DEPTH: usize = 64;

/// Validate that `input` is a single well-formed JSON value, nested no
/// deeper than [`MAX_DEPTH`].
pub fn validate(input: &str) -> Result<(), String> {
    parse(input).map(|_| ())
}

/// Parse `input` into a [`Value`] tree. Nesting deeper than
/// [`MAX_DEPTH`] is an error.
pub fn parse(input: &str) -> Result<Value, String> {
    let bytes = input.as_bytes();
    let mut pos = 0usize;
    skip_ws(bytes, &mut pos);
    let v = parse_value(bytes, &mut pos, MAX_DEPTH)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(v)
}

/// Parse one value; `depth` is how many more arrays/objects may open.
fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<Value, String> {
    match b.get(*pos) {
        Some(b'{' | b'[') if depth == 0 => Err(format!(
            "nesting deeper than {MAX_DEPTH} at byte {pos}",
            pos = *pos
        )),
        Some(b'{') => parse_object(b, pos, depth - 1),
        Some(b'[') => parse_array(b, pos, depth - 1),
        Some(b'"') => parse_string(b, pos).map(Value::String),
        Some(b't') => literal(b, pos, "true").map(|_| Value::Bool(true)),
        Some(b'f') => literal(b, pos, "false").map(|_| Value::Bool(false)),
        Some(b'n') => literal(b, pos, "null").map(|_| Value::Null),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(b, pos),
        Some(c) => Err(format!("unexpected byte {c:?} at {pos}", pos = *pos)),
        None => Err("unexpected end of input".to_string()),
    }
}

fn parse_object(b: &[u8], pos: &mut usize, depth: usize) -> Result<Value, String> {
    *pos += 1; // consume '{'
    skip_ws(b, pos);
    let mut members = Vec::new();
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Value::Object(members));
    }
    loop {
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b'"') {
            return Err(format!("expected object key at byte {pos}", pos = *pos));
        }
        let key = parse_string(b, pos)?;
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b':') {
            return Err(format!("expected ':' at byte {pos}", pos = *pos));
        }
        *pos += 1;
        skip_ws(b, pos);
        members.push((key, parse_value(b, pos, depth)?));
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Value::Object(members));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {pos}", pos = *pos)),
        }
    }
}

fn parse_array(b: &[u8], pos: &mut usize, depth: usize) -> Result<Value, String> {
    *pos += 1; // consume '['
    skip_ws(b, pos);
    let mut items = Vec::new();
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Value::Array(items));
    }
    loop {
        skip_ws(b, pos);
        items.push(parse_value(b, pos, depth)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Value::Array(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {pos}", pos = *pos)),
        }
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    let start = *pos;
    jstring(b, pos)?; // validate + find the closing quote
    let raw = &b[start + 1..*pos - 1];
    let mut out = String::with_capacity(raw.len());
    let mut i = 0usize;
    while i < raw.len() {
        if raw[i] == b'\\' {
            i += 1;
            match raw[i] {
                b'"' => out.push('"'),
                b'\\' => out.push('\\'),
                b'/' => out.push('/'),
                b'b' => out.push('\u{8}'),
                b'f' => out.push('\u{c}'),
                b'n' => out.push('\n'),
                b'r' => out.push('\r'),
                b't' => out.push('\t'),
                b'u' => {
                    let hex = std::str::from_utf8(&raw[i + 1..i + 5])
                        .map_err(|_| "bad \\u escape".to_string())?;
                    let code =
                        u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape".to_string())?;
                    // Surrogates cannot appear in our own output; map them
                    // to the replacement character rather than erroring.
                    out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                    i += 4;
                }
                _ => return Err("bad escape".to_string()),
            }
            i += 1;
        } else {
            // Copy the longest run of plain bytes (valid UTF-8 by input).
            let run_start = i;
            while i < raw.len() && raw[i] != b'\\' {
                i += 1;
            }
            out.push_str(
                std::str::from_utf8(&raw[run_start..i])
                    .map_err(|_| "invalid UTF-8 in string".to_string())?,
            );
        }
    }
    Ok(out)
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<Value, String> {
    let start = *pos;
    jnumber(b, pos)?;
    let text = std::str::from_utf8(&b[start..*pos]).map_err(|_| "bad number".to_string())?;
    text.parse::<f64>()
        .map(Value::Number)
        .map_err(|e| format!("bad number {text:?}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_special_characters() {
        assert_eq!(string("a\"b"), "\"a\\\"b\"");
        assert_eq!(string("a\\b"), "\"a\\\\b\"");
        assert_eq!(string("a\nb"), "\"a\\nb\"");
        assert_eq!(string("\u{1}"), "\"\\u0001\"");
        assert_eq!(string("plain"), "\"plain\"");
    }

    #[test]
    fn numbers_are_finite_json() {
        assert_eq!(number(1.5), "1.5");
        assert_eq!(number(-0.25), "-0.25");
        assert_eq!(number(f64::NAN), "0");
        assert_eq!(number(f64::INFINITY), "0");
        // Emitted numbers must satisfy our own validator.
        for v in [0.0, 1e-12, 3.25e9, -17.0, 0.1 + 0.2] {
            validate(&number(v)).unwrap();
        }
    }

    #[test]
    fn validator_accepts_well_formed_documents() {
        for ok in [
            "{}",
            "[]",
            "null",
            "true",
            "-12.5e-3",
            r#"{"a": [1, 2, {"b": "c\n"}], "d": null}"#,
            r#"  [ "\u00e9" , false ]  "#,
        ] {
            validate(ok).unwrap_or_else(|e| panic!("{ok}: {e}"));
        }
    }

    #[test]
    fn validator_rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\" 1}",
            "{\"a\": 1,}",
            "\"unterminated",
            "01a",
            "1 2",
            "NaN",
            "{a: 1}",
        ] {
            assert!(validate(bad).is_err(), "{bad} should be rejected");
        }
    }

    #[test]
    fn strings_round_trip_through_validator() {
        let s = string("weird \" \\ \n \t \u{7} payload");
        validate(&s).unwrap();
    }

    #[test]
    fn parse_builds_value_trees() {
        let v = parse(r#"{"a": [1, 2.5, -3], "b": {"c": "x\ny"}, "d": null, "e": true}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(v.get("a").unwrap().as_array().unwrap()[0].as_u64(), Some(1));
        assert_eq!(
            v.get("a").unwrap().as_array().unwrap()[1].as_f64(),
            Some(2.5)
        );
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_str(), Some("x\ny"));
        assert_eq!(v.get("d"), Some(&Value::Null));
        assert_eq!(v.get("e").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn nesting_past_max_depth_is_an_error() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        parse(&nested(MAX_DEPTH)).unwrap();
        let object = format!("{}1{}", "{\"a\":".repeat(MAX_DEPTH), "}".repeat(MAX_DEPTH));
        parse(&object).unwrap();
        for deep in [
            nested(MAX_DEPTH + 1),
            format!("{{\"a\":{}", nested(MAX_DEPTH)),
        ] {
            let err = parse(&deep).unwrap_err();
            assert!(err.starts_with("nesting deeper than"), "{err}");
            assert_eq!(validate(&deep), Err(err));
        }
    }

    #[test]
    fn strings_round_trip_through_parse() {
        let original = "weird \" \\ \n \t \u{7} € payload";
        let v = parse(&string(original)).unwrap();
        assert_eq!(v.as_str(), Some(original));
    }
}
