//! Minimal JSON: the one text codec for every machine-read record — the
//! daemon's line-delimited wire protocol, its on-disk journal and result
//! records, repro files and `BENCHMARK.json`.
//!
//! The build environment is offline (no serde), so this is a small
//! hand-rolled value type. Objects preserve insertion order and emission
//! is canonical (no whitespace, stable number formatting), so a value
//! round-trips to the same bytes — the property the byte-identical
//! result-store contract rests on.

use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number. Values that are mathematically integers emit without a
    /// decimal point (all counters in this codebase fit in 2^53).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion-ordered pairs (no duplicate keys are emitted
    /// by this crate; the last occurrence wins on lookup).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object field lookup (last occurrence wins).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// String payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Integer payload, if this is a non-negative integral number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 9_007_199_254_740_992.0 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// Array elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Reads optional field `key` as a `T`: `Ok(None)` when it is absent,
    /// `field "key": expected <type>` when it holds another type.
    pub fn opt<'a, T: FieldType<'a>>(&'a self, key: &str) -> Result<Option<T>, String> {
        self.get(key)
            .map(|v| T::read(v).ok_or_else(|| format!("field {key:?}: expected {}", T::NAME)))
            .transpose()
    }

    /// [`Json::opt`] for a field that must be present: `<what> missing
    /// <type> field "key"` when it is absent.
    pub fn req<'a, T: FieldType<'a>>(&'a self, what: &str, key: &str) -> Result<T, String> {
        self.opt(key)?
            .ok_or_else(|| format!("{what} missing {} field {key:?}", T::NAME))
    }

    /// Checks that this is an object with no key outside `known`: the error
    /// names the first stray key and lists the known ones.
    pub fn only_keys(&self, what: &str, known: &[&str]) -> Result<(), String> {
        let Json::Obj(pairs) = self else {
            return Err(format!("a {what} must be a JSON object"));
        };
        let Some((key, _)) = pairs.iter().find(|(k, _)| !known.contains(&k.as_str())) else {
            return Ok(());
        };
        let known = known.join(", ");
        Err(format!(
            "unknown {what} key {key:?} (expected one of {known})"
        ))
    }

    /// Builds an object from pairs.
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Builds a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Builds a number from an unsigned counter.
    pub fn num_u64(n: u64) -> Json {
        Json::Num(n as f64)
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(n) => {
                if n.fract() == 0.0 && n.abs() < 9e15 {
                    let _ = write!(out, "{}", *n as i64);
                } else {
                    let _ = write!(out, "{n}");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
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

    /// Parses one JSON document (trailing whitespace allowed, nothing else).
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed construct, with its
    /// byte offset.
    pub fn parse(text: &str) -> Result<Json, String> {
        Json::parse_bytes(text.as_bytes())
    }

    /// [`Json::parse`] for bytes not yet known to be UTF-8 (a journal line
    /// read back after a crash): string contents are validated as they are
    /// copied, and a stray byte anywhere else is not JSON to begin with.
    ///
    /// # Errors
    ///
    /// As [`Json::parse`]; invalid UTF-8 is reported with its byte offset.
    pub fn parse_bytes(bytes: &[u8]) -> Result<Json, String> {
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing garbage at byte {pos}"));
        }
        Ok(value)
    }
}

/// A type a field can be read as through [`Json::opt`] and [`Json::req`].
pub trait FieldType<'a>: Sized {
    /// The type's name in error messages.
    const NAME: &'static str;
    /// `v` as this type, or `None` when it holds another type.
    fn read(v: &'a Json) -> Option<Self>;
}

impl FieldType<'_> for u64 {
    const NAME: &'static str = "integer";
    fn read(v: &Json) -> Option<u64> {
        v.as_u64()
    }
}

impl FieldType<'_> for bool {
    const NAME: &'static str = "boolean";
    fn read(v: &Json) -> Option<bool> {
        match v {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

impl FieldType<'_> for f64 {
    const NAME: &'static str = "number";
    fn read(v: &Json) -> Option<f64> {
        v.as_f64()
    }
}

impl<'a> FieldType<'a> for &'a str {
    const NAME: &'static str = "string";
    fn read(v: &'a Json) -> Option<&'a str> {
        v.as_str()
    }
}

impl<'a> FieldType<'a> for &'a [Json] {
    const NAME: &'static str = "array";
    fn read(v: &'a Json) -> Option<&'a [Json]> {
        v.as_arr()
    }
}

impl FieldType<'_> for Vec<u64> {
    const NAME: &'static str = "integers";
    fn read(v: &Json) -> Option<Vec<u64>> {
        v.as_arr()?.iter().map(Json::as_u64).collect()
    }
}

impl FieldType<'_> for Vec<String> {
    const NAME: &'static str = "strings";
    fn read(v: &Json) -> Option<Vec<String>> {
        v.as_arr()?
            .iter()
            .map(|s| s.as_str().map(str::to_string))
            .collect()
    }
}

/// Canonical compact serialization (`value.to_string()` round-trips
/// through [`Json::parse`] byte-identically).
impl std::fmt::Display for Json {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut out = String::new();
        self.write(&mut out);
        f.write_str(&out)
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

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

/// Deepest array/object nesting [`Json::parse`] accepts. The parser
/// recurses once per level, so an unbounded depth lets one hostile line
/// overflow the stack of the thread parsing it; the deepest real document
/// (a campaign job with fault events) nests about five levels.
const MAX_DEPTH: usize = 128;

fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'[' | b'{') if depth == MAX_DEPTH => Err(format!(
            "nesting deeper than {MAX_DEPTH} levels at byte {pos}",
            pos = *pos
        )),
        Some(b'n') => parse_lit(bytes, pos, "null", Json::Null),
        Some(b't') => parse_lit(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, "false", Json::Bool(false)),
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
                items.push(parse_value(bytes, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {pos}", pos = *pos)),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut pairs = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(pairs));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                if bytes.get(*pos) != Some(&b':') {
                    return Err(format!("expected ':' at byte {pos}", pos = *pos));
                }
                *pos += 1;
                pairs.push((key, parse_value(bytes, pos, depth + 1)?));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(pairs));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {pos}", pos = *pos)),
                }
            }
        }
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(bytes, pos),
        Some(c) => Err(format!(
            "unexpected byte {:?} at byte {pos}",
            char::from(*c),
            pos = *pos
        )),
    }
}

fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("bad literal at byte {pos}", pos = *pos))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while bytes
        .get(*pos)
        .is_some_and(|c| c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| format!("bad number {text:?} at byte {start}"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at byte {pos}", pos = *pos));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".to_string()),
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
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or("truncated \\u escape")?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| "bad \\u escape".to_string())?;
                        // Surrogate pairs are not needed by this protocol;
                        // unpaired surrogates map to the replacement char.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    other => return Err(format!("bad escape {other:?}")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Everything up to the next quote or backslash is literal
                // text: validate the run once and copy it in one piece
                // (neither byte can occur inside a multi-byte character).
                let run = &bytes[*pos..];
                let len = run
                    .iter()
                    .position(|b| matches!(b, b'"' | b'\\'))
                    .ok_or("unterminated string")?;
                let text = std::str::from_utf8(&run[..len]).map_err(|e| {
                    format!("invalid UTF-8 in string at byte {}", *pos + e.valid_up_to())
                })?;
                out.push_str(text);
                *pos += len;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_is_canonical() {
        let v = Json::obj(vec![
            ("id", Json::str("j000001")),
            ("n", Json::num_u64(42)),
            ("pi", Json::Num(3.5)),
            ("ok", Json::Bool(true)),
            ("none", Json::Null),
            ("arr", Json::Arr(vec![Json::num_u64(1), Json::str("x\ny")])),
        ]);
        let text = v.to_string();
        assert_eq!(
            text,
            r#"{"id":"j000001","n":42,"pi":3.5,"ok":true,"none":null,"arr":[1,"x\ny"]}"#
        );
        let back = Json::parse(&text).unwrap();
        assert_eq!(back, v);
        assert_eq!(back.to_string(), text);
    }

    #[test]
    fn parses_whitespace_and_nesting() {
        let v = Json::parse(" { \"a\" : [ 1 , { \"b\" : null } ] } ").unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 2);
    }

    #[test]
    fn accessors_behave() {
        let v = Json::parse(r#"{"s":"x","n":7,"f":1.25,"b":false}"#).unwrap();
        assert_eq!(v.get("s").unwrap().as_str(), Some("x"));
        assert_eq!(v.get("n").unwrap().as_u64(), Some(7));
        assert_eq!(v.get("f").unwrap().as_u64(), None);
        assert_eq!(v.get("f").unwrap().as_f64(), Some(1.25));
        assert_eq!(v.get("b"), Some(&Json::Bool(false)));
        assert!(v.get("missing").is_none());
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\":}",
            "nul",
            "\"unterminated",
            "{\"a\":1} extra",
            "1 2",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn negative_and_exponent_numbers_parse() {
        assert_eq!(Json::parse("-3").unwrap().as_f64(), Some(-3.0));
        assert_eq!(Json::parse("1e3").unwrap().as_f64(), Some(1000.0));
        assert_eq!(Json::parse("-3").unwrap().as_u64(), None);
    }

    #[test]
    fn control_chars_escape_and_roundtrip() {
        let v = Json::str("a\u{1}b\"c\\d");
        let text = v.to_string();
        assert_eq!(Json::parse(&text).unwrap(), v);
    }

    #[test]
    fn multibyte_text_roundtrips_between_escapes() {
        let v = Json::str("naïve \"λ→∞\" 日本語\t🦀\\end");
        let text = v.to_string();
        assert_eq!(text, "\"naïve \\\"λ→∞\\\" 日本語\\t🦀\\\\end\"");
        assert_eq!(Json::parse(&text).unwrap(), v);
        // Raw multi-byte characters need no escaping on the way in either.
        assert_eq!(Json::parse("\"é\"").unwrap(), Json::str("é"));
    }

    #[test]
    fn every_escape_decodes() {
        let v = Json::parse(r#""q\" b\\ s\/ n\n r\r t\t b\b f\f u\u00e9\u0041\u20ac z""#).unwrap();
        assert_eq!(
            v,
            Json::str("q\" b\\ s/ n\n r\r t\t b\u{8} f\u{c} ué\u{41}€ z")
        );
        // An unpaired surrogate maps to the replacement character.
        assert_eq!(Json::parse(r#""\ud800""#).unwrap(), Json::str("\u{fffd}"));
        for bad in [r#""\x""#, r#""\u12""#, r#""\u12g4""#, r#""\"#] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn invalid_utf8_in_a_string_is_an_error_naming_the_byte() {
        let mut bytes = br#"{"label":"ab"#.to_vec();
        bytes.push(0xff);
        bytes.extend_from_slice(br#"cd"}"#);
        let err = Json::parse_bytes(&bytes).unwrap_err();
        assert_eq!(err, "invalid UTF-8 in string at byte 12");
        // A truncated multi-byte character is caught the same way.
        let err = Json::parse_bytes(b"\"a\xe2\x82\"").unwrap_err();
        assert_eq!(err, "invalid UTF-8 in string at byte 2");
        // Outside a string a stray byte is simply not JSON.
        assert!(Json::parse_bytes(b"[\xff]").is_err());
    }

    #[test]
    fn unterminated_strings_are_errors() {
        for bad in ["\"", "\"abc", "\"abc\\\"", "{\"key", "[\"a\",\"b"] {
            let err = Json::parse(bad).unwrap_err();
            assert!(err.contains("unterminated"), "{bad:?}: {err}");
        }
    }

    /// The parser recurses per level: without the depth cap this line
    /// overflows the stack and aborts the whole process, not just the
    /// spawned thread, so a regression fails the test binary outright.
    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let deep = std::thread::spawn(|| Json::parse(&"[".repeat(100_000)))
            .join()
            .unwrap();
        assert_eq!(
            deep.unwrap_err(),
            format!("nesting deeper than {MAX_DEPTH} levels at byte {MAX_DEPTH}")
        );
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&ok).is_ok());
        let obj = format!(
            "{}1{}",
            "{\"a\":".repeat(MAX_DEPTH + 1),
            "}".repeat(MAX_DEPTH + 1)
        );
        assert!(Json::parse(&obj).unwrap_err().contains("nesting deeper"));
    }

    #[test]
    fn typed_lookups_name_the_field_and_the_type() {
        let v = Json::parse(r#"{"n":7,"s":"x","ns":[1,2],"ss":["a",1]}"#).unwrap();
        assert_eq!(v.opt::<u64>("n"), Ok(Some(7)));
        assert_eq!(v.opt::<u64>("absent"), Ok(None));
        assert_eq!(v.req::<&str>("doc", "s"), Ok("x"));
        assert_eq!(v.req::<Vec<u64>>("doc", "ns"), Ok(vec![1, 2]));
        assert_eq!(
            v.opt::<u64>("s").unwrap_err(),
            "field \"s\": expected integer"
        );
        assert_eq!(
            v.opt::<Vec<String>>("ss").unwrap_err(),
            "field \"ss\": expected strings"
        );
        assert_eq!(
            v.req::<f64>("doc", "absent").unwrap_err(),
            "doc missing number field \"absent\""
        );
    }

    /// A structural bound, not a benchmark: the parser used to revalidate
    /// the whole remaining buffer for every character, which on this
    /// document is 2^43 byte visits.
    #[test]
    fn a_four_mebibyte_string_parses_in_linear_time() {
        let body = "0123456789abcdeλ".repeat(4 << 16);
        assert!(body.len() >= 4 << 20);
        let text = format!("{{\"s\":\"{body}\"}}");
        let t = std::time::Instant::now();
        let v = Json::parse(&text).unwrap();
        assert!(
            t.elapsed() < std::time::Duration::from_secs(1),
            "{:?}",
            t.elapsed()
        );
        assert_eq!(v.get("s").and_then(Json::as_str), Some(body.as_str()));
    }
}
