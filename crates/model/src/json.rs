//! Dependency-free JSON: a minimal value parser plus emission helpers.
//!
//! One JSON implementation serves the whole workspace — the bench-report
//! files (`asym-bench`), the sort-job wire codec (`asym_core::sort::wire`),
//! and the job-server front door (`asym-serve`) all speak the same dialect
//! through this module, so there is exactly one parser to keep correct and
//! no external dependency to vendor. The surface is deliberately small: a
//! [`Json`] tree with typed accessors for reading, and [`JsonObj`] /
//! [`JsonArr`] builders plus [`quote`] / [`number`] for writing, and one
//! records codec ([`records_json`] / [`parse_records`]) for the
//! `[key, payload]` arrays every job-level format embeds.

use crate::Record;
use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer literal (no sign, fraction, or exponent),
    /// kept exact: `u64` payloads like record keys and seeds exceed `f64`'s
    /// 2^53 integer precision, and the wire codecs must round-trip them
    /// bit-for-bit.
    Int(u64),
    /// Any other number (integral readers round).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, as ordered key/value pairs (duplicate keys keep the first
    /// match on lookup).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parse a complete JSON document (trailing non-whitespace is an error).
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let v = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing bytes at offset {pos}"));
        }
        Ok(v)
    }

    /// The object's fields, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(fields) => Some(fields),
            _ => None,
        }
    }

    /// The array's items, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric value, if this is a number (exact integers included,
    /// rounded into `f64` range).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            Json::Int(n) => Some(*n as f64),
            _ => None,
        }
    }

    /// The exact integer value: [`Json::Int`] verbatim, or a [`Json::Num`]
    /// that happens to be a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(n) => Some(*n),
            Json::Num(x) if *x >= 0.0 && x.fract() == 0.0 && *x <= u64::MAX as f64 => {
                Some(*x as u64)
            }
            _ => None,
        }
    }

    /// The boolean value, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Object field lookup (first match; `None` for non-objects too).
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.as_obj().and_then(|obj| find(obj, key))
    }

    /// Serialize back to a JSON document. `parse(render(v)) == v` for every
    /// value — integers stay exact ([`Json::Int`] prints verbatim).
    pub fn render(&self) -> String {
        match self {
            Json::Null => "null".into(),
            Json::Bool(b) => b.to_string(),
            Json::Int(n) => n.to_string(),
            Json::Num(x) => number(*x),
            Json::Str(s) => quote(s),
            Json::Arr(items) => {
                let mut a = JsonArr::new();
                for v in items {
                    a.raw(&v.render());
                }
                a.finish()
            }
            Json::Obj(fields) => {
                let mut o = JsonObj::new();
                for (k, v) in fields {
                    o.raw(k, &v.render());
                }
                o.finish()
            }
        }
    }
}

/// Look a key up in an object's field list (first match).
pub fn find<'a>(obj: &'a [(String, Json)], key: &str) -> Option<&'a Json> {
    obj.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

/// A string field's value, cloned.
pub fn get_str(obj: &[(String, Json)], key: &str) -> Option<String> {
    find(obj, key).and_then(|v| v.as_str().map(str::to_owned))
}

/// A numeric field's value.
pub fn get_f64(obj: &[(String, Json)], key: &str) -> Option<f64> {
    find(obj, key).and_then(Json::as_f64)
}

/// A numeric field as `u64`: exact for integer literals, rounded for other
/// numbers (negative values read as 0).
pub fn get_u64(obj: &[(String, Json)], key: &str) -> Option<u64> {
    match find(obj, key)? {
        Json::Int(n) => Some(*n),
        Json::Num(x) => Some(x.round().max(0.0) as u64),
        _ => None,
    }
}

/// A numeric field, rounded to `usize`.
pub fn get_usize(obj: &[(String, Json)], key: &str) -> Option<usize> {
    get_u64(obj, key).map(|x| x as usize)
}

/// A boolean field's value.
pub fn get_bool(obj: &[(String, Json)], key: &str) -> Option<bool> {
    find(obj, key).and_then(Json::as_bool)
}

/// Decode a [`records_json`] array: `[[key, payload], ...]`, both exact
/// `u64`s.
pub fn parse_records(v: &Json) -> Result<Vec<Record>, String> {
    let items = v.as_arr().ok_or("records must be an array")?;
    items
        .iter()
        .map(|item| match item.as_arr() {
            Some([key, payload]) => Ok(Record::new(
                key.as_u64().ok_or("record key must be a u64")?,
                payload.as_u64().ok_or("record payload must be a u64")?,
            )),
            _ => Err("records are [key, payload] pairs".into()),
        })
        .collect()
}

// ---- parser ----------------------------------------------------------------

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if b.get(*pos) == Some(&c) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected {:?} at offset {}", c as char, pos))
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        Some(b'{') => parse_obj(b, pos),
        Some(b'[') => parse_arr(b, pos),
        Some(b'"') => Ok(Json::Str(parse_string(b, pos)?)),
        Some(b't') if b[*pos..].starts_with(b"true") => {
            *pos += 4;
            Ok(Json::Bool(true))
        }
        Some(b'f') if b[*pos..].starts_with(b"false") => {
            *pos += 5;
            Ok(Json::Bool(false))
        }
        Some(b'n') if b[*pos..].starts_with(b"null") => {
            *pos += 4;
            Ok(Json::Null)
        }
        Some(_) => parse_number(b, pos),
        None => Err("unexpected end of input".into()),
    }
}

fn parse_obj(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(b, pos, b'{')?;
    let mut fields = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(fields));
    }
    loop {
        skip_ws(b, pos);
        let key = parse_string(b, pos)?;
        skip_ws(b, pos);
        expect(b, pos, b':')?;
        let value = parse_value(b, pos)?;
        fields.push((key, value));
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            _ => return Err(format!("expected ',' or '}}' at offset {pos}")),
        }
    }
}

fn parse_arr(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(b, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(b, pos)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at offset {pos}")),
        }
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(b, pos, b'"')?;
    let mut out = String::new();
    while let Some(&c) = b.get(*pos) {
        *pos += 1;
        match c {
            b'"' => return Ok(out),
            b'\\' => {
                let esc = b.get(*pos).copied().ok_or("unterminated escape")?;
                *pos += 1;
                match esc {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b't' => out.push('\t'),
                    b'r' => out.push('\r'),
                    b'u' => {
                        let hex = b
                            .get(*pos..*pos + 4)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or("bad \\u escape")?;
                        let code = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                        *pos += 4;
                        out.push(char::from_u32(code).ok_or("bad \\u code point")?);
                    }
                    _ => return Err(format!("unknown escape \\{}", esc as char)),
                }
            }
            _ => {
                // Re-borrow the full char (the input is valid UTF-8; multi-byte
                // chars only occur inside strings).
                let start = *pos - 1;
                let s = std::str::from_utf8(&b[start..]).map_err(|e| e.to_string())?;
                let ch = s.chars().next().ok_or("empty string tail")?;
                *pos = start + ch.len_utf8();
                out.push(ch);
            }
        }
    }
    Err("unterminated string".into())
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
        *pos += 1;
    }
    let s = std::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())?;
    // A bare digit run is kept exact (u64 keys exceed f64 precision); signed,
    // fractional, or exponent forms take the f64 path.
    if let Ok(n) = s.parse::<u64>() {
        return Ok(Json::Int(n));
    }
    s.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| format!("bad number {s:?} at offset {start}"))
}

// ---- emission --------------------------------------------------------------

/// A JSON string literal with quote, backslash, newline, and control-byte
/// escaping.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite JSON number (non-finite values degrade to 0, which JSON cannot
/// represent otherwise).
pub fn number(x: f64) -> String {
    if x.is_finite() {
        format!("{x:.6}")
    } else {
        "0".into()
    }
}

/// Render records as a JSON array of `[key, payload]` pairs — the same
/// bytes a [`JsonArr`] of per-record arrays produces, written into one
/// buffer sized for the widest `u64`s so it never reallocates.
pub fn records_json(records: &[Record]) -> String {
    // "[", "]", and per record "[k, p]" plus ", ": at most 2·20 + 6 bytes.
    let mut out = String::with_capacity(2 + records.len() * 46);
    out.push('[');
    for (i, r) in records.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(out, "{sep}[{}, {}]", r.key, r.payload);
    }
    out.push(']');
    out
}

/// Incremental single-line JSON object emitter.
///
/// ```
/// use asym_model::json::JsonObj;
/// let mut o = JsonObj::new();
/// o.str("name", "job-1").u64("reads", 42).bool("done", true);
/// assert_eq!(o.finish(), r#"{ "name": "job-1", "reads": 42, "done": true }"#);
/// ```
#[derive(Debug, Default)]
pub struct JsonObj {
    buf: String,
}

impl JsonObj {
    /// Start an empty object.
    pub fn new() -> Self {
        Self::default()
    }

    fn key(&mut self, key: &str) -> &mut String {
        if self.buf.is_empty() {
            self.buf.push_str("{ ");
        } else {
            self.buf.push_str(", ");
        }
        self.buf.push_str(&quote(key));
        self.buf.push_str(": ");
        &mut self.buf
    }

    /// Append a string field.
    pub fn str(&mut self, key: &str, value: &str) -> &mut Self {
        let q = quote(value);
        self.key(key).push_str(&q);
        self
    }

    /// Append an unsigned integer field.
    pub fn u64(&mut self, key: &str, value: u64) -> &mut Self {
        self.key(key).push_str(&value.to_string());
        self
    }

    /// Append a float field (rendered via [`number`]).
    pub fn f64(&mut self, key: &str, value: f64) -> &mut Self {
        let n = number(value);
        self.key(key).push_str(&n);
        self
    }

    /// Append a boolean field.
    pub fn bool(&mut self, key: &str, value: bool) -> &mut Self {
        self.key(key).push_str(if value { "true" } else { "false" });
        self
    }

    /// Append a field whose value is already-rendered JSON (a nested object,
    /// array, or literal).
    pub fn raw(&mut self, key: &str, rendered: &str) -> &mut Self {
        self.key(key).push_str(rendered);
        self
    }

    /// Close the object and return its rendering.
    pub fn finish(&mut self) -> String {
        if self.buf.is_empty() {
            return "{}".into();
        }
        let mut out = std::mem::take(&mut self.buf);
        out.push_str(" }");
        out
    }
}

/// Incremental single-line JSON array emitter (pre-rendered items).
#[derive(Debug, Default)]
pub struct JsonArr {
    buf: String,
}

impl JsonArr {
    /// Start an empty array.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append one already-rendered JSON value.
    pub fn raw(&mut self, rendered: &str) -> &mut Self {
        if self.buf.is_empty() {
            self.buf.push('[');
        } else {
            self.buf.push_str(", ");
        }
        self.buf.push_str(rendered);
        self
    }

    /// Close the array and return its rendering.
    pub fn finish(&mut self) -> String {
        if self.buf.is_empty() {
            return "[]".into();
        }
        let mut out = std::mem::take(&mut self.buf);
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_scalar_zoo() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse("true").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("false").unwrap(), Json::Bool(false));
        assert_eq!(Json::parse("-1.5e2").unwrap(), Json::Num(-150.0));
        assert_eq!(Json::parse("\"hi\"").unwrap(), Json::Str("hi".into()));
    }

    #[test]
    fn parses_nested_structures_with_accessors() {
        let v = Json::parse(r#"{ "a": [1, 2, {"b": true}], "c": "s" }"#).unwrap();
        let arr = v.get("a").and_then(Json::as_arr).unwrap();
        assert_eq!(arr.len(), 3);
        assert_eq!(arr[2].get("b").and_then(Json::as_bool), Some(true));
        assert_eq!(v.get("c").and_then(Json::as_str), Some("s"));
        assert_eq!(v.get("missing"), None);
        let obj = v.as_obj().unwrap();
        assert_eq!(get_str(obj, "c").as_deref(), Some("s"));
        assert_eq!(get_bool(obj, "c"), None);
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("{\"a\": }").is_err());
        assert!(Json::parse("{\"a\": 1} trailing").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("nope").is_err());
        assert!(Json::parse("\"unterminated").is_err());
    }

    #[test]
    fn strings_escape_and_roundtrip() {
        assert_eq!(quote("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(quote("x\ny"), "\"x\\ny\"");
        assert_eq!(
            Json::parse("\"a\\\"b\\\\c\\n\\u0041\"").unwrap(),
            Json::Str("a\"b\\c\nA".into())
        );
        let tricky = "keys \"with\" \\slashes\\ and\nnewlines\tand unicode é";
        assert_eq!(
            Json::parse(&quote(tricky)).unwrap(),
            Json::Str(tricky.into())
        );
    }

    #[test]
    fn integers_round_trip_exactly_beyond_f64_precision() {
        // u64::MAX - 1 is a legal record key; f64 would corrupt it.
        let big = u64::MAX - 1;
        let mut o = JsonObj::new();
        o.u64("key", big);
        let v = Json::parse(&o.finish()).unwrap();
        assert_eq!(v.get("key"), Some(&Json::Int(big)));
        assert_eq!(get_u64(v.as_obj().unwrap(), "key"), Some(big));
        assert_eq!(v.get("key").and_then(Json::as_u64), Some(big));
        // Fractional and signed forms still read through as_u64 only when
        // they are whole and non-negative.
        assert_eq!(Json::parse("2.0").unwrap().as_u64(), Some(2));
        assert_eq!(Json::parse("-3").unwrap().as_u64(), None);
        assert_eq!(Json::parse("2.5").unwrap().as_u64(), None);
    }

    #[test]
    fn render_is_a_parse_fixed_point() {
        let text = format!(
            r#"{{ "id": {}, "ok": true, "none": null, "name": "a\"b",
                 "xs": [1, 2.5, [], {{}}], "nested": {{ "w": -1.25 }} }}"#,
            u64::MAX - 1,
        );
        let v = Json::parse(&text).unwrap();
        let rendered = v.render();
        assert_eq!(Json::parse(&rendered).unwrap(), v);
        // And rendering the reparse reproduces the same document.
        assert_eq!(Json::parse(&rendered).unwrap().render(), rendered);
    }

    #[test]
    fn numbers_render_finite() {
        assert_eq!(number(1.5), "1.500000");
        assert_eq!(number(f64::NAN), "0");
        assert_eq!(number(f64::INFINITY), "0");
    }

    #[test]
    fn typed_getters_read_and_round() {
        let v = Json::parse(r#"{ "n": 3.6, "s": "x", "b": false }"#).unwrap();
        let obj = v.as_obj().unwrap();
        assert_eq!(get_u64(obj, "n"), Some(4));
        assert_eq!(get_usize(obj, "n"), Some(4));
        assert_eq!(get_f64(obj, "n"), Some(3.6));
        assert_eq!(get_bool(obj, "b"), Some(false));
        assert_eq!(get_str(obj, "n"), None, "type-mismatched reads are None");
        assert_eq!(get_u64(obj, "s"), None);
    }

    #[test]
    fn records_codec_matches_the_builder_and_round_trips() {
        let records = [
            Record::new(u64::MAX - 1, 0),
            Record::new(3, u64::MAX),
            Record::new(0, 7),
        ];
        let mut arr = JsonArr::new();
        for r in &records {
            arr.raw(&format!("[{}, {}]", r.key, r.payload));
        }
        let text = records_json(&records);
        assert_eq!(text, arr.finish(), "byte-identical to the JsonArr form");
        assert_eq!(records_json(&[]), "[]");
        let back = parse_records(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, records);
        for (bad, needle) in [
            ("7", "must be an array"),
            ("[[1, 2, 3]]", "[key, payload] pairs"),
            ("[[-1, 2]]", "key must be a u64"),
            ("[[1, \"x\"]]", "payload must be a u64"),
        ] {
            let err = parse_records(&Json::parse(bad).unwrap()).unwrap_err();
            assert!(err.contains(needle), "{bad}: {err}");
        }
    }

    #[test]
    fn object_and_array_builders_emit_parsable_json() {
        let mut inner = JsonObj::new();
        inner.u64("reads", 10).f64("ratio", 2.5);
        let inner = inner.finish();
        let mut arr = JsonArr::new();
        arr.raw("1").raw(&quote("two"));
        let arr = arr.finish();
        let mut o = JsonObj::new();
        o.str("id", "a\"b")
            .bool("ok", true)
            .raw("stats", &inner)
            .raw("items", &arr);
        let text = o.finish();
        let v = Json::parse(&text).expect("builder output parses");
        assert_eq!(v.get("id").and_then(Json::as_str), Some("a\"b"));
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(
            v.get("stats").and_then(|s| s.get("reads")).unwrap(),
            &Json::Int(10)
        );
        assert_eq!(v.get("items").and_then(Json::as_arr).unwrap().len(), 2);
        assert_eq!(JsonObj::new().finish(), "{}");
        assert_eq!(JsonArr::new().finish(), "[]");
    }
}
