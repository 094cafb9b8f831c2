//! The workspace's one JSON: a value tree, a recursive-descent parser and
//! a deterministic compact writer.
//!
//! Every JSON document the workspace writes (checker and crashpoint
//! reports, metrics exports, flight records, figure series, sim traces
//! and bench rows) is built as a [`Json`] value and written with
//! `Display`, so `escape` here is the one escape function and the writer
//! the one float format. Checker corpus entries and traces are read back
//! with [`Json::parse`]. A number with a fraction or exponent is a
//! [`Json::Float`], anything else a [`Json::Int`], so integer documents
//! (the corpus) round-trip byte-exact.

use std::fmt::{self, Write as _};

/// A parsed JSON value. Object keys keep their file order, so a
/// parse → write round trip is byte-identical for the writer's own
/// output.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer.
    Int(i64),
    /// A number written with a fraction or exponent. Non-finite values
    /// are written as `null`.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, keys in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parse a JSON document.
    ///
    /// # Errors
    /// Returns a human-readable message (with byte offset) on malformed
    /// input or trailing garbage.
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing garbage at byte {pos}"));
        }
        Ok(value)
    }

    /// Object member lookup (first match).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The object's keys, in source order.
    #[must_use]
    pub fn keys(&self) -> Vec<&str> {
        match self {
            Json::Obj(members) => members.iter().map(|(k, _)| k.as_str()).collect(),
            _ => Vec::new(),
        }
    }

    /// This value as a non-negative integer.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(n) if *n >= 0 => Some(*n as u64),
            _ => None,
        }
    }

    /// This value as a float (integers widen).
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Float(x) => Some(*x),
            Json::Int(n) => Some(*n as f64),
            _ => None,
        }
    }

    /// This value as a string slice.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// This value as a bool.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// This value as an array slice.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Append the member `key: value` to this object. Any other value is
    /// left unchanged.
    pub fn push(&mut self, key: &str, value: impl ToJson) {
        if let Json::Obj(members) = self {
            members.push((key.to_string(), value.to_json()));
        }
    }
}

/// `(name, value)` pairs collect into an object, members in iteration
/// order.
impl<V: ToJson> FromIterator<(String, V)> for Json {
    fn from_iter<I: IntoIterator<Item = (String, V)>>(members: I) -> Json {
        Json::Obj(members.into_iter().map(|(k, v)| (k, v.to_json())).collect())
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Bool(b) => write!(f, "{b}"),
            Json::Int(n) => write!(f, "{n}"),
            // `{:?}` is the shortest text that parses back to the same
            // bits, and always carries a `.` or an exponent.
            Json::Float(x) if x.is_finite() => write!(f, "{x:?}"),
            Json::Null | Json::Float(_) => write!(f, "null"),
            Json::Str(s) => write!(f, "\"{}\"", escape(s)),
            Json::Arr(items) => {
                write!(f, "[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{item}")?;
                }
                write!(f, "]")
            }
            Json::Obj(members) => {
                write!(f, "{{")?;
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "\"{}\":{v}", escape(k))?;
                }
                write!(f, "}}")
            }
        }
    }
}

/// Plain data that can render itself as a [`Json`] value. Structs get
/// their impl from [`json_struct!`](crate::json_struct).
pub trait ToJson {
    /// This value as JSON.
    fn to_json(&self) -> Json;
}

macro_rules! to_json {
    ($($t:ty => |$v:ident| $e:expr;)*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Json {
                let $v = self;
                $e
            }
        }
    )*};
}
to_json! {
    Json => |v| v.clone();
    bool => |v| Json::Bool(*v);
    f64 => |v| Json::Float(*v);
    str => |v| Json::Str(v.to_string());
    String => |v| Json::Str(v.clone());
    u8 => |v| Json::Int(i64::from(*v));
    u16 => |v| Json::Int(i64::from(*v));
    u32 => |v| Json::Int(i64::from(*v));
    u64 => |v| Json::Int(i64::try_from(*v).unwrap_or(i64::MAX));
    usize => |v| Json::Int(i64::try_from(*v).unwrap_or(i64::MAX));
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn to_json(&self) -> Json {
        (**self).to_json()
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        self.as_ref().map_or(Json::Null, ToJson::to_json)
    }
}

/// `json_obj! { "a": x, "b": y }` is the object `{"a": …, "b": …}`, each
/// value through [`ToJson`], members in the order written.
#[macro_export]
macro_rules! json_obj {
    ($($key:tt: $value:expr),+ $(,)?) => {
        $crate::json::Json::Obj(vec![$((
            $key.to_string(),
            $crate::json::ToJson::to_json(&$value),
        )),+])
    };
}

/// `json_struct!(Row { a, b })` implements [`ToJson`] for `Row` as the
/// object `{"a": …, "b": …}`, fields in the order listed.
#[macro_export]
macro_rules! json_struct {
    ($t:ty { $($field:ident),+ $(,)? }) => {
        impl $crate::json::ToJson for $t {
            fn to_json(&self) -> $crate::json::Json {
                $crate::json_obj! { $((stringify!($field)): self.$field),+ }
            }
        }
    };
}

/// Escape a string for embedding in a JSON document.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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
    out
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, byte: u8) -> Result<(), String> {
    if bytes.get(*pos) == Some(&byte) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {}", char::from(byte), *pos))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'{') => parse_object(bytes, pos),
        Some(b'[') => parse_array(bytes, pos),
        Some(b'"') => parse_string(bytes, pos).map(Json::Str),
        Some(b't') => parse_literal(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", Json::Null),
        Some(b'-' | b'0'..=b'9') => parse_number(bytes, pos),
        Some(other) => Err(format!("unexpected byte 0x{other:02x} at offset {}", *pos)),
    }
}

fn parse_literal(bytes: &[u8], pos: &mut usize, word: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(value)
    } else {
        Err(format!("expected '{word}' at byte {}", *pos))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while matches!(
        bytes.get(*pos),
        Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
    ) {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
    let parsed = if text.contains(['.', 'e', 'E']) {
        text.parse().map(Json::Float).ok()
    } else {
        text.parse().map(Json::Int).ok()
    };
    parsed.ok_or_else(|| format!("bad number '{text}' at byte {start}"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
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
                            .ok_or("truncated \\u escape")?;
                        let hex = std::str::from_utf8(hex).map_err(|e| e.to_string())?;
                        let code = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                        out.push(char::from_u32(code).ok_or("bad \\u code point")?);
                        *pos += 4;
                    }
                    other => return Err(format!("bad escape {other:?}")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar, not one byte.
                let rest = std::str::from_utf8(&bytes[*pos..]).map_err(|e| e.to_string())?;
                let c = rest.chars().next().ok_or("unterminated string")?;
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(bytes, pos, b'[')?;
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
            Some(b',') => {
                *pos += 1;
            }
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(bytes, pos, b'{')?;
    let mut members = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(members));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        let value = parse_value(bytes, pos)?;
        members.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => {
                *pos += 1;
            }
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(members));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_handles_quotes_and_controls() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn written_documents_parse_back_to_the_same_bytes() {
        let mut doc = json_obj! {
            "name \"quoted\"\n": "tab\there",
            "n": 7u64,
            "x": 0.1,
            "none": Option::<u8>::None,
            "list": vec![true, false],
        };
        doc.push(
            "tail",
            [("k".to_string(), 1u8)].into_iter().collect::<Json>(),
        );
        let text = doc.to_string();
        assert_eq!(
            text,
            "{\"name \\\"quoted\\\"\\n\":\"tab\\there\",\"n\":7,\"x\":0.1,\
             \"none\":null,\"list\":[true,false],\"tail\":{\"k\":1}}"
        );
        assert_eq!(Json::parse(&text), Ok(doc));
    }
}
