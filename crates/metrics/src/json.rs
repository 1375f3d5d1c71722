//! Minimal JSON emit/parse for trace events and benchmark reports.
//!
//! The workspace builds hermetically with no crates.io dependencies, so
//! serde is replaced by this small hand-rolled JSON layer: objects with a
//! *fixed key order* (so identical runs emit byte-identical output),
//! arrays, finite and non-finite numbers, strings and booleans.
//!
//! Non-finite numbers (the minimum of an empty sample is `+inf`) are not
//! representable in JSON; they are emitted as the strings `"inf"`,
//! `"-inf"` and `"nan"`, and [`Json::as_f64`] converts them back.
//!
//! # Examples
//!
//! ```
//! use drum_metrics::json::Json;
//!
//! let v = Json::parse(r#"{"count": 3, "mean": 5.5}"#).unwrap();
//! assert_eq!(v.get("count").and_then(Json::as_u64), Some(3));
//! assert_eq!(v.get("mean").and_then(Json::as_f64), Some(5.5));
//! ```

/// A JSON value. Objects preserve insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A number (always carried as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object as ordered key/value pairs.
    Obj(Vec<(String, Json)>),
}

/// Errors from [`Json::parse`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JsonError {
    /// Input ended before the value was complete.
    UnexpectedEnd,
    /// An unexpected byte at the given offset.
    Unexpected {
        /// Byte offset into the input.
        at: usize,
    },
    /// A number token that does not parse as `f64`.
    BadNumber {
        /// Byte offset of the token start.
        at: usize,
    },
    /// An invalid `\u` escape or string byte.
    BadString {
        /// Byte offset of the offending sequence.
        at: usize,
    },
    /// A required field was missing or had the wrong type.
    MissingField {
        /// The field name.
        name: &'static str,
    },
}

impl core::fmt::Display for JsonError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            JsonError::UnexpectedEnd => write!(f, "unexpected end of JSON input"),
            JsonError::Unexpected { at } => write!(f, "unexpected character at byte {at}"),
            JsonError::BadNumber { at } => write!(f, "malformed number at byte {at}"),
            JsonError::BadString { at } => write!(f, "malformed string at byte {at}"),
            JsonError::MissingField { name } => write!(f, "missing or mistyped field '{name}'"),
        }
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Wraps a number, mapping non-finite values to their string spellings.
    pub fn num(x: f64) -> Json {
        if x.is_finite() {
            Json::Num(x)
        } else if x.is_nan() {
            Json::Str("nan".into())
        } else if x > 0.0 {
            Json::Str("inf".into())
        } else {
            Json::Str("-inf".into())
        }
    }

    /// Looks up `key` in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as `f64`, accepting the non-finite string spellings.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            Json::Str(s) => match s.as_str() {
                "inf" => Some(f64::INFINITY),
                "-inf" => Some(f64::NEG_INFINITY),
                "nan" => Some(f64::NAN),
                _ => None,
            },
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is one exactly.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(x) if *x >= 0.0 && x.fract() == 0.0 && *x <= 9.007_199_254_740_992e15 => {
                Some(*x as u64)
            }
            _ => None,
        }
    }

    /// The value as a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Convenience for decoding: `obj.field("x")?.as_f64()` with a typed
    /// error instead of `Option` chains.
    pub fn field_f64(&self, name: &'static str) -> Result<f64, JsonError> {
        self.get(name)
            .and_then(Json::as_f64)
            .ok_or(JsonError::MissingField { name })
    }

    /// Like [`Json::field_f64`] for array fields.
    pub fn field_array(&self, name: &'static str) -> Result<&[Json], JsonError> {
        self.get(name)
            .and_then(Json::as_array)
            .ok_or(JsonError::MissingField { name })
    }

    /// Parses one JSON value; trailing non-whitespace is an error.
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        let bytes = input.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(JsonError::Unexpected { at: pos });
        }
        Ok(value)
    }
}

impl core::fmt::Display for Json {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Json::Null => write!(f, "null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(x) => write_number(f, *x),
            Json::Str(s) => write_string(f, s),
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
            Json::Obj(pairs) => {
                write!(f, "{{")?;
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write_string(f, k)?;
                    write!(f, ":{v}")?;
                }
                write!(f, "}}")
            }
        }
    }
}

fn write_number(f: &mut core::fmt::Formatter<'_>, x: f64) -> core::fmt::Result {
    if !x.is_finite() {
        // Callers should use Json::num, which maps these to strings; keep
        // the output parseable even if a raw Num sneaks through.
        return write_string(
            f,
            if x.is_nan() {
                "nan"
            } else if x > 0.0 {
                "inf"
            } else {
                "-inf"
            },
        );
    }
    if x.fract() == 0.0 && x.abs() < 9.007_199_254_740_992e15 {
        write!(f, "{}", x as i64)
    } else {
        // `{:?}` is Rust's shortest round-tripping float form.
        write!(f, "{x:?}")
    }
}

fn write_string(f: &mut core::fmt::Formatter<'_>, s: &str) -> core::fmt::Result {
    write!(f, "\"")?;
    for c in s.chars() {
        match c {
            '"' => write!(f, "\\\"")?,
            '\\' => write!(f, "\\\\")?,
            '\n' => write!(f, "\\n")?,
            '\r' => write!(f, "\\r")?,
            '\t' => write!(f, "\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    write!(f, "\"")
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, b: u8) -> Result<(), JsonError> {
    if *pos >= bytes.len() {
        return Err(JsonError::UnexpectedEnd);
    }
    if bytes[*pos] != b {
        return Err(JsonError::Unexpected { at: *pos });
    }
    *pos += 1;
    Ok(())
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err(JsonError::UnexpectedEnd),
        Some(b'{') => parse_object(bytes, pos),
        Some(b'[') => parse_array(bytes, pos),
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_keyword(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_keyword(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_keyword(bytes, pos, "null", Json::Null),
        Some(b'-' | b'0'..=b'9') => parse_number(bytes, pos),
        Some(_) => Err(JsonError::Unexpected { at: *pos }),
    }
}

fn parse_keyword(
    bytes: &[u8],
    pos: &mut usize,
    word: &str,
    value: Json,
) -> Result<Json, JsonError> {
    let end = *pos + word.len();
    if end > bytes.len() {
        return Err(JsonError::UnexpectedEnd);
    }
    if &bytes[*pos..end] != word.as_bytes() {
        return Err(JsonError::Unexpected { at: *pos });
    }
    *pos = end;
    Ok(value)
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while matches!(
        bytes.get(*pos),
        Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    ) {
        *pos += 1;
    }
    let token = core::str::from_utf8(&bytes[start..*pos])
        .map_err(|_| JsonError::BadNumber { at: start })?;
    token
        .parse::<f64>()
        .map(Json::Num)
        .map_err(|_| JsonError::BadNumber { at: start })
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, JsonError> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err(JsonError::UnexpectedEnd),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    None => return Err(JsonError::UnexpectedEnd),
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let hex_start = *pos + 1;
                        let hex = bytes
                            .get(hex_start..hex_start + 4)
                            .ok_or(JsonError::UnexpectedEnd)?;
                        let hex = core::str::from_utf8(hex)
                            .map_err(|_| JsonError::BadString { at: hex_start })?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| JsonError::BadString { at: hex_start })?;
                        // Surrogates are not emitted by this crate; map them
                        // to the replacement character rather than erroring.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    Some(_) => return Err(JsonError::BadString { at: *pos }),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar (input is a &str, so boundaries
                // are valid).
                let rest = core::str::from_utf8(&bytes[*pos..])
                    .map_err(|_| JsonError::BadString { at: *pos })?;
                let c = rest.chars().next().ok_or(JsonError::UnexpectedEnd)?;
                if (c as u32) < 0x20 {
                    return Err(JsonError::BadString { at: *pos });
                }
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
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
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            Some(_) => return Err(JsonError::Unexpected { at: *pos }),
            None => return Err(JsonError::UnexpectedEnd),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    expect(bytes, pos, b'{')?;
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
        expect(bytes, pos, b':')?;
        let value = parse_value(bytes, pos)?;
        pairs.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(pairs));
            }
            Some(_) => return Err(JsonError::Unexpected { at: *pos }),
            None => return Err(JsonError::UnexpectedEnd),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_round_trips() {
        for text in ["null", "true", "false", "0", "-7", "2.5", "\"hi\""] {
            let v = Json::parse(text).unwrap();
            assert_eq!(v.to_string(), text);
        }
    }

    #[test]
    fn nested_round_trip() {
        let text = r#"{"a":[1,2.5,{"b":"x\ny"}],"c":null}"#;
        let v = Json::parse(text).unwrap();
        assert_eq!(v.to_string(), text);
    }

    #[test]
    fn non_finite_numbers() {
        assert_eq!(Json::num(f64::INFINITY).to_string(), "\"inf\"");
        assert_eq!(
            Json::num(f64::NEG_INFINITY).as_f64(),
            Some(f64::NEG_INFINITY)
        );
        assert!(Json::num(f64::NAN).as_f64().unwrap().is_nan());
    }

    #[test]
    fn whitespace_tolerated() {
        let v = Json::parse(" { \"k\" : [ 1 , 2 ] } ").unwrap();
        assert_eq!(
            v.get("k").and_then(Json::as_array).map(<[Json]>::len),
            Some(2)
        );
    }

    #[test]
    fn errors_reported() {
        assert_eq!(Json::parse(""), Err(JsonError::UnexpectedEnd));
        assert_eq!(Json::parse("{"), Err(JsonError::UnexpectedEnd));
        assert!(matches!(
            Json::parse("[1,]"),
            Err(JsonError::Unexpected { .. })
        ));
        assert!(matches!(Json::parse("tru"), Err(JsonError::UnexpectedEnd)));
        assert!(matches!(
            Json::parse("01x"),
            Err(JsonError::Unexpected { .. })
        ));
        assert!(matches!(
            Json::parse("1 2"),
            Err(JsonError::Unexpected { .. })
        ));
    }

    #[test]
    fn escapes_round_trip() {
        let v = Json::Str("quote\" slash\\ tab\t nl\n ctrl\u{1}".into());
        let text = v.to_string();
        assert_eq!(Json::parse(&text).unwrap(), v);
    }

    #[test]
    fn integer_precision_preserved() {
        let big = 9_007_199_254_740_991u64; // 2^53 - 1
        let v = Json::num(big as f64);
        assert_eq!(v.to_string(), big.to_string());
        assert_eq!(Json::parse(&v.to_string()).unwrap().as_u64(), Some(big));
    }
}
