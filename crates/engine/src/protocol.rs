//! The wire layer: JSON values, a hand-rolled parser/serializer (std
//! only — the environment has no serde), and the request entry point
//! shared by the TCP server and the in-process tests.
//!
//! The wire format is JSON lines: one request object per line in, one
//! response object per line out. Requests are decoded into the typed
//! [`crate::api::Request`] enum and dispatched through
//! [`crate::api::dispatch`]; every response carries `"ok"`, failures
//! carry a stable `"code"` (see [`crate::api::ErrorCode`]) plus a
//! human-readable `"error"`. Requests may carry a protocol version `"v"`
//! (current: `1`) and a client-chosen `"id"` that is echoed in the
//! response — see the [`crate::api`] docs for the op table, versioning
//! rules and the `batch` op.

use std::sync::Arc;

use crate::engine::Engine;
use crate::stats::WireCodec;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (always carried as f64, like JavaScript).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion-ordered.
    Obj(Vec<(String, Json)>),
}

/// A structured JSON parse failure: what went wrong and where.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure in the input.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl JsonError {
    fn new(offset: usize, message: impl Into<String>) -> Self {
        JsonError {
            offset,
            message: message.into(),
        }
    }
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// String payload.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Numeric payload.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Numeric payload as an index.
    pub fn as_usize(&self) -> Option<usize> {
        self.as_f64()
            .filter(|n| *n >= 0.0 && n.fract() == 0.0)
            .map(|n| n as usize)
    }

    /// Bool payload.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Array payload.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Parses one JSON document.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(JsonError::new(pos, "trailing garbage"));
        }
        Ok(value)
    }

    /// Serializes to compact JSON.
    pub fn render(&self) -> String {
        let mut out = String::new();
        write_value(self, &mut out);
        out
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, token: u8) -> Result<(), JsonError> {
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&token) {
        *pos += 1;
        Ok(())
    } else {
        Err(JsonError::new(
            *pos,
            format!("expected `{}`", token as char),
        ))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err(JsonError::new(*pos, "unexpected end of input")),
        Some(b'n') => parse_keyword(bytes, pos, "null", Json::Null),
        Some(b't') => parse_keyword(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_keyword(bytes, pos, "false", Json::Bool(false)),
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
                    _ => return Err(JsonError::new(*pos, "expected `,` or `]`")),
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
                expect(bytes, pos, b':')?;
                let value = parse_value(bytes, pos)?;
                fields.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(fields));
                    }
                    _ => return Err(JsonError::new(*pos, "expected `,` or `}`")),
                }
            }
        }
        Some(_) => parse_number(bytes, pos).map(Json::Num),
    }
}

fn parse_keyword(
    bytes: &[u8],
    pos: &mut usize,
    word: &str,
    value: Json,
) -> Result<Json, JsonError> {
    if bytes[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(value)
    } else {
        Err(JsonError::new(*pos, "invalid literal"))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<f64, JsonError> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    std::str::from_utf8(&bytes[start..*pos])
        .ok()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| JsonError::new(start, "invalid number"))
}

/// Reads the 4 hex digits of a `\uXXXX` escape at `*pos`, advancing past
/// them on success.
fn parse_hex4(bytes: &[u8], pos: &mut usize) -> Result<u32, JsonError> {
    let hex = bytes
        .get(*pos..*pos + 4)
        .and_then(|h| std::str::from_utf8(h).ok())
        .ok_or_else(|| JsonError::new(*pos, "truncated \\u escape"))?;
    let code =
        u32::from_str_radix(hex, 16).map_err(|_| JsonError::new(*pos, "invalid \\u escape"))?;
    *pos += 4;
    Ok(code)
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, JsonError> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(JsonError::new(*pos, "expected string"));
    }
    let opened_at = *pos;
    *pos += 1;
    let mut out = String::new();
    let mut chunk_start = *pos;
    while *pos < bytes.len() {
        match bytes[*pos] {
            b'"' => {
                out.push_str(
                    std::str::from_utf8(&bytes[chunk_start..*pos])
                        .map_err(|_| JsonError::new(chunk_start, "invalid utf-8 in string"))?,
                );
                *pos += 1;
                return Ok(out);
            }
            b'\\' => {
                out.push_str(
                    std::str::from_utf8(&bytes[chunk_start..*pos])
                        .map_err(|_| JsonError::new(chunk_start, "invalid utf-8 in string"))?,
                );
                *pos += 1;
                let escape = *bytes
                    .get(*pos)
                    .ok_or_else(|| JsonError::new(*pos, "dangling escape"))?;
                *pos += 1;
                match escape {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b't' => out.push('\t'),
                    b'r' => out.push('\r'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    b'u' => {
                        let code = parse_hex4(bytes, pos)?;
                        if (0xD800..=0xDBFF).contains(&code) {
                            // a high surrogate must be followed by `\uDC00`
                            // ..`\uDFFF` to form one supplementary scalar
                            // (claim text from real corpora contains
                            // astral-plane characters); a lone surrogate
                            // maps to the replacement character
                            let mut ahead = *pos;
                            let low = if bytes.get(ahead) == Some(&b'\\')
                                && bytes.get(ahead + 1) == Some(&b'u')
                            {
                                ahead += 2;
                                parse_hex4(bytes, &mut ahead)
                                    .ok()
                                    .filter(|l| (0xDC00..=0xDFFF).contains(l))
                            } else {
                                None
                            };
                            match low {
                                Some(low) => {
                                    *pos = ahead;
                                    let scalar = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                                    out.push(
                                        char::from_u32(scalar)
                                            .expect("paired surrogates form a valid scalar"),
                                    );
                                }
                                None => out.push('\u{FFFD}'),
                            }
                        } else if (0xDC00..=0xDFFF).contains(&code) {
                            out.push('\u{FFFD}'); // lone low surrogate
                        } else {
                            out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                        }
                    }
                    other => {
                        return Err(JsonError::new(
                            *pos - 1,
                            format!("unknown escape `\\{}`", other as char),
                        ))
                    }
                }
                chunk_start = *pos;
            }
            _ => *pos += 1,
        }
    }
    Err(JsonError::new(opened_at, "unterminated string"))
}

fn write_value(value: &Json, out: &mut String) {
    match value {
        Json::Null => out.push_str("null"),
        Json::Bool(true) => out.push_str("true"),
        Json::Bool(false) => out.push_str("false"),
        Json::Num(n) => {
            if !n.is_finite() {
                // JSON has no NaN/Infinity literals; `null` keeps the
                // line parseable whatever a stat or suggestion computes
                out.push_str("null");
            } else if n.fract() == 0.0 && n.abs() < 9e15 {
                out.push_str(&format!("{}", *n as i64));
            } else {
                out.push_str(&format!("{n}"));
            }
        }
        Json::Str(s) => write_string(s, out),
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value(item, out);
            }
            out.push(']');
        }
        Json::Obj(fields) => {
            out.push('{');
            for (i, (key, val)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_string(key, out);
                out.push(':');
                write_value(val, out);
            }
            out.push('}');
        }
    }
}

fn write_string(s: &str, out: &mut String) {
    out.push('"');
    scrutinizer_obs::json_escape_into(out, s);
    out.push('"');
}

/// Builds an object from pairs.
pub fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// Handles one request line against the engine through the typed v1 API,
/// returning the response line (without trailing newline). Never panics
/// on malformed input: parse failures, unknown ops, unsupported versions
/// and engine errors all come back as `{"ok":false,"code":...,"error":...}`
/// — and a panic anywhere inside dispatch is caught here and answered as
/// a structured `internal` error, so one poisoned request can neither
/// kill a serving worker silently nor desynchronize a pipelined client
/// waiting on a response line.
pub fn handle_request(engine: &Arc<Engine>, line: &str) -> String {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        crate::api::handle_line(engine, line).render()
    })) {
        Ok(response) => response,
        Err(payload) => respond_panicked(engine, payload),
    }
}

/// Handles one queued request payload under the connection's negotiated
/// codec, appending the complete response — a JSON line with its
/// newline, or one binary frame — to `out`. Both serving loops (the TCP
/// server and the simulation harness) execute through this one entry
/// point, so neither codec's dispatch behavior can drift between them.
pub fn handle_payload(engine: &Arc<Engine>, codec: WireCodec, payload: &[u8], out: &mut Vec<u8>) {
    match codec {
        WireCodec::Json => {
            // invalid UTF-8 decodes lossily and fails JSON parsing,
            // producing a structured parse_error like any other bad line
            let line = String::from_utf8_lossy(payload);
            let response = handle_request(engine, &line);
            out.extend_from_slice(response.as_bytes());
            out.push(b'\n');
        }
        WireCodec::Binary => crate::wire::handle_frame(engine, payload, out),
    }
}

/// Counts a caught dispatch panic as one `internal` wire error under
/// `codec`, logs it, and returns its payload as the human-readable
/// detail — the one panic path both codecs share.
pub(crate) fn note_panic(
    engine: &Engine,
    codec: WireCodec,
    payload: &(dyn std::any::Any + Send),
) -> String {
    let detail = payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "request handler panicked".to_string());
    engine
        .stats_ref()
        .note_wire_error(crate::api::ErrorCode::Internal, codec);
    scrutinizer_obs::log_error!("request handler panicked", detail = detail.clone());
    detail
}

/// Renders the `internal` error line for a caught dispatch panic and
/// counts it toward the conservation invariant. Split out so tests can
/// exercise the panic path without constructing a genuinely-panicking
/// request (no well-formed input reaches it today — which is the point).
pub(crate) fn respond_panicked(
    engine: &Arc<Engine>,
    payload: Box<dyn std::any::Any + Send>,
) -> String {
    let detail = note_panic(engine, WireCodec::Json, &*payload);
    crate::api::error_line(
        crate::api::ErrorCode::Internal,
        &format!("internal error: {detail}"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_round_trips() {
        let text = r#"{"op":"answer","session":3,"claim":14,"kind":"relation","answer":"GED \"x\"","nested":[1,2.5,null,true,{"k":"v"}]}"#;
        let parsed = Json::parse(text).unwrap();
        assert_eq!(parsed.get("op").and_then(Json::as_str), Some("answer"));
        assert_eq!(parsed.get("session").and_then(Json::as_usize), Some(3));
        assert_eq!(
            parsed.get("answer").and_then(Json::as_str),
            Some("GED \"x\"")
        );
        let reparsed = Json::parse(&parsed.render()).unwrap();
        assert_eq!(parsed, reparsed);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Json::parse("{\"a\":}").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("{\"a\":1} trailing").is_err());
        assert!(Json::parse("\"unterminated").is_err());
    }

    #[test]
    fn parse_errors_carry_offsets() {
        let error = Json::parse("{\"a\":1} trailing").unwrap_err();
        assert_eq!(error.offset, 8);
        assert!(error.to_string().contains("at byte 8"));
    }

    #[test]
    fn escapes_render_safely() {
        let value = Json::Str("line\nbreak\t\"quote\" \\ \u{1}".to_string());
        let rendered = value.render();
        assert_eq!(Json::parse(&rendered).unwrap(), value);
    }

    #[test]
    fn integers_render_without_exponent() {
        assert_eq!(Json::Num(5.0).render(), "5");
        assert_eq!(Json::Num(2.5).render(), "2.5");
    }

    #[test]
    fn non_finite_numbers_render_as_null() {
        // `NaN`/`inf` are not JSON; a pathological stat or suggestion
        // value must never corrupt a response line
        assert_eq!(Json::Num(f64::NAN).render(), "null");
        assert_eq!(Json::Num(f64::INFINITY).render(), "null");
        assert_eq!(Json::Num(f64::NEG_INFINITY).render(), "null");
        let wrapped = Json::Arr(vec![Json::Num(f64::NAN), Json::Num(1.5)]);
        assert_eq!(
            Json::parse(&wrapped.render()).unwrap().as_arr().unwrap()[0],
            Json::Null
        );
    }

    #[test]
    fn surrogate_pairs_decode_to_supplementary_scalars() {
        // escaped U+1D11E MUSICAL SYMBOL G CLEF and U+1F600 GRINNING FACE
        let parsed = Json::parse(r#""\uD834\uDD1E and \uD83D\uDE00""#).unwrap();
        assert_eq!(parsed.as_str(), Some("\u{1D11E} and \u{1F600}"));
        // round trip: the decoded scalar renders as raw UTF-8
        assert_eq!(Json::parse(&parsed.render()).unwrap(), parsed);
        // raw astral-plane UTF-8 also passes through untouched
        assert_eq!(Json::parse("\"𝄞\"").unwrap().as_str(), Some("\u{1D11E}"));
    }

    #[test]
    fn lone_surrogates_become_replacement_chars() {
        // unpaired high, unpaired low, and high followed by a non-low escape
        assert_eq!(
            Json::parse(r#""\uD834!""#).unwrap().as_str(),
            Some("\u{FFFD}!")
        );
        assert_eq!(
            Json::parse(r#""\uDD1E""#).unwrap().as_str(),
            Some("\u{FFFD}")
        );
        assert_eq!(
            Json::parse(r#""\uD834A""#).unwrap().as_str(),
            Some("\u{FFFD}A")
        );
        // a high surrogate at end-of-string stays a lone surrogate, and the
        // string must still terminate cleanly
        assert_eq!(
            Json::parse(r#""\uD834""#).unwrap().as_str(),
            Some("\u{FFFD}")
        );
    }
}
