//! The wire codec: each value's JSON form and little-endian binary form,
//! declared once per type in a `Wire` impl, and the binary payload
//! entry points the framing in [`wire`](crate::wire) calls. The op
//! tables in [`api`](crate::api) build [`Request`] and [`Response`] from
//! these impls, and the WAL's records and checkpoint image
//! ([`durability`](crate::durability)) write their ids, strings and flags
//! through them too.
//!
//! Design rules, mirroring the JSON contract they sit beside:
//!
//! * **Requests decode straight into [`Request`].** Ids and claim lists
//!   are read directly into the request's fields, and each string is
//!   copied once, out of the frame. The string-free ops (`suggest`,
//!   `screens`, `verdict`, `stats`, …) decode without touching the heap,
//!   so a warm binary `suggest` allocates nothing from frame to frame.
//! * **Fixed-width primitives.** `u8`/`u32`/`u64` and `f64` are
//!   little-endian; strings and lists are `u32` count + items; an option
//!   is a `0`/`1` byte, then the value when it is `1`. No varints:
//!   predictable layout beats a few bytes on a local wire.
//! * **Op and kind bytes follow the op tables.** Each op's byte is
//!   declared on its row of the request table and each response kind's
//!   on its row of the response table — append-only, like error codes.
//!   There is deliberately no binary `batch` op: binary clients pipeline
//!   frames instead, which the multiplexed server already executes in
//!   order.
//! * **Responses decode to the canonical JSON shape.**
//!   [`decode_response`] returns the same [`Json`] object the JSON
//!   codec would have produced for the same response (`ok`, echoed
//!   `id`, `trace`, then the payload fields in the same order), so
//!   differential tests and clients compare codecs byte-for-byte after
//!   one render. `stats` bodies embed the canonical JSON rendering as a
//!   string for the same reason — the snapshot is an operator surface,
//!   not a hot path.

use std::sync::Arc;

use scrutinizer_core::report::{ClaimOutcome, Verdict};
use scrutinizer_core::PropertyKind;

use crate::api::{envelope, error_json, ApiError, ErrorCode, Request, Response};
use crate::engine::VerdictRecord;
use crate::protocol::{obj, Json};
use crate::session::{ClaimQuestions, ScreenView, Suggestion};

/// Envelope flag: the request carries a `u64` request id.
pub const FLAG_HAS_ID: u8 = 1;
/// Envelope flag: the request carries a `u64` trace id.
pub const FLAG_HAS_TRACE: u8 = 1 << 1;

/// Binary request envelope: the version/id/trace fields that precede the
/// op byte (the binary mirror of the JSON `v`/`id`/`trace` keys; ids and
/// traces are `u64` here, rendered as a number and 16 hex digits on the
/// JSON side).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BinEnvelope {
    /// Protocol version claimed by the client.
    pub version: u8,
    /// Client-chosen request id, echoed in the response.
    pub id: Option<u64>,
    /// Client-chosen trace id, echoed and attached to spans.
    pub trace: Option<u64>,
}

// ---- primitive writers and reader ----------------------------------------

pub(crate) fn put_u8(out: &mut Vec<u8>, value: u8) {
    out.push(value);
}

pub(crate) fn put_u32(out: &mut Vec<u8>, value: u32) {
    out.extend_from_slice(&value.to_le_bytes());
}

pub(crate) fn put_str(out: &mut Vec<u8>, value: &str) {
    put_u32(out, value.len() as u32);
    out.extend_from_slice(value.as_bytes());
}

/// Cursor over a frame payload. Every read is bounds-checked; running
/// off the end is a structural `parse_error`, mirroring bad JSON.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

fn truncated() -> ApiError {
    ApiError::new(ErrorCode::ParseError, "truncated binary payload")
}

impl<'a> Reader<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.pos >= self.buf.len()
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ApiError> {
        let end = self.pos.checked_add(n).ok_or_else(truncated)?;
        if end > self.buf.len() {
            return Err(truncated());
        }
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    pub(crate) fn u8(&mut self) -> Result<u8, ApiError> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn u32(&mut self) -> Result<u32, ApiError> {
        let bytes = self.take(4)?;
        Ok(u32::from_le_bytes(bytes.try_into().expect("4 bytes")))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, ApiError> {
        let bytes = self.take(8)?;
        Ok(u64::from_le_bytes(bytes.try_into().expect("8 bytes")))
    }

    pub(crate) fn bool(&mut self) -> Result<bool, ApiError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(ApiError::new(
                ErrorCode::ParseError,
                format!("invalid boolean byte {other}"),
            )),
        }
    }

    fn str(&mut self) -> Result<&'a str, ApiError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        std::str::from_utf8(bytes)
            .map_err(|_| ApiError::new(ErrorCode::ParseError, "string field is not UTF-8"))
    }

    /// Reads a `u32` count, then that many items. The pre-allocation is
    /// capped by what the rest of the payload could hold at 8 bytes per
    /// item, so a lying count cannot balloon memory.
    pub(crate) fn list<T>(
        &mut self,
        mut item: impl FnMut(&mut Self) -> Result<T, ApiError>,
    ) -> Result<Vec<T>, ApiError> {
        let count = self.u32()? as usize;
        let mut out = Vec::with_capacity(count.min((self.buf.len() - self.pos) / 8 + 1));
        for _ in 0..count {
            out.push(item(self)?);
        }
        Ok(out)
    }
}

// ---- one value, two forms ------------------------------------------------

/// One value's two wire forms, declared once: its JSON value and its
/// binary layout. Requests, responses, both codecs and the WAL all go
/// through these impls, so a field's encoding cannot differ between them.
pub(crate) trait Wire {
    /// The JSON form.
    fn to_json(&self) -> Json;

    /// Appends the binary form.
    fn put(&self, out: &mut Vec<u8>);

    /// Reads the binary form into the JSON form [`Wire::to_json`] gives —
    /// how a client turns a binary response into the canonical JSON one.
    fn read_json(reader: &mut Reader<'_>) -> Result<Json, ApiError>;

    /// Sets this value as the member `key` of a JSON object.
    fn push_json(&self, key: &str, object: &mut Vec<(String, Json)>) {
        object.push((key.to_string(), self.to_json()));
    }

    /// Reads the binary form into the member `key` of a JSON object, as
    /// [`Wire::push_json`] would have set it.
    fn read_member(
        reader: &mut Reader<'_>,
        key: &str,
        object: &mut Vec<(String, Json)>,
    ) -> Result<(), ApiError> {
        object.push((key.to_string(), Self::read_json(reader)?));
        Ok(())
    }
}

/// A request field: a [`Wire`] value the server reads back from either
/// form.
pub(crate) trait Field: Wire + Sized {
    /// Parses the member `key` of a request object (`None` when absent).
    /// A missing or mistyped member is an `invalid_argument` error.
    fn from_json(value: Option<&Json>, key: &str) -> Result<Self, ApiError>;

    /// Reads the binary form.
    fn read(reader: &mut Reader<'_>) -> Result<Self, ApiError>;
}

/// A required member, read by `read` or reported missing.
fn required<'j, T>(
    value: Option<&'j Json>,
    key: &str,
    read: impl FnOnce(&'j Json) -> Option<T>,
) -> Result<T, ApiError> {
    value
        .and_then(read)
        .ok_or_else(|| ApiError::invalid(format!("missing `{key}`")))
}

impl Wire for u64 {
    fn to_json(&self) -> Json {
        Json::Num(*self as f64)
    }
    fn put(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
    fn read_json(reader: &mut Reader<'_>) -> Result<Json, ApiError> {
        Ok(Self::read(reader)?.to_json())
    }
}

impl Field for u64 {
    fn from_json(value: Option<&Json>, key: &str) -> Result<Self, ApiError> {
        required(value, key, |v| v.as_usize().map(|n| n as u64))
    }
    fn read(reader: &mut Reader<'_>) -> Result<Self, ApiError> {
        reader.u64()
    }
}

/// Sent as a `u64`.
impl Wire for usize {
    fn to_json(&self) -> Json {
        Json::Num(*self as f64)
    }
    fn put(&self, out: &mut Vec<u8>) {
        (*self as u64).put(out);
    }
    fn read_json(reader: &mut Reader<'_>) -> Result<Json, ApiError> {
        Ok(Self::read(reader)?.to_json())
    }
}

impl Field for usize {
    fn from_json(value: Option<&Json>, key: &str) -> Result<Self, ApiError> {
        required(value, key, Json::as_usize)
    }
    fn read(reader: &mut Reader<'_>) -> Result<Self, ApiError> {
        Ok(reader.u64()? as usize)
    }
}

/// Sent as a `0`/`1` byte; any other byte is a `parse_error`.
impl Wire for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
    fn put(&self, out: &mut Vec<u8>) {
        put_u8(out, u8::from(*self));
    }
    fn read_json(reader: &mut Reader<'_>) -> Result<Json, ApiError> {
        Ok(Self::read(reader)?.to_json())
    }
}

impl Field for bool {
    fn from_json(value: Option<&Json>, key: &str) -> Result<Self, ApiError> {
        required(value, key, Json::as_bool)
    }
    fn read(reader: &mut Reader<'_>) -> Result<Self, ApiError> {
        reader.bool()
    }
}

impl Wire for f64 {
    fn to_json(&self) -> Json {
        Json::Num(*self)
    }
    fn put(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
    fn read_json(reader: &mut Reader<'_>) -> Result<Json, ApiError> {
        Ok(Json::Num(f64::from_bits(reader.u64()?)))
    }
}

/// A `u32` byte length, then UTF-8.
impl Wire for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
    fn put(&self, out: &mut Vec<u8>) {
        put_str(out, self);
    }
    fn read_json(reader: &mut Reader<'_>) -> Result<Json, ApiError> {
        Ok(Self::read(reader)?.to_json())
    }
}

impl Field for String {
    fn from_json(value: Option<&Json>, key: &str) -> Result<Self, ApiError> {
        required(value, key, |v| v.as_str().map(str::to_string))
    }
    fn read(reader: &mut Reader<'_>) -> Result<Self, ApiError> {
        Ok(reader.str()?.to_string())
    }
}

/// The property kinds' wire labels; a kind's binary byte is its row.
const KINDS: [(PropertyKind, &str); 4] = [
    (PropertyKind::Relation, "relation"),
    (PropertyKind::Key, "key"),
    (PropertyKind::Attribute, "attribute"),
    (PropertyKind::Formula, "formula"),
];

fn kind_row(kind: PropertyKind) -> usize {
    KINDS
        .iter()
        .position(|(row, _)| *row == kind)
        .expect("every kind has a row")
}

impl Wire for PropertyKind {
    fn to_json(&self) -> Json {
        Json::Str(KINDS[kind_row(*self)].1.to_string())
    }
    fn put(&self, out: &mut Vec<u8>) {
        put_u8(out, kind_row(*self) as u8);
    }
    fn read_json(reader: &mut Reader<'_>) -> Result<Json, ApiError> {
        Ok(Self::read(reader)?.to_json())
    }
}

impl Field for PropertyKind {
    fn from_json(value: Option<&Json>, key: &str) -> Result<Self, ApiError> {
        value
            .and_then(Json::as_str)
            .and_then(|label| KINDS.iter().find(|(_, row)| *row == label))
            .map(|(kind, _)| *kind)
            .ok_or_else(|| ApiError::invalid(format!("missing or invalid `{key}`")))
    }
    fn read(reader: &mut Reader<'_>) -> Result<Self, ApiError> {
        let byte = reader.u8()?;
        KINDS
            .get(usize::from(byte))
            .map(|(kind, _)| *kind)
            .ok_or_else(|| {
                ApiError::new(
                    ErrorCode::InvalidArgument,
                    format!("invalid property kind byte {byte}"),
                )
            })
    }
}

/// Absent: a `0` byte, and no JSON member at all. Present: a `1` byte,
/// then the value.
impl<T: Field> Wire for Option<T> {
    fn to_json(&self) -> Json {
        self.as_ref().map_or(Json::Null, Wire::to_json)
    }
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            Some(value) => {
                put_u8(out, 1);
                value.put(out);
            }
            None => put_u8(out, 0),
        }
    }
    fn read_json(reader: &mut Reader<'_>) -> Result<Json, ApiError> {
        Ok(Self::read(reader)?.to_json())
    }
    fn push_json(&self, key: &str, object: &mut Vec<(String, Json)>) {
        if let Some(value) = self {
            value.push_json(key, object);
        }
    }
    fn read_member(
        reader: &mut Reader<'_>,
        key: &str,
        object: &mut Vec<(String, Json)>,
    ) -> Result<(), ApiError> {
        match reader.bool()? {
            true => T::read_member(reader, key, object),
            false => Ok(()),
        }
    }
}

/// Lenient in JSON: a mistyped member reads as absent.
impl<T: Field> Field for Option<T> {
    fn from_json(value: Option<&Json>, key: &str) -> Result<Self, ApiError> {
        Ok(value.and_then(|value| T::from_json(Some(value), key).ok()))
    }
    fn read(reader: &mut Reader<'_>) -> Result<Self, ApiError> {
        match reader.bool()? {
            true => T::read(reader).map(Some),
            false => Ok(None),
        }
    }
}

/// A list is a `u32` count, then each item; in JSON, an array.
macro_rules! wire_list {
    ($($list:ty),*) => {$(
        impl<T: Wire> Wire for $list {
            fn to_json(&self) -> Json {
                Json::Arr(self.iter().map(Wire::to_json).collect())
            }
            fn put(&self, out: &mut Vec<u8>) {
                put_u32(out, self.len() as u32);
                for item in self.iter() {
                    item.put(out);
                }
            }
            fn read_json(reader: &mut Reader<'_>) -> Result<Json, ApiError> {
                reader.list(T::read_json).map(Json::Arr)
            }
        }
    )*};
}

wire_list!(Vec<T>, Arc<[T]>);

/// A claim-id list.
impl Field for Vec<usize> {
    fn from_json(value: Option<&Json>, key: &str) -> Result<Self, ApiError> {
        required(value, key, Json::as_arr)?
            .iter()
            .map(|item| {
                item.as_usize()
                    .ok_or_else(|| ApiError::invalid(format!("invalid claim id {}", item.render())))
            })
            .collect()
    }
    fn read(reader: &mut Reader<'_>) -> Result<Self, ApiError> {
        reader.list(usize::read)
    }
}

/// The `stats` body: its rendering, as a string.
impl Wire for Json {
    fn to_json(&self) -> Json {
        self.clone()
    }
    fn put(&self, out: &mut Vec<u8>) {
        put_str(out, &self.render());
    }
    fn read_json(reader: &mut Reader<'_>) -> Result<Json, ApiError> {
        Json::parse(reader.str()?).map_err(|error| {
            ApiError::new(
                ErrorCode::ParseError,
                format!("embedded JSON body does not parse: {error}"),
            )
        })
    }
}

/// The verdicts' wire names; a verdict's binary byte is its row.
const VERDICTS: [&str; 3] = ["correct", "incorrect", "skipped"];

fn verdict_row(verdict: &Verdict) -> usize {
    match verdict {
        Verdict::Correct { .. } => 0,
        Verdict::Incorrect { .. } => 1,
        Verdict::Skipped => 2,
    }
}

/// Only the verdict's name crosses the wire.
impl Wire for Verdict {
    fn to_json(&self) -> Json {
        Json::Str(VERDICTS[verdict_row(self)].to_string())
    }
    fn put(&self, out: &mut Vec<u8>) {
        put_u8(out, verdict_row(self) as u8);
    }
    fn read_json(reader: &mut Reader<'_>) -> Result<Json, ApiError> {
        let byte = reader.u8()?;
        let name = VERDICTS.get(usize::from(byte)).ok_or_else(|| {
            ApiError::new(
                ErrorCode::ParseError,
                format!("invalid verdict byte {byte}"),
            )
        })?;
        Ok(Json::Str(name.to_string()))
    }
}

/// Implements [`Wire`] for a struct sent as one JSON object. Each row
/// names the JSON member, the field it holds and the field's type; the
/// binary form is the fields in row order. Trailing tokens join the impl.
macro_rules! wire_object {
    ($ty:ty { $($key:literal: $($field:ident).+ => $fty:ty),* $(,)? } $($extra:tt)*) => {
        impl Wire for $ty {
            fn to_json(&self) -> Json {
                obj(vec![$(($key, self.$($field).+.to_json())),*])
            }
            fn put(&self, out: &mut Vec<u8>) {
                $(self.$($field).+.put(out);)*
            }
            fn read_json(reader: &mut Reader<'_>) -> Result<Json, ApiError> {
                Ok(obj(vec![$(($key, <$fty as Wire>::read_json(reader)?)),*]))
            }
            $($extra)*
        }
    };
}

wire_object!(ScreenView {
    "kind": kind => PropertyKind,
    "options": options => Vec<String>,
});

wire_object!(ClaimQuestions {
    "claim": claim_id => usize,
    "expected_cost": expected_cost => f64,
    "screens": screens => Vec<ScreenView>,
});

wire_object!(Suggestion {
    "rank": rank => usize,
    "sql": sql => String,
    "formula": formula => String,
    "value": value => f64,
    "matches_parameter": matches_parameter => bool,
});

wire_object!(ClaimOutcome {
    "claim": claim_id => usize,
    "verdict": verdict => Verdict,
    "matches_truth": verdict_matches_truth => bool,
    "crowd_seconds": crowd_seconds => f64,
});

// A recorded verdict's members sit directly in its response object.
wire_object!(VerdictRecord {
    "verdict": outcome.verdict => Verdict,
    "matches_truth": outcome.verdict_matches_truth => bool,
    "retrained": retrained => bool,
} fn push_json(&self, _key: &str, object: &mut Vec<(String, Json)>) {
    if let Json::Obj(members) = self.to_json() {
        object.extend(members);
    }
}
fn read_member(
    reader: &mut Reader<'_>,
    _key: &str,
    object: &mut Vec<(String, Json)>,
) -> Result<(), ApiError> {
    if let Json::Obj(members) = Self::read_json(reader)? {
        object.extend(members);
    }
    Ok(())
});

// ---- requests ------------------------------------------------------------

/// Encodes one request payload (envelope + op + body), without the frame
/// length prefix — [`wire::frame_into`](crate::wire::frame_into) adds
/// that.
pub fn encode_request(out: &mut Vec<u8>, request: &Request, id: Option<u64>, trace: Option<u64>) {
    put_u8(out, crate::api::PROTOCOL_VERSION as u8);
    let mut flags = 0u8;
    if id.is_some() {
        flags |= FLAG_HAS_ID;
    }
    if trace.is_some() {
        flags |= FLAG_HAS_TRACE;
    }
    put_u8(out, flags);
    for value in [id, trace].into_iter().flatten() {
        value.put(out);
    }
    request.put_body(out);
}

/// Decodes the envelope fields off the front of a frame payload,
/// returning the envelope and a reader positioned at the op byte. Split
/// from [`decode_body`] so the version gate can answer with the echoed
/// id even when the op body never decodes.
pub fn decode_envelope(payload: &[u8]) -> Result<(BinEnvelope, Reader<'_>), ApiError> {
    let mut reader = Reader::new(payload);
    let version = reader.u8()?;
    let flags = reader.u8()?;
    let id = if flags & FLAG_HAS_ID != 0 {
        Some(reader.u64()?)
    } else {
        None
    };
    let trace = if flags & FLAG_HAS_TRACE != 0 {
        Some(reader.u64()?)
    } else {
        None
    };
    Ok((BinEnvelope { version, id, trace }, reader))
}

/// Decodes the op byte and body from a reader positioned past the
/// envelope (see [`decode_envelope`]) straight into a [`Request`].
pub fn decode_body(reader: &mut Reader<'_>) -> Result<Request, ApiError> {
    let request = Request::read_body(reader)?;
    if !reader.is_empty() {
        return Err(ApiError::new(
            ErrorCode::ParseError,
            "trailing bytes after binary request body",
        ));
    }
    Ok(request)
}

// ---- responses -----------------------------------------------------------

fn put_response_envelope(out: &mut Vec<u8>, ok: bool, id: Option<u64>, trace: u64) {
    put_u8(out, u8::from(ok));
    let flags = if id.is_some() { FLAG_HAS_ID } else { 0 };
    put_u8(out, flags);
    if let Some(id) = id {
        id.put(out);
    }
    trace.put(out);
}

/// Encodes one success response payload (without the frame length
/// prefix): response envelope, kind byte, then the body fields in the
/// same order the JSON payload lists them.
pub fn encode_ok_response(out: &mut Vec<u8>, id: Option<u64>, trace: u64, response: &Response) {
    put_response_envelope(out, true, id, trace);
    response.put_body(out);
}

/// Encodes one error response payload (without the frame length prefix):
/// response envelope, the stable code byte ([`ErrorCode::index`]), then
/// the human-readable message.
pub fn encode_err_response(
    out: &mut Vec<u8>,
    id: Option<u64>,
    trace: u64,
    code: ErrorCode,
    message: &str,
) {
    put_response_envelope(out, false, id, trace);
    put_u8(out, code.index() as u8);
    put_str(out, message);
}

/// Decodes one binary response payload into the canonical JSON response
/// object — the exact shape the JSON codec emits for the same response
/// (`ok`, echoed `id`, `trace` as 16 hex digits, then the payload).
/// This is the client half of the codec, used by tests, benches, and
/// the simulation harness to compare codecs value-for-value.
pub fn decode_response(payload: &[u8]) -> Result<Json, ApiError> {
    let mut reader = Reader::new(payload);
    let ok = reader.bool()?;
    let flags = reader.u8()?;
    let id = if flags & FLAG_HAS_ID != 0 {
        Some(u64::read_json(&mut reader)?)
    } else {
        None
    };
    let trace = format!("{:016x}", reader.u64()?);
    if !ok {
        let code_byte = reader.u8()? as usize;
        let code = *ErrorCode::ALL.get(code_byte).ok_or_else(|| {
            ApiError::new(
                ErrorCode::ParseError,
                format!("invalid error code byte {code_byte}"),
            )
        })?;
        return Ok(error_json(id.as_ref(), Some(&trace), code, reader.str()?));
    }
    let mut object = envelope(true, id.as_ref(), Some(&trace));
    Response::read_body(&mut reader, &mut object)?;
    if !reader.is_empty() {
        return Err(ApiError::new(
            ErrorCode::ParseError,
            "trailing bytes after binary response body",
        ));
    }
    Ok(Json::Obj(object))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(request: Request) {
        let mut payload = Vec::new();
        encode_request(&mut payload, &request, Some(7), Some(0xAB));
        let (envelope, mut reader) = decode_envelope(&payload).expect("envelope decodes");
        assert_eq!(envelope.version, 1);
        assert_eq!(envelope.id, Some(7));
        assert_eq!(envelope.trace, Some(0xAB));
        let decoded = decode_body(&mut reader).expect("body decodes");
        assert_eq!(decoded, request);
    }

    #[test]
    fn every_request_round_trips() {
        round_trip(Request::Open { checker: None });
        round_trip(Request::Open {
            checker: Some("alice \u{1F980}".to_string()),
        });
        round_trip(Request::Submit {
            session: 3,
            claims: vec![0, 5, 99],
        });
        round_trip(Request::NextBatch { session: 9 });
        round_trip(Request::Screens {
            session: 1,
            claim: 2,
        });
        round_trip(Request::Answer {
            session: 1,
            claim: 2,
            kind: PropertyKind::Key,
            answer: "a \"quoted\"\nanswer".to_string(),
        });
        round_trip(Request::Suggest {
            session: 1,
            claim: 2,
        });
        round_trip(Request::Verdict {
            session: 1,
            claim: 2,
            correct: true,
            chosen: Some(0),
        });
        round_trip(Request::Sql {
            query: "SELECT a.x FROM t a".to_string(),
        });
        round_trip(Request::VerifyBatch {
            claims: vec![1, 2],
            seed: Some(u64::MAX),
        });
        round_trip(Request::Stats);
        round_trip(Request::Metrics);
        round_trip(Request::Close { session: 4 });
    }

    #[test]
    fn envelope_flags_are_independent() {
        let mut payload = Vec::new();
        encode_request(&mut payload, &Request::Stats, None, None);
        let (envelope, mut reader) = decode_envelope(&payload).unwrap();
        assert_eq!(envelope.id, None);
        assert_eq!(envelope.trace, None);
        assert_eq!(decode_body(&mut reader).unwrap(), Request::Stats);
    }

    #[test]
    fn truncation_anywhere_is_a_parse_error() {
        let mut payload = Vec::new();
        encode_request(
            &mut payload,
            &Request::Sql {
                query: "SELECT 1".to_string(),
            },
            Some(1),
            None,
        );
        for cut in 0..payload.len() {
            let slice = &payload[..cut];
            let outcome = decode_envelope(slice)
                .and_then(|(_, mut reader)| decode_body(&mut reader).map(|_| ()));
            assert!(outcome.is_err(), "prefix of {cut} bytes decoded");
        }
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut payload = Vec::new();
        encode_request(&mut payload, &Request::Stats, None, None);
        payload.push(0xFF);
        let (_, mut reader) = decode_envelope(&payload).unwrap();
        let error = decode_body(&mut reader).unwrap_err();
        assert_eq!(error.code, ErrorCode::ParseError);
    }

    #[test]
    fn unknown_op_byte_maps_to_unknown_op() {
        let payload = [1u8, 0, 200];
        let (_, mut reader) = decode_envelope(&payload).unwrap();
        let error = decode_body(&mut reader).unwrap_err();
        assert_eq!(error.code, ErrorCode::UnknownOp);
    }

    #[test]
    fn error_response_decodes_to_canonical_json() {
        let mut payload = Vec::new();
        encode_err_response(
            &mut payload,
            Some(9),
            0xCD,
            ErrorCode::UnknownSession,
            "unknown session s9",
        );
        let decoded = decode_response(&payload).expect("decodes");
        assert_eq!(decoded.get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(decoded.get("id").and_then(Json::as_usize), Some(9));
        assert_eq!(
            decoded.get("trace").and_then(Json::as_str),
            Some("00000000000000cd")
        );
        assert_eq!(
            decoded.get("code").and_then(Json::as_str),
            Some("unknown_session")
        );
    }

    #[test]
    fn suggestions_response_matches_json_payload_order() {
        let response = Response::Suggestions {
            suggestions: vec![Suggestion {
                rank: 0,
                sql: "SELECT a.x FROM t a".to_string(),
                formula: "x".to_string(),
                value: 42.5,
                matches_parameter: true,
            }]
            .into(),
        };
        let mut payload = Vec::new();
        encode_ok_response(&mut payload, None, 1, &response);
        let decoded = decode_response(&payload).expect("decodes");
        let suggestions = decoded
            .get("suggestions")
            .and_then(Json::as_arr)
            .expect("array");
        assert_eq!(
            suggestions[0].get("sql").and_then(Json::as_str),
            Some("SELECT a.x FROM t a")
        );
        assert_eq!(
            suggestions[0].get("value").and_then(Json::as_f64),
            Some(42.5)
        );
    }
}
