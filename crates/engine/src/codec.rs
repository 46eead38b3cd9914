//! The binary value codec: little-endian, length-delimited encodings of
//! [`Request`] and [`Response`] used by the binary wire framing
//! ([`wire`](crate::wire)).
//!
//! Design rules, mirroring the JSON contract they sit beside:
//!
//! * **Zero-copy decode.** A request payload decodes to
//!   [`RequestRef`], which borrows every string straight from the frame
//!   buffer. The owned-conversion seam ([`RequestRef::to_owned`])
//!   allocates only for the ops that actually carry strings (`open`,
//!   `answer`, `sql`) — `suggest`, `screens`, `verdict`, `stats` and
//!   friends decode and convert without touching the heap.
//! * **Fixed-width primitives.** `u8`/`u32`/`u64` and `f64` are
//!   little-endian; strings and lists are `u32` count + items. No
//!   varints: predictable layout beats a few bytes on a local wire.
//! * **Op bytes follow the v1 op table.** The byte for each op is its
//!   row index in `api::OPS` — append-only, like error codes. There is
//!   deliberately no binary `batch` op: binary clients pipeline frames
//!   instead, which the multiplexed server already executes in order.
//! * **Responses decode to the canonical JSON shape.**
//!   [`decode_response`] returns the same [`Json`] object the JSON
//!   codec would have produced for the same response (`ok`, echoed
//!   `id`, `trace`, then the payload fields in the same order), so
//!   differential tests and clients compare codecs byte-for-byte after
//!   one render. `stats` bodies embed the canonical JSON rendering as a
//!   string for the same reason — the snapshot is an operator surface,
//!   not a hot path.

use scrutinizer_core::report::{ClaimOutcome, Verdict};
use scrutinizer_core::PropertyKind;

use crate::api::{kind_label, ApiError, ErrorCode, Request, Response};
use crate::protocol::Json;
use crate::session::{ClaimQuestions, Suggestion};

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

/// A [`Request`] decoded without copying: every string borrows from the
/// frame buffer. Claims lists are materialized (dispatch needs a slice),
/// strings are not.
#[derive(Debug, Clone, PartialEq)]
pub enum RequestRef<'a> {
    /// `open`
    Open {
        /// Checker name, if given.
        checker: Option<&'a str>,
    },
    /// `submit`
    Submit {
        /// Target session.
        session: u64,
        /// Corpus claim ids.
        claims: Vec<usize>,
    },
    /// `next_batch`
    NextBatch {
        /// Target session.
        session: u64,
    },
    /// `screens`
    Screens {
        /// Target session.
        session: u64,
        /// Corpus claim id.
        claim: usize,
    },
    /// `answer`
    Answer {
        /// Target session.
        session: u64,
        /// Corpus claim id.
        claim: usize,
        /// The property the answer validates.
        kind: PropertyKind,
        /// The chosen option (borrowed from the frame).
        answer: &'a str,
    },
    /// `suggest`
    Suggest {
        /// Target session.
        session: u64,
        /// Corpus claim id.
        claim: usize,
    },
    /// `verdict`
    Verdict {
        /// Target session.
        session: u64,
        /// Corpus claim id.
        claim: usize,
        /// The checker's judgment.
        correct: bool,
        /// Rank of the confirming suggestion, if accepted.
        chosen: Option<usize>,
    },
    /// `sql`
    Sql {
        /// The statement text (borrowed from the frame).
        query: &'a str,
    },
    /// `verify_batch`
    VerifyBatch {
        /// Corpus claim ids.
        claims: Vec<usize>,
        /// Base worker seed.
        seed: Option<u64>,
    },
    /// `stats`
    Stats,
    /// `metrics`
    Metrics,
    /// `close`
    Close {
        /// Target session.
        session: u64,
    },
}

impl RequestRef<'_> {
    /// The owned-conversion seam: materializes the borrowed request.
    /// Allocates only where the op carries strings or lists; the
    /// string-free ops (`suggest`, `screens`, `stats`, …) convert
    /// without heap traffic.
    pub fn to_owned(&self) -> Request {
        match self {
            RequestRef::Open { checker } => Request::Open {
                checker: checker.map(str::to_string),
            },
            RequestRef::Submit { session, claims } => Request::Submit {
                session: *session,
                claims: claims.clone(),
            },
            RequestRef::NextBatch { session } => Request::NextBatch { session: *session },
            RequestRef::Screens { session, claim } => Request::Screens {
                session: *session,
                claim: *claim,
            },
            RequestRef::Answer {
                session,
                claim,
                kind,
                answer,
            } => Request::Answer {
                session: *session,
                claim: *claim,
                kind: *kind,
                answer: (*answer).to_string(),
            },
            RequestRef::Suggest { session, claim } => Request::Suggest {
                session: *session,
                claim: *claim,
            },
            RequestRef::Verdict {
                session,
                claim,
                correct,
                chosen,
            } => Request::Verdict {
                session: *session,
                claim: *claim,
                correct: *correct,
                chosen: *chosen,
            },
            RequestRef::Sql { query } => Request::Sql {
                query: (*query).to_string(),
            },
            RequestRef::VerifyBatch { claims, seed } => Request::VerifyBatch {
                claims: claims.clone(),
                seed: *seed,
            },
            RequestRef::Stats => Request::Stats,
            RequestRef::Metrics => Request::Metrics,
            RequestRef::Close { session } => Request::Close { session: *session },
        }
    }
}

// ---- primitive writers --------------------------------------------------

pub(crate) fn put_u8(out: &mut Vec<u8>, value: u8) {
    out.push(value);
}

pub(crate) fn put_u32(out: &mut Vec<u8>, value: u32) {
    out.extend_from_slice(&value.to_le_bytes());
}

pub(crate) fn put_u64(out: &mut Vec<u8>, value: u64) {
    out.extend_from_slice(&value.to_le_bytes());
}

pub(crate) fn put_f64(out: &mut Vec<u8>, value: f64) {
    out.extend_from_slice(&value.to_le_bytes());
}

pub(crate) fn put_str(out: &mut Vec<u8>, value: &str) {
    put_u32(out, value.len() as u32);
    out.extend_from_slice(value.as_bytes());
}

// ---- primitive reader ---------------------------------------------------

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

    pub(crate) fn f64(&mut self) -> Result<f64, ApiError> {
        Ok(f64::from_bits(self.u64()?))
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

    pub(crate) fn str(&mut self) -> Result<&'a str, ApiError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        std::str::from_utf8(bytes)
            .map_err(|_| ApiError::new(ErrorCode::ParseError, "string field is not UTF-8"))
    }

    fn claims(&mut self) -> Result<Vec<usize>, ApiError> {
        let count = self.u32()? as usize;
        // cap pre-allocation by what the payload can actually hold (8
        // bytes per id), so a lying count cannot balloon memory
        let mut out = Vec::with_capacity(count.min((self.buf.len() - self.pos) / 8 + 1));
        for _ in 0..count {
            out.push(self.u64()? as usize);
        }
        Ok(out)
    }
}

// ---- op bytes -----------------------------------------------------------

const OP_OPEN: u8 = 0;
const OP_SUBMIT: u8 = 1;
const OP_NEXT_BATCH: u8 = 2;
const OP_SCREENS: u8 = 3;
const OP_ANSWER: u8 = 4;
const OP_SUGGEST: u8 = 5;
const OP_VERDICT: u8 = 6;
const OP_SQL: u8 = 7;
const OP_VERIFY_BATCH: u8 = 8;
const OP_STATS: u8 = 9;
const OP_METRICS: u8 = 10;
const OP_CLOSE: u8 = 11;

pub(crate) fn kind_byte(kind: PropertyKind) -> u8 {
    match kind {
        PropertyKind::Relation => 0,
        PropertyKind::Key => 1,
        PropertyKind::Attribute => 2,
        PropertyKind::Formula => 3,
    }
}

pub(crate) fn kind_from_byte(byte: u8) -> Option<PropertyKind> {
    match byte {
        0 => Some(PropertyKind::Relation),
        1 => Some(PropertyKind::Key),
        2 => Some(PropertyKind::Attribute),
        3 => Some(PropertyKind::Formula),
        _ => None,
    }
}

// ---- request encode (client side) ---------------------------------------

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
    if let Some(id) = id {
        put_u64(out, id);
    }
    if let Some(trace) = trace {
        put_u64(out, trace);
    }
    match request {
        Request::Open { checker } => {
            put_u8(out, OP_OPEN);
            match checker {
                Some(name) => {
                    put_u8(out, 1);
                    put_str(out, name);
                }
                None => put_u8(out, 0),
            }
        }
        Request::Submit { session, claims } => {
            put_u8(out, OP_SUBMIT);
            put_u64(out, *session);
            put_claims(out, claims);
        }
        Request::NextBatch { session } => {
            put_u8(out, OP_NEXT_BATCH);
            put_u64(out, *session);
        }
        Request::Screens { session, claim } => {
            put_u8(out, OP_SCREENS);
            put_u64(out, *session);
            put_u64(out, *claim as u64);
        }
        Request::Answer {
            session,
            claim,
            kind,
            answer,
        } => {
            put_u8(out, OP_ANSWER);
            put_u64(out, *session);
            put_u64(out, *claim as u64);
            put_u8(out, kind_byte(*kind));
            put_str(out, answer);
        }
        Request::Suggest { session, claim } => {
            put_u8(out, OP_SUGGEST);
            put_u64(out, *session);
            put_u64(out, *claim as u64);
        }
        Request::Verdict {
            session,
            claim,
            correct,
            chosen,
        } => {
            put_u8(out, OP_VERDICT);
            put_u64(out, *session);
            put_u64(out, *claim as u64);
            put_u8(out, u8::from(*correct));
            match chosen {
                Some(rank) => {
                    put_u8(out, 1);
                    put_u64(out, *rank as u64);
                }
                None => put_u8(out, 0),
            }
        }
        Request::Sql { query } => {
            put_u8(out, OP_SQL);
            put_str(out, query);
        }
        Request::VerifyBatch { claims, seed } => {
            put_u8(out, OP_VERIFY_BATCH);
            put_claims(out, claims);
            match seed {
                Some(seed) => {
                    put_u8(out, 1);
                    put_u64(out, *seed);
                }
                None => put_u8(out, 0),
            }
        }
        Request::Stats => put_u8(out, OP_STATS),
        Request::Metrics => put_u8(out, OP_METRICS),
        Request::Close { session } => {
            put_u8(out, OP_CLOSE);
            put_u64(out, *session);
        }
    }
}

fn put_claims(out: &mut Vec<u8>, claims: &[usize]) {
    put_u32(out, claims.len() as u32);
    for &claim in claims {
        put_u64(out, claim as u64);
    }
}

// ---- request decode (server side, zero-copy) ----------------------------

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
/// envelope (see [`decode_envelope`]). Strings borrow from the payload.
pub fn decode_body<'a>(reader: &mut Reader<'a>) -> Result<RequestRef<'a>, ApiError> {
    let op = reader.u8()?;
    let request = match op {
        OP_OPEN => RequestRef::Open {
            checker: if reader.bool()? {
                Some(reader.str()?)
            } else {
                None
            },
        },
        OP_SUBMIT => RequestRef::Submit {
            session: reader.u64()?,
            claims: reader.claims()?,
        },
        OP_NEXT_BATCH => RequestRef::NextBatch {
            session: reader.u64()?,
        },
        OP_SCREENS => RequestRef::Screens {
            session: reader.u64()?,
            claim: reader.u64()? as usize,
        },
        OP_ANSWER => RequestRef::Answer {
            session: reader.u64()?,
            claim: reader.u64()? as usize,
            kind: {
                let byte = reader.u8()?;
                kind_from_byte(byte).ok_or_else(|| {
                    ApiError::new(
                        ErrorCode::InvalidArgument,
                        format!("invalid property kind byte {byte}"),
                    )
                })?
            },
            answer: reader.str()?,
        },
        OP_SUGGEST => RequestRef::Suggest {
            session: reader.u64()?,
            claim: reader.u64()? as usize,
        },
        OP_VERDICT => RequestRef::Verdict {
            session: reader.u64()?,
            claim: reader.u64()? as usize,
            correct: reader.bool()?,
            chosen: if reader.bool()? {
                Some(reader.u64()? as usize)
            } else {
                None
            },
        },
        OP_SQL => RequestRef::Sql {
            query: reader.str()?,
        },
        OP_VERIFY_BATCH => RequestRef::VerifyBatch {
            claims: reader.claims()?,
            seed: if reader.bool()? {
                Some(reader.u64()?)
            } else {
                None
            },
        },
        OP_STATS => RequestRef::Stats,
        OP_METRICS => RequestRef::Metrics,
        OP_CLOSE => RequestRef::Close {
            session: reader.u64()?,
        },
        other => {
            return Err(ApiError::new(
                ErrorCode::UnknownOp,
                format!("unknown binary op byte {other}"),
            ))
        }
    };
    if !reader.is_empty() {
        return Err(ApiError::new(
            ErrorCode::ParseError,
            "trailing bytes after binary request body",
        ));
    }
    Ok(request)
}

// ---- response encode (server side) --------------------------------------

const RESP_SESSION: u8 = 0;
const RESP_BATCH: u8 = 1;
const RESP_QUESTIONS: u8 = 2;
const RESP_REMAINING: u8 = 3;
const RESP_SUGGESTIONS: u8 = 4;
const RESP_VERDICT: u8 = 5;
const RESP_VALUE: u8 = 6;
const RESP_OUTCOMES: u8 = 7;
const RESP_STATS: u8 = 8;
const RESP_METRICS: u8 = 9;
const RESP_CLOSED: u8 = 10;

fn verdict_byte(verdict: &Verdict) -> u8 {
    match verdict {
        Verdict::Correct { .. } => 0,
        Verdict::Incorrect { .. } => 1,
        Verdict::Skipped => 2,
    }
}

fn verdict_wire_name(byte: u8) -> Result<&'static str, ApiError> {
    match byte {
        0 => Ok("correct"),
        1 => Ok("incorrect"),
        2 => Ok("skipped"),
        other => Err(ApiError::new(
            ErrorCode::ParseError,
            format!("invalid verdict byte {other}"),
        )),
    }
}

fn put_response_envelope(out: &mut Vec<u8>, ok: bool, id: Option<u64>, trace: u64) {
    put_u8(out, u8::from(ok));
    let flags = if id.is_some() { FLAG_HAS_ID } else { 0 };
    put_u8(out, flags);
    if let Some(id) = id {
        put_u64(out, id);
    }
    put_u64(out, trace);
}

fn put_questions(out: &mut Vec<u8>, questions: &ClaimQuestions) {
    put_u64(out, questions.claim_id as u64);
    put_f64(out, questions.expected_cost);
    put_u32(out, questions.screens.len() as u32);
    for screen in &questions.screens {
        put_u8(out, kind_byte(screen.kind));
        put_u32(out, screen.options.len() as u32);
        for option in &screen.options {
            put_str(out, option);
        }
    }
}

fn put_suggestions(out: &mut Vec<u8>, suggestions: &[Suggestion]) {
    put_u32(out, suggestions.len() as u32);
    for suggestion in suggestions {
        put_u64(out, suggestion.rank as u64);
        put_str(out, &suggestion.sql);
        put_str(out, &suggestion.formula);
        put_f64(out, suggestion.value);
        put_u8(out, u8::from(suggestion.matches_parameter));
    }
}

fn put_outcomes(out: &mut Vec<u8>, outcomes: &[ClaimOutcome]) {
    put_u32(out, outcomes.len() as u32);
    for outcome in outcomes {
        put_u64(out, outcome.claim_id as u64);
        put_u8(out, verdict_byte(&outcome.verdict));
        put_u8(out, u8::from(outcome.verdict_matches_truth));
        put_f64(out, outcome.crowd_seconds);
    }
}

/// Encodes one success response payload (without the frame length
/// prefix): response envelope, kind byte, then the body fields in the
/// same order the JSON payload lists them.
pub fn encode_ok_response(out: &mut Vec<u8>, id: Option<u64>, trace: u64, response: &Response) {
    put_response_envelope(out, true, id, trace);
    match response {
        Response::Session { session } => {
            put_u8(out, RESP_SESSION);
            put_u64(out, *session);
        }
        Response::Batch { batch } => {
            put_u8(out, RESP_BATCH);
            put_u32(out, batch.len() as u32);
            for questions in batch {
                put_questions(out, questions);
            }
        }
        Response::Questions { questions } => {
            put_u8(out, RESP_QUESTIONS);
            put_questions(out, questions);
        }
        Response::Remaining { remaining } => {
            put_u8(out, RESP_REMAINING);
            put_u64(out, *remaining as u64);
        }
        Response::Suggestions { suggestions } => {
            put_u8(out, RESP_SUGGESTIONS);
            put_suggestions(out, suggestions);
        }
        Response::Verdict { record } => {
            put_u8(out, RESP_VERDICT);
            put_u8(out, verdict_byte(&record.outcome.verdict));
            put_u8(out, u8::from(record.outcome.verdict_matches_truth));
            put_u8(out, u8::from(record.retrained));
        }
        Response::Value { value } => {
            put_u8(out, RESP_VALUE);
            put_f64(out, *value);
        }
        Response::Outcomes { outcomes } => {
            put_u8(out, RESP_OUTCOMES);
            put_outcomes(out, outcomes);
        }
        Response::Stats { stats } => {
            put_u8(out, RESP_STATS);
            put_str(out, &stats.render());
        }
        Response::Metrics { exposition } => {
            put_u8(out, RESP_METRICS);
            put_str(out, exposition);
        }
        Response::Closed { verified } => {
            put_u8(out, RESP_CLOSED);
            put_claims(out, verified);
        }
    }
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

// ---- response decode (client side) --------------------------------------

fn read_questions(reader: &mut Reader<'_>) -> Result<Json, ApiError> {
    let claim = reader.u64()?;
    let cost = reader.f64()?;
    let n_screens = reader.u32()? as usize;
    let mut screens = Vec::with_capacity(n_screens.min(1024));
    for _ in 0..n_screens {
        let kind = kind_from_byte(reader.u8()?)
            .ok_or_else(|| ApiError::new(ErrorCode::ParseError, "invalid screen kind byte"))?;
        let n_options = reader.u32()? as usize;
        let mut options = Vec::with_capacity(n_options.min(1024));
        for _ in 0..n_options {
            options.push(Json::Str(reader.str()?.to_string()));
        }
        screens.push(crate::protocol::obj(vec![
            ("kind", Json::Str(kind_label(kind).to_string())),
            ("options", Json::Arr(options)),
        ]));
    }
    Ok(crate::protocol::obj(vec![
        ("claim", Json::Num(claim as f64)),
        ("expected_cost", Json::Num(cost)),
        ("screens", Json::Arr(screens)),
    ]))
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
        Some(reader.u64()?)
    } else {
        None
    };
    let trace = reader.u64()?;
    let mut fields: Vec<(String, Json)> = vec![("ok".to_string(), Json::Bool(ok))];
    if let Some(id) = id {
        fields.push(("id".to_string(), Json::Num(id as f64)));
    }
    fields.push(("trace".to_string(), Json::Str(format!("{trace:016x}"))));
    if !ok {
        let code_byte = reader.u8()? as usize;
        let code = *ErrorCode::ALL.get(code_byte).ok_or_else(|| {
            ApiError::new(
                ErrorCode::ParseError,
                format!("invalid error code byte {code_byte}"),
            )
        })?;
        let message = reader.str()?.to_string();
        fields.push(("code".to_string(), Json::Str(code.name().to_string())));
        fields.push(("error".to_string(), Json::Str(message)));
        return Ok(Json::Obj(fields));
    }
    let kind = reader.u8()?;
    match kind {
        RESP_SESSION => fields.push(("session".to_string(), Json::Num(reader.u64()? as f64))),
        RESP_BATCH => {
            let count = reader.u32()? as usize;
            let mut batch = Vec::with_capacity(count.min(1024));
            for _ in 0..count {
                batch.push(read_questions(&mut reader)?);
            }
            fields.push(("batch".to_string(), Json::Arr(batch)));
        }
        RESP_QUESTIONS => fields.push(("questions".to_string(), read_questions(&mut reader)?)),
        RESP_REMAINING => fields.push(("remaining".to_string(), Json::Num(reader.u64()? as f64))),
        RESP_SUGGESTIONS => {
            let count = reader.u32()? as usize;
            let mut suggestions = Vec::with_capacity(count.min(1024));
            for _ in 0..count {
                let rank = reader.u64()?;
                let sql = reader.str()?.to_string();
                let formula = reader.str()?.to_string();
                let value = reader.f64()?;
                let matches = reader.bool()?;
                suggestions.push(crate::protocol::obj(vec![
                    ("rank", Json::Num(rank as f64)),
                    ("sql", Json::Str(sql)),
                    ("formula", Json::Str(formula)),
                    ("value", Json::Num(value)),
                    ("matches_parameter", Json::Bool(matches)),
                ]));
            }
            fields.push(("suggestions".to_string(), Json::Arr(suggestions)));
        }
        RESP_VERDICT => {
            let verdict = verdict_wire_name(reader.u8()?)?;
            let matches = reader.bool()?;
            let retrained = reader.bool()?;
            fields.push(("verdict".to_string(), Json::Str(verdict.to_string())));
            fields.push(("matches_truth".to_string(), Json::Bool(matches)));
            fields.push(("retrained".to_string(), Json::Bool(retrained)));
        }
        RESP_VALUE => fields.push(("value".to_string(), Json::Num(reader.f64()?))),
        RESP_OUTCOMES => {
            let count = reader.u32()? as usize;
            let mut outcomes = Vec::with_capacity(count.min(1024));
            for _ in 0..count {
                let claim = reader.u64()?;
                let verdict = verdict_wire_name(reader.u8()?)?;
                let matches = reader.bool()?;
                let seconds = reader.f64()?;
                outcomes.push(crate::protocol::obj(vec![
                    ("claim", Json::Num(claim as f64)),
                    ("verdict", Json::Str(verdict.to_string())),
                    ("matches_truth", Json::Bool(matches)),
                    ("crowd_seconds", Json::Num(seconds)),
                ]));
            }
            fields.push(("outcomes".to_string(), Json::Arr(outcomes)));
        }
        RESP_STATS => {
            let body = reader.str()?;
            let stats = Json::parse(body).map_err(|error| {
                ApiError::new(
                    ErrorCode::ParseError,
                    format!("embedded stats body is not JSON: {error}"),
                )
            })?;
            fields.push(("stats".to_string(), stats));
        }
        RESP_METRICS => fields.push(("metrics".to_string(), Json::Str(reader.str()?.to_string()))),
        RESP_CLOSED => {
            let count = reader.u32()? as usize;
            let mut verified = Vec::with_capacity(count.min(1024));
            for _ in 0..count {
                verified.push(Json::Num(reader.u64()? as f64));
            }
            fields.push(("verified".to_string(), Json::Arr(verified)));
        }
        other => {
            return Err(ApiError::new(
                ErrorCode::ParseError,
                format!("invalid response kind byte {other}"),
            ))
        }
    }
    if !reader.is_empty() {
        return Err(ApiError::new(
            ErrorCode::ParseError,
            "trailing bytes after binary response body",
        ));
    }
    Ok(Json::Obj(fields))
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
        assert_eq!(decoded.to_owned(), request);
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
        assert_eq!(decode_body(&mut reader).unwrap(), RequestRef::Stats);
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
