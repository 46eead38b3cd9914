//! The typed, versioned service API — the contract between the engine
//! and every client (TCP, in-process, tests, benches).
//!
//! [`Request`] and [`Response`] are closed enums with one variant per
//! operation; [`ApiError`] pairs a stable machine-consumable
//! [`ErrorCode`] with a human-readable message. Each enum is declared by
//! a table, one row per op or payload, and the rows generate both codecs
//! (JSON: [`Request::from_json`], [`Request::to_json`]; binary:
//! [`codec`](crate::codec)) from the field types' wire impls. A new op
//! is one request-table row plus one arm of [`dispatch`], which is typed
//! end to end, so validation lives in the engine and error codes are
//! uniform regardless of entry point.
//!
//! ## Op table (protocol v1)
//!
//! | op             | request fields                          | success payload | typical errors |
//! |----------------|-----------------------------------------|-----------------|----------------|
//! | `open`         | `checker?`                              | `session`       | — |
//! | `submit`       | `session`, `claims: [id]`               | `batch: [claim questions]` | `unknown_session`, `unknown_claim` |
//! | `next_batch`   | `session`                               | `batch`         | `unknown_session` |
//! | `screens`      | `session`, `claim`                      | `questions`     | `unknown_session`, `not_in_batch` |
//! | `answer`       | `session`, `claim`, `kind`, `answer`    | `remaining`     | `wrong_phase`, `unexpected_answer` |
//! | `suggest`      | `session`, `claim`                      | `suggestions`   | `not_in_batch`, `wrong_phase` |
//! | `verdict`      | `session`, `claim`, `correct`, `chosen?`| `verdict`, `matches_truth`, `retrained` | `wrong_phase` |
//! | `sql`          | `query`                                 | `value`         | `sql` |
//! | `verify_batch` | `claims: [id]`, `seed?`                 | `outcomes`      | `unknown_claim` |
//! | `stats`        | —                                       | `stats` (every [`EngineStats`] series, read live) | — |
//! | `metrics`      | —                                       | `metrics` (Prometheus text exposition) | — |
//! | `close`        | `session`                               | `verified: [id]`| `unknown_session` |
//! | `batch`        | `requests: [sub-request]`               | `results: [per-item response]` | `invalid_argument` |
//!
//! ## Versioning, request ids, and trace ids
//!
//! Every request may carry `"v"` (the protocol version; current: `1`).
//! Requests without `v` are treated as v1; any other version gets an
//! `unsupported_version` error. Clients may also attach an `"id"` (any
//! JSON value); the response echoes it verbatim right after `"ok"`, which
//! is what lets a pipelining client match many in-flight responses to
//! their requests. **v1 response fields are append-only**: new fields may
//! appear at the end of response objects, existing fields never change
//! meaning or type.
//!
//! Requests may also carry `"trace"` (a string): the distributed trace id
//! for the request, echoed verbatim in the response and attached to every
//! span the request produces in the flight recorder
//! ([`scrutinizer_obs::trace`]) — including a background retrain the
//! request triggers. When absent, the server generates one (16 lowercase
//! hex digits) and echoes it, so every response names its trace. Batch
//! sub-requests inherit the batch's trace unless they carry their own.
//!
//! ## Batching
//!
//! The `batch` op carries sub-requests executed in order, with one
//! response object per item (each echoing its own `id`); a failed item
//! does not abort the rest. `batch` cannot nest. A checker UI can thus
//! submit a report, fetch screens, and prefetch suggestions in a single
//! round trip.

use std::sync::Arc;

use scrutinizer_core::report::ClaimOutcome;
use scrutinizer_core::PropertyKind;
use scrutinizer_crowd::WorkerConfig;

use crate::codec::{put_u8, Field, Reader, Wire};
use crate::engine::{Engine, EngineError, VerdictRecord};
use crate::protocol::{obj, Json};
use crate::session::{ClaimQuestions, SessionId, Suggestion};
use crate::stats::{EngineStats, LatencyHistogram, WireCodec};
use scrutinizer_obs::{self as obs, TraceId};

/// The protocol version this server speaks.
pub const PROTOCOL_VERSION: u64 = 1;

/// Most sub-requests one `batch` op may carry.
pub const MAX_BATCH_REQUESTS: usize = 256;

/// Stable machine-consumable error codes — the closed set every wire
/// error draws from. Codes are part of the v1 contract: existing codes
/// never change meaning; new ones may be appended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ErrorCode {
    /// The request line is not valid JSON (or not a request object).
    ParseError,
    /// A required field is missing or has the wrong type.
    InvalidArgument,
    /// The `op` names no operation this server knows.
    UnknownOp,
    /// The request's `v` names a protocol version this server does not
    /// speak.
    UnsupportedVersion,
    /// No such session (never opened, or closed).
    UnknownSession,
    /// The claim id is not part of the corpus.
    UnknownClaim,
    /// The claim was not submitted to this session.
    NotInBatch,
    /// The operation does not fit the claim's current phase.
    WrongPhase,
    /// The posted answer's property has no screen outstanding.
    UnexpectedAnswer,
    /// Raw SQL execution failed.
    Sql,
    /// The server is at its connection limit.
    Overloaded,
    /// Unexpected server-side failure.
    Internal,
}

impl ErrorCode {
    /// Every code, in stable order (the per-code counter layout).
    pub const ALL: [ErrorCode; 12] = [
        ErrorCode::ParseError,
        ErrorCode::InvalidArgument,
        ErrorCode::UnknownOp,
        ErrorCode::UnsupportedVersion,
        ErrorCode::UnknownSession,
        ErrorCode::UnknownClaim,
        ErrorCode::NotInBatch,
        ErrorCode::WrongPhase,
        ErrorCode::UnexpectedAnswer,
        ErrorCode::Sql,
        ErrorCode::Overloaded,
        ErrorCode::Internal,
    ];

    /// Number of codes (sizes the per-code counter arrays).
    pub const COUNT: usize = Self::ALL.len();

    /// The stable wire name of this code.
    pub fn name(self) -> &'static str {
        match self {
            ErrorCode::ParseError => "parse_error",
            ErrorCode::InvalidArgument => "invalid_argument",
            ErrorCode::UnknownOp => "unknown_op",
            ErrorCode::UnsupportedVersion => "unsupported_version",
            ErrorCode::UnknownSession => "unknown_session",
            ErrorCode::UnknownClaim => "unknown_claim",
            ErrorCode::NotInBatch => "not_in_batch",
            ErrorCode::WrongPhase => "wrong_phase",
            ErrorCode::UnexpectedAnswer => "unexpected_answer",
            ErrorCode::Sql => "sql",
            ErrorCode::Overloaded => "overloaded",
            ErrorCode::Internal => "internal",
        }
    }

    /// Position in [`ErrorCode::ALL`] (the per-code counter index).
    pub fn index(self) -> usize {
        Self::ALL
            .iter()
            .position(|c| *c == self)
            .expect("every code is in ALL")
    }
}

impl std::fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A structured API failure: a stable [`ErrorCode`] plus a human-readable
/// message. This is what every wire error renders from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ApiError {
    /// The stable machine-consumable code.
    pub code: ErrorCode,
    /// Human-readable detail (not part of the stability contract).
    pub message: String,
}

impl ApiError {
    /// An error with the given code and message.
    pub fn new(code: ErrorCode, message: impl Into<String>) -> Self {
        ApiError {
            code,
            message: message.into(),
        }
    }

    pub(crate) fn invalid(message: impl Into<String>) -> Self {
        ApiError::new(ErrorCode::InvalidArgument, message)
    }

    /// The `unsupported_version` error for a request claiming `version`.
    pub(crate) fn unsupported_version(version: impl std::fmt::Display) -> Self {
        ApiError::new(
            ErrorCode::UnsupportedVersion,
            format!(
                "unsupported protocol version {version} (this server speaks v{PROTOCOL_VERSION})"
            ),
        )
    }
}

impl std::fmt::Display for ApiError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.code, self.message)
    }
}

impl std::error::Error for ApiError {}

impl From<EngineError> for ApiError {
    fn from(error: EngineError) -> Self {
        let code = match &error {
            EngineError::UnknownSession(_) => ErrorCode::UnknownSession,
            EngineError::UnknownClaim(_) => ErrorCode::UnknownClaim,
            EngineError::ClaimNotSubmitted(_) => ErrorCode::NotInBatch,
            EngineError::WrongPhase { .. } => ErrorCode::WrongPhase,
            EngineError::UnexpectedAnswer(_) => ErrorCode::UnexpectedAnswer,
            EngineError::Sql(_) => ErrorCode::Sql,
        };
        ApiError::new(code, error.to_string())
    }
}

// ---- the op tables -------------------------------------------------------

/// Declares [`Request`] from its op table: one row per v1 op, giving its
/// binary op byte (append-only), its JSON wire name, its variant and the
/// variant's fields in wire order. Each field's type brings its JSON and
/// binary forms (its [`Field`] impl). From the rows come the enum,
/// [`Request::op_name`], both JSON directions, and the binary body
/// encoder and decoder behind
/// [`encode_request`](crate::codec::encode_request) and
/// [`decode_body`](crate::codec::decode_body). A new op is one row plus
/// one [`dispatch`] arm; a new field is one line on its row.
macro_rules! request_table {
    (
        $(#[$meta:meta])*
        pub enum Request {$(
            $(#[$vmeta:meta])*
            $op:literal $name:literal $variant:ident $({$(
                $(#[$fmeta:meta])*
                $field:ident: $ty:ty
            ),* $(,)?})?
        ),* $(,)?}
    ) => {
        $(#[$meta])*
        pub enum Request {$(
            $(#[$vmeta])*
            $variant $({$($(#[$fmeta])* $field: $ty),*})?,
        )*}

        impl Request {
            /// The wire name of this request's op.
            pub fn op_name(&self) -> &'static str {
                match self {
                    $(Request::$variant { .. } => $name,)*
                }
            }

            /// Decodes one request object. The error carries
            /// [`ErrorCode::InvalidArgument`] for missing/mistyped fields
            /// and [`ErrorCode::UnknownOp`] for ops outside the v1 table.
            pub fn from_json(value: &Json) -> Result<Request, ApiError> {
                let Some(op) = value.get("op").and_then(Json::as_str) else {
                    return Err(ApiError::invalid("missing `op`"));
                };
                Ok(match op {
                    $($name => Request::$variant {
                        $($($field: <$ty as Field>::from_json(
                            value.get(stringify!($field)),
                            stringify!($field),
                        )?,)*)?
                    },)*
                    _ => {
                        return Err(ApiError::new(
                            ErrorCode::UnknownOp,
                            format!("unknown op `{op}`"),
                        ))
                    }
                })
            }

            /// Encodes this request as its wire object (no `v`/`id`
            /// envelope fields; add those separately if needed — absent
            /// `v` means v1).
            pub fn to_json(&self) -> Json {
                let mut object = vec![("op".to_string(), Json::Str(self.op_name().to_string()))];
                match self {
                    $(Request::$variant { $($($field),*)? } => {
                        $($($field.push_json(stringify!($field), &mut object);)*)?
                    })*
                }
                Json::Obj(object)
            }

            /// Appends the binary body: the op byte, then each field.
            pub(crate) fn put_body(&self, out: &mut Vec<u8>) {
                match self {
                    $(Request::$variant { $($($field),*)? } => {
                        put_u8(out, $op);
                        $($($field.put(out);)*)?
                    })*
                }
            }

            /// Reads the binary body: the op byte, then each field.
            pub(crate) fn read_body(reader: &mut Reader<'_>) -> Result<Request, ApiError> {
                Ok(match reader.u8()? {
                    $($op => Request::$variant {
                        $($($field: <$ty as Field>::read(reader)?,)*)?
                    },)*
                    other => {
                        return Err(ApiError::new(
                            ErrorCode::UnknownOp,
                            format!("unknown binary op byte {other}"),
                        ))
                    }
                })
            }

            /// Tags the dispatch span with the request's `session` and
            /// `claim` fields, where it has them.
            fn tag_span(&self, span: &mut obs::Span) {
                match self {
                    $(Request::$variant { $($($field),*)? } => {
                        $($(tag_span!(span, $field, $field);)*)?
                    })*
                }
            }
        }
    };
}

/// Adds a `session` or `claim` field to the span; ignores the rest.
macro_rules! tag_span {
    ($span:ident, session, $value:ident) => {
        $span.add_field("session", *$value)
    };
    ($span:ident, claim, $value:ident) => {
        $span.add_field("claim", *$value)
    };
    ($span:ident, $field:ident, $value:ident) => {
        let _ = $value;
    };
}

request_table! {
    /// One typed request — one variant per v1 operation. The wire-level
    /// `batch` envelope is not a `Request`: it is unwrapped by
    /// [`handle_value`] into a sequence of these.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Request {
        /// Open a session for a named checker (`"anonymous"` when omitted).
        0 "open" Open {
            /// Checker name, if given.
            checker: Option<String>,
        },
        /// Submit a report of corpus claims to a session.
        1 "submit" Submit {
            /// Target session.
            session: u64,
            /// Corpus claim ids.
            claims: Vec<usize>,
        },
        /// Re-plan the session's open claims with the current models.
        2 "next_batch" NextBatch {
            /// Target session.
            session: u64,
        },
        /// Fetch one claim's outstanding screens.
        3 "screens" Screens {
            /// Target session.
            session: u64,
            /// Corpus claim id.
            claim: usize,
        },
        /// Post a checker's answer to the claim's next screen.
        4 "answer" Answer {
            /// Target session.
            session: u64,
            /// Corpus claim id.
            claim: usize,
            /// The property the answer validates.
            kind: PropertyKind,
            /// The chosen option.
            answer: String,
        },
        /// Generate the claim's ranked candidate queries.
        5 "suggest" Suggest {
            /// Target session.
            session: u64,
            /// Corpus claim id.
            claim: usize,
        },
        /// Record the checker's verdict for a claim.
        6 "verdict" Verdict {
            /// Target session.
            session: u64,
            /// Corpus claim id.
            claim: usize,
            /// The checker's judgment.
            correct: bool,
            /// Rank of the confirming suggestion, if one was accepted (a
            /// malformed JSON `chosen` reads as none, as before v1).
            chosen: Option<usize>,
        },
        /// Execute one raw SQL statement against the shared catalog.
        7 "sql" Sql {
            /// The statement text.
            query: String,
        },
        /// Verify a batch of claims with simulated checkers.
        8 "verify_batch" VerifyBatch {
            /// Corpus claim ids.
            claims: Vec<usize>,
            /// Base worker seed (default 1; a malformed JSON `seed`
            /// reads as none).
            seed: Option<u64>,
        },
        /// Fetch the engine-wide metrics.
        9 "stats" Stats,
        /// Fetch every metric in Prometheus text exposition format.
        10 "metrics" Metrics,
        /// Close a session.
        11 "close" Close {
            /// Target session.
            session: u64,
        },
    }
}

/// Declares [`Response`] from its table: one row per success payload,
/// giving its binary kind byte (append-only), its variant and the
/// variant's fields, each the JSON member of its own name, in wire order
/// (v1 payloads are append-only). Each field's type brings its JSON and
/// binary forms (its [`Wire`] impl). From the rows come the enum, the
/// JSON payload, and the binary body encoder and decoder behind
/// [`encode_ok_response`](crate::codec::encode_ok_response) and
/// [`decode_response`](crate::codec::decode_response).
macro_rules! response_table {
    (
        $(#[$meta:meta])*
        pub enum Response {$(
            $(#[$vmeta:meta])*
            $kind:literal $variant:ident {$(
                $(#[$fmeta:meta])*
                $field:ident: $ty:ty
            ),* $(,)?}
        ),* $(,)?}
    ) => {
        $(#[$meta])*
        pub enum Response {$(
            $(#[$vmeta])*
            $variant {$($(#[$fmeta])* $field: $ty),*},
        )*}

        impl Response {
            /// Appends the payload members (everything after the envelope).
            fn push_payload(&self, object: &mut Vec<(String, Json)>) {
                match self {
                    $(Response::$variant { $($field),* } => {
                        $($field.push_json(stringify!($field), object);)*
                    })*
                }
            }

            /// Appends the binary body: the kind byte, then each field.
            pub(crate) fn put_body(&self, out: &mut Vec<u8>) {
                match self {
                    $(Response::$variant { $($field),* } => {
                        put_u8(out, $kind);
                        $($field.put(out);)*
                    })*
                }
            }

            /// Reads a binary body into the payload members its JSON form
            /// has.
            pub(crate) fn read_body(
                reader: &mut Reader<'_>,
                object: &mut Vec<(String, Json)>,
            ) -> Result<(), ApiError> {
                match reader.u8()? {
                    $($kind => {
                        $(<$ty as Wire>::read_member(reader, stringify!($field), object)?;)*
                    })*
                    other => {
                        return Err(ApiError::new(
                            ErrorCode::ParseError,
                            format!("invalid response kind byte {other}"),
                        ))
                    }
                }
                Ok(())
            }
        }
    };
}

response_table! {
    /// One typed response — the success payload of the matching [`Request`].
    #[derive(Debug, Clone)]
    pub enum Response {
        /// `open` succeeded.
        0 Session {
            /// The new session id.
            session: u64,
        },
        /// `submit` / `next_batch` succeeded.
        1 Batch {
            /// The planned question batch, in presentation order.
            batch: Vec<ClaimQuestions>,
        },
        /// `screens` succeeded.
        2 Questions {
            /// The claim's outstanding screens.
            questions: ClaimQuestions,
        },
        /// `answer` succeeded.
        3 Remaining {
            /// Screens still outstanding for the claim.
            remaining: usize,
        },
        /// `suggest` succeeded.
        4 Suggestions {
            /// Ranked candidate queries, shared with the engine's per-claim
            /// cache — repeated suggests on unchanged claim state clone the
            /// `Arc`, not the suggestions.
            suggestions: Arc<[Suggestion]>,
        },
        /// `verdict` succeeded.
        5 Verdict {
            /// The recorded verdict; its members (`verdict`,
            /// `matches_truth`, `retrained`) sit in the payload itself.
            record: VerdictRecord,
        },
        /// `sql` succeeded.
        6 Value {
            /// The statement's value.
            value: f64,
        },
        /// `verify_batch` succeeded.
        7 Outcomes {
            /// Per-claim outcomes, in input order.
            outcomes: Vec<ClaimOutcome>,
        },
        /// `stats` succeeded.
        8 Stats {
            /// The engine's metrics, rendered when the request was
            /// dispatched (before its own response is counted).
            stats: Json,
        },
        /// `metrics` succeeded.
        9 Metrics {
            /// The registry rendered as Prometheus text exposition.
            metrics: String,
        },
        /// `close` succeeded.
        10 Closed {
            /// Ids of claims the session verified.
            verified: Vec<usize>,
        },
    }
}

// ---- the v1 `stats` object ---------------------------------------------

fn histogram_json(histogram: &LatencyHistogram) -> Json {
    let snapshot = histogram.snapshot();
    obj(vec![
        ("count", Json::Num(snapshot.count as f64)),
        ("mean_micros", Json::Num(snapshot.mean_micros())),
        (
            "p50_micros",
            Json::Num(snapshot.quantile_micros(0.5) as f64),
        ),
        (
            "p99_micros",
            Json::Num(snapshot.quantile_micros(0.99) as f64),
        ),
        // append-only: interpolated (log-linear) quantile estimates next
        // to the original bucket-ceiling bounds
        ("p50_est_micros", Json::Num(snapshot.p50())),
        ("p95_est_micros", Json::Num(snapshot.p95())),
        ("p99_est_micros", Json::Num(snapshot.p99())),
    ])
}

/// The v1 `stats` object, read straight from the live handles.
fn stats_json(stats: &EngineStats) -> Json {
    let count = |n: u64| Json::Num(n as f64);
    let last_fallback = stats
        .planner_last_fallback
        .lock()
        .expect("fallback slot poisoned")
        .clone();
    obj(vec![
        ("sessions_opened", count(stats.sessions_opened.get())),
        ("sessions_closed", count(stats.sessions_closed.get())),
        ("sessions_live", count(stats.sessions_live.get())),
        ("claims_verified", count(stats.claims_verified.get())),
        ("answers_posted", count(stats.answers_posted.get())),
        ("suggestions_served", count(stats.suggestions_served.get())),
        ("retrains", count(stats.retrains.get())),
        (
            "background_retrains",
            count(stats.background_retrains.get()),
        ),
        ("model_epoch", count(stats.model_epoch.get())),
        ("pending_examples", count(stats.pending_examples.get())),
        ("sql_executed", count(stats.sql_executed.get())),
        ("planner_plans", count(stats.planner_plans.get())),
        (
            "planner_cold_solves",
            count(stats.planner_cold_solves.get()),
        ),
        // v1 fields are append-only: the incremental planner these
        // described is gone, so they stay as constant zeros
        ("planner_incremental_repairs", count(0)),
        ("planner_repair_rejections", count(0)),
        ("planner_fallbacks", count(stats.planner_fallbacks.get())),
        ("planner_nodes", count(stats.planner_nodes.get())),
        // v1 fields are append-only: every planning LP is a cold solve,
        // so this stays a constant zero
        ("planner_warm_start_hits", count(0)),
        ("planner_lp_solves", count(stats.planner_lp_solves.get())),
        (
            "planner_last_fallback",
            last_fallback.map_or(Json::Null, Json::Str),
        ),
        // v1 fields are append-only: the raw-SQL result cache these
        // described is gone, so they stay as constant zeros
        ("cache_hits", count(0)),
        ("cache_misses", count(0)),
        ("cache_hit_rate", Json::Num(0.0)),
        ("cache_entries", count(0)),
        ("queue_depth", count(stats.queue_depth.get())),
        ("in_flight", count(stats.jobs_in_flight.get())),
        ("plan_latency", histogram_json(&stats.plan_latency)),
        ("suggest_latency", histogram_json(&stats.suggest_latency)),
        ("verify_latency", histogram_json(&stats.verify_latency)),
        ("retrain_latency", histogram_json(&stats.retrain_latency)),
        // v1 fields are append-only: the serving-layer gauges and the
        // per-code error counters extend the object at the end
        ("connections_open", count(stats.connections_open.get())),
        ("requests_in_flight", count(stats.requests_in_flight.get())),
        ("pipeline_depth", count(stats.pipeline_depth.get())),
        (
            "errors",
            obj(ErrorCode::ALL
                .iter()
                .map(|&code| (code.name(), count(stats.wire_error(code))))
                .collect()),
        ),
        // append-only: the conservation pair — requests_total equals
        // requests_ok plus the sum of every per-code error counter
        ("requests_total", count(stats.requests_total.get())),
        ("requests_ok", count(stats.requests_ok.get())),
        // append-only: the verdict-loss invariant's trained-examples side
        ("examples_trained", count(stats.examples_trained.get())),
        // append-only: per-codec counters so operators can watch a
        // JSON→binary migration; conservation holds within each codec
        // (total == ok + errors) and the per-codec totals sum to
        // requests_total above
        (
            "codec",
            obj(WireCodec::ALL
                .iter()
                .map(|&codec| {
                    (
                        codec.name(),
                        obj(vec![
                            (
                                "requests_total",
                                count(stats.requests_by_codec[codec.index()].get()),
                            ),
                            (
                                "requests_ok",
                                count(stats.requests_ok_by_codec[codec.index()].get()),
                            ),
                            (
                                "errors",
                                count(stats.wire_errors_by_codec[codec.index()].get()),
                            ),
                        ]),
                    )
                })
                .collect()),
        ),
        // append-only: the durability block. All zeros when the server
        // runs without a --data-dir; with one, `appends` obeys the
        // conservation law (one record per acknowledged state-changing
        // op) and `last_checkpoint_epoch` trails `model_epoch` by at
        // most the in-flight publish
        (
            "wal",
            obj(vec![
                ("appends", count(stats.wal_appends.get())),
                ("bytes_written", count(stats.wal_bytes_written.get())),
                ("fsyncs", count(stats.wal_fsyncs.get())),
                ("segments", count(stats.wal_segments.get())),
                (
                    "last_checkpoint_epoch",
                    count(stats.wal_last_checkpoint_epoch.get()),
                ),
            ]),
        ),
    ])
}

// ---- typed dispatch ----------------------------------------------------

/// Executes one typed request against the engine. All validation happens
/// behind this call (inside the engine), so error codes are uniform
/// whatever the entry point — TCP line, in-process call, or `batch`
/// sub-request.
pub fn dispatch(engine: &Arc<Engine>, request: &Request) -> Result<Response, ApiError> {
    let mut span = obs::span("dispatch");
    span.add_field("op", request.op_name());
    request.tag_span(&mut span);
    Ok(match request {
        Request::Open { checker } => Response::Session {
            session: engine
                .open_session(checker.as_deref().unwrap_or("anonymous"))
                .0,
        },
        Request::Submit { session, claims } => Response::Batch {
            batch: engine.submit_report(SessionId(*session), claims)?,
        },
        Request::NextBatch { session } => Response::Batch {
            batch: engine.next_batch(SessionId(*session))?,
        },
        Request::Screens { session, claim } => Response::Questions {
            questions: engine.screens(SessionId(*session), *claim)?,
        },
        Request::Answer {
            session,
            claim,
            kind,
            answer,
        } => Response::Remaining {
            remaining: engine.post_answer(SessionId(*session), *claim, *kind, answer)?,
        },
        Request::Suggest { session, claim } => Response::Suggestions {
            suggestions: engine.suggest(SessionId(*session), *claim)?,
        },
        Request::Verdict {
            session,
            claim,
            correct,
            chosen,
        } => Response::Verdict {
            record: engine.post_verdict(SessionId(*session), *claim, *correct, *chosen)?,
        },
        Request::Sql { query } => Response::Value {
            value: engine.run_sql(query)?,
        },
        Request::VerifyBatch { claims, seed } => {
            let config = WorkerConfig {
                seed: seed.unwrap_or(1),
                ..WorkerConfig::default()
            };
            Response::Outcomes {
                outcomes: engine.verify_batch(claims, config)?,
            }
        }
        Request::Stats => Response::Stats {
            stats: stats_json(engine.stats()),
        },
        Request::Metrics => Response::Metrics {
            metrics: engine.render_metrics(),
        },
        Request::Close { session } => Response::Closed {
            verified: engine.close_session(SessionId(*session))?,
        },
    })
}

// ---- the wire envelope (version, id echo, trace, batch) -----------------

/// The members every JSON response starts with: `ok`, then the echoed
/// `id` and the `trace` id, each when known.
pub(crate) fn envelope(ok: bool, id: Option<&Json>, trace: Option<&str>) -> Vec<(String, Json)> {
    let mut object = vec![("ok".to_string(), Json::Bool(ok))];
    if let Some(id) = id {
        object.push(("id".to_string(), id.clone()));
    }
    if let Some(trace) = trace {
        object.push(("trace".to_string(), Json::Str(trace.to_string())));
    }
    object
}

/// A JSON error response: the [`envelope`], the stable `code`, and the
/// human-readable `error`.
pub(crate) fn error_json(
    id: Option<&Json>,
    trace: Option<&str>,
    code: ErrorCode,
    message: &str,
) -> Json {
    let mut object = envelope(false, id, trace);
    object.push(("code".to_string(), Json::Str(code.name().to_string())));
    object.push(("error".to_string(), Json::Str(message.to_string())));
    Json::Obj(object)
}

/// The trace-less error line (without its newline) the serving loop
/// answers caught panics, oversized lines and over-limit connections
/// with: there is no request to take an id or trace from.
pub(crate) fn error_line(code: ErrorCode, message: &str) -> String {
    error_json(None, None, code, message).render()
}

/// Renders a success response with the envelope fields: `ok`, the echoed
/// `id` (when the request carried one), the `trace` id, then the payload.
/// Counts the response toward the conservation invariant
/// (`requests_total`/`requests_ok`).
fn render_ok(engine: &Arc<Engine>, id: Option<&Json>, trace: &str, response: &Response) -> Json {
    engine.stats_ref().note_ok(WireCodec::Json);
    let mut object = envelope(true, id, Some(trace));
    response.push_payload(&mut object);
    Json::Obj(object)
}

/// Renders an error response (`ok`, echoed `id`, `trace`, stable `code`,
/// human `error`) and bumps the engine's per-code wire-error counter
/// (which also counts the response toward `requests_total`).
fn render_error(engine: &Arc<Engine>, id: Option<&Json>, trace: &str, error: &ApiError) -> Json {
    engine
        .stats_ref()
        .note_wire_error(error.code, WireCodec::Json);
    error_json(id, Some(trace), error.code, &error.message)
}

fn check_version(value: &Json) -> Result<(), ApiError> {
    match value.get("v") {
        None => Ok(()),
        Some(v) if v.as_usize().map(|n| n as u64) == Some(PROTOCOL_VERSION) => Ok(()),
        Some(v) => Err(ApiError::unsupported_version(v.render())),
    }
}

/// Handles one request line: parse, version-check, decode, dispatch,
/// render — the typed path behind
/// [`handle_request`](crate::protocol::handle_request). Never panics on
/// malformed input.
pub fn handle_line(engine: &Arc<Engine>, line: &str) -> Json {
    match Json::parse(line.trim()) {
        Err(error) => {
            // unparseable lines carry no usable `trace` field; generate an
            // id so even this response names a trace
            let trace = TraceId::generate().to_wire();
            render_error(
                engine,
                None,
                &trace,
                &ApiError::new(ErrorCode::ParseError, format!("bad json: {error}")),
            )
        }
        Ok(value) => handle_value(engine, &value),
    }
}

/// Handles one parsed request object, including the `v`/`id`/`trace`
/// envelope and the `batch` op.
pub fn handle_value(engine: &Arc<Engine>, value: &Json) -> Json {
    handle_envelope(engine, value, None)
}

/// Resolves the request's trace id: its own `trace` field wins, then the
/// enclosing batch's, then a freshly generated id.
fn resolve_trace(value: &Json, inherited: Option<&str>) -> String {
    match value.get("trace").and_then(Json::as_str) {
        Some(wire) => wire.to_string(),
        None => match inherited {
            Some(wire) => wire.to_string(),
            None => TraceId::generate().to_wire(),
        },
    }
}

/// `inherited` is `None` for a top-level request (which opens the root
/// span) and the batch's trace for sub-requests (children of that root).
fn handle_envelope(engine: &Arc<Engine>, value: &Json, inherited: Option<&str>) -> Json {
    let allow_batch = inherited.is_none();
    let id = value.get("id");
    let trace = resolve_trace(value, inherited);
    let mut span = if inherited.is_none() {
        obs::root_span("server.request", TraceId::from_wire(&trace))
    } else {
        obs::span("request")
    };
    if let Some(op) = value.get("op").and_then(Json::as_str) {
        span.add_field("op", op);
    }
    if let Err(error) = check_version(value) {
        return render_error(engine, id, &trace, &error);
    }
    if value.get("op").and_then(Json::as_str) == Some("batch") {
        if !allow_batch {
            return render_error(
                engine,
                id,
                &trace,
                &ApiError::invalid("`batch` cannot nest inside `batch`"),
            );
        }
        let Some(items) = value.get("requests").and_then(Json::as_arr) else {
            return render_error(engine, id, &trace, &ApiError::invalid("missing `requests`"));
        };
        if items.len() > MAX_BATCH_REQUESTS {
            return render_error(
                engine,
                id,
                &trace,
                &ApiError::invalid(format!(
                    "`batch` carries {} sub-requests (limit {MAX_BATCH_REQUESTS})",
                    items.len()
                )),
            );
        }
        // sub-requests execute in order; a failed item reports its own
        // error and does not abort the rest
        let results: Vec<Json> = items
            .iter()
            .map(|item| handle_envelope(engine, item, Some(&trace)))
            .collect();
        engine.stats_ref().note_ok(WireCodec::Json);
        let mut object = envelope(true, id, Some(&trace));
        object.push(("results".to_string(), Json::Arr(results)));
        return Json::Obj(object);
    }
    match Request::from_json(value) {
        Err(error) => render_error(engine, id, &trace, &error),
        Ok(request) => match dispatch(engine, &request) {
            Ok(response) => render_ok(engine, id, &trace, &response),
            Err(error) => render_error(engine, id, &trace, &error),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineOptions;
    use scrutinizer_core::OrderingStrategy;
    use scrutinizer_core::SystemConfig;
    use scrutinizer_corpus::{Corpus, CorpusConfig};

    fn tiny_engine() -> Arc<Engine> {
        // no pretrain: these tests never reach translation/suggestion
        Engine::new(
            Corpus::generate(CorpusConfig::small()),
            SystemConfig::test(),
            EngineOptions {
                retrain_interval: None,
                ordering: OrderingStrategy::Sequential,
            },
        )
    }

    #[test]
    fn error_code_names_are_stable_and_unique() {
        let mut names: Vec<&str> = ErrorCode::ALL.iter().map(|c| c.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), ErrorCode::COUNT, "duplicate wire names");
        for (i, code) in ErrorCode::ALL.iter().enumerate() {
            assert_eq!(code.index(), i);
        }
    }

    #[test]
    fn caught_panics_answer_internal() {
        // `internal` has no legitimate wire trigger (every op handler is
        // guarded), so the panic seam is pinned here; the wire test's
        // exhaustive match points at this one
        let engine = tiny_engine();
        let before = engine.stats().wire_error(ErrorCode::Internal);
        let line = crate::protocol::respond_panicked(&engine, Box::new("boom"));
        let response = Json::parse(line.trim_end()).expect("panic response parses");
        assert_eq!(response.get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(
            response.get("code").and_then(Json::as_str),
            Some(ErrorCode::Internal.name())
        );
        let message = response
            .get("error")
            .and_then(Json::as_str)
            .expect("human-readable message");
        assert!(
            message.contains("boom"),
            "panic payload surfaced: {message}"
        );
        assert_eq!(
            engine.stats().wire_error(ErrorCode::Internal),
            before + 1,
            "internal errors obey the conservation counters too"
        );
    }

    #[test]
    fn id_is_echoed_verbatim() {
        let engine = tiny_engine();
        let response = handle_line(&engine, r#"{"op":"stats","id":"req-7"}"#);
        assert_eq!(response.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(response.get("id").and_then(Json::as_str), Some("req-7"));
        // numeric and structured ids echo too, and errors echo them as well
        let response = handle_line(&engine, r#"{"op":"nope","id":[1,2]}"#);
        assert_eq!(response.get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(
            response.get("id"),
            Some(&Json::Arr(vec![Json::Num(1.0), Json::Num(2.0)]))
        );
        assert_eq!(
            response.get("code").and_then(Json::as_str),
            Some("unknown_op")
        );
    }

    #[test]
    fn version_gate_speaks_v1_only() {
        let engine = tiny_engine();
        let ok = handle_line(&engine, r#"{"op":"stats","v":1}"#);
        assert_eq!(ok.get("ok").and_then(Json::as_bool), Some(true));
        let bad = handle_line(&engine, r#"{"op":"stats","v":2,"id":9}"#);
        assert_eq!(bad.get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(
            bad.get("code").and_then(Json::as_str),
            Some("unsupported_version")
        );
        assert_eq!(bad.get("id").and_then(Json::as_usize), Some(9));
        // a non-numeric version is also rejected with the same code
        let text = handle_line(&engine, r#"{"op":"stats","v":"two"}"#);
        assert_eq!(
            text.get("code").and_then(Json::as_str),
            Some("unsupported_version")
        );
    }

    #[test]
    fn batch_executes_in_order_with_per_item_responses() {
        let engine = tiny_engine();
        let line = r#"{"op":"batch","id":"b","requests":[
            {"op":"open","checker":"alice","id":1},
            {"op":"close","session":1,"id":2},
            {"op":"close","session":1,"id":3}
        ]}"#;
        let response = handle_line(&engine, line);
        assert_eq!(response.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(response.get("id").and_then(Json::as_str), Some("b"));
        let results = response.get("results").and_then(Json::as_arr).unwrap();
        assert_eq!(results.len(), 3);
        assert_eq!(results[0].get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(results[0].get("session").and_then(Json::as_usize), Some(1));
        assert_eq!(results[1].get("ok").and_then(Json::as_bool), Some(true));
        // the double-close fails with its own code, without aborting the batch
        assert_eq!(results[2].get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(
            results[2].get("code").and_then(Json::as_str),
            Some("unknown_session")
        );
        assert_eq!(results[2].get("id").and_then(Json::as_usize), Some(3));
    }

    #[test]
    fn batch_cannot_nest() {
        let engine = tiny_engine();
        let line = r#"{"op":"batch","requests":[{"op":"batch","requests":[]}]}"#;
        let response = handle_line(&engine, line);
        let results = response.get("results").and_then(Json::as_arr).unwrap();
        assert_eq!(results[0].get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(
            results[0].get("code").and_then(Json::as_str),
            Some("invalid_argument")
        );
    }

    #[test]
    fn wire_errors_are_counted_per_code() {
        let engine = tiny_engine();
        handle_line(&engine, "{nonsense");
        handle_line(&engine, r#"{"op":"warp"}"#);
        handle_line(&engine, r#"{"op":"close","session":404}"#);
        let stats = engine.stats();
        assert_eq!(stats.wire_error(ErrorCode::ParseError), 1);
        assert_eq!(stats.wire_error(ErrorCode::UnknownOp), 1);
        assert_eq!(stats.wire_error(ErrorCode::UnknownSession), 1);
        assert_eq!(stats.wire_error(ErrorCode::Sql), 0);
    }

    #[test]
    fn engine_errors_map_to_stable_codes() {
        let cases = [
            (
                EngineError::UnknownSession(3),
                ErrorCode::UnknownSession,
                "unknown session s3",
            ),
            (
                EngineError::UnknownClaim(9),
                ErrorCode::UnknownClaim,
                "unknown claim 9",
            ),
            (
                EngineError::ClaimNotSubmitted(4),
                ErrorCode::NotInBatch,
                "claim 4 was not submitted to this session",
            ),
        ];
        for (engine_error, code, message) in cases {
            let api: ApiError = engine_error.into();
            assert_eq!(api.code, code);
            assert_eq!(api.message, message);
        }
    }
}
