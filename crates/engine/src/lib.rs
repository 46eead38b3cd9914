//! # scrutinizer-engine
//!
//! The long-lived, concurrent verification engine: one shared corpus
//! (catalog + claims + document) and one set of trained classifiers,
//! serving many interactive checker sessions at once.
//!
//! The paper's system is explicitly *mixed-initiative*: fact checkers
//! open sessions, the system proposes top-k query translations, checker
//! answers feed back into the planner, and the loop repeats. The rest of
//! the workspace provides the loop's steps as library calls; this crate
//! drives them as a serving system, and runs the paper's experiments on
//! it.
//!
//! ```text
//!        checkers (threads / TCP clients)
//!   ─────┬──────────────┬──────────────┬─────
//!        ▼              ▼              ▼
//!    Session s1     Session s2     Session sN          session registry
//!        │  submit / answer / suggest / verdict
//!        ▼
//!   ┌─────────────────────────────────────────────┐
//!   │ Engine                                      │
//!   │   models:   SnapshotCell (epoch-versioned   │──▶ plan_claim / translate
//!   │             Arc<ModelSnapshot> swaps)       │    (readers never block)
//!   │   features: Arc<FeatureStore> (CSR, built   │──▶ batch utility scoring
//!   │             once at bootstrap)              │
//!   │   corpus:   Arc<Corpus>       (catalog)     │──▶ Algorithm 2 (qgen), `sql` op
//!   │   trainer:  channel to one long-lived       │──▶ warm-start retrains
//!   │             `scrutinizer-trainer` thread    │
//!   │   stats:    counters + latency histograms   │──▶ `stats` endpoint
//!   └─────────────────────────────────────────────┘
//!        │ verdicts append to the pending-examples log
//!        ▼
//!    background trainer: drain log ─▶ partial_fit a COPY of the weights
//!    with the one TrainingState (AdaGrad + rehearsal log) ─▶ publish epoch+1
//!    (readers keep the old snapshot; next_batch re-plans on epoch change)
//! ```
//!
//! ## The session loop
//!
//! 1. [`Engine::open_session`] — a checker joins.
//! 2. [`Engine::submit_report`] — a set of corpus claims enters the
//!    session; each is translated and planned with the current models,
//!    and the batch selector orders the first question batch.
//! 3. [`Engine::post_answer`] — the checker validates property screens
//!    (relation, row key, attribute).
//! 4. [`Engine::suggest`] — Algorithm 2 instantiates candidate queries
//!    over the validated context, evaluating every assignment directly,
//!    and returns the top-k as a ranked final screen.
//! 5. [`Engine::post_verdict`] — the checker's judgment lands in the
//!    pending-examples log; at the configured interval a **background**
//!    warm-start retrain folds the log into the next model epoch (readers
//!    never wait), and [`Engine::next_batch`] re-plans the remaining
//!    claims once the new epoch publishes — the mixed-initiative feedback
//!    edge, off the read path.
//!
//! [`Engine::verify_batch`] drives the same machinery with simulated
//! checkers ([`scrutinizer_crowd::Worker`]) concurrently, on one scoped
//! worker thread per available core — the high-throughput batch path used
//! by the benches and tests.
//!
//! ## The paper's experiments
//!
//! [`experiments`] runs Algorithm 1 for the paper's evaluation on this
//! same session path: [`experiments::report::run_report`] plans each
//! batch with [`Engine::submit_report`], has every panel member verify
//! each claim with [`Engine::verify_claim_with`] and retrains with
//! [`Engine::pretrain`] between batches (Table 2, Figures 7–9); the user
//! study (Figures 5–6) verifies on a pretrained, frozen engine.
//!
//! ## Direct evaluation
//!
//! Nothing caches query results. Algorithm 2's assignments are a few
//! postfix instructions over `f64`s each, cheaper to evaluate than to
//! probe a shared cache for, and [`Engine::run_sql`] parses and evaluates
//! each raw `sql` statement afresh. The `stats` op's `cache_*` fields
//! outlived the raw-SQL result cache they described; they stay in the v1
//! layout as constant zeros.
//!
//! ## The typed API and the server
//!
//! [`api`] is the versioned service contract: [`api::Request`] /
//! [`api::Response`] enums (one variant per op), [`api::ApiError`] with
//! a stable machine-consumable [`api::ErrorCode`], a thin table-driven
//! JSON codec, the `v`/`id` envelope and the `batch` op. [`server`]
//! serves it over TCP with one thread per connection, each woken by its
//! own socket — per-connection buffers, request pipelining,
//! backpressure, a cap on requests executing at once, connection
//! limits, graceful shutdown — and `src/bin/serve.rs` (binary
//! `scrutinizer-serve`) is the thin CLI over it:
//!
//! ```text
//! $ scrutinizer-serve 127.0.0.1:7878 --scale small
//! $ echo '{"op":"stats","v":1,"id":1}' | nc 127.0.0.1 7878
//! ```
//!
//! ## Durability
//!
//! There are two ways to build an engine: [`Engine::new`] bootstraps an
//! in-memory one, and [`Engine::open`] builds one over pre-built
//! [`EngineParts`], durable when given a [`DurableEnv`]. With
//! `--data-dir` (library: [`Engine::open`] with a [`DurableEnv`]) the
//! engine writes every state-changing op as a typed
//! [`WalRecord`] to a checksummed write-ahead log and commits it before
//! the op is acknowledged; each published model epoch persists its
//! trained weights as a blob and checkpoints a full state image, which
//! compacts the log. Restart replays checkpoint + tail and resumes
//! sessions, counters, and the model epoch exactly — see [`durability`]
//! for the record set and the ordering invariants, and `crates/wal` for
//! the log itself.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod api;
pub mod codec;
pub mod durability;
pub mod engine;
pub mod experiments;
pub mod protocol;
pub mod serve_core;
pub mod server;
pub mod session;
pub mod snapshot;
pub mod stats;
pub mod wire;

pub use api::{dispatch, ApiError, ErrorCode, Request, Response};
pub use durability::{DurableEnv, RecoveryReport, WalRecord};
pub use engine::{Engine, EngineError, EngineOptions, EngineParts, VerdictRecord};
pub use serve_core::{step_conn, ConnState, ServiceLimits};
pub use server::{Server, ServerHandle, ServerOptions};
pub use session::{ClaimQuestions, ScreenView, SessionId, Suggestion};
pub use snapshot::{ModelSnapshot, SnapshotCell};
pub use stats::{EngineStats, HistogramSnapshot, LatencyHistogram, WireCodec};
pub use wire::BINARY_MAGIC;
