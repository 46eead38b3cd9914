//! The engine's metrics surface: registry-backed counters, gauges, and
//! per-stage latency histograms, read live by the `stats` endpoint and
//! rendered to Prometheus text exposition for the `metrics` endpoint.
//!
//! Every series lives on one [`MetricsRegistry`] owned by
//! [`EngineStats`]: a metric is its handle, its one registration in
//! [`EngineStats::new`], and — if it is a v1 `stats` field — one line of
//! the `stats` JSON renderer, which reads the handles directly. The same
//! atomics back the `stats` JSON, the `metrics` exposition, and the
//! benches, so the two endpoints can never disagree. The histogram type
//! itself ([`LatencyHistogram`]) is re-exported from `scrutinizer-obs`,
//! which keeps the exact log₂ bucketing this module always used.
//!
//! **Conservation invariant**: every response the service emits is
//! counted exactly once — [`EngineStats::note_ok`] on success,
//! [`EngineStats::note_wire_error`] on error, each under its
//! [`WireCodec`] — so `requests_total == requests_ok + Σ wire_errors[code]`
//! holds at any quiescent point. Batch sub-requests count individually
//! (their per-item responses are real responses); the enclosing batch
//! envelope counts once as its own success or failure.

use std::sync::Mutex;

use scrutinizer_obs::MetricsRegistry;

use crate::api::ErrorCode;

pub use scrutinizer_obs::{Counter, Gauge, Histogram as LatencyHistogram, HistogramSnapshot};

/// The wire codec a response was emitted under — JSON lines (the
/// canonical, compatibility surface) or the length-prefixed binary
/// framing negotiated by the `0x00` magic byte.
///
/// Per-codec counters exist so operators can watch a JSON→binary
/// migration; the conservation invariant holds within each codec as
/// well as in aggregate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireCodec {
    /// Newline-delimited JSON, the canonical v1 encoding.
    Json,
    /// Length-prefixed binary frames (`0x00` magic).
    Binary,
}

impl WireCodec {
    /// Number of codecs (array sizing).
    pub const COUNT: usize = 2;

    /// Every codec, in index order.
    pub const ALL: [WireCodec; WireCodec::COUNT] = [WireCodec::Json, WireCodec::Binary];

    /// Stable wire name, used as the `codec` label value and the
    /// `stats` JSON key.
    pub fn name(self) -> &'static str {
        match self {
            WireCodec::Json => "json",
            WireCodec::Binary => "binary",
        }
    }

    /// Position in [`WireCodec::ALL`] (counter indexing).
    pub fn index(self) -> usize {
        match self {
            WireCodec::Json => 0,
            WireCodec::Binary => 1,
        }
    }
}

/// Everything the engine counts: cheap cloneable handles onto series
/// registered once in the engine's [`MetricsRegistry`].
#[derive(Debug)]
pub struct EngineStats {
    registry: MetricsRegistry,
    /// Sessions ever opened.
    pub sessions_opened: Counter,
    /// Sessions closed.
    pub sessions_closed: Counter,
    /// Claims whose verdict has been recorded.
    pub claims_verified: Counter,
    /// Property-screen answers posted by checkers.
    pub answers_posted: Counter,
    /// Candidate-query suggestion batches produced (Algorithm 2 runs).
    pub suggestions_served: Counter,
    /// Model retrains triggered by verified-claim accumulation.
    pub retrains: Counter,
    /// Retrains executed by the background trainer (a subset of
    /// `retrains`; the rest are synchronous pretrains).
    pub background_retrains: Counter,
    /// Pending examples folded into a published model epoch by the
    /// background trainer. The verdict-loss invariant the simulation
    /// harness checks: `examples_trained + pending_examples` equals the
    /// number of unique claims ever verified (when retraining is
    /// enabled) — a batch the trainer took past its cursor into the
    /// verified log and never trained is a lost example.
    pub examples_trained: Counter,
    /// Weight rows retrains copied on their first write because they
    /// were shared: with the published models, or, in a from-scratch
    /// fit, as the untrained model's one zero row.
    pub retrain_rows_copied: Counter,
    /// Of those copies, the ones written into a row the retired epoch
    /// released rather than into a new allocation.
    pub retrain_rows_recycled: Counter,
    /// Raw SQL statements executed through the serving layer.
    pub sql_executed: Counter,
    /// Batch-selection plans requested (all strategies).
    pub planner_plans: Counter,
    /// ILP plans the solver answered: every ILP plan but a greedy fallback.
    pub planner_cold_solves: Counter,
    /// ILP failures that degraded to the greedy heuristic.
    pub planner_fallbacks: Counter,
    /// Branch & bound nodes explored across all planning solves.
    pub planner_nodes: Counter,
    /// Total LP relaxations solved while planning.
    pub planner_lp_solves: Counter,
    /// Human-readable reason of the most recent planner fallback.
    pub planner_last_fallback: Mutex<Option<String>>,
    /// Responses emitted, success or error (see the conservation
    /// invariant in the module docs).
    pub requests_total: Counter,
    /// Responses emitted successfully.
    pub requests_ok: Counter,
    /// TCP connections currently registered with the serving loop (gauge).
    pub connections_open: Gauge,
    /// Requests handed to the serving workers and not yet answered (gauge).
    pub requests_in_flight: Gauge,
    /// High-water mark of one connection's queued + in-flight requests —
    /// how deeply clients actually pipeline.
    pub pipeline_depth: Gauge,
    /// Wire errors by [`ErrorCode`] (indexed by [`ErrorCode::index`]);
    /// one labeled `scrutinizer_wire_errors_total{code="..."}` series each.
    pub wire_errors: [Counter; ErrorCode::COUNT],
    /// Responses emitted per wire codec (indexed by
    /// [`WireCodec::index`]); one labeled
    /// `scrutinizer_requests_by_codec_total{codec="..."}` series each.
    /// Conservation holds per codec: each total equals the matching
    /// ok + error counters, and the totals sum to `requests_total`.
    pub requests_by_codec: [Counter; WireCodec::COUNT],
    /// Successful responses per wire codec.
    pub requests_ok_by_codec: [Counter; WireCodec::COUNT],
    /// Error responses per wire codec (aggregated across codes; the
    /// per-code split stays codec-agnostic in `wire_errors`).
    pub wire_errors_by_codec: [Counter; WireCodec::COUNT],
    /// Latency of claim planning (translation + screen selection).
    pub plan_latency: LatencyHistogram,
    /// Latency of query generation (Algorithm 2).
    pub suggest_latency: LatencyHistogram,
    /// Latency of full single-claim verification drives.
    pub verify_latency: LatencyHistogram,
    /// Latency of model retraining.
    pub retrain_latency: LatencyHistogram,
    /// Claims of running `verify_batch` calls that no worker has taken yet.
    pub queue_depth: Gauge,
    /// Claims `verify_batch` workers are verifying right now.
    pub jobs_in_flight: Gauge,
    // The mirrored series below copy state the engine keeps elsewhere;
    // `Engine::stats` and `Engine::render_metrics` refresh them first.
    /// Sessions currently live (mirrored).
    pub sessions_live: Gauge,
    /// Published model generation (mirrored).
    pub model_epoch: Gauge,
    /// Verified claims awaiting the next retrain (mirrored).
    pub pending_examples: Gauge,
    /// WAL records appended (mirrored from the WAL's own counters; zero
    /// when the engine runs without a `--data-dir`). The durability
    /// conservation law: on a fresh durable engine, appends equals the
    /// number of acknowledged state-changing ops (opens + closes +
    /// submits + answers + verdicts + epoch publishes).
    pub wal_appends: Counter,
    /// Framed WAL bytes written, headers included (mirrored).
    pub wal_bytes_written: Counter,
    /// WAL fsync batches issued — group commit makes this ≤ appends
    /// (mirrored).
    pub wal_fsyncs: Counter,
    /// Live WAL segment files (mirrored gauge).
    pub wal_segments: Gauge,
    /// Epoch of the last durable checkpoint (mirrored gauge).
    pub wal_last_checkpoint_epoch: Gauge,
}

impl Default for EngineStats {
    fn default() -> Self {
        EngineStats::new()
    }
}

impl EngineStats {
    /// Builds the stats block, registering every series on a fresh
    /// registry.
    pub fn new() -> EngineStats {
        let r = MetricsRegistry::new();
        let wire_errors = std::array::from_fn(|i| {
            r.counter_with_label(
                "scrutinizer_wire_errors_total",
                "Error responses emitted, by stable error code.",
                "code",
                ErrorCode::ALL[i].name(),
            )
        });
        let requests_by_codec = std::array::from_fn(|i| {
            r.counter_with_label(
                "scrutinizer_requests_by_codec_total",
                "Responses emitted, by wire codec.",
                "codec",
                WireCodec::ALL[i].name(),
            )
        });
        let requests_ok_by_codec = std::array::from_fn(|i| {
            r.counter_with_label(
                "scrutinizer_requests_ok_by_codec_total",
                "Responses emitted successfully, by wire codec.",
                "codec",
                WireCodec::ALL[i].name(),
            )
        });
        let wire_errors_by_codec = std::array::from_fn(|i| {
            r.counter_with_label(
                "scrutinizer_wire_errors_by_codec_total",
                "Error responses emitted, by wire codec.",
                "codec",
                WireCodec::ALL[i].name(),
            )
        });
        EngineStats {
            sessions_opened: r.counter(
                "scrutinizer_sessions_opened_total",
                "Checker sessions ever opened.",
            ),
            sessions_closed: r.counter(
                "scrutinizer_sessions_closed_total",
                "Checker sessions closed.",
            ),
            claims_verified: r.counter(
                "scrutinizer_claims_verified_total",
                "Claims whose verdict has been recorded.",
            ),
            answers_posted: r.counter(
                "scrutinizer_answers_posted_total",
                "Property-screen answers posted by checkers.",
            ),
            suggestions_served: r.counter(
                "scrutinizer_suggestions_served_total",
                "Candidate-query suggestion batches produced (Algorithm 2 runs).",
            ),
            retrains: r.counter(
                "scrutinizer_retrains_total",
                "Model retrains triggered by verified-claim accumulation.",
            ),
            background_retrains: r.counter(
                "scrutinizer_background_retrains_total",
                "Retrains executed by the background trainer.",
            ),
            examples_trained: r.counter(
                "scrutinizer_examples_trained_total",
                "Pending examples folded into a published model epoch.",
            ),
            retrain_rows_copied: r.counter(
                "scrutinizer_retrain_rows_copied_total",
                "Shared weight rows retrains copied on their first write.",
            ),
            retrain_rows_recycled: r.counter(
                "scrutinizer_retrain_rows_recycled_total",
                "Copied weight rows written into rows a retired epoch released.",
            ),
            sql_executed: r.counter(
                "scrutinizer_sql_executed_total",
                "Raw SQL statements executed through the serving layer.",
            ),
            planner_plans: r.counter(
                "scrutinizer_planner_plans_total",
                "Batch-selection plans requested (all strategies).",
            ),
            planner_cold_solves: r.counter(
                "scrutinizer_planner_cold_solves_total",
                "ILP plans the solver answered, fallbacks excluded.",
            ),
            planner_fallbacks: r.counter(
                "scrutinizer_planner_fallbacks_total",
                "ILP failures that degraded to the greedy heuristic.",
            ),
            planner_nodes: r.counter(
                "scrutinizer_planner_nodes_total",
                "Branch & bound nodes explored across all planning solves.",
            ),
            planner_lp_solves: r.counter(
                "scrutinizer_planner_lp_solves_total",
                "Total LP relaxations solved while planning.",
            ),
            planner_last_fallback: Mutex::new(None),
            requests_total: r.counter(
                "scrutinizer_requests_total",
                "Responses emitted, success or error.",
            ),
            requests_ok: r.counter(
                "scrutinizer_requests_ok_total",
                "Responses emitted successfully.",
            ),
            connections_open: r.gauge(
                "scrutinizer_connections_open",
                "TCP connections currently registered with the serving loop.",
            ),
            requests_in_flight: r.gauge(
                "scrutinizer_requests_in_flight",
                "Requests handed to the serving workers and not yet answered.",
            ),
            pipeline_depth: r.gauge(
                "scrutinizer_pipeline_depth",
                "High-water mark of one connection's queued + in-flight requests.",
            ),
            wire_errors,
            requests_by_codec,
            requests_ok_by_codec,
            wire_errors_by_codec,
            plan_latency: r.histogram(
                "scrutinizer_plan_latency_seconds",
                "Latency of claim planning (translation + screen selection).",
            ),
            suggest_latency: r.histogram(
                "scrutinizer_suggest_latency_seconds",
                "Latency of query generation (Algorithm 2).",
            ),
            verify_latency: r.histogram(
                "scrutinizer_verify_latency_seconds",
                "Latency of full single-claim verification drives.",
            ),
            retrain_latency: r.histogram(
                "scrutinizer_retrain_latency_seconds",
                "Latency of model retraining.",
            ),
            sessions_live: r.gauge("scrutinizer_sessions_live", "Sessions currently live."),
            model_epoch: r.gauge(
                "scrutinizer_model_epoch",
                "The published model generation (bumped by every retrain).",
            ),
            pending_examples: r.gauge(
                "scrutinizer_pending_examples",
                "Verified claims awaiting the next retrain.",
            ),
            queue_depth: r.gauge(
                "scrutinizer_queue_depth",
                "Claims of running verify_batch calls that no worker has taken yet.",
            ),
            jobs_in_flight: r.gauge(
                "scrutinizer_jobs_in_flight",
                "Claims verify_batch workers are verifying right now.",
            ),
            wal_appends: r.counter(
                "scrutinizer_wal_appends_total",
                "WAL records appended (one per acknowledged state-changing op).",
            ),
            wal_bytes_written: r.counter(
                "scrutinizer_wal_bytes_written_total",
                "Framed WAL bytes written, record headers included.",
            ),
            wal_fsyncs: r.counter(
                "scrutinizer_wal_fsyncs_total",
                "WAL fsync batches issued (group commit batches commits).",
            ),
            wal_segments: r.gauge("scrutinizer_wal_segments", "Live WAL segment files."),
            wal_last_checkpoint_epoch: r.gauge(
                "scrutinizer_wal_last_checkpoint_epoch",
                "Model epoch of the last durable checkpoint.",
            ),
            registry: r,
        }
    }

    /// The registry backing every series — render it for the `metrics`
    /// endpoint. Mirrored series (`sessions_live`, the WAL block) are
    /// refreshed by
    /// [`Engine::render_metrics`](crate::Engine::render_metrics) just
    /// before rendering.
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// Counts one successfully emitted response under `codec`
    /// (conservation: also bumps the aggregate and per-codec totals).
    pub fn note_ok(&self, codec: WireCodec) {
        self.requests_total.inc();
        self.requests_ok.inc();
        self.requests_by_codec[codec.index()].inc();
        self.requests_ok_by_codec[codec.index()].inc();
    }

    /// Counts one emitted error response under `code` and `codec`
    /// (conservation: also bumps the aggregate and per-codec totals).
    pub fn note_wire_error(&self, code: ErrorCode, codec: WireCodec) {
        self.requests_total.inc();
        self.wire_errors[code.index()].inc();
        self.requests_by_codec[codec.index()].inc();
        self.wire_errors_by_codec[codec.index()].inc();
    }

    /// Raises the pipeline-depth high-water mark to at least `depth`.
    pub fn note_pipeline_depth(&self, depth: u64) {
        self.pipeline_depth.record_max(depth);
    }

    /// The number of wire errors recorded under `code`.
    pub fn wire_error(&self, code: ErrorCode) -> u64 {
        self.wire_errors[code.index()].get()
    }

    /// Total wire errors across every code.
    pub fn wire_errors_total(&self) -> u64 {
        self.wire_errors.iter().map(Counter::get).sum()
    }

    /// Verifies the conservation invariant at a quiescent point:
    /// `requests_total == requests_ok + Σ wire_errors`.
    pub fn requests_are_conserved(&self) -> bool {
        self.requests_total.get() == self.requests_ok.get() + self.wire_errors_total()
    }

    /// Verifies the per-codec conservation invariant at a quiescent
    /// point: within each codec, `total == ok + errors`; across codecs,
    /// the per-codec totals, oks, and errors sum to their aggregates.
    pub fn requests_are_conserved_per_codec(&self) -> bool {
        let sum = |counters: &[Counter]| counters.iter().map(Counter::get).sum::<u64>();
        let per_codec = WireCodec::ALL.iter().all(|codec| {
            let i = codec.index();
            self.requests_by_codec[i].get()
                == self.requests_ok_by_codec[i].get() + self.wire_errors_by_codec[i].get()
        });
        per_codec
            && sum(&self.requests_by_codec) == self.requests_total.get()
            && sum(&self.requests_ok_by_codec) == self.requests_ok.get()
            && sum(&self.wire_errors_by_codec) == self.wire_errors_total()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn histogram_buckets_by_magnitude() {
        let h = LatencyHistogram::default();
        h.record(Duration::from_micros(1));
        h.record(Duration::from_micros(3));
        h.record(Duration::from_micros(1000));
        let snap = h.snapshot();
        assert_eq!(snap.count, 3);
        assert_eq!(snap.buckets[0], 1); // [1, 2)
        assert_eq!(snap.buckets[1], 1); // [2, 4)
        assert_eq!(snap.buckets[9], 1); // [512, 1024)
        assert!((snap.mean_micros() - (1.0 + 3.0 + 1000.0) / 3.0).abs() < 1e-9);
    }

    #[test]
    fn quantiles_are_monotone_bucket_ceilings() {
        let h = LatencyHistogram::default();
        for i in 0..100u64 {
            h.record(Duration::from_micros(i + 1));
        }
        let snap = h.snapshot();
        let p50 = snap.quantile_micros(0.5);
        let p99 = snap.quantile_micros(0.99);
        assert!(p50 <= p99);
        assert!((32..=64).contains(&p50), "p50 ceiling {p50}");
        assert!((64..=128).contains(&p99), "p99 ceiling {p99}");
    }

    #[test]
    fn sub_microsecond_goes_to_first_bucket() {
        let h = LatencyHistogram::default();
        h.record(Duration::from_nanos(10));
        assert_eq!(h.snapshot().buckets[0], 1);
    }

    #[test]
    fn time_passes_result_through() {
        let h = LatencyHistogram::default();
        let out = h.time(|| 21 * 2);
        assert_eq!(out, 42);
        assert_eq!(h.snapshot().count, 1);
    }

    #[test]
    fn conservation_counts_every_response_once() {
        let stats = EngineStats::default();
        stats.note_ok(WireCodec::Json);
        stats.note_ok(WireCodec::Json);
        stats.note_wire_error(ErrorCode::ParseError, WireCodec::Json);
        stats.note_wire_error(ErrorCode::Overloaded, WireCodec::Json);
        assert_eq!(stats.requests_total.get(), 4);
        assert_eq!(stats.requests_ok.get(), 2);
        assert_eq!(stats.wire_errors[ErrorCode::ParseError.index()].get(), 1);
        assert_eq!(stats.wire_errors[ErrorCode::Overloaded.index()].get(), 1);
        let errors: u64 = stats.wire_errors.iter().map(Counter::get).sum();
        assert_eq!(stats.requests_total.get(), stats.requests_ok.get() + errors);
    }

    #[test]
    fn per_codec_counters_split_the_aggregate() {
        let stats = EngineStats::default();
        stats.note_ok(WireCodec::Json);
        stats.note_ok(WireCodec::Binary);
        stats.note_ok(WireCodec::Binary);
        stats.note_wire_error(ErrorCode::ParseError, WireCodec::Json);
        stats.note_wire_error(ErrorCode::UnknownOp, WireCodec::Binary);
        assert_eq!(stats.requests_total.get(), 5);
        assert_eq!(stats.requests_by_codec[WireCodec::Json.index()].get(), 2);
        assert_eq!(stats.requests_by_codec[WireCodec::Binary.index()].get(), 3);
        assert_eq!(stats.requests_ok_by_codec[WireCodec::Json.index()].get(), 1);
        assert_eq!(
            stats.requests_ok_by_codec[WireCodec::Binary.index()].get(),
            2
        );
        assert_eq!(stats.wire_errors_by_codec[WireCodec::Json.index()].get(), 1);
        assert_eq!(
            stats.wire_errors_by_codec[WireCodec::Binary.index()].get(),
            1
        );
        for codec in WireCodec::ALL {
            let i = codec.index();
            assert_eq!(
                stats.requests_by_codec[i].get(),
                stats.requests_ok_by_codec[i].get() + stats.wire_errors_by_codec[i].get(),
                "conservation within {}",
                codec.name()
            );
        }
        let text = stats.registry().render();
        assert!(text.contains("scrutinizer_requests_by_codec_total{codec=\"binary\"} 3\n"));
        assert!(text.contains("scrutinizer_requests_ok_by_codec_total{codec=\"json\"} 1\n"));
        assert!(text.contains("scrutinizer_wire_errors_by_codec_total{codec=\"binary\"} 1\n"));
    }

    #[test]
    fn registry_exposition_carries_engine_series_and_lints() {
        let stats = EngineStats::default();
        stats.sessions_opened.inc();
        stats.note_ok(WireCodec::Json);
        stats.note_wire_error(ErrorCode::UnknownOp, WireCodec::Json);
        stats.plan_latency.record(Duration::from_micros(7));
        stats.note_pipeline_depth(3);
        let text = stats.registry().render();
        assert!(text.contains("scrutinizer_sessions_opened_total 1\n"));
        assert!(text.contains("scrutinizer_requests_total 2\n"));
        assert!(text.contains("scrutinizer_wire_errors_total{code=\"unknown_op\"} 1\n"));
        assert!(text.contains("scrutinizer_plan_latency_seconds_count 1\n"));
        assert!(text.contains("scrutinizer_pipeline_depth 3\n"));
        scrutinizer_obs::expo::lint_exposition(&text).expect("engine exposition lints clean");
    }

    #[test]
    fn pipeline_depth_is_a_high_water_mark() {
        let stats = EngineStats::default();
        stats.note_pipeline_depth(5);
        stats.note_pipeline_depth(2);
        assert_eq!(stats.pipeline_depth.get(), 5);
    }
}
