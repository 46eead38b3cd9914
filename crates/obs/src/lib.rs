//! Observability substrate for Scrutinizer: tracing, metrics, logging.
//!
//! This crate is deliberately **std-only and dependency-free** — it sits
//! below every other Scrutinizer crate and must never pull the serving
//! stack along. It provides three cooperating facilities:
//!
//! * [`trace`] — structured spans with process-unique ids,
//!   parent links, and monotonic timestamps, recorded into a bounded
//!   per-thread ring buffer (the *flight recorder*). Recording never
//!   blocks the thread that owns the span: the ring is taken with
//!   `try_lock` and records are dropped (and counted) under contention.
//!   A process-wide on/off gate ([`trace::set_tracing`]) makes the
//!   disabled path a single relaxed atomic load plus a branch.
//! * [`metrics`] — named counters, gauges, and log₂-bucketed latency
//!   histograms registered once in a [`metrics::MetricsRegistry`] and
//!   rendered to Prometheus text exposition format. Histogram snapshots
//!   expose interpolated `p50`/`p95`/`p99` quantiles.
//! * [`log`] — a leveled structured logger emitting one JSON object per
//!   line on stderr, used by `scrutinizer-serve` for startup/shutdown and
//!   accept/reject events.
//!
//! [`expo`] closes the loop: a parser/lint for the exposition format that
//! the test suite runs against the live `metrics` op output.
//!
//! ```
//! use scrutinizer_obs::metrics::MetricsRegistry;
//!
//! let registry = MetricsRegistry::new();
//! let requests = registry.counter("demo_requests_total", "Requests served.");
//! requests.inc();
//! let text = registry.render();
//! assert!(text.contains("demo_requests_total 1"));
//! scrutinizer_obs::expo::lint_exposition(&text).unwrap();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod expo;
pub mod log;
pub mod metrics;
pub mod trace;

pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, MetricsRegistry};
pub use trace::{
    current_trace, drain, dropped_records, json_escape_into, root_span, set_tracing,
    snapshot_records, span, tracing_enabled, FieldValue, Span, SpanId, SpanRecord, TraceId,
};
