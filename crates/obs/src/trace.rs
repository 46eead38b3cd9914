//! Structured tracing: spans and the flight recorder.
//!
//! A [`Span`] is an RAII guard: creating one records the start time and
//! installs the span as the thread's *current* context; dropping it
//! computes the duration and appends a [`SpanRecord`] to the thread's ring
//! buffer. Child spans created while a parent is current link to it via
//! [`SpanRecord::parent`], and all spans under one request share the
//! request's [`TraceId`] — including work the request hands to other
//! threads, if the trace id is captured (see [`current_trace`]) and
//! re-rooted there with [`root_span`].
//!
//! # The flight recorder
//!
//! Every thread that records a span owns a bounded ring buffer (capacity
//! [`RING_CAPACITY`]) registered in a process-wide list; a new thread
//! adopts the ring of one that has exited, so the list grows with the
//! most threads alive at once, not with every thread ever started. Two
//! invariants:
//!
//! * **Recording never blocks the recording thread.** The ring is guarded
//!   by a mutex, but the record path only ever `try_lock`s it; if a
//!   concurrent [`drain`]/[`snapshot_records`] holds the lock, the record
//!   is dropped and counted in [`dropped_records`] — as is the oldest
//!   record when a full ring makes room for a new one.
//! * **Ids are unique per process.** Span ids come from one atomic
//!   counter; generated trace ids from another.
//!
//! When tracing is disabled via [`set_tracing`], span construction is a
//! single relaxed atomic load and a branch — no allocation, no clock read.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Capacity of each per-thread flight-recorder ring buffer.
pub const RING_CAPACITY: usize = 4096;

static TRACING: AtomicBool = AtomicBool::new(true);
static NEXT_SPAN: AtomicU64 = AtomicU64::new(1);
static NEXT_TRACE: AtomicU64 = AtomicU64::new(1);
static DROPPED: AtomicU64 = AtomicU64::new(0);

/// Enables or disables tracing process-wide. Disabled spans cost one
/// relaxed atomic load and a branch.
pub fn set_tracing(enabled: bool) {
    TRACING.store(enabled, Ordering::Relaxed);
}

/// Whether tracing is currently enabled.
pub fn tracing_enabled() -> bool {
    TRACING.load(Ordering::Relaxed)
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Monotonic nanoseconds since the first use of this module in the
/// process. All [`SpanRecord`] timestamps share this origin.
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// A process-unique request/trace identifier, propagated on the wire as a
/// 16-digit lowercase hex string.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceId(u64);

impl TraceId {
    /// Generates a fresh process-unique trace id.
    pub fn generate() -> TraceId {
        let n = NEXT_TRACE.fetch_add(1, Ordering::Relaxed);
        // Golden-ratio mix so consecutive ids do not look sequential on
        // the wire; the counter itself guarantees uniqueness.
        let mixed = n.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17) ^ n;
        TraceId(if mixed == 0 {
            0x5CF0_0B5E_77A7_1D05
        } else {
            mixed
        })
    }

    /// Parses a wire trace id. A string of 1–16 hex digits is decoded
    /// directly (so [`TraceId::to_wire`] round-trips); anything else is
    /// hashed deterministically, so arbitrary client-chosen ids still map
    /// to a stable internal id.
    pub fn from_wire(wire: &str) -> TraceId {
        let hex =
            !wire.is_empty() && wire.len() <= 16 && wire.bytes().all(|b| b.is_ascii_hexdigit());
        let raw = if hex {
            u64::from_str_radix(wire, 16).unwrap_or(0)
        } else {
            // FNV-1a over the raw bytes: stable across runs, no deps.
            let mut hash: u64 = 0xCBF2_9CE4_8422_2325;
            for byte in wire.bytes() {
                hash ^= u64::from(byte);
                hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
            }
            hash
        };
        TraceId(if raw == 0 { 0x5CF0_0B5E_77A7_1D05 } else { raw })
    }

    /// Renders the id as a 16-digit lowercase hex string for the wire.
    pub fn to_wire(self) -> String {
        format!("{:016x}", self.0)
    }

    /// The raw 64-bit id — the binary wire form. `raw`/`from_raw`
    /// round-trip exactly and allocation-free, and agree with the hex
    /// forms: `to_wire()` renders `raw()` as 16 hex digits, and
    /// `from_wire` on that string recovers the same id.
    pub fn raw(self) -> u64 {
        self.0
    }

    /// Rebuilds an id from its raw 64-bit wire form. Zero maps to the
    /// same non-zero sentinel as [`TraceId::from_wire`], so a zeroed
    /// field still yields a usable id.
    pub fn from_raw(raw: u64) -> TraceId {
        TraceId(if raw == 0 { 0x5CF0_0B5E_77A7_1D05 } else { raw })
    }
}

/// A process-unique span identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpanId(u64);

impl SpanId {
    fn next() -> SpanId {
        SpanId(NEXT_SPAN.fetch_add(1, Ordering::Relaxed))
    }

    /// The raw id value (unique per process).
    pub fn raw(self) -> u64 {
        self.0
    }
}

/// A typed span field value.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// Unsigned integer (counts, ids, sizes).
    U64(u64),
    /// Floating point (scores, ratios).
    F64(f64),
    /// Boolean flag.
    Bool(bool),
    /// Owned string.
    Str(String),
}

impl From<u64> for FieldValue {
    fn from(value: u64) -> Self {
        FieldValue::U64(value)
    }
}

impl From<u32> for FieldValue {
    fn from(value: u32) -> Self {
        FieldValue::U64(u64::from(value))
    }
}

impl From<usize> for FieldValue {
    fn from(value: usize) -> Self {
        FieldValue::U64(value as u64)
    }
}

impl From<f64> for FieldValue {
    fn from(value: f64) -> Self {
        FieldValue::F64(value)
    }
}

impl From<bool> for FieldValue {
    fn from(value: bool) -> Self {
        FieldValue::Bool(value)
    }
}

impl From<&str> for FieldValue {
    fn from(value: &str) -> Self {
        FieldValue::Str(value.to_string())
    }
}

impl From<String> for FieldValue {
    fn from(value: String) -> Self {
        FieldValue::Str(value)
    }
}

/// One finished span, as stored in the flight recorder.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// The trace this record belongs to.
    pub trace: TraceId,
    /// This record's own id.
    pub id: SpanId,
    /// The enclosing span at creation time, if any.
    pub parent: Option<SpanId>,
    /// Static span name (e.g. `"plan"`, `"qgen"`).
    pub name: &'static str,
    /// Start time in monotonic nanoseconds (see [`now_ns`]).
    pub start_ns: u64,
    /// Wall duration in nanoseconds.
    pub duration_ns: u64,
    /// Typed key/value fields attached while the span was live.
    pub fields: Vec<(&'static str, FieldValue)>,
}

/// Appends `s` to `out` escaped for the inside of a JSON string (no
/// surrounding quotes): `"`, `\` and control characters are escaped,
/// everything else is copied as is.
pub fn json_escape_into(out: &mut String, s: &str) {
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

pub(crate) fn field_value_json(out: &mut String, value: &FieldValue) {
    match value {
        FieldValue::U64(v) => out.push_str(&v.to_string()),
        FieldValue::F64(v) if v.is_finite() => out.push_str(&v.to_string()),
        FieldValue::F64(_) => out.push_str("null"),
        FieldValue::Bool(v) => out.push_str(if *v { "true" } else { "false" }),
        FieldValue::Str(v) => {
            out.push('"');
            json_escape_into(out, v);
            out.push('"');
        }
    }
}

impl SpanRecord {
    /// Looks up a field by name.
    pub fn field(&self, name: &str) -> Option<&FieldValue> {
        self.fields.iter().find(|(k, _)| *k == name).map(|(_, v)| v)
    }

    /// Renders the record as one self-contained JSON object (no trailing
    /// newline) for the `--trace-log` JSON-lines sink.
    pub fn to_json_line(&self) -> String {
        let mut out = String::with_capacity(128);
        out.push_str("{\"name\":\"");
        json_escape_into(&mut out, self.name);
        out.push_str("\",\"kind\":\"span\",\"trace\":\"");
        out.push_str(&self.trace.to_wire());
        out.push_str("\",\"span\":");
        out.push_str(&self.id.raw().to_string());
        out.push_str(",\"parent\":");
        match self.parent {
            Some(parent) => out.push_str(&parent.raw().to_string()),
            None => out.push_str("null"),
        }
        out.push_str(",\"start_ns\":");
        out.push_str(&self.start_ns.to_string());
        out.push_str(",\"duration_ns\":");
        out.push_str(&self.duration_ns.to_string());
        out.push_str(",\"fields\":{");
        for (index, (key, value)) in self.fields.iter().enumerate() {
            if index > 0 {
                out.push(',');
            }
            out.push('"');
            json_escape_into(&mut out, key);
            out.push_str("\":");
            field_value_json(&mut out, value);
        }
        out.push_str("}}");
        out
    }
}

// ---------------------------------------------------------------------------
// Flight recorder rings
// ---------------------------------------------------------------------------

struct Ring {
    records: VecDeque<SpanRecord>,
}

impl Ring {
    fn push(&mut self, record: SpanRecord) {
        if self.records.len() == RING_CAPACITY {
            // the oldest record is lost: count it, or a wrapped ring
            // would pass for a complete trace
            self.records.pop_front();
            DROPPED.fetch_add(1, Ordering::Relaxed);
        }
        self.records.push_back(record);
    }
}

fn ring_registry() -> &'static Mutex<Vec<Arc<Mutex<Ring>>>> {
    static REGISTRY: OnceLock<Mutex<Vec<Arc<Mutex<Ring>>>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

thread_local! {
    static THREAD_RING: Arc<Mutex<Ring>> = {
        let mut registry = ring_registry()
            .lock()
            .expect("flight recorder registry poisoned");
        // a ring only the registry still holds belongs to a thread that
        // has exited: adopt it, records and all, so threads that come and
        // go (one per server connection) do not grow the registry
        match registry.iter().find(|ring| Arc::strong_count(ring) == 1) {
            Some(ring) => Arc::clone(ring),
            None => {
                let ring = Arc::new(Mutex::new(Ring { records: VecDeque::new() }));
                registry.push(Arc::clone(&ring));
                ring
            }
        }
    };
    static CURRENT: std::cell::Cell<Option<(TraceId, SpanId)>> =
        const { std::cell::Cell::new(None) };
}

fn push_record(record: SpanRecord) {
    THREAD_RING.with(|ring| match ring.try_lock() {
        Ok(mut guard) => guard.push(record),
        // A concurrent drain/snapshot holds the lock: drop rather than
        // block the request thread.
        Err(_) => {
            DROPPED.fetch_add(1, Ordering::Relaxed);
        }
    });
}

/// Removes and returns every record currently buffered, across all
/// threads, ordered by start time. Used by the `--trace-log` sink.
pub fn drain() -> Vec<SpanRecord> {
    collect_records(true)
}

/// Returns a copy of every record currently buffered, across all threads,
/// ordered by start time. Unlike [`drain`] this leaves the rings intact,
/// so concurrent readers do not steal each other's records.
pub fn snapshot_records() -> Vec<SpanRecord> {
    collect_records(false)
}

fn collect_records(take: bool) -> Vec<SpanRecord> {
    let rings: Vec<Arc<Mutex<Ring>>> = ring_registry()
        .lock()
        .expect("flight recorder registry poisoned")
        .clone();
    let mut records = Vec::new();
    for ring in rings {
        let mut guard = ring.lock().expect("flight recorder ring poisoned");
        if take {
            records.extend(guard.records.drain(..));
        } else {
            records.extend(guard.records.iter().cloned());
        }
    }
    records.sort_by_key(|record| record.start_ns);
    records
}

/// Number of records dropped because the recording thread found its ring
/// locked by a concurrent drain/snapshot, or full (the oldest record
/// makes room).
pub fn dropped_records() -> u64 {
    DROPPED.load(Ordering::Relaxed)
}

// ---------------------------------------------------------------------------
// Span guards
// ---------------------------------------------------------------------------

struct ActiveSpan {
    name: &'static str,
    trace: TraceId,
    id: SpanId,
    parent: Option<SpanId>,
    start_ns: u64,
    fields: Vec<(&'static str, FieldValue)>,
    prev: Option<(TraceId, SpanId)>,
}

/// RAII span guard: records a [`SpanRecord`] on drop. Obtained from
/// [`span`], [`root_span`], or the [`span!`](crate::span!) macro. When
/// tracing is disabled the guard is inert and free.
pub struct Span(Option<ActiveSpan>);

impl std::fmt::Debug for Span {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.0 {
            Some(active) => write!(f, "Span({} trace={})", active.name, active.trace.to_wire()),
            None => write!(f, "Span(disabled)"),
        }
    }
}

fn activate(name: &'static str, trace: TraceId, parent: Option<SpanId>) -> Span {
    let id = SpanId::next();
    let prev = CURRENT.with(|current| current.replace(Some((trace, id))));
    Span(Some(ActiveSpan {
        name,
        trace,
        id,
        parent,
        start_ns: now_ns(),
        fields: Vec::new(),
        prev,
    }))
}

/// Opens a child span under the thread's current context. Outside any
/// context (e.g. worker-pool internals reached without a request) a fresh
/// trace id is generated.
pub fn span(name: &'static str) -> Span {
    if !tracing_enabled() {
        return Span(None);
    }
    let (trace, parent) = match CURRENT.with(|current| current.get()) {
        Some((trace, span_id)) => (trace, Some(span_id)),
        None => (TraceId::generate(), None),
    };
    activate(name, trace, parent)
}

/// Opens a *root* span for the given trace: the anchor of one request's
/// span tree.
pub fn root_span(name: &'static str, trace: TraceId) -> Span {
    if !tracing_enabled() {
        return Span(None);
    }
    activate(name, trace, None)
}

/// The trace id of the thread's current span context, if any. Capture
/// this before handing work to another thread, then re-anchor there with
/// [`root_span`].
pub fn current_trace() -> Option<TraceId> {
    CURRENT
        .with(|current| current.get())
        .map(|(trace, _)| trace)
}

impl Span {
    /// Attaches a typed field. No-op (and no allocation) when the span is
    /// disabled.
    pub fn add_field(&mut self, name: &'static str, value: impl Into<FieldValue>) {
        if let Some(active) = &mut self.0 {
            active.fields.push((name, value.into()));
        }
    }

    /// The span's trace id, if it is live.
    pub fn trace(&self) -> Option<TraceId> {
        self.0.as_ref().map(|active| active.trace)
    }

    /// The span's own id, if it is live.
    pub fn id(&self) -> Option<SpanId> {
        self.0.as_ref().map(|active| active.id)
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(active) = self.0.take() else {
            return;
        };
        let duration_ns = now_ns().saturating_sub(active.start_ns);
        CURRENT.with(|current| current.set(active.prev));
        push_record(SpanRecord {
            trace: active.trace,
            id: active.id,
            parent: active.parent,
            name: active.name,
            start_ns: active.start_ns,
            duration_ns,
            fields: active.fields,
        });
    }
}

/// Opens a child span with optional `key = value` fields:
///
/// ```
/// let _guard = scrutinizer_obs::span!("plan", claim = 3_u64);
/// ```
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::trace::span($name)
    };
    ($name:expr, $($key:ident = $value:expr),+ $(,)?) => {{
        let mut guard = $crate::trace::span($name);
        $(guard.add_field(stringify!($key), $value);)+
        guard
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    // The flight recorder is process-global; serialize the
    // tests that touch them so snapshots and drains do not interleave.
    fn test_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
        match LOCK.get_or_init(|| Mutex::new(())).lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    #[test]
    fn trace_id_wire_round_trip() {
        let id = TraceId::generate();
        assert_eq!(TraceId::from_wire(&id.to_wire()), id);
        assert_eq!(id.to_wire().len(), 16);
        // non-hex ids hash deterministically
        let a = TraceId::from_wire("my request #1");
        let b = TraceId::from_wire("my request #1");
        assert_eq!(a, b);
        assert_ne!(a, TraceId::from_wire("my request #2"));
    }

    #[test]
    fn spans_link_parents_and_share_the_trace() {
        let _guard = test_lock();
        set_tracing(true);
        let trace = TraceId::generate();
        let root_id;
        let child_id;
        {
            let root = root_span("test_root_link", trace);
            root_id = root.id().unwrap();
            let mut child = span("test_child_link");
            child.add_field("claim", 7_u64);
            child_id = child.id().unwrap();
            assert_eq!(child.trace(), Some(trace));
        }
        let records = snapshot_records();
        let root = records
            .iter()
            .find(|r| r.id == root_id)
            .expect("root recorded");
        let child = records
            .iter()
            .find(|r| r.id == child_id)
            .expect("child recorded");
        assert_eq!(root.trace, trace);
        assert_eq!(root.parent, None);
        assert_eq!(child.trace, trace);
        assert_eq!(child.parent, Some(root_id));
        assert_eq!(child.field("claim"), Some(&FieldValue::U64(7)));
    }

    #[test]
    fn exited_threads_rings_are_adopted_not_accumulated() {
        let _guard = test_lock();
        set_tracing(true);
        let registered = || ring_registry().lock().unwrap().len();
        let before = registered();
        for _ in 0..32 {
            std::thread::spawn(|| drop(span("test_short_lived_thread")))
                .join()
                .unwrap();
        }
        // each thread exits before the next starts, so each adopts its
        // predecessor's ring; other tests' threads may add a few
        let grown = registered() - before;
        assert!(
            grown < 8,
            "32 sequential threads grew the registry by {grown}"
        );
        assert!(snapshot_records()
            .iter()
            .any(|r| r.name == "test_short_lived_thread"));
    }

    #[test]
    fn disabled_tracing_records_nothing() {
        let _guard = test_lock();
        set_tracing(false);
        {
            let mut s = span("test_disabled_span");
            s.add_field("x", 1_u64);
            assert!(s.id().is_none());
        }
        set_tracing(true);
        assert!(snapshot_records()
            .iter()
            .all(|r| r.name != "test_disabled_span"));
    }

    #[test]
    fn ring_is_bounded() {
        let _guard = test_lock();
        set_tracing(true);
        std::thread::spawn(|| {
            for _ in 0..(RING_CAPACITY + 500) {
                let _s = span("test_ring_bound");
            }
        })
        .join()
        .unwrap();
        let count = snapshot_records()
            .iter()
            .filter(|r| r.name == "test_ring_bound")
            .count();
        assert!(count <= RING_CAPACITY, "ring overflowed: {count}");
        assert!(
            dropped_records() >= 500,
            "the overwritten records are counted"
        );
        assert!(
            count >= RING_CAPACITY / 2,
            "ring suspiciously empty: {count}"
        );
    }

    #[test]
    fn json_line_is_well_formed() {
        let record = SpanRecord {
            trace: TraceId::from_wire("00000000000000ab"),
            id: SpanId(42),
            parent: Some(SpanId(41)),
            name: "sql",
            start_ns: 10,
            duration_ns: 20,
            fields: vec![
                ("claim", FieldValue::U64(3)),
                ("note", FieldValue::Str("a \"quoted\"\nline".to_string())),
            ],
        };
        let line = record.to_json_line();
        assert_eq!(
            line,
            "{\"name\":\"sql\",\"kind\":\"span\",\"trace\":\"00000000000000ab\",\
             \"span\":42,\"parent\":41,\"start_ns\":10,\"duration_ns\":20,\
             \"fields\":{\"claim\":3,\"note\":\"a \\\"quoted\\\"\\nline\"}}"
        );
    }

    #[test]
    fn current_trace_is_visible_inside_spans_only() {
        let _guard = test_lock();
        set_tracing(true);
        assert_eq!(current_trace(), None);
        let trace = TraceId::generate();
        {
            let _root = root_span("test_current_trace", trace);
            assert_eq!(current_trace(), Some(trace));
        }
        assert_eq!(current_trace(), None);
    }
}
