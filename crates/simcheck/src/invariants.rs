//! The global invariants, checked after every schedule step.
//!
//! Each check relates the engine's externally observable counters to a
//! mirror the harness maintains from the responses it saw — the mirror
//! is the spec, the engine is the implementation, and any disagreement
//! at any step is a bug (or the canary).

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use scrutinizer_engine::StatsSnapshot;

/// Which invariant a violation broke.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InvariantKind {
    /// Model epoch must move monotonically and equal the retrain count.
    EpochAccounting,
    /// `examples_trained + pending_examples` must equal the number of
    /// unique claims ever verified — a crashed trainer may not lose
    /// drained examples.
    VerdictLoss,
    /// One query, one answer: repeated SQL returns bit-identical values
    /// (or the same structured failure).
    SqlStability,
    /// `requests_total == requests_ok + Σ wire_errors`, at every step —
    /// in aggregate, within each wire codec, and with per-codec counters
    /// summing back to the aggregates.
    Conservation,
    /// Responses echo their request's trace id; batch sub-responses
    /// inherit the batch's.
    TraceStitching,
    /// At quiesce, every surviving connection has received exactly the
    /// responses for the requests it sent, in order.
    Delivery,
    /// After a kill/recover round trip, the recovered engine reports
    /// exactly the durable state captured at the kill: no acknowledged
    /// op lost, none invented, the model epoch resumed.
    Durability,
}

impl fmt::Display for InvariantKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            InvariantKind::EpochAccounting => "epoch-accounting",
            InvariantKind::VerdictLoss => "verdict-loss",
            InvariantKind::SqlStability => "sql-stability",
            InvariantKind::Conservation => "conservation",
            InvariantKind::TraceStitching => "trace-stitching",
            InvariantKind::Delivery => "delivery",
            InvariantKind::Durability => "durability",
        };
        f.write_str(name)
    }
}

/// One invariant violation: which, where in the schedule, and why.
#[derive(Debug, Clone)]
pub struct Violation {
    /// The invariant broken.
    pub kind: InvariantKind,
    /// Schedule step index at which the check failed (`ops.len()` means
    /// the post-quiesce final check).
    pub step: usize,
    /// Human-readable evidence.
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at step {}: {}", self.kind, self.step, self.detail)
    }
}

/// The harness's model of the engine, built from responses alone.
#[derive(Default)]
pub struct Mirror {
    /// Claims that received an `ok` verdict response (unique — the
    /// engine dedups globally, so must the spec).
    pub verified: BTreeSet<usize>,
    /// First observed outcome per SQL-pool query: `Some(bits)` for a
    /// value, `None` for a structured `sql` failure. Later runs of the
    /// same query must match exactly.
    pub sql_outcomes: BTreeMap<usize, Option<u64>>,
    /// High-water mark of the model epoch, for the monotonicity check.
    pub last_epoch: u64,
}

/// The durable subset of the stats snapshot: every counter backed by an
/// acknowledged WAL record (or the checkpoint image). Captured at a
/// simulated kill, compared field-for-field after recovery.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DurableSnapshot {
    /// Sessions ever opened.
    pub sessions_opened: u64,
    /// Sessions ever closed.
    pub sessions_closed: u64,
    /// Sessions alive (restored open sessions must come back).
    pub sessions_live: u64,
    /// Verdicts recorded.
    pub claims_verified: u64,
    /// Property answers posted.
    pub answers_posted: u64,
    /// Epochs ever published.
    pub retrains: u64,
    /// Background (incremental) publishes among them.
    pub background_retrains: u64,
    /// Examples folded into published models.
    pub examples_trained: u64,
    /// The published model epoch.
    pub model_epoch: u64,
    /// Verified claims still waiting for the next retrain.
    pub pending_examples: u64,
}

impl DurableSnapshot {
    /// Extracts the durable subset from a full stats snapshot.
    pub fn capture(snapshot: &StatsSnapshot) -> DurableSnapshot {
        DurableSnapshot {
            sessions_opened: snapshot.sessions_opened,
            sessions_closed: snapshot.sessions_closed,
            sessions_live: snapshot.sessions_live,
            claims_verified: snapshot.claims_verified,
            answers_posted: snapshot.answers_posted,
            retrains: snapshot.retrains,
            background_retrains: snapshot.background_retrains,
            examples_trained: snapshot.examples_trained,
            model_epoch: snapshot.model_epoch,
            pending_examples: snapshot.pending_examples,
        }
    }
}

/// The durability invariant: the state recovered from the WAL equals the
/// durable state captured at the kill, exactly.
pub fn check_durability(
    expected: &DurableSnapshot,
    recovered: &DurableSnapshot,
    step: usize,
) -> Result<(), Violation> {
    if expected != recovered {
        return Err(Violation {
            kind: InvariantKind::Durability,
            step,
            detail: format!(
                "recovery diverged from the durable state at the kill: \
                 expected {expected:?}, recovered {recovered:?}"
            ),
        });
    }
    Ok(())
}

/// Runs the stats-derived invariant checks (epoch accounting, verdict
/// loss, conservation) against one snapshot, updating the mirror's
/// epoch high-water mark.
pub fn check_stats(
    snapshot: &StatsSnapshot,
    mirror: &mut Mirror,
    step: usize,
) -> Result<(), Violation> {
    if snapshot.model_epoch < mirror.last_epoch {
        return Err(Violation {
            kind: InvariantKind::EpochAccounting,
            step,
            detail: format!(
                "model epoch went backwards: {} after {}",
                snapshot.model_epoch, mirror.last_epoch
            ),
        });
    }
    if snapshot.model_epoch != snapshot.retrains {
        return Err(Violation {
            kind: InvariantKind::EpochAccounting,
            step,
            detail: format!(
                "model epoch {} != retrains {}",
                snapshot.model_epoch, snapshot.retrains
            ),
        });
    }
    mirror.last_epoch = snapshot.model_epoch;

    let accounted = snapshot.examples_trained + snapshot.pending_examples;
    let verified = mirror.verified.len() as u64;
    if accounted != verified {
        return Err(Violation {
            kind: InvariantKind::VerdictLoss,
            step,
            detail: format!(
                "examples_trained {} + pending {} != unique verified {}",
                snapshot.examples_trained, snapshot.pending_examples, verified
            ),
        });
    }

    if !snapshot.requests_are_conserved() {
        return Err(Violation {
            kind: InvariantKind::Conservation,
            step,
            detail: format!(
                "requests_total {} != requests_ok {} + wire_errors {}",
                snapshot.requests_total,
                snapshot.requests_ok,
                snapshot.wire_errors_total()
            ),
        });
    }
    if !snapshot.requests_are_conserved_per_codec() {
        return Err(Violation {
            kind: InvariantKind::Conservation,
            step,
            detail: format!(
                "per-codec conservation broke: totals {:?}, oks {:?}, errors {:?} (aggregate total {})",
                snapshot.requests_by_codec,
                snapshot.requests_ok_by_codec,
                snapshot.wire_errors_by_codec,
                snapshot.requests_total
            ),
        });
    }
    Ok(())
}

/// Records one SQL outcome in the mirror and checks stability against
/// what the same query returned before.
pub fn check_sql_outcome(
    mirror: &mut Mirror,
    query: usize,
    outcome: Option<u64>,
    step: usize,
) -> Result<(), Violation> {
    match mirror.sql_outcomes.get(&query) {
        Some(first) if *first != outcome => Err(Violation {
            kind: InvariantKind::SqlStability,
            step,
            detail: format!(
                "query {query} changed outcome: first {:?}, now {:?}",
                first, outcome
            ),
        }),
        Some(_) => Ok(()),
        None => {
            mirror.sql_outcomes.insert(query, outcome);
            Ok(())
        }
    }
}
