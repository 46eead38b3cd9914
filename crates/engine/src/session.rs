//! Per-session state: the claims a checker is working through, each with
//! its screen progress, validated context, and suggestion state.
//!
//! A session is the unit of interaction of the paper's mixed-initiative
//! loop: the checker submits a report (a set of claims), the engine
//! proposes property screens and top-k query translations, the checker's
//! answers flow back, and the engine re-plans the remaining claims with
//! whatever the models have learned in the meantime.

use std::sync::Arc;

use scrutinizer_core::planner::ClaimPlan;
use scrutinizer_core::qgen::QueryCandidate;
use scrutinizer_core::{PropertyKind, Translation};
use scrutinizer_data::hash::FxHashMap;

/// Opaque session handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SessionId(pub u64);

impl std::fmt::Display for SessionId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// One property screen as shown to a checker.
#[derive(Debug, Clone)]
pub struct ScreenView {
    /// The property being validated.
    pub kind: PropertyKind,
    /// Answer options, best first.
    pub options: Vec<String>,
}

/// The questions planned for one claim.
#[derive(Debug, Clone)]
pub struct ClaimQuestions {
    /// The claim.
    pub claim_id: usize,
    /// Remaining property screens, in presentation order.
    pub screens: Vec<ScreenView>,
    /// Expected crowd cost of the claim's plan (seconds).
    pub expected_cost: f64,
}

/// One ranked candidate query proposed to the checker.
#[derive(Debug, Clone)]
pub struct Suggestion {
    /// Position in the final screen (0 = best).
    pub rank: usize,
    /// Executable SQL.
    pub sql: String,
    /// The formula class it instantiates.
    pub formula: String,
    /// The value the query evaluates to.
    pub value: f64,
    /// Whether that value confirms the claim's stated parameter.
    pub matches_parameter: bool,
}

/// Where a claim stands inside its session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClaimPhase {
    /// Property screens outstanding.
    Screening,
    /// Context settled; suggestions can be generated / were generated.
    Suggesting,
    /// Verdict recorded.
    Done,
}

/// Per-claim working state. Features live in the engine's shared
/// [`FeatureStore`](scrutinizer_core::FeatureStore) (claims are corpus
/// claims, so the claim id is the row id) — the task holds only what the
/// models derived from them.
pub(crate) struct ClaimTask {
    pub translation: Translation,
    pub plan: ClaimPlan,
    /// The model epoch `translation`/`plan` were computed under; re-planning
    /// refreshes them only when the published epoch moves past this.
    pub translated_epoch: u64,
    /// Validated context answers: relation, key, attribute.
    pub validated: [Option<String>; 3],
    /// Index of the next unanswered screen in `plan.screens`.
    pub next_screen: usize,
    /// Generated candidates, kept for the verdict phase.
    pub candidates: Vec<QueryCandidate>,
    /// Cached result of the last `suggest` call, keyed by the state it
    /// was computed from: `(translated_epoch, next_screen)`. Candidate
    /// generation is a pure function of the translation and the answered
    /// screens, so while the key holds, repeated `suggest`s hand back the
    /// same shared slice — no regeneration, no re-allocation, and the
    /// binary wire path serves it without a single heap allocation. A new
    /// answer or a re-translation changes the key and invalidates.
    pub suggested: Option<(u64, usize, Arc<[Suggestion]>)>,
    pub phase: ClaimPhase,
}

impl ClaimTask {
    pub(crate) fn questions(&self, claim_id: usize) -> ClaimQuestions {
        ClaimQuestions {
            claim_id,
            screens: self
                .plan
                .screens
                .iter()
                .skip(self.next_screen)
                .map(|screen| ScreenView {
                    kind: screen.kind,
                    options: screen.labels(),
                })
                .collect(),
            expected_cost: self.plan.expected_cost,
        }
    }
}

/// One checker's live session.
pub(crate) struct SessionState {
    pub checker: String,
    pub tasks: FxHashMap<usize, ClaimTask>,
    /// Claims submitted and not yet done, in submission order.
    pub pending: Vec<usize>,
    /// Claims with recorded verdicts, in verdict order.
    pub verified: Vec<usize>,
    /// Training utilities of open claims, cached per model epoch: a
    /// claim's utility is stored by the sweep that translates it (submit,
    /// re-translation, recovery); open claims whose translation was kept
    /// from an older epoch are scored in one CSR batch on first use. The
    /// cache is emptied when the published epoch moves past
    /// `utilities_epoch` ([`utilities_at`](Self::utilities_at)).
    pub utilities: FxHashMap<usize, f64>,
    /// The model epoch `utilities` was scored under.
    pub utilities_epoch: u64,
}

impl SessionState {
    pub(crate) fn new(checker: impl Into<String>) -> Self {
        SessionState {
            checker: checker.into(),
            tasks: FxHashMap::default(),
            pending: Vec::new(),
            verified: Vec::new(),
            utilities: FxHashMap::default(),
            utilities_epoch: 0,
        }
    }

    /// The utility cache for model epoch `epoch`, emptied first if it was
    /// scored under another epoch.
    pub(crate) fn utilities_at(&mut self, epoch: u64) -> &mut FxHashMap<usize, f64> {
        if self.utilities_epoch != epoch {
            self.utilities.clear();
            self.utilities_epoch = epoch;
        }
        &mut self.utilities
    }
}
