//! Algorithm 1's per-claim policy, written once: translation and screen
//! planning, the query-generation context, the simulated checker's
//! screens and final-screen judgment, the recorded verdict, and the
//! OptBatch budget. The serving engine calls these rules, and the
//! paper's experiments run on the engine, so cost figures and served
//! behaviour share one source.

use crate::config::SystemConfig;
use crate::models::{PropertyKind, SystemModels, Translation};
use crate::ordering::ClaimChoice;
use crate::planner::{plan_claim, ClaimPlan};
use crate::qgen::{generate_survivors, QueryCandidate, Survivors};
use crate::report::{ClaimOutcome, Verdict};
use crate::screens::FinalScreen;
use crate::stats::mean;
use crate::verify::Verifier;
use scrutinizer_corpus::{ClaimKind, ClaimRecord};
use scrutinizer_crowd::{CostModel, Worker};
use scrutinizer_data::Catalog;
use scrutinizer_formula::{parse_formula, Formula};
use scrutinizer_query::FunctionRegistry;
use scrutinizer_text::SparseView;

/// Translates a claim with `models` and plans its property screens
/// (OptQuestions), returning the claim's training utility (Definition 7)
/// from the translation's sweep as well. `stage` is entered around each
/// step — `"translate"`, then `"plan"` — and its guard dropped when the
/// step ends, so a caller can trace the two separately; `|_| ()` traces
/// nothing.
pub fn translate_and_plan<G>(
    models: &SystemModels,
    features: SparseView<'_>,
    config: &SystemConfig,
    stage: impl Fn(&'static str) -> G,
) -> (Translation, ClaimPlan, f64) {
    let (translation, utility) = {
        let _stage = stage("translate");
        models.translate_view(features, config.options_per_screen)
    };
    let _stage = stage("plan");
    let plan = plan_claim(&translation, config);
    (translation, plan, utility)
}

/// Slot of a crowd-validated property in a claim's
/// `[relation, key, attribute]` answers; formulas are never
/// crowd-validated.
pub fn validated_slot(kind: PropertyKind) -> Option<usize> {
    match kind {
        PropertyKind::Relation => Some(0),
        PropertyKind::Key => Some(1),
        PropertyKind::Attribute => Some(2),
        PropertyKind::Formula => None,
    }
}

/// Definition 2's `p`: an explicit claim's parameter; general claims
/// have none.
fn claim_parameter(claim: &ClaimRecord) -> Option<f64> {
    match claim.kind {
        ClaimKind::Explicit => Verifier::extract_parameter(&claim.claim_text),
        ClaimKind::General => None,
    }
}

/// Algorithm 2's input for one claim: validated answers first, padded
/// with classifier candidates for properties that were not asked, the
/// formula candidates in rank order, and the claim's parameter.
#[derive(Debug)]
pub struct QueryContext {
    relations: Vec<String>,
    keys: Vec<String>,
    attributes: Vec<String>,
    formulas: Vec<(String, Formula)>,
    parameter: Option<f64>,
}

impl QueryContext {
    /// Builds the context from a claim's translation and the answers
    /// validated so far (indexed by [`validated_slot`]).
    pub fn new(
        claim: &ClaimRecord,
        translation: &Translation,
        validated: &[Option<String>; 3],
        config: &SystemConfig,
    ) -> Self {
        // the validated answer, then up to `extra` distinct candidates
        let padded = |slot: usize, kind: PropertyKind, extra: usize| {
            let mut values: Vec<String> = validated[slot].iter().cloned().collect();
            for (label, _) in translation.of(kind).iter().take(extra) {
                if !values.contains(label) {
                    values.push(label.clone());
                }
            }
            values
        };
        // an unasked relation or key falls back on the top three candidates
        let fallback = |slot: usize| if validated[slot].is_some() { 0 } else { 3 };
        QueryContext {
            relations: padded(0, PropertyKind::Relation, fallback(0)),
            keys: padded(1, PropertyKind::Key, fallback(1)),
            // attributes: claims use up to three; keep a handful of candidates
            attributes: padded(2, PropertyKind::Attribute, 4),
            formulas: translation
                .of(PropertyKind::Formula)
                .iter()
                .take(config.final_options * 3)
                .filter_map(|(text, _)| parse_formula(text).ok().map(|f| (text.clone(), f)))
                .collect(),
            parameter: claim_parameter(claim),
        }
    }

    /// Runs Algorithm 2 over this context. A general claim stops as soon
    /// as its alternatives are full, and the ranked survivors stay
    /// assignments: [`Survivors::final_screen`] instantiates SQL only for
    /// the rows the final screen shows.
    pub fn generate(
        &self,
        catalog: &Catalog,
        registry: &FunctionRegistry,
        config: &SystemConfig,
    ) -> Survivors<'_> {
        generate_survivors(
            catalog,
            registry,
            &self.relations,
            &self.keys,
            &self.attributes,
            &self.formulas,
            self.parameter,
            config,
        )
    }
}

/// A simulated checker working through one claim under the §4.3 cost
/// model. Ground truth from the claim drives the worker's answers; crowd
/// seconds accumulate in the order the checker spends them.
pub struct SimulatedCheck<'a> {
    worker: &'a mut Worker,
    claim: &'a ClaimRecord,
    cost: CostModel,
    seconds: f64,
}

impl<'a> SimulatedCheck<'a> {
    /// Starts checking `claim`, or `None` when the worker skips it.
    pub fn begin(worker: &'a mut Worker, claim: &'a ClaimRecord, cost: CostModel) -> Option<Self> {
        if worker.skips() {
            return None;
        }
        Some(SimulatedCheck {
            worker,
            claim,
            cost,
            seconds: 0.0,
        })
    }

    /// Answers one property screen (`v_p` per option read, `s_p` to
    /// suggest) and returns the answer the worker settled on.
    pub fn answer_screen(&mut self, kind: PropertyKind, options: &[String]) -> String {
        let truth = match kind {
            PropertyKind::Relation => self.claim.relation.as_str(),
            PropertyKind::Key => self.claim.key.as_str(),
            PropertyKind::Attribute => self.claim.attributes[0].as_str(),
            PropertyKind::Formula => unreachable!("formulas are not crowd-validated"),
        };
        let outcome = self
            .worker
            .answer_screen(options, truth, self.cost.vp, self.cost.sp);
        self.seconds += outcome.seconds;
        outcome.answer
    }

    /// The final screen over the shown `candidates`: returns the worker's
    /// judgment of the claim and the rank of the candidate they accepted.
    pub fn judge(&mut self, candidates: &[QueryCandidate]) -> (bool, Option<usize>) {
        let (claim, cost) = (self.claim, self.cost);
        // a candidate is truth-equivalent when it reproduces the ground-truth
        // check or (explicit claims) confirms the stated value
        let truth_shown = candidates.iter().position(|c| {
            (c.formula_text == claim.formula_text && c.lookups == claim.lookups)
                || (claim.is_correct && c.matches_parameter)
        });
        if let (Some(position), true) = (truth_shown, claim.is_correct) {
            // reads down to the right query and confirms it, or balks
            let rows = FinalScreen::rendered(&candidates[..=position]);
            let shown = self
                .worker
                .answer_screen(&rows, &rows[position], cost.vf, cost.sf);
            self.seconds += shown.seconds;
            return (true, shown.chosen);
        }
        // No confirming query: the worker judges the claim against the
        // evidence (Figure 3: formula, assignment, value). Tentative
        // execution makes explicit mismatches conclusive from the closest
        // value; general claims may need a second look. The judgment
        // itself is the first v_f read.
        let extra_scans = if claim_parameter(claim).is_some() {
            0
        } else {
            candidates.len().saturating_sub(1).min(1)
        };
        self.seconds += cost.vf * extra_scans as f64;
        let (correct, seconds) = self.worker.judge_result(claim.is_correct, &cost);
        self.seconds += seconds;
        if candidates.is_empty() {
            // no evidence at all: believing the claim means deriving a
            // query from scratch (s_f), refuting it a manual data search
            self.seconds += if correct { cost.sf } else { cost.sf * 0.5 };
        }
        (correct, None)
    }

    /// Crowd seconds spent on the claim so far.
    pub fn seconds(&self) -> f64 {
        self.seconds
    }
}

/// The outcome a final-screen judgment records. A claim judged correct
/// cites the chosen candidate's query — the top candidate when none was
/// chosen, the claim's own formula when nothing was shown; one judged
/// incorrect cites the closest candidate and its value as the correction.
pub fn claim_outcome(
    claim: &ClaimRecord,
    correct: bool,
    chosen: Option<usize>,
    candidates: &[QueryCandidate],
    crowd_seconds: f64,
) -> ClaimOutcome {
    let verdict = if correct {
        let query = chosen
            .and_then(|rank| candidates.get(rank))
            .or_else(|| candidates.first())
            .map(|c| c.stmt.to_string())
            .unwrap_or_else(|| claim.formula_text.clone());
        Verdict::Correct { query }
    } else {
        let closest = candidates.first();
        Verdict::Incorrect {
            closest_query: closest.map(|c| c.stmt.to_string()),
            suggested_value: closest.map(|c| c.value),
        }
    };
    ClaimOutcome {
        claim_id: claim.id,
        verdict,
        crowd_seconds,
        verdict_matches_truth: correct == claim.is_correct,
    }
}

/// OptBatch's budget for an open pool: `batch_size` claims at 1.3× the
/// pool's mean expected cost, plus three checkers skimming 400 sentences.
pub fn batch_budget(choices: &[ClaimChoice], config: &SystemConfig) -> f64 {
    let mean_cost = mean(&choices.iter().map(|c| c.cost).collect::<Vec<_>>());
    config.batch_size as f64 * mean_cost * 1.3 + 3.0 * config.read_seconds_per_sentence * 400.0
}

/// OptBatch over the open claims in `choices`: `select` picks a batch
/// within [`batch_budget`], and an empty pick falls back to the first
/// open claim so the loop always advances.
pub fn opt_batch(
    choices: &[ClaimChoice],
    config: &SystemConfig,
    select: impl FnOnce(f64) -> Vec<usize>,
) -> Vec<usize> {
    let batch = select(batch_budget(choices, config));
    if batch.is_empty() {
        choices.iter().take(1).map(|c| c.id).collect()
    } else {
        batch
    }
}
