//! The main verification loop — Algorithm 1 — and single-claim verification
//! sessions against a (simulated) crowd.

use crate::config::SystemConfig;
use crate::feature_store::FeatureStore;
use crate::models::{available_threads, PropertyKind, SystemModels, TrainingState};
use crate::ordering::{select_batch, ClaimChoice, OrderingStrategy};
use crate::policy::{
    claim_outcome, opt_batch, translate_and_plan, validated_slot, QueryContext, SimulatedCheck,
};
use crate::report::{ClaimOutcome, Verdict, VerificationReport};
use crate::screens::FinalScreen;
use scrutinizer_corpus::{ClaimRecord, Corpus};
use scrutinizer_crowd::{Panel, Worker};
use scrutinizer_query::FunctionRegistry;
use scrutinizer_text::{extract_parameters, ParameterKind, SparseView};

/// The Scrutinizer verifier: models + their training state +
/// configuration + function registry.
pub struct Verifier {
    config: SystemConfig,
    registry: FunctionRegistry,
    models: SystemModels,
    training: TrainingState,
}

impl Verifier {
    /// Bootstraps a verifier for a corpus (cold start: classifiers are
    /// untrained until the first retrain).
    pub fn new(corpus: &Corpus, config: SystemConfig) -> Self {
        Verifier {
            config,
            registry: FunctionRegistry::standard(),
            models: SystemModels::bootstrap(corpus, &config),
            training: TrainingState::default(),
        }
    }

    /// Access to the models (for evaluation).
    pub fn models(&self) -> &SystemModels {
        &self.models
    }

    /// Retrains the models from scratch on `claims` (pre-training in the
    /// user study) — the same `Retrain(N, A)` step [`run`](Self::run)
    /// takes after every batch.
    pub fn pretrain(&mut self, claims: &[&ClaimRecord]) {
        self.models
            .retrain(&mut self.training, claims, available_threads());
    }

    /// The configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// Extracts the explicit parameter from a claim's text — the `p` of
    /// Definition 2, in formula scale. Years are ignored; percent and fold
    /// mentions are preferred over raw quantities; the last raw quantity
    /// wins otherwise (parameters close the sentence: "reaching 22 200 TWh").
    pub fn extract_parameter(text: &str) -> Option<f64> {
        let params = extract_parameters(text);
        let non_year: Vec<_> = params
            .iter()
            .filter(|p| {
                !(p.kind == ParameterKind::Absolute
                    && p.value.fract() == 0.0
                    && (1900.0..=2100.0).contains(&p.value))
            })
            .collect();
        non_year
            .iter()
            .find(|p| matches!(p.kind, ParameterKind::Percent | ParameterKind::Fold))
            .or_else(|| non_year.last())
            .map(|p| p.value)
    }

    /// Runs one claim-verification session with one worker. Ground truth
    /// from `claim` drives the simulated answers; the system itself only
    /// sees text, predictions and the crowd's replies.
    pub fn verify_claim(
        &self,
        corpus: &Corpus,
        claim: &ClaimRecord,
        features: SparseView<'_>,
        worker: &mut Worker,
    ) -> ClaimOutcome {
        let Some(mut check) = SimulatedCheck::begin(worker, claim, self.config.cost) else {
            return ClaimOutcome::skipped(claim.id);
        };
        let (translation, plan) = translate_and_plan(&self.models, features, &self.config, |_| ());
        // property screens: crowd validates the context (§4.3)
        let mut validated: [Option<String>; 3] = [None, None, None];
        for screen in &plan.screens {
            let answer = check.answer_screen(screen.kind, &screen.labels());
            let slot = validated_slot(screen.kind).expect("formulas are not crowd-validated");
            validated[slot] = Some(answer);
        }
        let candidates = QueryContext::new(claim, &translation, &validated, &self.config).generate(
            &corpus.catalog,
            &self.registry,
            &self.config,
        );
        let screen = FinalScreen::new(
            candidates,
            translation.of(PropertyKind::Formula),
            self.config.final_options,
        );
        let (correct, chosen) = check.judge(&screen.candidates);
        claim_outcome(claim, correct, chosen, &screen.candidates, check.seconds())
    }

    /// Runs Algorithm 1 over all claims of the corpus with a team of
    /// checkers. Every claim is verified by each panel member (IEA checks
    /// every claim three times); verdicts aggregate by majority.
    pub fn run(
        &mut self,
        corpus: &Corpus,
        panel: &mut Panel,
        strategy: OrderingStrategy,
    ) -> VerificationReport {
        let mut report = VerificationReport::default();
        let claims = &corpus.claims;
        // featurize the whole report once; everything below borrows rows
        let store = FeatureStore::build(corpus, &self.models);
        let mut remaining: Vec<usize> = (0..claims.len()).collect();
        let mut verified: Vec<usize> = Vec::new();

        while !remaining.is_empty() {
            // ---- OptBatch ----
            let planning_start = std::time::Instant::now();
            // utilities for the whole open pool in one batched pass
            let utilities = self.models.training_utilities(&store.gather(&remaining));
            let choices: Vec<ClaimChoice> = remaining
                .iter()
                .zip(&utilities)
                .map(|(&id, &utility)| {
                    let (_, plan) =
                        translate_and_plan(&self.models, store.features(id), &self.config, |_| ());
                    ClaimChoice {
                        id,
                        section: claims[id].section,
                        cost: plan.expected_cost,
                        utility,
                    }
                })
                .collect();
            let batch = opt_batch(&choices, &self.config, |budget| {
                select_batch(&choices, &corpus.document, strategy, budget, &self.config)
            });
            report.computation_seconds += planning_start.elapsed().as_secs_f64();

            // ---- accuracy trace (measured on the upcoming batch) ----
            let batch_claims: Vec<&ClaimRecord> = batch.iter().map(|&id| &claims[id]).collect();
            report.accuracy_trace.push((
                verified.len(),
                self.models
                    .accuracy_on_rows(&store.gather(&batch), &batch_claims),
            ));

            // ---- section reading (each checker skims each touched section) ----
            let mut sections: Vec<usize> = batch.iter().map(|&id| claims[id].section).collect();
            sections.sort_unstable();
            sections.dedup();
            for &s in &sections {
                let read =
                    corpus.document.sections[s].read_cost(self.config.read_seconds_per_sentence);
                report.total_crowd_seconds += read * panel.len() as f64;
            }

            // ---- GetAnswers + Validate (every checker, majority verdict) ----
            for &id in &batch {
                let claim = &claims[id];
                let mut outcomes: Vec<ClaimOutcome> = Vec::with_capacity(panel.len());
                for worker in panel.workers_mut() {
                    outcomes.push(self.verify_claim(corpus, claim, store.features(id), worker));
                }
                let claim_seconds: f64 = outcomes.iter().map(|o| o.crowd_seconds).sum();
                report.total_crowd_seconds += claim_seconds;
                report.time_trace.push(report.total_crowd_seconds);
                // majority vote over "claim is correct"
                let votes: Vec<bool> = outcomes
                    .iter()
                    .filter(|o| !matches!(o.verdict, Verdict::Skipped))
                    .map(|o| matches!(o.verdict, Verdict::Correct { .. }))
                    .collect();
                let majority_correct = Panel::majority(&votes);
                let verdict = outcomes
                    .into_iter()
                    .map(|o| o.verdict)
                    .find(|v| {
                        matches!(v, Verdict::Correct { .. }) == majority_correct
                            && !matches!(v, Verdict::Skipped)
                    })
                    .unwrap_or(Verdict::Skipped);
                report.outcomes.push(ClaimOutcome {
                    claim_id: id,
                    verdict,
                    crowd_seconds: claim_seconds,
                    verdict_matches_truth: majority_correct == claim.is_correct,
                });
            }

            // ---- bookkeeping + Retrain ----
            remaining.retain(|id| !batch.contains(id));
            verified.extend(batch.iter().copied());
            let retrain_start = std::time::Instant::now();
            self.models.retrain_from_store(
                &mut self.training,
                &store,
                claims,
                &verified,
                available_threads(),
            );
            report.computation_seconds += retrain_start.elapsed().as_secs_f64();
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scrutinizer_corpus::CorpusConfig;
    use scrutinizer_crowd::WorkerConfig;

    fn setup() -> (Corpus, Verifier) {
        let corpus = Corpus::generate(CorpusConfig::small());
        let verifier = Verifier::new(&corpus, SystemConfig::test());
        (corpus, verifier)
    }

    fn perfect_worker(seed: u64) -> Worker {
        let config = WorkerConfig {
            accuracy: 1.0,
            skip_probability: 0.0,
            seed,
            ..Default::default()
        };
        Worker::new("S1", config)
    }

    #[test]
    fn parameter_extraction_prefers_rates_and_skips_years() {
        assert_eq!(
            Verifier::extract_parameter("In 2017, demand grew by 3%"),
            Some(0.03)
        );
        assert_eq!(
            Verifier::extract_parameter("increased nine-fold from 2000 to 2017"),
            Some(9.0)
        );
        assert_eq!(
            Verifier::extract_parameter("reached 22 200 TWh in 2017"),
            Some(22_200.0)
        );
        assert_eq!(Verifier::extract_parameter("expanded aggressively"), None);
    }

    #[test]
    fn trained_verifier_confirms_correct_claims_fast() {
        let (corpus, mut verifier) = setup();
        let refs: Vec<&ClaimRecord> = corpus.claims.iter().collect();
        verifier.pretrain(&refs);
        let mut worker = perfect_worker(3);
        let mut matched = 0;
        let mut total_seconds = 0.0;
        let sample: Vec<&ClaimRecord> = corpus.claims.iter().take(20).collect();
        for claim in &sample {
            let features = verifier.models().features(claim);
            let outcome = verifier.verify_claim(&corpus, claim, features.view(), &mut worker);
            total_seconds += outcome.crowd_seconds;
            if outcome.verdict_matches_truth {
                matched += 1;
            }
        }
        // a perfect worker with trained models should match truth mostly
        assert!(matched >= 16, "only {matched}/20 verdicts matched truth");
        // and be far cheaper than manual verification (~complexity·18s each)
        let avg = total_seconds / sample.len() as f64;
        assert!(avg < 160.0, "avg {avg}s per claim is no better than manual");
    }

    #[test]
    fn full_run_resolves_every_claim() {
        let (corpus, mut verifier) = setup();
        let mut panel = Panel::new(3, WorkerConfig::default(), 5);
        let report = verifier.run(&corpus, &mut panel, OrderingStrategy::Ilp);
        assert_eq!(report.outcomes.len(), corpus.claims.len());
        assert!(report.total_crowd_seconds > 0.0);
        assert!(!report.accuracy_trace.is_empty());
        assert_eq!(report.time_trace.len(), corpus.claims.len());
        // majority verdicts over three decent checkers beat coin flips widely
        assert!(
            report.verdict_accuracy() > 0.7,
            "accuracy {}",
            report.verdict_accuracy()
        );
    }

    #[test]
    fn sequential_strategy_runs_in_document_order() {
        let (corpus, mut verifier) = setup();
        let mut panel = Panel::new(3, WorkerConfig::default(), 5);
        let report = verifier.run(&corpus, &mut panel, OrderingStrategy::Sequential);
        let first_batch: Vec<usize> = report.outcomes.iter().take(5).map(|o| o.claim_id).collect();
        assert_eq!(first_batch, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn incorrect_claims_get_suggestions() {
        let (corpus, mut verifier) = setup();
        let refs: Vec<&ClaimRecord> = corpus.claims.iter().collect();
        verifier.pretrain(&refs);
        let mut worker = perfect_worker(9);
        let mut suggestions = 0;
        for claim in corpus.claims.iter().filter(|c| !c.is_correct).take(10) {
            let features = verifier.models().features(claim);
            let outcome = verifier.verify_claim(&corpus, claim, features.view(), &mut worker);
            if let Verdict::Incorrect {
                suggested_value, ..
            } = outcome.verdict
            {
                if suggested_value.is_some() {
                    suggestions += 1;
                }
            }
        }
        assert!(
            suggestions >= 5,
            "only {suggestions}/10 incorrect claims got suggestions"
        );
    }
}
