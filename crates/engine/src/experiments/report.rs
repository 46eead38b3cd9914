//! The full-report simulation of §6.2 (Table 2, Figures 7–9), and
//! [`run_report`], Algorithm 1 over a whole report on the engine.
//!
//! Cold start: classifiers begin untrained and learn only from claims the
//! simulated crowd verifies. Three baselines:
//!
//! * **Manual** — every claim verified from scratch by all three checkers,
//!   incorrect claims re-derived (the 40 % first-draft update rate makes
//!   those cost roughly double), sections skimmed once per checker;
//! * **Sequential** — Scrutinizer without claim ordering;
//! * **Scrutinizer** — the full system with ILP batch selection.

use std::time::Instant;

use scrutinizer_core::report::{ClaimOutcome, Verdict, VerificationReport};
use scrutinizer_core::{OrderingStrategy, SystemConfig};
use scrutinizer_corpus::{ClaimRecord, Corpus};
use scrutinizer_crowd::{Panel, WorkCalendar, Worker, WorkerConfig};

use super::frozen_engine;

/// One system's row of Table 2 plus its traces.
#[derive(Debug, Clone)]
pub struct SystemRun {
    /// "Manual" / "Sequential" / "Scrutinizer".
    pub name: String,
    /// Total crowd person-seconds.
    pub crowd_seconds: f64,
    /// Calendar weeks for the three-checker team.
    pub weeks: f64,
    /// Computation minutes (planning + ILP + retraining).
    pub computation_minutes: f64,
    /// Average classifier accuracy over the verification period.
    pub avg_accuracy: f64,
    /// Maximum classifier accuracy reached.
    pub max_accuracy: f64,
    /// Accumulated crowd seconds after each verified claim (Figure 7).
    pub time_trace: Vec<f64>,
    /// `(verified_count, [acc; 4])` trace (Figures 8–9).
    pub accuracy_trace: Vec<(usize, [f64; 4])>,
}

/// The three rows of Table 2.
#[derive(Debug, Clone)]
pub struct ReportSimulation {
    /// Manual, Sequential, Scrutinizer in that order.
    pub runs: Vec<SystemRun>,
    /// The calendar used for the weeks conversion.
    pub calendar: WorkCalendar,
}

impl ReportSimulation {
    /// Savings of run `i` relative to Manual (Table 2's "% Savings").
    pub fn savings_vs_manual(&self, i: usize) -> f64 {
        let manual = self.runs[0].crowd_seconds;
        if manual <= 0.0 {
            return 0.0;
        }
        1.0 - self.runs[i].crowd_seconds / manual
    }
}

/// Simulates the Manual baseline.
fn run_manual(corpus: &Corpus, config: &SystemConfig, calendar: &WorkCalendar) -> SystemRun {
    let mut total = 0.0;
    let mut time_trace = Vec::with_capacity(corpus.claims.len());
    // every checker reads the whole report once
    for section in &corpus.document.sections {
        total += section.read_cost(config.read_seconds_per_sentence) * calendar.checkers as f64;
    }
    let mut workers: Vec<Worker> = (0..calendar.checkers)
        .map(|i| {
            Worker::new(
                format!("M{}", i + 1),
                WorkerConfig {
                    seed: config.seed + 900 + i as u64,
                    ..Default::default()
                },
            )
        })
        .collect();
    for claim in &corpus.claims {
        for worker in &mut workers {
            let (_, seconds) = worker.manual_verify(claim.complexity);
            // incorrect claims must be re-derived and updated: ~double work
            let factor = if claim.is_correct { 1.0 } else { 2.0 };
            total += seconds * factor;
        }
        time_trace.push(total);
    }
    SystemRun {
        name: "Manual".into(),
        crowd_seconds: total,
        weeks: calendar.weeks(total),
        computation_minutes: 0.0,
        avg_accuracy: 0.0,
        max_accuracy: 0.0,
        time_trace,
        accuracy_trace: Vec::new(),
    }
}

/// Runs Algorithm 1 over every claim of the corpus on a fresh engine
/// with a team of checkers. The engine starts untrained, plans with
/// `strategy` and retrains only between batches. Per batch:
///
/// * **OptBatch** — a fresh session's [`Engine::submit_report`] of the
///   unverified claims returns the next batch;
/// * every checker skims each section the batch touches;
/// * **GetAnswers + Validate** — each panel member verifies each claim
///   through [`Engine::verify_claim_with`] (IEA checks every claim three
///   times), and verdicts aggregate by majority;
/// * **Retrain** — [`Engine::pretrain`] on every claim verified so far.
///
/// [`Engine::submit_report`]: crate::Engine::submit_report
/// [`Engine::verify_claim_with`]: crate::Engine::verify_claim_with
/// [`Engine::pretrain`]: crate::Engine::pretrain
pub fn run_report(
    corpus: &Corpus,
    config: SystemConfig,
    panel: &mut Panel,
    strategy: OrderingStrategy,
) -> VerificationReport {
    let engine = frozen_engine(corpus, config, strategy);
    let claims = &corpus.claims;
    let mut report = VerificationReport::default();
    let mut remaining: Vec<usize> = (0..claims.len()).collect();
    let mut verified: Vec<usize> = Vec::new();

    while !remaining.is_empty() {
        // ---- OptBatch ----
        let planning_start = Instant::now();
        let session = engine.open_session("report");
        let batch: Vec<usize> = engine
            .submit_report(session, &remaining)
            .expect("the session is open and every claim id is in the corpus")
            .iter()
            .map(|q| q.claim_id)
            .collect();
        engine
            .close_session(session)
            .expect("the session is still open");
        report.computation_seconds += planning_start.elapsed().as_secs_f64();

        // ---- accuracy trace (measured on the upcoming batch) ----
        let batch_claims: Vec<&ClaimRecord> = batch.iter().map(|&id| &claims[id]).collect();
        let rows = engine.feature_store().gather(&batch);
        report.accuracy_trace.push((
            verified.len(),
            engine
                .models_snapshot()
                .models
                .accuracy_on_rows(&rows, &batch_claims),
        ));

        // ---- section reading (each checker skims each touched section) ----
        let mut sections: Vec<usize> = batch.iter().map(|&id| claims[id].section).collect();
        sections.sort_unstable();
        sections.dedup();
        for &s in &sections {
            let read = corpus.document.sections[s].read_cost(config.read_seconds_per_sentence);
            report.total_crowd_seconds += read * panel.len() as f64;
        }

        // ---- GetAnswers + Validate (every checker, majority verdict) ----
        for &id in &batch {
            let outcomes: Vec<ClaimOutcome> = panel
                .workers_mut()
                .iter_mut()
                .map(|worker| engine.verify_claim_with(id, worker))
                .collect();
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
                verdict_matches_truth: majority_correct == claims[id].is_correct,
            });
        }

        // ---- bookkeeping + Retrain ----
        remaining.retain(|id| !batch.contains(id));
        verified.extend(batch.iter().copied());
        let retrain_start = Instant::now();
        engine.pretrain(Some(&verified));
        report.computation_seconds += retrain_start.elapsed().as_secs_f64();
    }
    report
}

/// Runs all three systems on the corpus.
pub fn run_report_simulation(corpus: &Corpus, config: SystemConfig) -> ReportSimulation {
    let calendar = WorkCalendar::default();
    let system = |name: &str, strategy| {
        let mut panel = Panel::new(calendar.checkers, WorkerConfig::default(), config.seed);
        let report = run_report(corpus, config, &mut panel, strategy);
        SystemRun {
            name: name.into(),
            crowd_seconds: report.total_crowd_seconds,
            weeks: calendar.weeks(report.total_crowd_seconds),
            computation_minutes: report.computation_seconds / 60.0,
            avg_accuracy: report.average_classifier_accuracy(),
            max_accuracy: report.max_classifier_accuracy(),
            time_trace: report.time_trace,
            accuracy_trace: report.accuracy_trace,
        }
    };
    let runs = vec![
        run_manual(corpus, &config, &calendar),
        system("Sequential", OrderingStrategy::Sequential),
        system("Scrutinizer", OrderingStrategy::Ilp),
    ];
    ReportSimulation { runs, calendar }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scrutinizer_corpus::CorpusConfig;

    fn small_run(strategy: OrderingStrategy) -> (Corpus, VerificationReport) {
        let corpus = Corpus::generate(CorpusConfig::small());
        let mut panel = Panel::new(3, WorkerConfig::default(), 5);
        let report = run_report(&corpus, SystemConfig::test(), &mut panel, strategy);
        (corpus, report)
    }

    #[test]
    fn full_run_resolves_every_claim() {
        let (corpus, report) = small_run(OrderingStrategy::Ilp);
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
        // Sequential verifies in (section, id) order; the small corpus
        // puts every claim in section 0, so that is id order here
        let (_, report) = small_run(OrderingStrategy::Sequential);
        let first_batch: Vec<usize> = report.outcomes.iter().take(5).map(|o| o.claim_id).collect();
        assert_eq!(first_batch, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn sequential_strategy_reads_section_by_section() {
        // 240 relations spread the claims over several sections, so id
        // order and document order differ
        let corpus = Corpus::generate(CorpusConfig {
            n_relations: 240,
            ..CorpusConfig::small()
        });
        let mut panel = Panel::new(3, WorkerConfig::default(), 5);
        let report = run_report(
            &corpus,
            SystemConfig::test(),
            &mut panel,
            OrderingStrategy::Sequential,
        );
        let order: Vec<(usize, usize)> = report
            .outcomes
            .iter()
            .map(|o| (corpus.claims[o.claim_id].section, o.claim_id))
            .collect();
        assert_eq!(order.len(), corpus.claims.len());
        let mut sections: Vec<usize> = order.iter().map(|&(section, _)| section).collect();
        sections.dedup();
        assert!(sections.len() >= 2, "claims span sections {sections:?}");
        assert!(
            order.windows(2).all(|w| w[0] < w[1]),
            "claims are verified in (section, id) order: {order:?}"
        );
    }

    #[test]
    fn simulation_reproduces_table2_shape() {
        let corpus = Corpus::generate(CorpusConfig::small());
        let sim = run_report_simulation(&corpus, SystemConfig::test());
        assert_eq!(sim.runs.len(), 3);
        let manual = &sim.runs[0];
        let sequential = &sim.runs[1];
        let scrutinizer = &sim.runs[2];
        // headline: both system variants save vs manual. On this tiny test
        // corpus (80 claims) the cold-start warmup dominates, so the margin
        // is thinner than the paper-scale factor two. `repro` prints the
        // full-scale shape beside the paper's numbers; README's "Known
        // deviations" records where it falls short.
        assert!(
            sequential.crowd_seconds < manual.crowd_seconds,
            "sequential {} vs manual {}",
            sequential.crowd_seconds,
            manual.crowd_seconds
        );
        assert!(
            scrutinizer.crowd_seconds < manual.crowd_seconds * 0.9,
            "scrutinizer {} vs manual {}",
            scrutinizer.crowd_seconds,
            manual.crowd_seconds
        );
        // savings helper consistent
        assert!(sim.savings_vs_manual(2) > 0.1);
        // accuracy traces exist for the learning systems only
        assert!(manual.accuracy_trace.is_empty());
        assert!(!scrutinizer.accuracy_trace.is_empty());
        // classifiers end up better than they start (cold start learning)
        let first = scrutinizer.accuracy_trace.first().unwrap().1;
        let max = scrutinizer.max_accuracy;
        let first_avg = first.iter().sum::<f64>() / 4.0;
        assert!(max > first_avg, "no learning visible: {first_avg} → {max}");
    }

    #[test]
    fn time_traces_are_monotone() {
        let corpus = Corpus::generate(CorpusConfig::small());
        let sim = run_report_simulation(&corpus, SystemConfig::test());
        for run in &sim.runs {
            for w in run.time_trace.windows(2) {
                assert!(w[0] <= w[1] + 1e-9, "{}: trace not monotone", run.name);
            }
            assert_eq!(run.time_trace.len(), corpus.claims.len());
        }
    }
}
