//! The full-report simulation of §6.2 (Table 2, Figures 7–9).
//!
//! Cold start: classifiers begin untrained and learn only from claims the
//! simulated crowd verifies. Three baselines:
//!
//! * **Manual** — every claim verified from scratch by all three checkers,
//!   incorrect claims re-derived (the 40 % first-draft update rate makes
//!   those cost roughly double), sections skimmed once per checker;
//! * **Sequential** — Scrutinizer without claim ordering;
//! * **Scrutinizer** — the full system with ILP batch selection.

use crate::config::SystemConfig;
use crate::ordering::OrderingStrategy;
use crate::report::VerificationReport;
use crate::verify::Verifier;
use scrutinizer_corpus::Corpus;
use scrutinizer_crowd::{Panel, WorkCalendar, Worker, WorkerConfig};

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

fn run_system(
    name: &str,
    corpus: &Corpus,
    config: &SystemConfig,
    calendar: &WorkCalendar,
    strategy: OrderingStrategy,
) -> SystemRun {
    let mut verifier = Verifier::new(corpus, *config);
    let mut panel = Panel::new(calendar.checkers, WorkerConfig::default(), config.seed);
    let report: VerificationReport = verifier.run(corpus, &mut panel, strategy);
    SystemRun {
        name: name.into(),
        crowd_seconds: report.total_crowd_seconds,
        weeks: calendar.weeks(report.total_crowd_seconds),
        computation_minutes: report.computation_seconds / 60.0,
        avg_accuracy: report.average_classifier_accuracy(),
        max_accuracy: report.max_classifier_accuracy(),
        time_trace: report.time_trace.clone(),
        accuracy_trace: report.accuracy_trace,
    }
}

/// Runs all three systems on the corpus.
pub fn run_report_simulation(corpus: &Corpus, config: SystemConfig) -> ReportSimulation {
    let calendar = WorkCalendar::default();
    let runs = vec![
        run_manual(corpus, &config, &calendar),
        run_system(
            "Sequential",
            corpus,
            &config,
            &calendar,
            OrderingStrategy::Sequential,
        ),
        run_system(
            "Scrutinizer",
            corpus,
            &config,
            &calendar,
            OrderingStrategy::Ilp,
        ),
    ];
    ReportSimulation { runs, calendar }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scrutinizer_corpus::CorpusConfig;

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
