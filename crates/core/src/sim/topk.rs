//! Top-k accuracy of the classifiers (Figure 10).

use crate::config::SystemConfig;
use crate::models::{available_threads, PropertyKind, SystemModels, TrainingState};
use scrutinizer_corpus::{ClaimRecord, Corpus};
use scrutinizer_learn::split::train_test_split;

/// Top-k accuracy per classifier and for their average.
#[derive(Debug, Clone)]
pub struct TopKAccuracy {
    /// The k values evaluated (the paper plots 1..15).
    pub ks: Vec<usize>,
    /// `[relation, key, attribute, formula]` accuracy per k.
    pub per_classifier: Vec<[f64; 4]>,
    /// Mean of the four per k.
    pub average: Vec<f64>,
}

/// Trains on a holdout split and evaluates top-k accuracy on the rest.
pub fn run_topk(corpus: &Corpus, config: SystemConfig, ks: &[usize], seed: u64) -> TopKAccuracy {
    let (train_idx, test_idx) = train_test_split(corpus.claims.len(), 0.25, seed);
    let mut models = SystemModels::bootstrap(corpus, &config);
    let train: Vec<&ClaimRecord> = train_idx.iter().map(|&i| &corpus.claims[i]).collect();
    models.retrain(&mut TrainingState::default(), &train, available_threads());

    let max_k = ks.iter().copied().max().unwrap_or(1);
    let mut per_classifier = vec![[0.0f64; 4]; ks.len()];
    let test: Vec<&ClaimRecord> = test_idx.iter().map(|&i| &corpus.claims[i]).collect();
    if test.is_empty() {
        return TopKAccuracy {
            ks: ks.to_vec(),
            per_classifier,
            average: vec![0.0; ks.len()],
        };
    }
    for claim in &test {
        let features = models.features(claim);
        let translation = models.translate(&features, max_k);
        let truths: [&dyn Fn(&str) -> bool; 4] = [
            &|l: &str| l == claim.relation,
            &|l: &str| l == claim.key,
            &|l: &str| claim.attributes.iter().any(|a| a == l),
            &|l: &str| l == claim.formula_text,
        ];
        for (p, kind) in PropertyKind::ALL.iter().enumerate() {
            let ranked = translation.of(*kind);
            for (ki, &k) in ks.iter().enumerate() {
                if ranked.iter().take(k).any(|(l, _)| truths[p](l)) {
                    per_classifier[ki][p] += 1.0;
                }
            }
        }
    }
    let n = test.len() as f64;
    for row in &mut per_classifier {
        for v in row.iter_mut() {
            *v /= n;
        }
    }
    let average = per_classifier
        .iter()
        .map(|row| row.iter().sum::<f64>() / 4.0)
        .collect();
    TopKAccuracy {
        ks: ks.to_vec(),
        per_classifier,
        average,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scrutinizer_corpus::CorpusConfig;

    #[test]
    fn topk_accuracy_is_monotone_in_k() {
        let corpus = Corpus::generate(CorpusConfig::small());
        let result = run_topk(&corpus, SystemConfig::test(), &[1, 5, 10], 3);
        assert_eq!(result.ks, vec![1, 5, 10]);
        for p in 0..4 {
            for w in result.per_classifier.windows(2) {
                assert!(
                    w[0][p] <= w[1][p] + 1e-12,
                    "classifier {p} not monotone: {:?}",
                    result.per_classifier
                );
            }
        }
        for w in result.average.windows(2) {
            assert!(w[0] <= w[1] + 1e-12);
        }
    }

    #[test]
    fn topk_beats_chance_on_held_out_claims() {
        let corpus = Corpus::generate(CorpusConfig::small());
        let result = run_topk(&corpus, SystemConfig::test(), &[1, 5], 3);
        // k=5 average accuracy should be clearly above a random guess over
        // dozens-to-hundreds of labels
        assert!(
            result.average[1] > 0.2,
            "top-5 average {:?}",
            result.average
        );
    }
}
