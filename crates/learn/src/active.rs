//! Active-learning utilities.

use crate::classifier::PropertyClassifier;
use scrutinizer_text::SparseVector;

/// Training utility `u(c)` of Definition 7: the sum over all property
/// classifiers of the entropy of their predictive distribution on claim `c`.
///
/// High utility ⇒ the models are uncertain ⇒ a human label for this claim
/// teaches them the most (uncertainty sampling).
pub fn training_utility(models: &[&PropertyClassifier], features: &SparseVector) -> f64 {
    models.iter().map(|m| m.prediction_entropy(features)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::labels::LabelDict;
    use crate::softmax::TrainConfig;

    fn features(idx: u32) -> SparseVector {
        SparseVector::from_pairs(vec![(idx, 1.0)])
    }

    #[test]
    fn utility_sums_entropies() {
        let a = PropertyClassifier::new(
            "relation",
            LabelDict::from_labels(["x", "y"]),
            4,
            TrainConfig::default(),
        );
        let b = PropertyClassifier::new(
            "row",
            LabelDict::from_labels(["p", "q", "r", "s"]),
            4,
            TrainConfig::default(),
        );
        let u = training_utility(&[&a, &b], &features(0));
        assert!((u - ((2.0f64).ln() + (4.0f64).ln())).abs() < 1e-9);
    }

    #[test]
    fn confident_models_lower_utility() {
        let mut trained = PropertyClassifier::new(
            "relation",
            LabelDict::from_labels(["x", "y"]),
            4,
            TrainConfig::default(),
        );
        let examples: Vec<(SparseVector, String)> = (0..20)
            .map(|i| {
                (
                    features(i % 2),
                    if i % 2 == 0 { "x".into() } else { "y".into() },
                )
            })
            .collect();
        trained.retrain(&mut None, &examples);
        let untrained = PropertyClassifier::new(
            "row",
            LabelDict::from_labels(["x", "y"]),
            4,
            TrainConfig::default(),
        );
        let u_trained = training_utility(&[&trained], &features(0));
        let u_untrained = training_utility(&[&untrained], &features(0));
        assert!(u_trained < u_untrained);
    }
}
