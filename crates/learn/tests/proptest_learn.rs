//! Property tests for the learning substrate: probability axioms, entropy
//! bounds, top-k consistency on arbitrary inputs.

use proptest::prelude::*;
use scrutinizer_learn::{entropy, SoftmaxClassifier, TrainConfig};
use scrutinizer_text::SparseVector;

fn examples_strategy() -> impl Strategy<Value = Vec<(SparseVector, u32)>> {
    prop::collection::vec(
        (
            prop::collection::vec((0u32..16, 0.1f32..2.0), 1..5),
            0u32..4,
        ),
        4..40,
    )
    .prop_map(|rows| {
        rows.into_iter()
            .map(|(pairs, y)| (SparseVector::from_pairs(pairs), y))
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn probabilities_form_distribution(examples in examples_strategy()) {
        let (model, _) = SoftmaxClassifier::train_owned(&examples, 4, 16, TrainConfig::default());
        for (x, _) in examples.iter().take(5) {
            let p = model.predict_proba(x);
            let total: f32 = p.iter().sum();
            prop_assert!((total - 1.0).abs() < 1e-4, "sums to {total}");
            prop_assert!(p.iter().all(|&v| (0.0..=1.0).contains(&v)));
        }
    }

    #[test]
    fn top_k_consistent_with_probabilities(examples in examples_strategy()) {
        let (model, _) = SoftmaxClassifier::train_owned(&examples, 4, 16, TrainConfig::default());
        let x = &examples[0].0;
        let probs = model.predict_proba(x);
        let top = model.top_k(x, 4);
        // descending, and the first entry is the global argmax
        for w in top.windows(2) {
            prop_assert!(w[0].1 >= w[1].1);
        }
        let best = probs.iter().cloned().fold(f32::MIN, f32::max);
        prop_assert!((top[0].1 - best).abs() < 1e-6);
        // entropy bounded by ln(#classes)
        let h = entropy(&probs);
        prop_assert!(h >= -1e-9 && h <= (4.0f64).ln() + 1e-6, "entropy {h}");
    }

    #[test]
    fn training_is_seed_deterministic(examples in examples_strategy()) {
        let (a, _) = SoftmaxClassifier::train_owned(&examples, 4, 16, TrainConfig::default());
        let (b, _) = SoftmaxClassifier::train_owned(&examples, 4, 16, TrainConfig::default());
        prop_assert_eq!(
            a.predict_proba(&examples[0].0),
            b.predict_proba(&examples[0].0)
        );
    }
}
