//! Differential property test for warm-start incremental training:
//! feeding a labeled stream to [`PropertyClassifier::partial_fit_encoded`]
//! batch by batch must land within an accuracy tolerance of a from-scratch
//! [`PropertyClassifier::retrain_encoded`] on the union — including when a
//! brand-new label first appears mid-stream and the model grows in place.

use proptest::prelude::*;
use scrutinizer_learn::{LabelDict, PropertyClassifier, TrainConfig};
use scrutinizer_text::{SparseVector, SparseView};

/// One synthetic example: a class in `0..classes` and its feature vector —
/// the class's own feature plus a shared noise feature, linearly separable
/// so both training modes can actually learn it.
#[derive(Debug, Clone)]
struct Example {
    class: u32,
    features: SparseVector,
}

const DIM: usize = 16;

fn dataset_strategy() -> impl Strategy<Value = Vec<Example>> {
    let example = (0u32..4, 0.8f32..1.6, 8u32..DIM as u32, 0.0f32..0.2).prop_map(
        |(class, signal, noise_idx, noise)| Example {
            class,
            features: SparseVector::from_pairs(vec![(class, signal), (noise_idx, noise)]),
        },
    );
    prop::collection::vec(example, 24..80).prop_map(|examples| {
        // force mid-stream label growth: the highest class is held out of
        // the early batches entirely, then joins an interleaved (mixed)
        // stream — new labels appear late, but batches stay representative,
        // which is the contract the raw kernel is built for (the
        // rehearsal-augmented path in `scrutinizer-core` covers skewed
        // batches)
        let top = examples.iter().map(|e| e.class).max().unwrap_or(0);
        let (tops, others): (Vec<Example>, Vec<Example>) =
            examples.into_iter().partition(|e| e.class == top);
        let head = others.len() / 2;
        let mut stream: Vec<Example> = others[..head].to_vec();
        let mut tail: Vec<Example> = Vec::new();
        let mut tops = tops.into_iter();
        let mut rest = others[head..].iter().cloned();
        loop {
            match (rest.next(), tops.next()) {
                (None, None) => break,
                (a, b) => {
                    tail.extend(a);
                    tail.extend(b);
                }
            }
        }
        stream.extend(tail);
        stream
    })
}

fn label_of(class: u32) -> String {
    format!("L{class}")
}

fn accuracy(classifier: &PropertyClassifier, examples: &[Example]) -> f64 {
    let hits = examples
        .iter()
        .filter(|e| classifier.predict(&e.features).as_deref() == Some(label_of(e.class).as_str()))
        .count();
    hits as f64 / examples.len() as f64
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn partial_fit_stream_matches_from_scratch_union(examples in dataset_strategy()) {
        let config = TrainConfig::default();

        // ---- cold: one from-scratch retrain on the union ----
        let mut cold = PropertyClassifier::new("relation", LabelDict::new(), DIM, config);
        let cold_encoded: Vec<(SparseView<'_>, u32)> = examples
            .iter()
            .map(|e| {
                let id = cold.intern_label(&label_of(e.class));
                (e.features.view(), id)
            })
            .collect();
        cold.retrain_encoded(&mut None, &cold_encoded);

        // ---- warm: the same stream in batches through partial_fit ----
        let mut warm = PropertyClassifier::new("relation", LabelDict::new(), DIM, config);
        let mut warm_training = None;
        for batch in examples.chunks(10) {
            let encoded: Vec<(SparseView<'_>, u32)> = batch
                .iter()
                .map(|e| {
                    let id = warm.intern_label(&label_of(e.class));
                    (e.features.view(), id)
                })
                .collect();
            warm.partial_fit_encoded(&mut warm_training, &encoded);
        }

        // both saw the same labels (growth mid-stream included)
        prop_assert_eq!(cold.labels().len(), warm.labels().len());
        for id in 0..cold.labels().len() as u32 {
            prop_assert_eq!(cold.label_name(id), warm.label_name(id));
        }

        // the data is separable, so from-scratch training nails it; the
        // warm-started stream must stay within tolerance of that
        let cold_acc = accuracy(&cold, &examples);
        let warm_acc = accuracy(&warm, &examples);
        prop_assert!(
            cold_acc >= 0.9,
            "from-scratch training failed its own separable data: {cold_acc}"
        );
        prop_assert!(
            warm_acc >= cold_acc - 0.15,
            "warm accuracy {warm_acc} fell beyond tolerance of cold {cold_acc}"
        );
    }

    #[test]
    fn repeated_partial_fit_is_deterministic(examples in dataset_strategy()) {
        let config = TrainConfig::default();
        let run = || {
            let mut clf = PropertyClassifier::new("row", LabelDict::new(), DIM, config);
            let mut training = None;
            for batch in examples.chunks(7) {
                let encoded: Vec<(SparseView<'_>, u32)> = batch
                    .iter()
                    .map(|e| {
                        let id = clf.intern_label(&label_of(e.class));
                        (e.features.view(), id)
                    })
                    .collect();
                clf.partial_fit_encoded(&mut training, &encoded);
            }
            examples
                .iter()
                .map(|e| clf.predict_id(e.features.view()))
                .collect::<Vec<_>>()
        };
        prop_assert_eq!(run(), run());
    }
}
