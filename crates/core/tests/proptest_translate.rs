//! Differential property test for claim translation: the fused
//! `SystemModels::translate_view` (one sweep of each classifier's
//! feature-major block) must return exactly the row-major ranking —
//! the same labels in the same order with bit-identical probabilities.
//! Every screen, plan, verdict and golden fixture downstream depends on
//! that ranking. The oracle is independent of the classifiers' scoring
//! kernel: it recomputes each ranking from the exported row-major
//! `SoftmaxState` (`bias + x.dot_dense(row)` per class, the libm
//! softmax, then probability descending with ties by id).
//!
//! The same sweep returns the claim's training utility, which the
//! engine caches in place of the batched pass's: it must equal
//! `SystemModels::training_utilities` on the same row bit for bit.
//!
//! Models come two ways: arbitrary learned state injected through
//! `restore_state` (untrained classifiers, class counts below the label
//! count, all-zero weights whose exact ties break by id, quantized
//! weights with partial ties, dense random weights), and real training
//! sequences (`retrain`, `retrain_incremental` growing the classes with
//! unseen labels, and a persistence round trip through
//! `export_state`/`restore_state`). Rows cover real claims, empty rows
//! and out-of-range feature indices.

use std::sync::OnceLock;

use proptest::prelude::*;
use scrutinizer_core::{FeatureStore, PropertyKind, SystemConfig, SystemModels, TrainingState};
use scrutinizer_corpus::{ClaimRecord, Corpus, CorpusConfig};
use scrutinizer_learn::softmax::softmax_in_place;
use scrutinizer_learn::{ClassifierState, SoftmaxState};
use scrutinizer_text::{FeatureMatrix, SparseVector, SparseView};

struct Fixture {
    corpus: Corpus,
    base: SystemModels,
    store: FeatureStore,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let corpus = Corpus::generate(CorpusConfig {
            n_claims: 48,
            n_sentences: 240,
            ..CorpusConfig::small()
        });
        let base = SystemModels::bootstrap(&corpus, &SystemConfig::test());
        let store = FeatureStore::build(&corpus, &base);
        Fixture {
            corpus,
            base,
            store,
        }
    })
}

/// SplitMix64: the per-case weight stream, seeded by the strategy.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// Uniform in `[-scale, scale)`.
    fn signed(&mut self, scale: f32) -> f32 {
        ((self.next() >> 40) as f32 / (1u64 << 24) as f32 * 2.0 - 1.0) * scale
    }
}

/// How a restored model's weights are drawn.
#[derive(Debug, Clone, Copy)]
enum Weights {
    /// Every weight and bias 0: one exact n-way tie, broken by id.
    Zero,
    /// Sparse values from {±1, ±0.5}: many exact partial ties.
    Quantized,
    /// Dense uniform values: distinct scores, rounding-sensitive sums.
    Random,
}

impl Weights {
    fn draw(self, mix: &mut Mix) -> f32 {
        match self {
            Weights::Zero => 0.0,
            Weights::Quantized => [0.0, 0.0, 0.0, 1.0, -1.0, 0.5, -0.5, 0.0][mix.below(8) as usize],
            Weights::Random => mix.signed(2.0),
        }
    }
}

/// Rows to translate: real claims, an empty row, and random rows whose
/// indices run past the feature dimension.
fn rows(mix: &mut Mix, dim: usize, claims: usize) -> Vec<SparseVector> {
    let store = &fixture().store;
    let mut rows = vec![SparseVector::new()];
    for _ in 0..3 {
        rows.push(
            store
                .features(mix.below(claims as u64) as usize)
                .to_owned_vector(),
        );
    }
    for _ in 0..2 {
        let nnz = mix.below(24) as usize;
        let pairs = (0..nnz)
            .map(|_| (mix.below(dim as u64 + 64) as u32, mix.signed(1.5)))
            .collect();
        rows.push(SparseVector::from_pairs(pairs));
    }
    rows
}

/// The oracle: one classifier's top-`k` ranking recomputed from its
/// exported state. Trained: row-major `bias + x.dot_dense(row)` per
/// class, the libm softmax, a full sort by probability descending
/// (`total_cmp`) then id ascending. Untrained: the uniform answer in
/// label-id order.
fn expected_ranking(state: &ClassifierState, x: SparseView<'_>, k: usize) -> Vec<(u32, f32)> {
    let Some(model) = &state.model else {
        let n = state.labels.len();
        let p = 1.0 / n as f32;
        return (0..n.min(k) as u32).map(|id| (id, p)).collect();
    };
    let mut probs: Vec<f32> = (0..model.n_classes)
        .map(|c| model.biases[c] + x.dot_dense(&model.weights[c * model.dim..][..model.dim]))
        .collect();
    softmax_in_place(&mut probs);
    let mut ranked: Vec<(u32, f32)> = probs
        .into_iter()
        .enumerate()
        .map(|(id, p)| (id as u32, p))
        .collect();
    ranked.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    ranked.truncate(k);
    ranked
}

/// The comparison: fused translation ≡ the exported-state oracle, as
/// `(label, prob.to_bits())`, at `k` ∈ {0, 1, n−1, n, n+5} for every
/// classifier's label count `n`; and the translation's utility ≡ the
/// batched `training_utilities` of the row, as `to_bits`.
fn check_parity(
    models: &SystemModels,
    training: &TrainingState,
    rows: &[SparseVector],
) -> Result<(), String> {
    let mut ks = vec![0usize, 1];
    for kind in PropertyKind::ALL {
        let n = models.classifier(kind).labels().len();
        ks.extend([n.saturating_sub(1), n, n + 5]);
    }
    let states = models.export_state(training).classifiers;
    let batched = models.training_utilities(&FeatureMatrix::from_rows(rows.iter().cloned()));
    for (r, row) in rows.iter().enumerate() {
        for &k in &ks {
            let (fused, utility) = models.translate_view(row.view(), k);
            if utility.to_bits() != batched[r].to_bits() {
                return Err(format!(
                    "row {r}, k {k}: one-sweep utility {utility} != batched {}",
                    batched[r]
                ));
            }
            for kind in PropertyKind::ALL {
                let state = &states[kind as usize];
                let expected: Vec<(&str, u32)> = expected_ranking(state, row.view(), k)
                    .into_iter()
                    .map(|(id, p)| (state.labels[id as usize].as_str(), p.to_bits()))
                    .collect();
                let got: Vec<(&str, u32)> = fused
                    .of(kind)
                    .iter()
                    .map(|(label, p)| (label.as_str(), p.to_bits()))
                    .collect();
                if got != expected {
                    return Err(format!(
                        "row {r}, k {k}, {}: fused {got:?} != row-major oracle {expected:?}",
                        kind.name()
                    ));
                }
            }
        }
    }
    Ok(())
}

/// Restores arbitrary learned state onto the bootstrapped models: per
/// classifier, `trained_mask` bit set → a model with a random class
/// count ≤ its (possibly grown) label space.
fn injected_models(
    seed: u64,
    trained_mask: u32,
    weights: Weights,
) -> (SystemModels, TrainingState) {
    let fixture = fixture();
    let dim = fixture.base.featurizer().dimension();
    let mut mix = Mix(seed);
    let mut state = fixture.base.export_state(&TrainingState::default());
    for (slot, classifier) in state.classifiers.iter_mut().enumerate() {
        for extra in 0..mix.below(3) {
            classifier.labels.push(format!("injected-{slot}-{extra}"));
        }
        if trained_mask & (1 << slot) == 0 {
            classifier.model = None;
            continue;
        }
        let labels = classifier.labels.len();
        let n_classes = 1 + mix.below(labels as u64) as usize;
        let n_classes = if mix.below(2) == 0 { labels } else { n_classes };
        classifier.model = Some(SoftmaxState {
            weights: (0..n_classes * dim)
                .map(|_| weights.draw(&mut mix))
                .collect(),
            biases: (0..n_classes).map(|_| weights.draw(&mut mix)).collect(),
            grad_sq_w: vec![1e-8; n_classes * dim],
            grad_sq_b: vec![1e-8; n_classes],
            dim,
            n_classes,
            fits: 1,
        });
    }
    let mut models = fixture.base.clone();
    let training = models
        .restore_state(state)
        .expect("injected state fits the featurizer");
    (models, training)
}

/// One step of a real training sequence.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// From-scratch `retrain` on a random claim subset.
    Retrain(u64),
    /// Warm-start `retrain_incremental` on a random batch, some of
    /// whose claims carry labels the classifiers have never seen.
    Incremental(u64),
    /// Persistence round trip onto freshly bootstrapped models.
    Restore,
}

fn step() -> impl Strategy<Value = Step> {
    prop_oneof![
        (0u64..u64::MAX).prop_map(Step::Retrain),
        (0u64..u64::MAX).prop_map(Step::Incremental),
        Just(Step::Restore),
    ]
}

fn subset(mix: &mut Mix, claims: usize, max: u64) -> Vec<usize> {
    let n = 1 + mix.below(max) as usize;
    (0..n).map(|_| mix.below(claims as u64) as usize).collect()
}

fn apply(models: &mut SystemModels, training: &mut TrainingState, step: Step, round: usize) {
    let fixture = fixture();
    let claims = fixture.corpus.claims.len();
    match step {
        Step::Retrain(seed) => {
            let mut mix = Mix(seed);
            let ids = subset(&mut mix, claims, 24);
            let refs: Vec<&ClaimRecord> =
                ids.iter().map(|&id| &fixture.corpus.claims[id]).collect();
            models.retrain(training, &refs, 2);
        }
        Step::Incremental(seed) => {
            let mut mix = Mix(seed);
            let ids = subset(&mut mix, claims, 12);
            let mut relabeled = fixture.corpus.claims.clone();
            for (i, &id) in ids.iter().enumerate() {
                if mix.below(3) == 0 {
                    let claim = &mut relabeled[id];
                    claim.relation = format!("unseen-relation-{round}-{i}");
                    claim.key = format!("unseen-key-{round}-{i}");
                    claim
                        .attributes
                        .push(format!("unseen-attribute-{round}-{i}"));
                    claim.formula_text = format!("unseen-formula-{round}-{i}");
                }
            }
            models.retrain_incremental(training, &fixture.store, &relabeled, &ids);
        }
        Step::Restore => {
            let state = models.export_state(training);
            let mut restored = fixture.base.clone();
            let restored_training = restored
                .restore_state(state.clone())
                .expect("a round trip restores");
            assert!(
                restored.export_state(&restored_training) == state,
                "the round trip keeps every weight, accumulator and the rehearsal log"
            );
            (*models, *training) = (restored, restored_training);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn fused_translation_equals_per_classifier_ranking_on_injected_models(
        seed in 0u64..u64::MAX,
        trained_mask in 0u32..16,
        weights in prop_oneof![Just(Weights::Zero), Just(Weights::Quantized), Just(Weights::Random)],
    ) {
        let (models, training) = injected_models(seed, trained_mask, weights);
        let dim = models.featurizer().dimension();
        let rows = rows(&mut Mix(!seed), dim, fixture().corpus.claims.len());
        let parity = check_parity(&models, &training, &rows);
        prop_assert!(parity.is_ok(), "{:?}: {}", weights, parity.unwrap_err());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn fused_translation_tracks_retrain_incremental_and_restore(
        steps in prop::collection::vec(step(), 1..5),
        seed in 0u64..u64::MAX,
    ) {
        let fixture = fixture();
        let dim = fixture.base.featurizer().dimension();
        let claims = fixture.corpus.claims.len();
        let mut models = fixture.base.clone();
        let mut training = TrainingState::default();
        let mut mix = Mix(seed);
        for (round, &step) in steps.iter().enumerate() {
            apply(&mut models, &mut training, step, round);
            let parity = check_parity(&models, &training, &rows(&mut mix, dim, claims));
            prop_assert!(parity.is_ok(), "after {:?}: {}", &steps[..=round], parity.unwrap_err());
        }
    }
}
