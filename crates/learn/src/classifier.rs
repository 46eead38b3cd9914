//! Property classifiers: a softmax model plus its string label space.

use crate::labels::LabelDict;
use crate::metrics::entropy;
use crate::softmax::{SoftmaxClassifier, SoftmaxState, SoftmaxTraining, TrainConfig};
use scrutinizer_text::{SparseVector, SparseView};

/// The serializable *learned* state of a [`PropertyClassifier`] and its
/// training state: the label space (which grows as checkers suggest new
/// answers) and the trained model with its AdaGrad state, if any.
/// Structural fields — property name, feature dimensionality, train
/// config — are rebuilt from configuration at bootstrap and the state
/// restored on top, so a snapshot stays valid across code changes that
/// only touch configuration defaults.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassifierState {
    /// Label names in interned-id order.
    pub labels: Vec<String>,
    /// The trained model and its training state (`None` = untrained /
    /// uniform fallback).
    pub model: Option<SoftmaxState>,
}

/// A classifier for one query property (relation / key / attribute /
/// formula), operating on interned label ids with a string boundary.
///
/// The hot paths (`retrain_encoded`, `partial_fit_encoded`, `top_k_ids`)
/// move borrowed feature views and `u32` label ids only; the
/// string-returning APIs ([`top_k`](Self::top_k),
/// [`predict`](Self::predict)) are thin adapters kept for the session
/// boundary, where checkers read label text.
///
/// A classifier is the read side of its learned state: the label space
/// and the [`SoftmaxClassifier`]. The AdaGrad half, a
/// [`SoftmaxTraining`], is kept by the trainer and handed to the training
/// calls — `Some` exactly when this classifier is trained.
///
/// Supports the cold-start protocol of §3: before any training data exists,
/// predictions fall back to the uniform distribution over the known label
/// space, which makes early entropy maximal — exactly what drives the active
/// learner to gather labels first.
#[derive(Debug, Clone)]
pub struct PropertyClassifier {
    /// Human-readable property name ("relation", "row", …).
    pub property: String,
    labels: LabelDict,
    model: Option<SoftmaxClassifier>,
    dim: usize,
    config: TrainConfig,
}

impl PropertyClassifier {
    /// Creates an untrained classifier over a fixed label space.
    pub fn new(
        property: impl Into<String>,
        labels: LabelDict,
        dim: usize,
        config: TrainConfig,
    ) -> Self {
        PropertyClassifier {
            property: property.into(),
            labels,
            model: None,
            dim,
            config,
        }
    }

    /// The label space.
    pub fn labels(&self) -> &LabelDict {
        &self.labels
    }

    /// A whole copy of the learned state joined with its `training`
    /// state (snapshots stream both halves instead; see
    /// [`softmax`](Self::softmax)).
    ///
    /// # Panics
    /// Panics if `training` is not this classifier's (see
    /// [`partial_fit_encoded`](Self::partial_fit_encoded)).
    pub fn export_state(&self, training: Option<&SoftmaxTraining>) -> ClassifierState {
        ClassifierState {
            labels: self.labels.names().to_vec(),
            model: self
                .model
                .as_ref()
                .map(|model| model.export_state(self.own_training(training))),
        }
    }

    /// Replaces the learned state from a whole-model snapshot, returning
    /// its training state. The model's feature dimensionality must match
    /// this classifier's (a mismatch means the snapshot came from a
    /// different corpus/featurizer).
    pub fn restore_state(
        &mut self,
        state: ClassifierState,
    ) -> Result<Option<SoftmaxTraining>, String> {
        let (restored, training) = self.with_state(state)?;
        *self = restored;
        Ok(training)
    }

    /// [`restore_state`](Self::restore_state) into a new classifier built
    /// on this one's scaffold (see [`with_learned`](Self::with_learned)).
    pub fn with_state(
        &self,
        state: ClassifierState,
    ) -> Result<(Self, Option<SoftmaxTraining>), String> {
        let (model, training) = match state.model {
            Some(model) => {
                let (model, training) = SoftmaxClassifier::from_state(model)
                    .map_err(|e| format!("{}: {e}", self.property))?;
                (Some(model), Some(training))
            }
            None => (None, None),
        };
        Ok((self.with_learned(state.labels, model)?, training))
    }

    /// A classifier with this one's property, feature dimensionality and
    /// training config that carries `labels` and `model` instead of this
    /// one's learned state — the scaffold a snapshot is decoded onto,
    /// which never copies this classifier's weights. Rejects a model of
    /// another dimensionality or with more classes than labels.
    pub fn with_learned(
        &self,
        labels: Vec<String>,
        model: Option<SoftmaxClassifier>,
    ) -> Result<Self, String> {
        if let Some(model) = &model {
            if model.dim() != self.dim {
                return Err(format!(
                    "{}: snapshot dim {} != featurizer dim {}",
                    self.property,
                    model.dim(),
                    self.dim
                ));
            }
            if model.n_classes() > labels.len() {
                return Err(format!(
                    "{}: snapshot has {} classes but only {} labels",
                    self.property,
                    model.n_classes(),
                    labels.len()
                ));
            }
        }
        Ok(PropertyClassifier {
            property: self.property.clone(),
            labels: LabelDict::from_labels(labels),
            model,
            dim: self.dim,
            config: self.config,
        })
    }

    /// Feature dimensionality the model is trained over.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Interns a label (checkers may suggest new answers), returning its id.
    pub fn intern_label(&mut self, label: &str) -> u32 {
        self.labels.intern(label)
    }

    /// Whether a model has been trained.
    pub fn is_trained(&self) -> bool {
        self.model.is_some()
    }

    /// The trained model's class count (`None` when untrained). It can
    /// trail [`labels`](Self::labels): labels interned since the last
    /// training call have no class yet.
    pub fn n_classes(&self) -> Option<usize> {
        self.model.as_ref().map(SoftmaxClassifier::n_classes)
    }

    /// Retrains from scratch on borrowed `(features, label id)` pairs —
    /// the `Retrain(N, A)` step of Algorithm 1, with zero feature clones
    /// and zero label strings in the loop. `training` is replaced by the
    /// new model's training state.
    pub fn retrain_encoded(
        &mut self,
        training: &mut Option<SoftmaxTraining>,
        examples: &[(SparseView<'_>, u32)],
    ) {
        if examples.is_empty() {
            self.model = None;
            *training = None;
            return;
        }
        let (model, fresh) =
            SoftmaxClassifier::train(examples, self.labels.len(), self.dim, self.config);
        self.model = Some(model);
        *training = Some(fresh);
    }

    /// Warm-start incremental training on one new example batch: resumes
    /// from the current weights and `training` state (or a zero model with
    /// fresh accumulators when untrained) instead of replaying the whole
    /// verified history. Label ids past the current class count grow both
    /// in place, so labels interned since the last call are legal.
    ///
    /// # Panics
    /// Panics if `training` is not this classifier's: `None` for a
    /// trained classifier, `Some` for an untrained one, or of another
    /// shape.
    pub fn partial_fit_encoded(
        &mut self,
        training: &mut Option<SoftmaxTraining>,
        examples: &[(SparseView<'_>, u32)],
    ) {
        if examples.is_empty() {
            return;
        }
        if self.model.is_none() {
            assert!(
                training.is_none(),
                "{}: training state without a model",
                self.property
            );
            let n_classes = self.labels.len();
            self.model = Some(SoftmaxClassifier::untrained(n_classes, self.dim));
            *training = Some(SoftmaxTraining::untrained(n_classes, self.dim));
        }
        let training = self.own_training(training.as_mut());
        let model = self.model.as_mut().expect("trained above");
        model.partial_fit(training, examples, self.config);
    }

    /// `training` as this trained classifier's state, or a panic naming
    /// the property when the trainer lost it.
    fn own_training<T>(&self, training: Option<T>) -> T {
        training
            .unwrap_or_else(|| panic!("{}: trained model without training state", self.property))
    }

    /// String-boundary adapter over [`retrain_encoded`]: interns the labels
    /// and borrows the features (no clones).
    ///
    /// [`retrain_encoded`]: Self::retrain_encoded
    pub fn retrain(
        &mut self,
        training: &mut Option<SoftmaxTraining>,
        examples: &[(SparseVector, String)],
    ) {
        let encoded: Vec<(SparseView<'_>, u32)> = examples
            .iter()
            .map(|(x, label)| (x.view(), self.labels.intern(label)))
            .collect();
        self.retrain_encoded(training, &encoded);
    }

    /// Ranked `(label id, probability)` predictions, descending, length ≤
    /// `k` — the allocation-free core of [`top_k`](Self::top_k).
    ///
    /// Untrained: uniform probabilities in label-id order (deterministic).
    pub fn top_k_ids(&self, features: SparseView<'_>, k: usize) -> Vec<(u32, f32)> {
        match &self.model {
            Some(model) => model.top_k_view(features, k),
            None => {
                let n = self.labels.len();
                if n == 0 {
                    return Vec::new();
                }
                let p = 1.0 / n as f32;
                (0..n.min(k) as u32).map(|id| (id, p)).collect()
            }
        }
    }

    /// Most probable label id.
    pub fn predict_id(&self, features: SparseView<'_>) -> Option<u32> {
        self.top_k_ids(features, 1).first().map(|&(id, _)| id)
    }

    /// The label text of an id (`"<unknown>"` when out of range).
    pub fn label_name(&self, id: u32) -> &str {
        self.labels.name(id).unwrap_or("<unknown>")
    }

    /// Ranked `(label, probability)` predictions, descending, length ≤ `k`.
    ///
    /// Boundary adapter over [`top_k_ids`](Self::top_k_ids): the one place
    /// label strings are materialized, for screens shown to checkers.
    pub fn top_k(&self, features: &SparseVector, k: usize) -> Vec<(String, f32)> {
        self.top_k_ids(features.view(), k)
            .into_iter()
            .map(|(id, p)| (self.label_name(id).to_string(), p))
            .collect()
    }

    /// Most probable label (boundary adapter over
    /// [`predict_id`](Self::predict_id)).
    pub fn predict(&self, features: &SparseVector) -> Option<String> {
        self.predict_id(features.view())
            .map(|id| self.label_name(id).to_string())
    }

    /// Entropy of the predictive distribution — the per-model term `e(m, c)`
    /// of Definition 7. Untrained classifiers have maximal entropy
    /// `ln(#labels)`.
    pub fn prediction_entropy(&self, features: &SparseVector) -> f64 {
        self.prediction_entropy_view(features.view())
    }

    /// [`prediction_entropy`](Self::prediction_entropy) over a borrowed view.
    pub fn prediction_entropy_view(&self, features: SparseView<'_>) -> f64 {
        match &self.model {
            Some(model) => entropy(&model.predict_proba_view(features)),
            None => self.uniform_entropy(),
        }
    }

    /// The trained softmax model, if any (fusion sweeps its
    /// feature rows in place; snapshots stream them out).
    pub fn softmax(&self) -> Option<&SoftmaxClassifier> {
        self.model.as_ref()
    }

    /// The trained softmax model, if any, taken out of this classifier
    /// (recycling a retired model's rows; see
    /// [`SoftmaxTraining::recycle`]).
    pub fn into_softmax(self) -> Option<SoftmaxClassifier> {
        self.model
    }

    /// Entropy of the uniform fallback distribution (`ln` of the label
    /// count; the untrained contribution to Definition 7).
    pub(crate) fn uniform_entropy(&self) -> f64 {
        let n = self.labels.len();
        if n == 0 {
            0.0
        } else {
            (n as f64).ln()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn features(idx: u32) -> SparseVector {
        SparseVector::from_pairs(vec![(idx, 1.0)])
    }

    fn trained() -> PropertyClassifier {
        trained_with_state().0
    }

    fn trained_with_state() -> (PropertyClassifier, Option<SoftmaxTraining>) {
        let labels = LabelDict::from_labels(["GED", "TFC", "CO2"]);
        let mut c = PropertyClassifier::new("relation", labels, 8, TrainConfig::default());
        let examples: Vec<(SparseVector, String)> = (0..30)
            .map(|i| {
                let class = i % 3;
                (
                    features(class),
                    ["GED", "TFC", "CO2"][class as usize].to_string(),
                )
            })
            .collect();
        let mut training = None;
        c.retrain(&mut training, &examples);
        (c, training)
    }

    #[test]
    fn untrained_is_uniform_max_entropy() {
        let labels = LabelDict::from_labels(["a", "b", "c", "d"]);
        let c = PropertyClassifier::new("row", labels, 4, TrainConfig::default());
        assert!(!c.is_trained());
        let x = features(0);
        let top = c.top_k(&x, 2);
        assert_eq!(top.len(), 2);
        assert!((top[0].1 - 0.25).abs() < 1e-6);
        assert_eq!(top[0].0, "a");
        assert!((c.prediction_entropy(&x) - (4.0f64).ln()).abs() < 1e-9);
    }

    #[test]
    fn trained_predicts_and_reduces_entropy() {
        let c = trained();
        assert!(c.is_trained());
        assert_eq!(c.predict(&features(0)).unwrap(), "GED");
        assert_eq!(c.predict(&features(1)).unwrap(), "TFC");
        assert!(c.prediction_entropy(&features(0)) < (3.0f64).ln());
        let top = c.top_k(&features(2), 1);
        assert_eq!(top[0].0, "CO2");
        assert!(top[0].1 > 0.5);
    }

    #[test]
    fn id_api_is_the_string_api_without_strings() {
        let c = trained();
        let x = features(1);
        let ids = c.top_k_ids(x.view(), 3);
        let names = c.top_k(&x, 3);
        assert_eq!(ids.len(), names.len());
        for ((id, p_id), (name, p_name)) in ids.iter().zip(&names) {
            assert_eq!(c.label_name(*id), name);
            assert_eq!(p_id, p_name);
        }
        assert_eq!(
            c.predict_id(x.view()).map(|id| c.label_name(id)),
            Some("TFC")
        );
    }

    #[test]
    fn new_labels_interned_on_retrain() {
        let (mut c, mut training) = trained_with_state();
        let examples = vec![(features(3), "NEW_REL".to_string()); 10];
        c.retrain(&mut training, &examples);
        assert!(c.labels().get("NEW_REL").is_some());
        assert_eq!(c.predict(&features(3)).unwrap(), "NEW_REL");
    }

    #[test]
    fn partial_fit_handles_label_growth_mid_stream() {
        let (mut c, mut training) = trained_with_state();
        let before = c.prediction_entropy(&features(0));
        // a new label arrives: intern it, then warm-start on the new batch
        // (a realistic verified batch mixes the new label with known ones)
        let novel = features(5);
        let known: Vec<SparseVector> = (0..3).map(features).collect();
        let id = c.intern_label("NEW_REL");
        let mut batch: Vec<(scrutinizer_text::SparseView<'_>, u32)> = Vec::new();
        for _ in 0..6 {
            batch.push((novel.view(), id));
            for (class, x) in known.iter().enumerate() {
                batch.push((x.view(), class as u32));
            }
        }
        c.partial_fit_encoded(&mut training, &batch);
        assert_eq!(
            c.n_classes(),
            training.as_ref().map(SoftmaxTraining::n_classes)
        );
        assert_eq!(c.predict(&novel).unwrap(), "NEW_REL");
        // old knowledge survives the warm start and the class growth
        assert_eq!(c.predict(&features(0)).unwrap(), "GED");
        assert!(c.prediction_entropy(&features(0)) <= before + 0.2);
    }

    #[test]
    fn partial_fit_bootstraps_an_untrained_classifier() {
        let labels = LabelDict::from_labels(["x", "y"]);
        let mut c = PropertyClassifier::new("row", labels, 4, TrainConfig::default());
        let (a, b) = (features(0), features(1));
        let batch = vec![(a.view(), 0u32), (b.view(), 1u32)];
        let batch: Vec<_> = batch.into_iter().cycle().take(20).collect();
        let mut training = None;
        c.partial_fit_encoded(&mut training, &batch);
        assert!(c.is_trained() && training.is_some());
        assert_eq!(c.predict(&a).unwrap(), "x");
        assert_eq!(c.predict(&b).unwrap(), "y");
    }

    #[test]
    fn classifier_state_round_trips_labels_and_model() {
        let (original, training) = trained_with_state();
        let state = original.export_state(training.as_ref());
        let labels = LabelDict::from_labels(["GED", "TFC", "CO2"]);
        let mut restored = PropertyClassifier::new("relation", labels, 8, TrainConfig::default());
        let restored_training = restored.restore_state(state.clone()).unwrap();
        assert!(restored.is_trained());
        assert!(restored.export_state(restored_training.as_ref()) == state);
        for idx in 0..3 {
            let x = features(idx);
            assert_eq!(original.top_k(&x, 3), restored.top_k(&x, 3));
        }
        // grown label spaces survive the round trip
        let (mut grown, training) = trained_with_state();
        grown.intern_label("LATE_ARRIVAL");
        let mut restored =
            PropertyClassifier::new("relation", LabelDict::new(), 8, TrainConfig::default());
        restored
            .restore_state(grown.export_state(training.as_ref()))
            .unwrap();
        assert_eq!(restored.labels().names(), grown.labels().names());
    }

    #[test]
    fn restore_state_rejects_dim_mismatch() {
        let (original, training) = trained_with_state();
        let mut other =
            PropertyClassifier::new("relation", LabelDict::new(), 16, TrainConfig::default());
        assert!(other
            .restore_state(original.export_state(training.as_ref()))
            .is_err());
    }

    #[test]
    #[should_panic(expected = "relation: trained model without training state")]
    fn partial_fit_refuses_a_trained_model_without_its_training_state() {
        let mut c = trained();
        let x = features(0);
        c.partial_fit_encoded(&mut None, &[(x.view(), 0)]);
    }

    #[test]
    fn empty_retrain_resets() {
        let (mut c, mut training) = trained_with_state();
        c.retrain(&mut training, &[]);
        assert!(!c.is_trained() && training.is_none());
    }

    #[test]
    fn unknown_label_probability_zero() {
        // the whole probability mass sits on interned labels
        let c = trained();
        assert!(c.labels().get("NOPE").is_none());
        let ranked = c.top_k(&features(0), c.labels().len() + 1);
        assert_eq!(ranked.len(), c.labels().len());
        let mass: f32 = ranked.iter().map(|(_, p)| p).sum();
        assert!((mass - 1.0).abs() < 1e-5, "{mass}");
    }
}
