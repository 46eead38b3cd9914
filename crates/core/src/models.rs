//! The four property classifiers behind claim-to-query translation (§3.1).

use crate::config::SystemConfig;
use crate::feature_store::FeatureStore;
use scrutinizer_corpus::{ClaimRecord, Corpus};
use scrutinizer_learn::{
    training_utility, ClassifierState, FusedEntropy, LabelDict, PropertyClassifier, RowCopies,
    SoftmaxTraining,
};
use scrutinizer_text::{ClaimFeaturizer, FeatureMatrix, SparseVector, SparseView};

/// The thread budget of a from-scratch retrain that has the machine to
/// itself (a cold start, a simulation): the available parallelism, or 1
/// when it cannot be queried.
pub fn available_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The four query properties the classifiers predict.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PropertyKind {
    /// Which relation(s) hold the data.
    Relation,
    /// Which primary-key value (row).
    Key,
    /// Which attribute labels (columns).
    Attribute,
    /// Which check formula.
    Formula,
}

impl PropertyKind {
    /// All four, in the paper's order.
    pub const ALL: [PropertyKind; 4] = [
        PropertyKind::Relation,
        PropertyKind::Key,
        PropertyKind::Attribute,
        PropertyKind::Formula,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            PropertyKind::Relation => "relation",
            PropertyKind::Key => "row",
            PropertyKind::Attribute => "attribute",
            PropertyKind::Formula => "formula",
        }
    }
}

/// Ranked candidates for every property of one claim.
#[derive(Debug, Clone)]
pub struct Translation {
    /// `(label, probability)` per property, probability-descending.
    pub candidates: [Vec<(String, f32)>; 4],
}

impl Translation {
    /// Candidates of one property.
    pub fn of(&self, kind: PropertyKind) -> &[(String, f32)] {
        &self.candidates[kind as usize]
    }
}

/// The serializable learned state of [`SystemModels`] and their
/// [`TrainingState`] in one value: what a durable model snapshot carries.
/// The [`ClaimFeaturizer`] is deterministically derived and rebuilt on
/// restore.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelsState {
    /// Per-property learned state, in [`PropertyKind`] order.
    pub classifiers: [ClassifierState; 4],
    /// The rehearsal log of claim ids.
    pub replay: Vec<usize>,
    /// Round-robin cursor into `replay`.
    pub replay_cursor: usize,
}

/// The trained models: shared featurizer + four classifiers — the read
/// side of the learned state, everything translation, the utility pass
/// and top-k read. The trainer's half lives in a [`TrainingState`].
#[derive(Debug, Clone)]
pub struct SystemModels {
    /// The fitted featurizer — immutable after bootstrap (the
    /// [`FeatureStore`] depends on that), so snapshot copies share it via
    /// `Arc` instead of deep-copying the embedding table and TF-IDF
    /// vocabularies on every retrain epoch.
    featurizer: std::sync::Arc<ClaimFeaturizer>,
    classifiers: [PropertyClassifier; 4],
}

/// The trainer's half of the learned state: per classifier, the AdaGrad
/// accumulators and fit count ([`SoftmaxTraining`], `Some` exactly when
/// that classifier of the paired [`SystemModels`] is trained), and the
/// rehearsal log with its cursor. Only [`SystemModels::retrain`] and
/// [`SystemModels::retrain_incremental`] read or advance it; nothing on
/// the read path does. The default is the training state of freshly
/// bootstrapped models.
#[derive(Debug, Clone, Default)]
pub struct TrainingState {
    classifiers: [Option<SoftmaxTraining>; 4],
    /// Claim ids folded in by past incremental retrains — the rehearsal
    /// log. Each warm-start batch mixes in a round-robin sample of these
    /// so a skewed new batch cannot drag the classifiers off everything
    /// they already learned (catastrophic-drift guard; work stays O(batch)
    /// instead of the from-scratch O(history)).
    replay: Vec<usize>,
    /// Round-robin cursor into `replay`.
    replay_cursor: usize,
}

impl TrainingState {
    /// A training state from its parts: per classifier in
    /// [`PropertyKind`] order, and the rehearsal log with its cursor
    /// (reduced modulo the log's length).
    pub fn new(
        classifiers: [Option<SoftmaxTraining>; 4],
        replay: Vec<usize>,
        replay_cursor: usize,
    ) -> Self {
        let replay_cursor = if replay.is_empty() {
            0
        } else {
            replay_cursor % replay.len()
        };
        TrainingState {
            classifiers,
            replay,
            replay_cursor,
        }
    }

    /// The training state of one classifier (`None` while it is
    /// untrained).
    pub fn classifier(&self, kind: PropertyKind) -> Option<&SoftmaxTraining> {
        self.classifiers[kind as usize].as_ref()
    }

    /// The rehearsal log: claim ids folded in by past retrains, each
    /// incremental batch appended last.
    pub fn replay_log(&self) -> &[usize] {
        &self.replay
    }

    /// Round-robin cursor into [`replay_log`](Self::replay_log).
    pub fn replay_cursor(&self) -> usize {
        self.replay_cursor
    }

    /// Keeps the weight rows of `retired` that no other model shares as
    /// spare rows for the next retrain's copies (see
    /// [`SoftmaxTraining::recycle`]). `retired` must be owned outright: a
    /// published generation that no reader can reach any more.
    pub fn recycle(&mut self, retired: SystemModels) {
        for (training, classifier) in self.classifiers.iter_mut().zip(retired.classifiers) {
            if let (Some(training), Some(model)) = (training, classifier.into_softmax()) {
                training.recycle(model);
            }
        }
    }

    /// The weight rows the retrains copied since the last call, summed
    /// over the classifiers (see [`SoftmaxTraining::take_row_copies`]).
    pub fn take_row_copies(&mut self) -> RowCopies {
        let mut total = RowCopies::default();
        for training in self.classifiers.iter_mut().flatten() {
            let copies = training.take_row_copies();
            total.copied += copies.copied;
            total.recycled += copies.recycled;
        }
        total
    }
}

impl SystemModels {
    /// Builds models for a corpus: fits the featurizer (unsupervised — works
    /// from the raw text, so cold start is fine) and initializes untrained
    /// classifiers over the corpus label spaces.
    pub fn bootstrap(corpus: &Corpus, config: &SystemConfig) -> Self {
        let pairs: Vec<(String, String)> = corpus
            .claims
            .iter()
            .map(|c| (c.claim_text.clone(), c.sentence_text.clone()))
            .collect();
        let featurizer = ClaimFeaturizer::fit(&pairs, config.featurizer);
        let dim = featurizer.dimension();

        let relation_labels =
            LabelDict::from_labels(corpus.catalog.table_names().map(str::to_string));
        let key_labels = LabelDict::from_labels(corpus.catalog.all_keys());
        let attribute_labels = LabelDict::from_labels(corpus.catalog.all_attributes());
        let formula_labels = LabelDict::from_labels(corpus.formulas.iter().map(|f| f.text.clone()));

        let classifiers = [
            PropertyClassifier::new("relation", relation_labels, dim, config.training),
            PropertyClassifier::new("row", key_labels, dim, config.training),
            PropertyClassifier::new("attribute", attribute_labels, dim, config.training),
            PropertyClassifier::new("formula", formula_labels, dim, config.training),
        ];
        SystemModels {
            featurizer: std::sync::Arc::new(featurizer),
            classifiers,
        }
    }

    /// The fitted featurizer (shared by the [`FeatureStore`]).
    pub fn featurizer(&self) -> &ClaimFeaturizer {
        &self.featurizer
    }

    /// A whole copy of the learned state joined with its `training`
    /// state: the four classifiers with their AdaGrad state plus the
    /// rehearsal log — what a model snapshot carries, though snapshots
    /// stream both halves rather than copy them. The featurizer is *not*
    /// included — it is fitted deterministically from the corpus at
    /// bootstrap, so a restored process rebuilds it and layers the
    /// learned state on top.
    ///
    /// # Panics
    /// Panics if `training` is not these models' training state.
    pub fn export_state(&self, training: &TrainingState) -> ModelsState {
        let [c0, c1, c2, c3] = &self.classifiers;
        let [t0, t1, t2, t3] = &training.classifiers;
        ModelsState {
            classifiers: [
                c0.export_state(t0.as_ref()),
                c1.export_state(t1.as_ref()),
                c2.export_state(t2.as_ref()),
                c3.export_state(t3.as_ref()),
            ],
            replay: training.replay.clone(),
            replay_cursor: training.replay_cursor,
        }
    }

    /// Restores learned state exported by [`export_state`] onto
    /// bootstrapped models (same corpus, same featurizer config),
    /// returning its training state. Fails — leaving `self` untouched —
    /// if the snapshot's shapes do not fit this featurizer.
    ///
    /// [`export_state`]: Self::export_state
    pub fn restore_state(&mut self, state: ModelsState) -> Result<TrainingState, String> {
        let [relation, key, attribute, formula] = state.classifiers;
        let [c0, c1, c2, c3] = &self.classifiers;
        let [(c0, t0), (c1, t1), (c2, t2), (c3, t3)] = [
            c0.with_state(relation)?,
            c1.with_state(key)?,
            c2.with_state(attribute)?,
            c3.with_state(formula)?,
        ];
        *self = self.with_learned([c0, c1, c2, c3]);
        Ok(TrainingState::new(
            [t0, t1, t2, t3],
            state.replay,
            state.replay_cursor,
        ))
    }

    /// Models sharing this one's featurizer that carry the given
    /// classifiers (in [`PropertyKind`] order, built on this set's
    /// classifiers with [`PropertyClassifier::with_learned`]) instead of
    /// this one's. No weight of `self` is copied, so a snapshot decodes
    /// onto a scaffold without cloning it.
    pub fn with_learned(&self, classifiers: [PropertyClassifier; 4]) -> Self {
        SystemModels {
            featurizer: std::sync::Arc::clone(&self.featurizer),
            classifiers,
        }
    }

    /// Features of a claim (one-shot path; bulk consumers go through a
    /// [`FeatureStore`] so each claim is featurized exactly once).
    pub fn features(&self, claim: &ClaimRecord) -> SparseVector {
        self.featurizer
            .features(&claim.claim_text, &claim.sentence_text)
    }

    /// Classifier of a property.
    pub fn classifier(&self, kind: PropertyKind) -> &PropertyClassifier {
        &self.classifiers[kind as usize]
    }

    /// The four classifiers viewed together for the fused kernels.
    fn fused(&self) -> FusedEntropy<'_> {
        FusedEntropy::fuse(&self.classifiers.each_ref())
    }

    /// Translates a claim: top-k candidates per property (§3.1).
    pub fn translate(&self, features: &SparseVector, k: usize) -> Translation {
        self.translate_view(features.view(), k).0
    }

    /// [`translate`](Self::translate) over borrowed features (a
    /// [`FeatureStore`] row), with the claim's training utility;
    /// label strings materialize only here, at the screen boundary.
    ///
    /// The trained classifiers are ranked through
    /// [`FusedEntropy::top_k_ids_each`], one sweep of each classifier's
    /// feature-major rows, bit-identical to each classifier's own
    /// [`top_k_ids`](PropertyClassifier::top_k_ids); untrained ones keep
    /// their uniform answer in label-id order. The same sweep scores the
    /// utility, bit-identical to
    /// [`training_utilities`](Self::training_utilities) on this row.
    pub fn translate_view(&self, features: SparseView<'_>, k: usize) -> (Translation, f64) {
        let named = |c: &PropertyClassifier, ranked: &[(u32, f32)]| -> Vec<(String, f32)> {
            ranked
                .iter()
                .map(|&(id, p)| (c.label_name(id).to_string(), p))
                .collect()
        };
        let mut candidates: [Vec<(String, f32)>; 4] = Default::default();
        let utility = self.fused().top_k_ids_each(features, k, |model, ranked| {
            candidates[model] = named(&self.classifiers[model], ranked);
        });
        for (slot, c) in candidates.iter_mut().zip(&self.classifiers) {
            if !c.is_trained() {
                *slot = named(c, &c.top_k_ids(features, k));
            }
        }
        (Translation { candidates }, utility)
    }

    /// Training utility `u(c)` of Definition 7 (summed prediction entropy).
    ///
    /// One claim at a time; planning over many open claims goes through
    /// [`training_utilities`](Self::training_utilities), which scores a
    /// whole CSR batch per classifier (the `translate` bench measures the
    /// gap).
    pub fn training_utility(&self, features: &SparseVector) -> f64 {
        let refs: Vec<&PropertyClassifier> = self.classifiers.iter().collect();
        training_utility(&refs, features)
    }

    /// Batched Definition 7: the training utility of every row of a CSR
    /// feature batch (see [`FeatureStore::gather`]), through
    /// [`FusedEntropy::utilities_into`]: per row and trained classifier,
    /// every stored feature is one contiguous multiply-add sweep of that
    /// classifier's classes, with a single reused scratch row and no
    /// per-claim allocation. A claim being translated gets the same
    /// value from [`translate_view`](Self::translate_view) instead.
    pub fn training_utilities(&self, rows: &FeatureMatrix) -> Vec<f64> {
        let mut out = Vec::new();
        self.fused().utilities_into(rows, &mut out);
        out
    }

    /// [`training_utilities`](Self::training_utilities) through the
    /// scalar reference kernel
    /// ([`FusedEntropy::utilities_into_reference`]): the parity oracle
    /// and the baseline the `translate` bench holds the vectorized fused
    /// sweep to (≥ 1.1× on the aligned CSR layout).
    pub fn training_utilities_reference(&self, rows: &FeatureMatrix) -> Vec<f64> {
        let mut out = Vec::new();
        self.fused().utilities_into_reference(rows, &mut out);
        out
    }

    /// Retrains all four classifiers from verified claims — `Retrain(N, A)`
    /// of Algorithm 1. Each claim contributes one example per property value
    /// (a claim with two attributes yields two attribute examples). Claims
    /// are featurized once into a CSR batch; every example borrows its row.
    /// Callers holding a [`FeatureStore`] skip the featurization through
    /// [`retrain_from_store`](Self::retrain_from_store).
    ///
    /// The four fits share nothing they write, so they run concurrently on
    /// up to `threads` threads, the calling one included (largest fit
    /// first; `threads <= 1` fits inline and spawns nothing). The result is
    /// bit-identical for every budget. The background trainer never comes
    /// through here: its warm-start epochs stay on one thread, where a
    /// second fitting thread would take a core from the checkers it serves.
    ///
    /// `training` is replaced by the fresh models' training state, and
    /// its rehearsal log resets to exactly these claims: everything the
    /// fresh models know came from this call, so a later
    /// [`retrain_incremental`](Self::retrain_incremental) batch rehearses
    /// against it from the first increment (a pretrain followed by a
    /// skewed verdict batch is precisely the drift case the log guards).
    pub fn retrain(
        &mut self,
        training: &mut TrainingState,
        verified: &[&ClaimRecord],
        threads: usize,
    ) {
        if verified.is_empty() {
            return;
        }
        let rows = self.featurizer.features_batch(
            verified
                .iter()
                .map(|c| (c.claim_text.as_str(), c.sentence_text.as_str())),
        );
        self.fit_rows(training, &rows, verified, false, threads);
        training.replay = verified.iter().map(|c| c.id).collect();
        training.replay_cursor = 0;
    }

    /// [`retrain`](Self::retrain) on the claims `ids` (indexing both
    /// `claims` and the store), with their rows gathered from `store`
    /// instead of featurized again — bit-identical to `retrain` on the
    /// same claims.
    pub fn retrain_from_store(
        &mut self,
        training: &mut TrainingState,
        store: &FeatureStore,
        claims: &[ClaimRecord],
        ids: &[usize],
        threads: usize,
    ) {
        if ids.is_empty() {
            return;
        }
        let rows = store.gather(ids);
        let records: Vec<&ClaimRecord> = ids.iter().map(|&id| &claims[id]).collect();
        self.fit_rows(training, &rows, &records, false, threads);
        training.replay = ids.to_vec();
        training.replay_cursor = 0;
    }

    /// Warm-start incremental retrain on the *newly* verified claims only
    /// (`new_ids` index both `claims` and the store, so nothing is
    /// re-featurized). Each classifier resumes from its current weights and
    /// its AdaGrad state in `training` via `partial_fit`, with a bounded
    /// rehearsal sample of previously trained claims mixed in; labels
    /// unseen at bootstrap are interned and grow the models in place.
    /// `new_ids` are appended last to the rehearsal log. The `translate`
    /// bench pins this path at ≥ 3× the from-scratch `retrain` at matching
    /// accuracy.
    ///
    /// # Panics
    /// Panics if `training` is not these models' training state.
    pub fn retrain_incremental(
        &mut self,
        training: &mut TrainingState,
        store: &FeatureStore,
        claims: &[ClaimRecord],
        new_ids: &[usize],
    ) {
        if new_ids.is_empty() {
            return;
        }
        // rehearsal: mix in up to one previously trained claim per new one,
        // round-robin over the replay log, so a skewed batch (one section,
        // one relation) cannot erase older knowledge — the differential
        // tests pin warm-vs-cold accuracy on adversarial streams. Work per
        // call stays O(batch), never O(history).
        let mut batch: Vec<usize> = new_ids.to_vec();
        let replay_count = training.replay.len().min(new_ids.len());
        for _ in 0..replay_count {
            training.replay_cursor = (training.replay_cursor + 1) % training.replay.len();
            batch.push(training.replay[training.replay_cursor]);
        }
        let rows = store.gather(&batch);
        let records: Vec<&ClaimRecord> = batch.iter().map(|&id| &claims[id]).collect();
        self.fit_rows(training, &rows, &records, true, 1);
        training.replay.extend_from_slice(new_ids);
    }

    /// Shared example assembly for both retrain flavors: row `r` of `rows`
    /// must hold the features of `verified[r]`. `incremental` selects
    /// `partial_fit` (resume) over `train` (from scratch). The example
    /// lists are built one classifier after another (interning a label
    /// mutates its classifier); the fits then run on up to `threads`
    /// workers, see [`run_fits`].
    fn fit_rows(
        &mut self,
        training: &mut TrainingState,
        rows: &FeatureMatrix,
        verified: &[&ClaimRecord],
        incremental: bool,
        threads: usize,
    ) {
        debug_assert_eq!(rows.rows(), verified.len());
        let fits: Vec<Fit<'_, '_>> = PropertyKind::ALL
            .into_iter()
            .zip(self.classifiers.iter_mut().zip(&mut training.classifiers))
            .map(|(kind, (classifier, training))| {
                let mut examples = Vec::with_capacity(verified.len());
                for (r, claim) in verified.iter().enumerate() {
                    for label in ground_truth(kind, claim) {
                        examples.push((rows.row(r), classifier.intern_label(label)));
                    }
                }
                Fit {
                    classifier,
                    training,
                    examples,
                }
            })
            .collect();
        run_fits(fits, incremental, threads);
    }

    /// Top-1 accuracy of each classifier on a claim set (used for the
    /// accuracy traces of Figures 8–9). A prediction counts as correct when
    /// it matches the ground-truth value (any ground-truth attribute, for
    /// the attribute classifier). Claims are featurized once into a batch;
    /// predictions compare interned ids, not strings.
    pub fn accuracy_on(&self, claims: &[&ClaimRecord]) -> [f64; 4] {
        if claims.is_empty() {
            return [0.0; 4];
        }
        let rows = self.featurizer.features_batch(
            claims
                .iter()
                .map(|c| (c.claim_text.as_str(), c.sentence_text.as_str())),
        );
        self.accuracy_on_rows(&rows, claims)
    }

    /// [`accuracy_on`](Self::accuracy_on) over pre-featurized rows (row `r`
    /// holds the features of `claims[r]`; pair with
    /// [`FeatureStore::gather`]).
    pub fn accuracy_on_rows(&self, rows: &FeatureMatrix, claims: &[&ClaimRecord]) -> [f64; 4] {
        if claims.is_empty() {
            return [0.0; 4];
        }
        debug_assert_eq!(rows.rows(), claims.len());
        let mut hits = [0usize; 4];
        for (r, claim) in claims.iter().enumerate() {
            let features = rows.row(r);
            for (hits, (kind, classifier)) in hits
                .iter_mut()
                .zip(PropertyKind::ALL.into_iter().zip(&self.classifiers))
            {
                let Some(predicted) = classifier.predict_id(features) else {
                    continue;
                };
                if ground_truth(kind, claim)
                    .iter()
                    .any(|truth| classifier.labels().get(truth) == Some(predicted))
                {
                    *hits += 1;
                }
            }
        }
        let n = claims.len() as f64;
        hits.map(|hits| hits as f64 / n)
    }
}

/// The ground-truth labels of one property of a claim: exactly one, except
/// for attributes.
fn ground_truth(kind: PropertyKind, claim: &ClaimRecord) -> &[String] {
    match kind {
        PropertyKind::Relation => std::slice::from_ref(&claim.relation),
        PropertyKind::Key => std::slice::from_ref(&claim.key),
        PropertyKind::Attribute => &claim.attributes,
        PropertyKind::Formula => std::slice::from_ref(&claim.formula_text),
    }
}

/// One classifier's fit: the classifier, its training state and its
/// examples, which borrow rows of the shared CSR batch.
struct Fit<'m, 'r> {
    classifier: &'m mut PropertyClassifier,
    training: &'m mut Option<SoftmaxTraining>,
    examples: Vec<(SparseView<'r>, u32)>,
}

impl Fit<'_, '_> {
    /// The fit's cost, about `examples × classes`: each example scores
    /// and updates every class.
    fn cost(&self) -> usize {
        self.examples.len() * self.classifier.labels().len()
    }

    fn run(self, incremental: bool) {
        if incremental {
            self.classifier
                .partial_fit_encoded(self.training, &self.examples);
        } else {
            self.classifier
                .retrain_encoded(self.training, &self.examples);
        }
    }
}

/// Runs the fits on up to `threads` workers, the calling thread among
/// them, each pulling the largest remaining fit from one shared queue.
/// A fit reads only the shared rows and writes only its own classifier
/// and training state, so the models come out bit-identical to running
/// the fits one after another — which is what a budget of one does,
/// without spawning a thread.
fn run_fits(mut fits: Vec<Fit<'_, '_>>, incremental: bool, threads: usize) {
    let workers = threads.clamp(1, fits.len());
    if workers == 1 {
        for fit in fits {
            fit.run(incremental);
        }
        return;
    }
    fits.sort_by_key(|fit| std::cmp::Reverse(fit.cost()));
    let queue = std::sync::Mutex::new(fits.into_iter());
    let work = || loop {
        // its own statement, so the guard drops before the fit runs (a
        // `while let` would hold the queue locked through the fit)
        let next = queue.lock().expect("fit queue poisoned").next();
        match next {
            Some(fit) => fit.run(incremental),
            None => break,
        }
    };
    std::thread::scope(|scope| {
        for _ in 1..workers {
            scope.spawn(work);
        }
        work();
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::feature_store::FeatureStore;
    use scrutinizer_corpus::CorpusConfig;

    fn setup() -> (Corpus, SystemModels, SystemConfig) {
        let corpus = Corpus::generate(CorpusConfig::small());
        let config = SystemConfig::test();
        let models = SystemModels::bootstrap(&corpus, &config);
        (corpus, models, config)
    }

    #[test]
    fn bootstrap_is_untrained_max_entropy() {
        let (corpus, models, _) = setup();
        let features = models.features(&corpus.claims[0]);
        let utility = models.training_utility(&features);
        // sum of ln(label-space sizes)
        let expected: f64 = [
            corpus.catalog.len() as f64,
            corpus.catalog.all_keys().len() as f64,
            corpus.catalog.all_attributes().len() as f64,
            corpus.formulas.len() as f64,
        ]
        .iter()
        .map(|n| n.ln())
        .sum();
        assert!((utility - expected).abs() < 1e-6, "{utility} vs {expected}");
    }

    #[test]
    fn retraining_improves_accuracy_and_reduces_entropy() {
        let (corpus, mut models, _) = setup();
        let refs: Vec<&ClaimRecord> = corpus.claims.iter().collect();
        let before = models.accuracy_on(&refs);
        let u_before = models.training_utility(&models.features(&corpus.claims[0]));
        models.retrain(&mut TrainingState::default(), &refs, 1);
        let after = models.accuracy_on(&refs);
        let u_after = models.training_utility(&models.features(&corpus.claims[0]));
        // training accuracy must beat the untrained baseline for every model
        for (kind, (b, a)) in PropertyKind::ALL
            .iter()
            .zip(before.iter().zip(after.iter()))
        {
            assert!(a >= b, "{}: {b} → {a}", kind.name());
        }
        assert!(after.iter().sum::<f64>() > before.iter().sum::<f64>() + 0.5);
        assert!(u_after < u_before, "entropy must drop after training");
    }

    /// Asserts two exported states are equal bit for bit: labels, every
    /// weight, bias and accumulator, fit counts and the rehearsal log.
    fn assert_bit_identical(got: &ModelsState, expected: &ModelsState, what: &str) {
        assert_eq!(got.replay, expected.replay, "{what}: rehearsal log");
        assert_eq!(got.replay_cursor, expected.replay_cursor, "{what}: cursor");
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
        for (kind, (g, e)) in PropertyKind::ALL
            .iter()
            .zip(got.classifiers.iter().zip(&expected.classifiers))
        {
            let name = kind.name();
            assert_eq!(g.labels, e.labels, "{what}: {name} labels");
            let g = g.model.as_ref().expect("trained");
            let e = e.model.as_ref().expect("trained");
            assert_eq!(
                (g.dim, g.n_classes, g.fits),
                (e.dim, e.n_classes, e.fits),
                "{what}: {name} shape"
            );
            for (field, g, e) in [
                ("weights", &g.weights, &e.weights),
                ("biases", &g.biases, &e.biases),
                ("grad_sq_w", &g.grad_sq_w, &e.grad_sq_w),
                ("grad_sq_b", &g.grad_sq_b, &e.grad_sq_b),
            ] {
                assert!(bits(g) == bits(e), "{what}: {name} {field} differ");
            }
        }
    }

    #[test]
    fn concurrent_fit_matches_the_serial_loop_bit_for_bit() {
        let (corpus, models, _) = setup();
        let store = FeatureStore::build(&corpus, &models);
        let refs: Vec<&ClaimRecord> = corpus.claims.iter().collect();
        let ids: Vec<usize> = (0..corpus.claims.len()).collect();

        // the reference: the four from-scratch fits one after another, in
        // PropertyKind order, on one thread
        let mut serial = models.clone();
        let mut serial_training = TrainingState::default();
        let rows = serial.featurizer.features_batch(
            refs.iter()
                .map(|c| (c.claim_text.as_str(), c.sentence_text.as_str())),
        );
        let [relation, key, attribute, formula] = &mut serial.classifiers;
        let [relation_training, key_training, attribute_training, formula_training] =
            &mut serial_training.classifiers;
        let relation_examples: Vec<(SparseView<'_>, u32)> = refs
            .iter()
            .enumerate()
            .map(|(r, c)| (rows.row(r), relation.intern_label(&c.relation)))
            .collect();
        relation.retrain_encoded(relation_training, &relation_examples);
        let key_examples: Vec<(SparseView<'_>, u32)> = refs
            .iter()
            .enumerate()
            .map(|(r, c)| (rows.row(r), key.intern_label(&c.key)))
            .collect();
        key.retrain_encoded(key_training, &key_examples);
        let mut attribute_examples: Vec<(SparseView<'_>, u32)> = Vec::new();
        for (r, c) in refs.iter().enumerate() {
            for attr in &c.attributes {
                attribute_examples.push((rows.row(r), attribute.intern_label(attr)));
            }
        }
        attribute.retrain_encoded(attribute_training, &attribute_examples);
        let formula_examples: Vec<(SparseView<'_>, u32)> = refs
            .iter()
            .enumerate()
            .map(|(r, c)| (rows.row(r), formula.intern_label(&c.formula_text)))
            .collect();
        formula.retrain_encoded(formula_training, &formula_examples);
        serial_training.replay = refs.iter().map(|c| c.id).collect();
        let expected = serial.export_state(&serial_training);
        assert!(
            expected.classifiers.iter().all(|c| c.model.is_some()),
            "the corpus must train all four classifiers"
        );

        for threads in [1, 2, 3, 4, 8] {
            let mut featurized = models.clone();
            let mut training = TrainingState::default();
            featurized.retrain(&mut training, &refs, threads);
            let what = format!("retrain, {threads} threads");
            assert_bit_identical(&featurized.export_state(&training), &expected, &what);

            let mut stored = models.clone();
            let mut training = TrainingState::default();
            stored.retrain_from_store(&mut training, &store, &corpus.claims, &ids, threads);
            let what = format!("retrain_from_store, {threads} threads");
            assert_bit_identical(&stored.export_state(&training), &expected, &what);
        }
    }

    #[test]
    fn batch_utilities_match_the_per_claim_loop() {
        let (corpus, mut models, _) = setup();
        let refs: Vec<&ClaimRecord> = corpus.claims.iter().collect();
        models.retrain(&mut TrainingState::default(), &refs, 1);
        let store = crate::feature_store::FeatureStore::build(&corpus, &models);
        let ids: Vec<usize> = (0..corpus.claims.len().min(12)).collect();
        let batch = models.training_utilities(&store.gather(&ids));
        for (&id, batched) in ids.iter().zip(&batch) {
            let scalar = models.training_utility(&models.features(&corpus.claims[id]));
            assert!(
                (scalar - batched).abs() < 1e-4,
                "claim {id}: scalar {scalar} vs batched {batched}"
            );
        }
    }

    #[test]
    fn incremental_retrain_tracks_from_scratch_accuracy() {
        let (corpus, models, _) = setup();
        let store = crate::feature_store::FeatureStore::build(&corpus, &models);
        let refs: Vec<&ClaimRecord> = corpus.claims.iter().collect();

        let mut cold = models.clone();
        cold.retrain(&mut TrainingState::default(), &refs, 1);

        let mut warm = models;
        let mut training = TrainingState::default();
        let ids: Vec<usize> = (0..corpus.claims.len()).collect();
        for chunk in ids.chunks(10) {
            warm.retrain_incremental(&mut training, &store, &corpus.claims, chunk);
        }

        let cold_acc = cold.accuracy_on(&refs);
        let warm_acc = warm.accuracy_on(&refs);
        let cold_total: f64 = cold_acc.iter().sum();
        let warm_total: f64 = warm_acc.iter().sum();
        assert!(
            warm_total >= cold_total - 0.25,
            "warm accuracy {warm_acc:?} fell too far below cold {cold_acc:?}"
        );
        // and both clearly beat the untrained baseline
        assert!(warm_total > 1.5, "warm models barely learned: {warm_acc:?}");
    }

    #[test]
    fn from_scratch_retrain_seeds_the_rehearsal_log() {
        // the standard engine lifecycle: pretrain from scratch, then a
        // *skewed* incremental batch (many copies of one claim) — the
        // rehearsal sample seeded by the pretrain must keep the models
        // from drifting off everything else they learned
        let (corpus, mut models, _) = setup();
        let store = crate::feature_store::FeatureStore::build(&corpus, &models);
        let refs: Vec<&ClaimRecord> = corpus.claims.iter().collect();
        let mut training = TrainingState::default();
        models.retrain(&mut training, &refs, 1);
        let before: f64 = models.accuracy_on(&refs).iter().sum();

        let skewed = vec![0usize; 12];
        models.retrain_incremental(&mut training, &store, &corpus.claims, &skewed);
        let after: f64 = models.accuracy_on(&refs).iter().sum();
        assert!(
            after >= before - 0.35,
            "skewed batch right after pretrain dragged accuracy {before} → {after}"
        );
    }

    /// Asserts the fused translation equals each classifier's own
    /// row-major ranking bit for bit, on every claim and at several `k`.
    fn assert_translation_parity(models: &SystemModels, store: &FeatureStore, claims: usize) {
        for id in 0..claims {
            let features = store.features(id);
            for k in [0, 1, 5, 10_000] {
                let (fused, _) = models.translate_view(features, k);
                for (kind, got) in PropertyKind::ALL.iter().zip(&fused.candidates) {
                    let c = models.classifier(*kind);
                    let expected: Vec<(&str, u32)> = c
                        .top_k_ids(features, k)
                        .into_iter()
                        .map(|(id, p)| (c.label_name(id), p.to_bits()))
                        .collect();
                    let got: Vec<(&str, u32)> =
                        got.iter().map(|(l, p)| (l.as_str(), p.to_bits())).collect();
                    assert_eq!(got, expected, "claim {id}, k {k}, {}", kind.name());
                }
            }
        }
    }

    #[test]
    fn fused_translation_tracks_retrain_incremental_and_restore() {
        let (corpus, mut models, _) = setup();
        let store = FeatureStore::build(&corpus, &models);
        let n = corpus.claims.len();
        // untrained: every classifier answers uniformly
        assert_translation_parity(&models, &store, 4);

        let refs: Vec<&ClaimRecord> = corpus.claims[..n / 2].iter().collect();
        let mut training = TrainingState::default();
        models.retrain(&mut training, &refs, 1);
        assert_translation_parity(&models, &store, n);

        // unseen labels grow the classes mid-stream
        let mut claims = corpus.claims.clone();
        claims[n - 1].relation = "UnseenRelation".to_string();
        claims[n - 1].key = "UnseenKey".to_string();
        let new_ids: Vec<usize> = (n / 2..n).collect();
        let before = models.classifier(PropertyKind::Relation).n_classes();
        models.retrain_incremental(&mut training, &store, &claims, &new_ids);
        assert!(models.classifier(PropertyKind::Relation).n_classes() > before);
        assert_translation_parity(&models, &store, n);

        let state = models.export_state(&training);
        let mut restored = SystemModels::bootstrap(&corpus, &SystemConfig::test());
        let restored_training = restored.restore_state(state.clone()).unwrap();
        assert_translation_parity(&restored, &store, n);
        assert!(restored.export_state(&restored_training) == state);
    }

    #[test]
    fn translate_view_is_translate() {
        let (corpus, mut models, _) = setup();
        let refs: Vec<&ClaimRecord> = corpus.claims.iter().collect();
        models.retrain(&mut TrainingState::default(), &refs, 1);
        let features = models.features(&corpus.claims[0]);
        let a = models.translate(&features, 5);
        let (b, _) = models.translate_view(features.view(), 5);
        assert_eq!(a.candidates, b.candidates);
    }

    #[test]
    fn translate_returns_ranked_candidates() {
        let (corpus, mut models, _) = setup();
        let refs: Vec<&ClaimRecord> = corpus.claims.iter().collect();
        models.retrain(&mut TrainingState::default(), &refs, 1);
        let features = models.features(&corpus.claims[0]);
        let t = models.translate(&features, 5);
        for kind in PropertyKind::ALL {
            let c = t.of(kind);
            assert!(!c.is_empty());
            assert!(c.len() <= 5);
            for w in c.windows(2) {
                assert!(w[0].1 >= w[1].1, "{} not sorted", kind.name());
            }
        }
    }
}
