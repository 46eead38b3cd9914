//! Multinomial logistic regression on sparse features, trained with AdaGrad.
//!
//! The paper reports classifier inference below 0.2 s per claim and frequent
//! retraining (every batch of 100 claims), so the implementation favors:
//! sparse dot products (only touched coordinates update), per-coordinate
//! AdaGrad learning rates (robust across the wildly different scales of the
//! embedding and TF-IDF blocks), and — since PR 4 — **warm-start
//! incremental training**: [`SoftmaxClassifier::partial_fit`] resumes from
//! the previous weights and AdaGrad accumulators on just the newly verified
//! examples instead of replaying the whole history from scratch. The class
//! count can grow mid-stream (checkers suggest new answers); new classes
//! join as zero columns.
//!
//! A classifier's learned state has two owners:
//!
//! * [`SoftmaxClassifier`] — the **read side**: the weights and biases
//!   that inference, translation and the utility pass read;
//! * [`SoftmaxTraining`] — the **training state**: the AdaGrad weight and
//!   bias accumulators and the fit count, which only training reads.
//!
//! Training takes `&mut` of both halves; everything else needs only the
//! read side, so a published model carries no accumulators.
//!
//! Both halves share one **feature-major** layout: feature `i`'s class
//! columns sit contiguously in a row of `stride` floats (`stride` = the
//! class count rounded up to a multiple of eight lanes), with the real
//! classes at `[..n_classes]`. The two halves store those rows
//! differently:
//!
//! * the weights are one **shared row per feature** (`Arc<[f32]>`, pad
//!   columns 0.0). Cloning a model clones row pointers, not weights, and
//!   training copies a row only the first time a fit writes it while
//!   another model still shares it, so a retrain's copy of the published
//!   weights costs the rows its batch touches (a quarter of them for a
//!   50-claim epoch at paper scale), not the whole model. Those copies
//!   fill spare rows first: the rows of a retired model that nothing
//!   else shares, handed over by [`SoftmaxTraining::recycle`].
//!   Untrained models share one zero row;
//! * the AdaGrad accumulators are one flat, owned `dim × stride` block
//!   (pad columns at the initial accumulator), since no model shares
//!   them.
//!
//! Class growth re-strides both halves in step. Every consumer reads
//! the weight rows in place:
//!
//! * training scores an example with one contiguous sweep per stored
//!   feature, then updates the touched `(feature, class)` slots of both
//!   halves elementwise;
//! * per-claim inference (`predict_proba`, [`top_k_view`], and through
//!   them `PropertyClassifier::top_k_ids`, `predict_id` and accuracy
//!   traces) runs the same kernel;
//! * [`FusedEntropy`] ranks all four classifiers for translation and sums
//!   their Definition 7 entropies from the same score row, one sweep of
//!   each classifier's rows per claim.
//!
//! That one scoring kernel keeps the per-lane order of the row-major
//! `bias + x.dot_dense(row)` it replaced (see `scores_into`), so every
//! ranking, screen, plan and verdict is bit-identical to that path, and
//! a claim's utility is the entropy of the very scores its ranking
//! reads.
//!
//! Persistence is row-major (one `dim`-long row per class) and never
//! materializes a whole row-major copy: each half's `row_tiles`
//! ([`SoftmaxClassifier::row_tiles`], [`SoftmaxTraining::row_tiles`])
//! streams it out as tiles of 64 class rows, and
//! [`feature_rows_from_tiles`] (weights) and [`feature_major_from_tiles`]
//! (accumulators) fill fresh rows from such tiles, so a snapshot writer
//! or reader holds at most one tile (~1.5 MB at paper scale) beside the
//! rows themselves. The whole-model [`SoftmaxState`] ([`export_state`],
//! [`from_state`]) joins both halves and remains the reference the tests
//! hold the split and streamed forms to.
//!
//! [`top_k_view`]: SoftmaxClassifier::top_k_view
//! [`export_state`]: SoftmaxClassifier::export_state
//! [`from_state`]: SoftmaxClassifier::from_state
//! [`FusedEntropy`]: crate::FusedEntropy

use std::convert::Infallible;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use scrutinizer_text::{SparseVector, SparseView};

/// Training hyper-parameters.
#[derive(Debug, Clone, Copy)]
pub struct TrainConfig {
    /// Passes over the training set.
    pub epochs: usize,
    /// Base AdaGrad learning rate.
    pub learning_rate: f32,
    /// L2 regularization strength (applied to touched coordinates).
    pub l2: f32,
    /// Shuffling seed.
    pub seed: u64,
    /// Per-example update budget: gradients are applied to the true class
    /// plus at most this many highest-probability classes. Label spaces run
    /// to hundreds of classes (830 keys) and the system retrains after every
    /// batch of 100 claims, so full-gradient updates would dominate the
    /// "13 minutes of retraining" budget of §6.2; truncating to the classes
    /// that carry almost all gradient mass is the standard candidate-sampling
    /// fix. Set ≥ the class count for exact updates.
    pub max_update_classes: usize,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 8,
            learning_rate: 0.5,
            l2: 1e-5,
            seed: 7,
            max_update_classes: 24,
        }
    }
}

/// The whole learned state of a classifier — its
/// [`SoftmaxClassifier`] and [`SoftmaxTraining`] halves — in one value:
/// everything needed to reconstruct both exactly, row-major (one
/// `dim`-long row per class) like the on-disk snapshot. Persistence
/// streams the same rows tile by tile ([`SoftmaxClassifier::row_tiles`],
/// [`SoftmaxTraining::row_tiles`], [`feature_major_from_tiles`]); this
/// whole-model copy is the reference the tests check that stream
/// against.
#[derive(Debug, Clone, PartialEq)]
pub struct SoftmaxState {
    /// Row-major `n_classes × dim` weights.
    pub weights: Vec<f32>,
    /// Per-class biases.
    pub biases: Vec<f32>,
    /// AdaGrad weight accumulators (the warm-start state), row-major
    /// like `weights`.
    pub grad_sq_w: Vec<f32>,
    /// AdaGrad bias accumulators.
    pub grad_sq_b: Vec<f32>,
    /// Feature dimensionality.
    pub dim: usize,
    /// Class count.
    pub n_classes: usize,
    /// Completed training calls (salts the shuffle seed).
    pub fits: u64,
}

/// Number of f32 lanes the batched kernels process per step (32 bytes).
/// Scoring strides are padded to a multiple of this so the hot loops are
/// exact `chunks_exact(LANES)` sweeps with no scalar tail.
pub(crate) const LANES: usize = 8;

/// The initial AdaGrad accumulator of every weight and bias (keeps the
/// first step's `1 / sqrt` finite).
pub const GRAD_SQ_INIT: f32 = 1e-8;

/// Class rows per tile of the row-major stream (`row_tiles`,
/// [`feature_rows_from_tiles`], [`feature_major_from_tiles`]): a tile is
/// `TILE_CLASSES × dim` floats, about 1.5 MB at paper scale.
pub(crate) const TILE_CLASSES: usize = 64;

/// The read side of a trained softmax classifier over `n_classes` classes
/// and `dim` features: the weights and biases every prediction reads.
/// A clone shares every weight row with its original until one of them
/// trains it.
#[derive(Debug, Clone)]
pub struct SoftmaxClassifier {
    /// One weight row per feature, `stride` floats each: feature `i`'s
    /// class columns at `rows[i][..n_classes]`, pad columns 0.0. A row
    /// is written in place only while this model is its one owner (see
    /// [`RowPool::writable`]).
    rows: Vec<Arc<[f32]>>,
    /// Per-class biases padded to `stride` (pad lanes 0.0).
    biases: Vec<f32>,
    /// Length of every weight row: `n_classes` rounded up to [`LANES`].
    stride: usize,
    dim: usize,
    n_classes: usize,
}

/// How many weight rows training copied because they were shared (with
/// another model, or as an untrained model's one zero row), and how many
/// of those copies filled a spare row rather than a new allocation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RowCopies {
    /// Rows copied on their first write in a fit.
    pub copied: u64,
    /// Of those, the copies written into a recycled spare row.
    pub recycled: u64,
}

/// The spare weight rows of a training state and its copy counters.
#[derive(Debug, Clone, Default)]
struct RowPool {
    /// Rows of the training state's stride that no model shares: the
    /// rows a retired model alone owned. Copies fill them before they
    /// allocate; a fit drops whatever it leaves.
    spare: Vec<Arc<[f32]>>,
    /// Copy traffic since [`SoftmaxTraining::take_row_copies`].
    copies: RowCopies,
}

impl RowPool {
    /// `row`, writable: in place while its model is the row's one owner,
    /// otherwise first copied — into a spare row while one is left, else
    /// into a new allocation — so every model that shared it keeps
    /// reading the old values. The model is owned through `&mut`, so no
    /// other handle can appear while the count is read.
    fn writable<'r>(&mut self, row: &'r mut Arc<[f32]>) -> &'r mut [f32] {
        if Arc::strong_count(row) > 1 {
            self.copies.copied += 1;
            *row = self.copy_of(row);
        }
        Arc::get_mut(row).expect("a row written in place has one owner")
    }

    /// A row of this model alone holding `values`.
    fn copy_of(&mut self, values: &[f32]) -> Arc<[f32]> {
        while let Some(mut spare) = self.spare.pop() {
            // a spare cloned along with its training state is shared:
            // drop that handle and try the next
            if let Some(slots) = Arc::get_mut(&mut spare) {
                slots.copy_from_slice(values);
                self.copies.recycled += 1;
                return spare;
            }
        }
        Arc::from(values)
    }
}

/// The training state of a [`SoftmaxClassifier`]: the AdaGrad
/// accumulators in the layout of its blocks, and the fit count. Only
/// [`SoftmaxClassifier::partial_fit`] and persistence read it; it grows
/// with its classifier, in step.
#[derive(Debug, Clone)]
pub struct SoftmaxTraining {
    /// AdaGrad weight accumulators, feature-major `dim × stride` like the
    /// classifier's weights (pad columns at [`GRAD_SQ_INIT`]).
    grad_sq_w: Vec<f32>,
    /// AdaGrad bias accumulators padded to `stride`.
    grad_sq_b: Vec<f32>,
    stride: usize,
    dim: usize,
    n_classes: usize,
    /// Completed training calls; salts the shuffle seed so successive
    /// `partial_fit` batches see different (but deterministic) orders.
    fits: u64,
    /// Spare weight rows for the next fit, and the copy counters; never
    /// persisted.
    pool: RowPool,
}

impl SoftmaxTraining {
    /// Fresh accumulators for an untrained classifier of this shape.
    pub fn untrained(n_classes: usize, dim: usize) -> Self {
        assert!(n_classes > 0, "need at least one class");
        let stride = n_classes.next_multiple_of(LANES);
        SoftmaxTraining {
            grad_sq_w: vec![GRAD_SQ_INIT; dim * stride],
            grad_sq_b: vec![GRAD_SQ_INIT; stride],
            stride,
            dim,
            n_classes,
            fits: 0,
            pool: RowPool::default(),
        }
    }

    /// Assembles a training state from streamed parts: `grad_sq_w` is a
    /// padded block from [`feature_major_from_tiles`] over `n_classes`
    /// classes and `dim` features, `grad_sq_b` holds one value per class.
    /// Rejects inconsistent shapes (a corrupt snapshot) rather than
    /// panicking later.
    pub fn from_blocks(
        grad_sq_w: Vec<f32>,
        mut grad_sq_b: Vec<f32>,
        dim: usize,
        n_classes: usize,
        fits: u64,
    ) -> Result<Self, String> {
        let stride = check_shape(grad_sq_w.len(), grad_sq_b.len(), dim, n_classes)?;
        grad_sq_b.resize(stride, GRAD_SQ_INIT);
        Ok(SoftmaxTraining {
            grad_sq_w,
            grad_sq_b,
            stride,
            dim,
            n_classes,
            fits,
            pool: RowPool::default(),
        })
    }

    /// Streams the accumulator block out row-major, one tile at a time
    /// (see [`SoftmaxClassifier::row_tiles`]); concatenated, the tiles are
    /// [`SoftmaxState::grad_sq_w`].
    pub fn row_tiles<E>(&self, emit: impl FnMut(&[f32]) -> Result<(), E>) -> Result<(), E> {
        let rows: Vec<&[f32]> = self.grad_sq_w.chunks_exact(self.stride).collect();
        stream_row_tiles(&rows, self.n_classes, emit)
    }

    /// Keeps the weight rows of `retired` that no other model shares as
    /// spare rows for the next fit to copy into. `retired` must be owned
    /// outright — a published model that no reader can reach any more —
    /// since a row's count says nothing of who still reads the model that
    /// holds it. Rows of another shape (class growth re-strided since)
    /// are dropped.
    pub fn recycle(&mut self, retired: SoftmaxClassifier) {
        if (retired.stride, retired.dim) != (self.stride, self.dim) {
            return;
        }
        for mut row in retired.rows {
            if Arc::get_mut(&mut row).is_some() {
                self.pool.spare.push(row);
            }
        }
    }

    /// The weight rows training copied since the last call (and how many
    /// of those filled spare rows), then resets the count.
    pub fn take_row_copies(&mut self) -> RowCopies {
        std::mem::take(&mut self.pool.copies)
    }

    /// Number of classes.
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// Feature dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Row stride of [`grad_sq_block`](Self::grad_sq_block).
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// The padded feature-major accumulator block, `dim × stride`.
    pub fn grad_sq_block(&self) -> &[f32] {
        &self.grad_sq_w
    }

    /// The per-class AdaGrad bias accumulators.
    pub fn grad_sq_biases(&self) -> &[f32] {
        &self.grad_sq_b[..self.n_classes]
    }

    /// The bias accumulators padded to `stride` (pad lanes at
    /// [`GRAD_SQ_INIT`]).
    pub fn padded_grad_sq_biases(&self) -> &[f32] {
        &self.grad_sq_b
    }

    /// Completed training calls (salts the shuffle seed).
    pub fn fits(&self) -> u64 {
        self.fits
    }
}

impl SoftmaxClassifier {
    /// A zero-weight model over a fixed shape; pair it with
    /// [`SoftmaxTraining::untrained`] for [`partial_fit`].
    ///
    /// [`partial_fit`]: SoftmaxClassifier::partial_fit
    pub fn untrained(n_classes: usize, dim: usize) -> Self {
        assert!(n_classes > 0, "need at least one class");
        let stride = n_classes.next_multiple_of(LANES);
        let zero: Arc<[f32]> = std::iter::repeat_n(0.0, stride).collect();
        SoftmaxClassifier {
            rows: vec![zero; dim],
            biases: vec![0.0; stride],
            stride,
            dim,
            n_classes,
        }
    }

    /// Trains from scratch on `(features, class)` examples, returning the
    /// model and its training state. Features are borrowed views —
    /// training never clones a vector.
    ///
    /// # Panics
    /// Panics if any class id is ≥ `n_classes` (caller builds the label
    /// space, so this is a programming error).
    pub fn train(
        examples: &[(SparseView<'_>, u32)],
        n_classes: usize,
        dim: usize,
        config: TrainConfig,
    ) -> (Self, SoftmaxTraining) {
        for (_, y) in examples {
            assert!((*y as usize) < n_classes, "class id {y} out of range");
        }
        let mut model = SoftmaxClassifier::untrained(n_classes, dim);
        let mut training = SoftmaxTraining::untrained(n_classes, dim);
        model.fit_epochs(&mut training, examples, config, config.seed);
        training.fits = 1;
        (model, training)
    }

    /// Convenience adapter over owned vectors (tests, notebooks); the hot
    /// paths pass views.
    pub fn train_owned(
        examples: &[(SparseVector, u32)],
        n_classes: usize,
        dim: usize,
        config: TrainConfig,
    ) -> (Self, SoftmaxTraining) {
        let views: Vec<(SparseView<'_>, u32)> =
            examples.iter().map(|(x, y)| (x.view(), *y)).collect();
        Self::train(&views, n_classes, dim, config)
    }

    /// Resumes training on a new example batch — the warm start of the
    /// incremental retrain path. Weights, biases and the AdaGrad
    /// accumulators in `training` continue from where the last call left
    /// them, so the effective step sizes keep shrinking as if the stream
    /// had been one long training run; class ids beyond the current shape
    /// grow both halves first.
    ///
    /// # Panics
    /// Panics if `training` does not have this model's shape (it belongs
    /// to another model).
    pub fn partial_fit(
        &mut self,
        training: &mut SoftmaxTraining,
        examples: &[(SparseView<'_>, u32)],
        config: TrainConfig,
    ) {
        assert_eq!(
            (training.n_classes, training.dim),
            (self.n_classes, self.dim),
            "the training state belongs to another model"
        );
        if examples.is_empty() {
            return;
        }
        let max_class = examples.iter().map(|(_, y)| *y).max().unwrap_or(0) as usize;
        if max_class >= self.n_classes {
            self.grow_classes(training, max_class + 1);
        }
        // salt the shuffle so batch k does not replay batch 0's order, while
        // staying deterministic for a given call sequence
        let seed = config
            .seed
            .wrapping_add(training.fits.wrapping_mul(0x9E37_79B9));
        self.fit_epochs(training, examples, config, seed);
        training.fits += 1;
    }

    /// Adds zero-weight classes to both halves. Within the current stride
    /// they take over pad columns, which already hold a zero weight and a
    /// fresh accumulator; past it, every weight row and the accumulator
    /// block are re-strided once, and the spare rows, now too short, are
    /// dropped.
    fn grow_classes(&mut self, training: &mut SoftmaxTraining, n_classes: usize) {
        debug_assert!(n_classes > self.n_classes);
        let stride = n_classes.next_multiple_of(LANES);
        if stride > self.stride {
            for row in &mut self.rows {
                *row = row
                    .iter()
                    .copied()
                    .chain(std::iter::repeat_n(0.0, stride - row.len()))
                    .collect();
            }
            self.biases.resize(stride, 0.0);
            training.grad_sq_w = restride(&training.grad_sq_w, self.stride, stride, GRAD_SQ_INIT);
            training.grad_sq_b.resize(stride, GRAD_SQ_INIT);
            training.pool.spare.clear();
            self.stride = stride;
            training.stride = stride;
        }
        self.n_classes = n_classes;
        training.n_classes = n_classes;
    }

    /// The AdaGrad inner loop: `config.epochs` shuffled passes over
    /// `examples`, updating the true class plus the top-probability
    /// classes of both halves in place — a weight row that another model
    /// still shares is copied on its first write (see
    /// [`RowPool::writable`]). The spare rows left at the end are
    /// dropped.
    fn fit_epochs(
        &mut self,
        training: &mut SoftmaxTraining,
        examples: &[(SparseView<'_>, u32)],
        config: TrainConfig,
        seed: u64,
    ) {
        let (n_classes, dim, stride) = (self.n_classes, self.dim, self.stride);
        let mut order: Vec<usize> = (0..examples.len()).collect();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut scores = vec![0.0f32; stride];
        let mut touched: Vec<usize> = Vec::with_capacity(n_classes);
        // (class, gradient) of every touched class with a nonzero gradient
        let mut steps: Vec<(usize, f32)> = Vec::with_capacity(n_classes.min(64));
        for _ in 0..config.epochs {
            order.shuffle(&mut rng);
            for &idx in &order {
                let (x, y) = &examples[idx];
                let y = *y as usize;
                self.scores_into(*x, &mut scores);
                let probs = &mut scores[..n_classes];
                softmax_in_place(probs);
                // classes to update: the true class plus the top-probability
                // classes (they carry essentially all the gradient mass)
                touched.clear();
                touched.extend(0..n_classes);
                if n_classes > config.max_update_classes {
                    touched.select_nth_unstable_by(config.max_update_classes - 1, |&a, &b| {
                        probs[b].total_cmp(&probs[a])
                    });
                    touched.truncate(config.max_update_classes);
                    if !touched.contains(&y) {
                        touched.push(y);
                    }
                }
                // gradient of cross-entropy: (p - onehot(y)) ⊗ x — biases
                // first, then the touched weights feature by feature. Every
                // slot's update reads and writes only that slot, so the
                // visiting order changes no bit.
                steps.clear();
                for &c in &touched {
                    let g = probs[c] - f32::from(c == y);
                    if g == 0.0 {
                        continue;
                    }
                    training.grad_sq_b[c] += g * g;
                    self.biases[c] -= config.learning_rate * g / training.grad_sq_b[c].sqrt();
                    steps.push((c, g));
                }
                if steps.is_empty() {
                    continue;
                }
                for (i, v) in x.iter() {
                    let i = i as usize;
                    if i >= dim {
                        continue;
                    }
                    let weights = training.pool.writable(&mut self.rows[i]);
                    let grad_sq = &mut training.grad_sq_w[i * stride..][..stride];
                    for &(c, g) in &steps {
                        let gw = g * v + config.l2 * weights[c];
                        grad_sq[c] += gw * gw;
                        weights[c] -= config.learning_rate * gw / grad_sq[c].sqrt();
                    }
                }
            }
        }
        training.pool.spare.clear();
    }

    /// A whole copy of this model and its `training` state, transposed to
    /// the row-major [`SoftmaxState`] layout (persistence streams the
    /// same rows with `row_tiles` instead).
    ///
    /// # Panics
    /// Panics if `training` does not have this model's shape.
    pub fn export_state(&self, training: &SoftmaxTraining) -> SoftmaxState {
        let (n_classes, dim) = (self.n_classes, self.dim);
        assert_eq!(
            (training.n_classes, training.dim),
            (n_classes, dim),
            "the training state belongs to another model"
        );
        let mut weights = Vec::with_capacity(n_classes * dim);
        let Ok(()) = self.row_tiles(|tile| {
            weights.extend_from_slice(tile);
            Ok::<_, Infallible>(())
        });
        let mut grad_sq_w = Vec::with_capacity(n_classes * dim);
        let Ok(()) = training.row_tiles(|tile| {
            grad_sq_w.extend_from_slice(tile);
            Ok::<_, Infallible>(())
        });
        SoftmaxState {
            weights,
            biases: self.biases[..n_classes].to_vec(),
            grad_sq_w,
            grad_sq_b: training.grad_sq_b[..n_classes].to_vec(),
            dim,
            n_classes,
            fits: training.fits,
        }
    }

    /// Reconstructs a classifier and its training state from a whole
    /// [`SoftmaxState`], transposing each half to its feature-major rows.
    /// Rejects shape-inconsistent state (a corrupt or truncated snapshot)
    /// rather than panicking later.
    pub fn from_state(state: SoftmaxState) -> Result<(Self, SoftmaxTraining), String> {
        if state.n_classes == 0 {
            return Err("snapshot has zero classes".to_string());
        }
        let expect_w = state.n_classes * state.dim;
        if state.weights.len() != expect_w
            || state.grad_sq_w.len() != expect_w
            || state.biases.len() != state.n_classes
            || state.grad_sq_b.len() != state.n_classes
        {
            return Err(format!(
                "snapshot shape mismatch: {} classes × {} dims vs {} weights / {} biases",
                state.n_classes,
                state.dim,
                state.weights.len(),
                state.biases.len()
            ));
        }
        let (n_classes, dim) = (state.n_classes, state.dim);
        let Ok(rows) = feature_rows_from_tiles(n_classes, dim, tiles_of(&state.weights));
        let model = SoftmaxClassifier::from_rows(rows, state.biases, dim, n_classes)?;
        let Ok(grad_sq_w) = feature_major_from_tiles(n_classes, dim, tiles_of(&state.grad_sq_w));
        let training =
            SoftmaxTraining::from_blocks(grad_sq_w, state.grad_sq_b, dim, n_classes, state.fits)?;
        Ok((model, training))
    }

    /// Streams the weight rows out row-major, one tile at a time: `emit`
    /// gets consecutive tiles of up to 64 classes in id order, each
    /// `rows × dim` floats with class rows contiguous. Concatenated, the
    /// tiles are [`SoftmaxState::weights`]; at most one tile is
    /// allocated. Stops at the first error `emit` returns.
    pub fn row_tiles<E>(&self, emit: impl FnMut(&[f32]) -> Result<(), E>) -> Result<(), E> {
        let rows: Vec<&[f32]> = self.rows.iter().map(|row| &row[..]).collect();
        stream_row_tiles(&rows, self.n_classes, emit)
    }

    /// Assembles a classifier from streamed parts: `rows` are the padded
    /// feature rows from [`feature_rows_from_tiles`] over `n_classes`
    /// classes and `dim` features, `biases` holds one value per class.
    /// Rejects inconsistent shapes (a corrupt snapshot) rather than
    /// panicking later.
    pub fn from_rows(
        rows: Vec<Arc<[f32]>>,
        mut biases: Vec<f32>,
        dim: usize,
        n_classes: usize,
    ) -> Result<Self, String> {
        let cells = rows.iter().map(|row| row.len()).sum();
        let stride = check_shape(cells, biases.len(), dim, n_classes)?;
        if rows.len() != dim || rows.iter().any(|row| row.len() != stride) {
            return Err(format!(
                "snapshot shape mismatch: {} weight rows for {dim} dims of {stride} values",
                rows.len()
            ));
        }
        biases.resize(stride, 0.0);
        Ok(SoftmaxClassifier {
            rows,
            biases,
            stride,
            dim,
            n_classes,
        })
    }

    /// Number of classes.
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// Feature dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Length of one score row: the class count rounded up to eight lanes.
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Feature `i`'s weight for every class (`i < dim`).
    pub(crate) fn feature_column(&self, i: usize) -> &[f32] {
        &self.rows[i][..self.n_classes]
    }

    /// The per-class biases.
    pub fn biases(&self) -> &[f32] {
        &self.biases[..self.n_classes]
    }

    /// Class probabilities for `x` (softmax over linear scores).
    pub fn predict_proba(&self, x: &SparseVector) -> Vec<f32> {
        self.predict_proba_view(x.view())
    }

    /// [`predict_proba`](Self::predict_proba) over a borrowed view.
    pub fn predict_proba_view(&self, x: SparseView<'_>) -> Vec<f32> {
        let mut probs = vec![0.0f32; self.stride];
        self.scores_into(x, &mut probs);
        probs.truncate(self.n_classes);
        softmax_in_place(&mut probs);
        probs
    }

    /// Linear scores of `x` against every class, into `scores[..stride]`
    /// (`scores[..n_classes]` are the real scores; the pad lanes end at
    /// 0.0) — the one scoring kernel: training, per-claim inference,
    /// fused translation and the Definition 7 utility pass all run it.
    ///
    /// Bit-identical to the row-major `bias + x.dot_dense(row)` of each
    /// class: every lane accumulates from `+0.0` with an unfused
    /// `a + v * w` over the stored features in CSR order, skipping
    /// indices ≥ `dim`, and the bias is added last (IEEE addition
    /// commutes, so `dot + bias` is `bias + dot`). `mul_add` would round
    /// once instead of twice and change bits. In-range features are
    /// gathered eight at a time ([`feature_groups`]) and folded into each
    /// lane in that order within one sweep, which keeps the per-lane
    /// order and vectorizes across lanes.
    pub(crate) fn scores_into(&self, x: SparseView<'_>, scores: &mut [f32]) {
        scores[..self.stride].fill(0.0);
        feature_groups(x, self.dim, |group| self.add_columns(group, scores));
        self.add_biases(scores);
    }

    /// The exact kernel's sweep: folds a group of `(feature, value)`
    /// columns into `scores[..stride]`, each lane `a += v * w` (unfused)
    /// in group order — eight columns per pass for a full group, one at a
    /// time for the remainder.
    #[inline]
    pub(crate) fn add_columns(&self, group: &[(usize, f32)], scores: &mut [f32]) {
        let stride = self.stride;
        let scores = &mut scores[..stride];
        let Ok(&[(i0, v0), (i1, v1), (i2, v2), (i3, v3), (i4, v4), (i5, v5), (i6, v6), (i7, v7)]) =
            <&[(usize, f32); 8]>::try_from(group)
        else {
            for &(i, v) in group {
                let column = &self.rows[i][..stride];
                for (s, &w) in scores.iter_mut().zip(column) {
                    *s += v * w;
                }
            }
            return;
        };
        let c0 = &self.rows[i0][..stride];
        let c1 = &self.rows[i1][..stride];
        let c2 = &self.rows[i2][..stride];
        let c3 = &self.rows[i3][..stride];
        let c4 = &self.rows[i4][..stride];
        let c5 = &self.rows[i5][..stride];
        let c6 = &self.rows[i6][..stride];
        let c7 = &self.rows[i7][..stride];
        for j in 0..stride {
            let mut a = scores[j];
            a += v0 * c0[j];
            a += v1 * c1[j];
            a += v2 * c2[j];
            a += v3 * c3[j];
            a += v4 * c4[j];
            a += v5 * c5[j];
            a += v6 * c6[j];
            a += v7 * c7[j];
            scores[j] = a;
        }
    }

    /// The exact kernel's last step: adds each bias to its lane of
    /// `scores[..stride]` (pad lanes add 0.0).
    #[inline]
    pub(crate) fn add_biases(&self, scores: &mut [f32]) {
        for (s, &b) in scores[..self.stride].iter_mut().zip(&self.biases) {
            *s += b;
        }
    }

    /// The per-class biases padded to `stride` (pad lanes 0.0), as the
    /// exact kernel adds them to a score row.
    pub fn padded_biases(&self) -> &[f32] {
        &self.biases
    }

    /// The `k` most probable classes with probabilities, descending.
    pub fn top_k(&self, x: &SparseVector, k: usize) -> Vec<(u32, f32)> {
        self.top_k_view(x.view(), k)
    }

    /// [`top_k`](Self::top_k) over a borrowed view.
    pub fn top_k_view(&self, x: SparseView<'_>, k: usize) -> Vec<(u32, f32)> {
        let probs = self.predict_proba_view(x);
        let mut ranked: Vec<(u32, f32)> = probs
            .into_iter()
            .enumerate()
            .map(|(i, p)| (i as u32, p))
            .collect();
        let taken = rank_top_k(&mut ranked, k);
        ranked.truncate(taken);
        ranked
    }

    /// Most probable class.
    pub fn predict(&self, x: &SparseVector) -> u32 {
        self.top_k(x, 1)[0].0
    }
}

/// The scoring kernel's feature walk: hands the stored features of `x`
/// with index < `dim` to `sweep` in CSR order, eight per call, then the
/// remainder (fewer than eight) in one last call. Indices ≥ `dim`
/// (never produced by the shared featurizer) are skipped, as the
/// row-major `dot_dense` skips them.
#[inline]
pub(crate) fn feature_groups(
    x: SparseView<'_>,
    dim: usize,
    mut sweep: impl FnMut(&[(usize, f32)]),
) {
    let mut group = [(0usize, 0.0f32); 8];
    let mut filled = 0;
    for (i, v) in x.iter() {
        let i = i as usize;
        if i >= dim {
            continue;
        }
        group[filled] = (i, v);
        filled += 1;
        if filled == group.len() {
            sweep(&group);
            filled = 0;
        }
    }
    if filled > 0 {
        sweep(&group[..filled]);
    }
}

/// Builds padded feature rows for `n_classes` classes over `dim`
/// features from row-major tiles — the inverse of
/// [`SoftmaxClassifier::row_tiles`], and what
/// [`SoftmaxClassifier::from_rows`] takes. `fill` is handed one buffer
/// per tile (up to 64 classes in id order, `rows × dim` floats) to fill
/// with those classes' rows; pad columns hold 0.0. Allocates the rows
/// plus one tile, and stops at the first error `fill` returns.
pub fn feature_rows_from_tiles<E>(
    n_classes: usize,
    dim: usize,
    fill: impl FnMut(&mut [f32]) -> Result<(), E>,
) -> Result<Vec<Arc<[f32]>>, E> {
    let stride = n_classes.next_multiple_of(LANES);
    let mut rows: Vec<Arc<[f32]>> = (0..dim)
        .map(|_| std::iter::repeat_n(0.0, stride).collect())
        .collect();
    let mut slots: Vec<&mut [f32]> = rows
        .iter_mut()
        .map(|row| Arc::get_mut(row).expect("a fresh row has one owner"))
        .collect();
    scatter_row_tiles(&mut slots, n_classes, fill)?;
    Ok(rows)
}

/// Builds a flat padded feature-major accumulator block for `n_classes`
/// classes over `dim` features from row-major tiles — the inverse of
/// [`SoftmaxTraining::row_tiles`], and what
/// [`SoftmaxTraining::from_blocks`] takes. `fill` works as in
/// [`feature_rows_from_tiles`]; pad columns hold [`GRAD_SQ_INIT`], so a
/// class growing into one starts fresh. Allocates the block plus one
/// tile, and stops at the first error `fill` returns.
pub fn feature_major_from_tiles<E>(
    n_classes: usize,
    dim: usize,
    fill: impl FnMut(&mut [f32]) -> Result<(), E>,
) -> Result<Vec<f32>, E> {
    let stride = n_classes.next_multiple_of(LANES);
    let mut out = vec![GRAD_SQ_INIT; dim * stride];
    let mut slots: Vec<&mut [f32]> = out.chunks_exact_mut(stride).collect();
    scatter_row_tiles(&mut slots, n_classes, fill)?;
    Ok(out)
}

/// A decoder's `fill` over whole row-major `rows`: each tile gets the
/// next run of class rows.
fn tiles_of(rows: &[f32]) -> impl FnMut(&mut [f32]) -> Result<(), Infallible> + '_ {
    let mut at = 0;
    move |tile| {
        tile.copy_from_slice(&rows[at..at + tile.len()]);
        at += tile.len();
        Ok(())
    }
}

/// The fill behind both decoders: hands `fill` one tile of up to
/// [`TILE_CLASSES`] class rows at a time (each as long as there are
/// feature rows) and scatters it into class columns of the feature rows
/// `rows`.
fn scatter_row_tiles<E>(
    rows: &mut [&mut [f32]],
    n_classes: usize,
    mut fill: impl FnMut(&mut [f32]) -> Result<(), E>,
) -> Result<(), E> {
    let dim = rows.len();
    if dim == 0 {
        return Ok(());
    }
    let mut tile = vec![0.0; TILE_CLASSES.min(n_classes) * dim];
    for c0 in (0..n_classes).step_by(TILE_CLASSES) {
        let tile = &mut tile[..TILE_CLASSES.min(n_classes - c0) * dim];
        fill(tile)?;
        let classes: Vec<&[f32]> = tile.chunks_exact(dim).collect();
        let mut columns: Vec<&mut [f32]> = rows
            .iter_mut()
            .map(|row| &mut row[c0..c0 + classes.len()])
            .collect();
        transpose(&classes, &mut columns);
    }
    Ok(())
}

/// The stream behind both halves' `row_tiles`: the feature rows `rows`
/// out row-major as tiles of up to [`TILE_CLASSES`] class rows, through
/// one reused tile.
fn stream_row_tiles<E>(
    rows: &[&[f32]],
    n_classes: usize,
    mut emit: impl FnMut(&[f32]) -> Result<(), E>,
) -> Result<(), E> {
    let dim = rows.len();
    if dim == 0 {
        return Ok(());
    }
    let mut tile = vec![0.0; TILE_CLASSES.min(n_classes) * dim];
    for c0 in (0..n_classes).step_by(TILE_CLASSES) {
        let tile = &mut tile[..TILE_CLASSES.min(n_classes - c0) * dim];
        let c1 = c0 + tile.len() / dim;
        let columns: Vec<&[f32]> = rows.iter().map(|row| &row[c0..c1]).collect();
        let mut classes: Vec<&mut [f32]> = tile.chunks_exact_mut(dim).collect();
        transpose(&columns, &mut classes);
        emit(tile)?;
    }
    Ok(())
}

/// The stride of a streamed half over `n_classes` classes and `dim`
/// features, if its padded `block` and its per-class row (`per_class`
/// values) have that shape.
fn check_shape(
    block: usize,
    per_class: usize,
    dim: usize,
    n_classes: usize,
) -> Result<usize, String> {
    if n_classes == 0 {
        return Err("snapshot has zero classes".to_string());
    }
    let stride = n_classes.next_multiple_of(LANES);
    if block != dim * stride || per_class != n_classes {
        return Err(format!(
            "snapshot shape mismatch: {n_classes} classes × {dim} dims vs {block} padded block values / {per_class} per-class values"
        ));
    }
    Ok(stride)
}

/// Copies a block of `from`-long rows into `to`-long rows (`to ≥ from`),
/// filling the new trailing lanes with `pad`.
fn restride(block: &[f32], from: usize, to: usize, pad: f32) -> Vec<f32> {
    let mut out = Vec::with_capacity(block.len() / from * to);
    for row in block.chunks_exact(from) {
        out.extend_from_slice(row);
        out.resize(out.len() + to - from, pad);
    }
    out
}

/// `dst[c][r] = src[r][c]` for every row `r` of `src` and row `c` of
/// `dst`, in square tiles: each tile writes contiguous runs of `dst`
/// rows and gathers from a tile of `src` rows small enough to stay in
/// cache.
fn transpose(src: &[&[f32]], dst: &mut [&mut [f32]]) {
    const TILE: usize = 64;
    for r0 in (0..src.len()).step_by(TILE) {
        let src = &src[r0..(r0 + TILE).min(src.len())];
        for c0 in (0..dst.len()).step_by(TILE) {
            for c in c0..(c0 + TILE).min(dst.len()) {
                let run = &mut dst[c][r0..r0 + src.len()];
                for (slot, row) in run.iter_mut().zip(src) {
                    *slot = row[c];
                }
            }
        }
    }
}

/// Branch-free `exp` approximation for f32, built for autovectorization:
/// `x = k·ln2 + r` with `k` rounded via the floating-point shift trick,
/// `e^r` from a degree-5 minimax polynomial on `[−ln2/2, ln2/2]`, and the
/// `2^k` scale applied through the exponent bits. No libm call, no
/// branches, so the compiler turns a loop of these into straight-line
/// SIMD. Maximum relative error is a few ulp (≪ 1e-6) over the clamped
/// domain `[-87, 88]`; inputs outside clamp to the boundary (the entropy
/// kernels only ever pass `s − max ≤ 0`, where `exp(-87) ≈ 1.6e-38` is
/// already indistinguishable from zero in f32 sums).
#[inline]
pub fn exp_approx(x: f32) -> f32 {
    const LOG2E: f32 = std::f32::consts::LOG2_E;
    // ln2 split high/low so `x − k·ln2` stays exact through the reduction;
    // the high part is written out in full because it is the point: a
    // dyadic rational (710/1024) whose low mantissa bits are zero
    #[allow(clippy::excessive_precision)]
    const LN2_HI: f32 = 0.693_359_375;
    const LN2_LO: f32 = -2.121_944_4e-4;
    // 1.5·2^23: adding and subtracting forces round-to-nearest on |z| < 2^22
    const SHIFT: f32 = 12_582_912.0;
    let x = x.clamp(-87.0, 88.0);
    let k = (x * LOG2E + SHIFT) - SHIFT;
    let r = x - k * LN2_HI - k * LN2_LO;
    // Cephes expf polynomial: e^r ≈ 1 + r + r²·P(r)
    let p = 1.987_569_2e-4_f32;
    let p = p * r + 1.398_199_9e-3;
    let p = p * r + 8.333_452e-3;
    let p = p * r + 4.166_579_6e-2;
    let p = p * r + 1.666_666_5e-1;
    let p = p * r + 5.000_000_3e-1;
    let e = p * r * r + r + 1.0;
    let scale = f32::from_bits((((k as i32) + 127) << 23) as u32);
    e * scale
}

/// Shannon entropy (nats) of the softmax distribution of raw `scores`,
/// without materializing the probabilities: with `m = max(s)`,
/// `e_c = exp(s_c − m)` and `Z = Σ e_c`,
/// `H = −Σ p_c·ln p_c = ln Z − (Σ e_c·(s_c − m)) / Z` — one `ln` total
/// instead of one per class, and no normalization pass. A degenerate
/// zero-`Z` input falls back to the uniform entropy, matching
/// [`softmax_in_place`]'s fallback.
///
/// The exponentials come from [`exp_approx`] accumulated across
/// `LANES` parallel f32 partial sums (folded to f64 at the end), so
/// the loop vectorizes; [`entropy_from_scores_reference`] keeps the
/// scalar libm version and the parity tests hold the two within 1e-5.
pub fn entropy_from_scores(scores: &[f32]) -> f64 {
    if scores.is_empty() {
        return 0.0;
    }
    let m = scores.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let mut z_lanes = [0.0f32; LANES];
    let mut w_lanes = [0.0f32; LANES];
    let chunks = scores.chunks_exact(LANES);
    let tail = chunks.remainder();
    for chunk in chunks {
        for j in 0..LANES {
            let shifted = chunk[j] - m;
            let e = exp_approx(shifted);
            z_lanes[j] += e;
            w_lanes[j] = e.mul_add(shifted, w_lanes[j]);
        }
    }
    let mut z: f64 = z_lanes.iter().copied().map(f64::from).sum();
    let mut weighted: f64 = w_lanes.iter().copied().map(f64::from).sum();
    for &s in tail {
        let shifted = s - m;
        let e = exp_approx(shifted);
        z += f64::from(e);
        weighted += f64::from(e * shifted);
    }
    if z > 0.0 {
        z.ln() - weighted / z
    } else {
        (scores.len() as f64).ln()
    }
}

/// The scalar reference for [`entropy_from_scores`]: libm `exp`, straight
/// f64 accumulation. Kept public as the parity oracle and as the
/// pre-vectorization baseline the `translate` bench measures speedups
/// against.
pub fn entropy_from_scores_reference(scores: &[f32]) -> f64 {
    if scores.is_empty() {
        return 0.0;
    }
    let m = scores.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let mut z = 0.0f64;
    let mut weighted = 0.0f64;
    for &s in scores {
        let shifted = s - m;
        let e = shifted.exp();
        z += f64::from(e);
        weighted += f64::from(e * shifted);
    }
    if z > 0.0 {
        z.ln() - weighted / z
    } else {
        (scores.len() as f64).ln()
    }
}

/// Moves the `k` best `(class id, probability)` pairs to the front of
/// `ranked`, in rank order, and returns how many there are
/// (`min(k, len)`). The order is total: probability descending by
/// `total_cmp`, then id ascending, so partial selection plus a sort of
/// the prefix gives exactly the prefix of a full sort.
pub(crate) fn rank_top_k(ranked: &mut [(u32, f32)], k: usize) -> usize {
    let order = |a: &(u32, f32), b: &(u32, f32)| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0));
    let taken = k.min(ranked.len());
    if taken == 0 {
        return 0;
    }
    if taken < ranked.len() {
        ranked.select_nth_unstable_by(taken - 1, order);
    }
    ranked[..taken].sort_unstable_by(order);
    taken
}

/// Numerically stable in-place softmax.
pub fn softmax_in_place(scores: &mut [f32]) {
    let max = scores.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let mut total = 0.0f32;
    for s in scores.iter_mut() {
        *s = (*s - max).exp();
        total += *s;
    }
    if total > 0.0 {
        for s in scores.iter_mut() {
            *s /= total;
        }
    } else {
        let uniform = 1.0 / scores.len() as f32;
        scores.fill(uniform);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Three linearly separable classes on disjoint feature sets.
    fn separable() -> (Vec<(SparseVector, u32)>, usize) {
        let mut examples = Vec::new();
        for rep in 0..20u32 {
            let noise = (rep % 3) as f32 * 0.01;
            examples.push((
                SparseVector::from_pairs(vec![(0, 1.0 + noise), (3, 0.1)]),
                0,
            ));
            examples.push((
                SparseVector::from_pairs(vec![(1, 1.0 + noise), (3, 0.1)]),
                1,
            ));
            examples.push((
                SparseVector::from_pairs(vec![(2, 1.0 + noise), (3, 0.1)]),
                2,
            ));
        }
        (examples, 4)
    }

    /// The model's weights through `row_tiles`, the stream a snapshot
    /// blob is written from: row-major class rows, no pad columns.
    fn weights(model: &SoftmaxClassifier) -> Vec<f32> {
        let mut out = Vec::new();
        let Ok(()) = model.row_tiles(|tile| {
            out.extend_from_slice(tile);
            Ok::<_, Infallible>(())
        });
        out
    }

    #[test]
    fn learns_separable_data() {
        let (examples, dim) = separable();
        let (model, _) = SoftmaxClassifier::train_owned(&examples, 3, dim, TrainConfig::default());
        for (x, y) in &examples {
            assert_eq!(model.predict(x), *y);
        }
    }

    #[test]
    fn probabilities_sum_to_one() {
        let (examples, dim) = separable();
        let (model, _) = SoftmaxClassifier::train_owned(&examples, 3, dim, TrainConfig::default());
        let p = model.predict_proba(&examples[0].0);
        let total: f32 = p.iter().sum();
        assert!((total - 1.0).abs() < 1e-5);
        assert!(p.iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn top_k_is_sorted_and_truncated() {
        let (examples, dim) = separable();
        let (model, _) = SoftmaxClassifier::train_owned(&examples, 3, dim, TrainConfig::default());
        let top = model.top_k(&examples[0].0, 2);
        assert_eq!(top.len(), 2);
        assert!(top[0].1 >= top[1].1);
        assert_eq!(top[0].0, 0);
        // k beyond classes clamps
        assert_eq!(model.top_k(&examples[0].0, 10).len(), 3);
    }

    #[test]
    fn top_k_breaks_probability_ties_by_id() {
        // biases only: classes {1, 2, 4} tie on top, {0, 3} tie next
        let biases = vec![1.0, 2.0, 2.0, 1.0, 2.0, 0.0];
        let n = biases.len();
        let model = SoftmaxClassifier::from_state(SoftmaxState {
            weights: vec![0.0; n * 2],
            biases,
            grad_sq_w: vec![1e-8; n * 2],
            grad_sq_b: vec![1e-8; n],
            dim: 2,
            n_classes: n,
            fits: 1,
        })
        .unwrap()
        .0;
        let x = SparseVector::from_pairs(vec![(0, 1.0)]);
        let ids = |k| -> Vec<u32> { model.top_k(&x, k).iter().map(|&(id, _)| id).collect() };
        assert_eq!(ids(0), Vec::<u32>::new());
        assert_eq!(ids(1), vec![1]);
        assert_eq!(ids(2), vec![1, 2]);
        assert_eq!(ids(4), vec![1, 2, 4, 0]);
        assert_eq!(ids(n), vec![1, 2, 4, 0, 3, 5]);
        assert_eq!(ids(n + 3), vec![1, 2, 4, 0, 3, 5]);
        // an all-zero model is one n-way tie: id order
        let flat = SoftmaxClassifier::untrained(n, 2);
        let top: Vec<u32> = flat.top_k(&x, 3).iter().map(|&(id, _)| id).collect();
        assert_eq!(top, vec![0, 1, 2]);
    }

    #[test]
    fn deterministic_training() {
        let (examples, dim) = separable();
        let (m1, _) = SoftmaxClassifier::train_owned(&examples, 3, dim, TrainConfig::default());
        let (m2, _) = SoftmaxClassifier::train_owned(&examples, 3, dim, TrainConfig::default());
        assert_eq!(
            m1.predict_proba(&examples[5].0),
            m2.predict_proba(&examples[5].0)
        );
    }

    #[test]
    fn unseen_features_are_ignored() {
        let (examples, dim) = separable();
        let (model, _) = SoftmaxClassifier::train_owned(&examples, 3, dim, TrainConfig::default());
        // feature index 100 is beyond dim: must not panic, must not matter
        let x = SparseVector::from_pairs(vec![(0, 1.0), (100, 5.0)]);
        assert_eq!(model.predict(&x), 0);
    }

    #[test]
    fn single_class_degenerates_gracefully() {
        let examples = vec![(SparseVector::from_pairs(vec![(0, 1.0)]), 0u32); 4];
        let (model, _) = SoftmaxClassifier::train_owned(&examples, 1, 2, TrainConfig::default());
        let p = model.predict_proba(&examples[0].0);
        assert_eq!(p, vec![1.0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn class_out_of_range_panics() {
        let examples = vec![(SparseVector::from_pairs(vec![(0, 1.0)]), 5u32)];
        SoftmaxClassifier::train_owned(&examples, 3, 2, TrainConfig::default());
    }

    #[test]
    fn entropy_from_scores_matches_softmax_then_entropy() {
        use crate::metrics::entropy;
        for scores in [
            vec![0.0f32, 0.0, 0.0],
            vec![1.0, -2.0, 3.5, 0.25],
            vec![1000.0, 1001.0, 999.0],
            vec![-7.0],
        ] {
            let mut probs = scores.clone();
            softmax_in_place(&mut probs);
            let expected = entropy(&probs);
            let fused = entropy_from_scores(&scores);
            assert!(
                (fused - expected).abs() < 1e-5,
                "{scores:?}: fused {fused} vs two-pass {expected}"
            );
        }
        assert_eq!(entropy_from_scores(&[]), 0.0);
    }

    #[test]
    fn exp_approx_tracks_libm_exp() {
        for i in -870..=880 {
            let x = i as f32 / 10.0;
            let got = exp_approx(x);
            let want = x.exp();
            let rel = ((got - want) / want).abs();
            assert!(
                rel < 2e-6,
                "exp_approx({x}) = {got}, libm {want}, rel {rel}"
            );
        }
        assert!(exp_approx(-10_000.0).is_finite());
        assert!(exp_approx(10_000.0).is_finite());
        assert_eq!(exp_approx(0.0), 1.0);
    }

    #[test]
    fn fast_entropy_matches_reference_on_wide_rows() {
        // wide pseudo-random score rows, like the 830-class key head
        let mut state = 0x9E37_79B9_u32;
        let mut next = move || {
            state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            (state >> 8) as f32 / (1 << 20) as f32 - 8.0
        };
        for width in [1usize, 7, 8, 9, 64, 311, 830] {
            let scores: Vec<f32> = (0..width).map(|_| next()).collect();
            let fast = entropy_from_scores(&scores);
            let reference = entropy_from_scores_reference(&scores);
            assert!(
                (fast - reference).abs() < 1e-5,
                "width {width}: fast {fast} vs reference {reference}"
            );
        }
        assert_eq!(entropy_from_scores_reference(&[]), 0.0);
    }

    #[test]
    fn softmax_stability() {
        let mut huge = [1000.0f32, 1001.0, 999.0];
        softmax_in_place(&mut huge);
        assert!((huge.iter().sum::<f32>() - 1.0).abs() < 1e-5);
        assert!(huge.iter().all(|v| v.is_finite()));
        let mut tiny = [-1000.0f32, -1000.0];
        softmax_in_place(&mut tiny);
        assert!((tiny[0] - 0.5).abs() < 1e-5);
    }

    #[test]
    fn partial_fit_learns_incrementally() {
        let (examples, dim) = separable();
        let views: Vec<(SparseView<'_>, u32)> =
            examples.iter().map(|(x, y)| (x.view(), *y)).collect();
        let mut model = SoftmaxClassifier::untrained(3, dim);
        let mut training = SoftmaxTraining::untrained(3, dim);
        for chunk in views.chunks(12) {
            model.partial_fit(&mut training, chunk, TrainConfig::default());
        }
        for (x, y) in &examples {
            assert_eq!(model.predict(x), *y, "warm-started stream must classify");
        }
    }

    #[test]
    fn partial_fit_grows_classes_in_place() {
        let (examples, dim) = separable();
        let (mut model, mut training) =
            SoftmaxClassifier::train_owned(&examples, 3, dim, TrainConfig::default());
        assert_eq!(model.n_classes(), 3);
        // a brand-new class arrives mid-stream on its own feature
        let novel = SparseVector::from_pairs(vec![(3, 2.0)]);
        let batch = vec![(novel.view(), 3u32); 12];
        model.partial_fit(&mut training, &batch, TrainConfig::default());
        assert_eq!((model.n_classes(), training.n_classes()), (4, 4));
        assert_eq!(model.predict(&novel), 3);
        // the old classes survive the growth
        assert_eq!(model.predict(&examples[0].0), 0);
        assert_eq!(model.predict_proba(&examples[0].0).len(), 4);
    }

    #[test]
    fn a_clone_copies_only_the_rows_it_trains_and_recycles_retired_ones() {
        let (examples, dim) = separable();
        let config = TrainConfig::default();
        let bits = |values: &[f32]| values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let shared = |a: &SoftmaxClassifier, b: &SoftmaxClassifier| -> Vec<bool> {
            a.rows
                .iter()
                .zip(&b.rows)
                .map(|(a, b)| Arc::ptr_eq(a, b))
                .collect()
        };
        let (original, mut training) = SoftmaxClassifier::train_owned(&examples, 3, dim, config);
        training.take_row_copies();
        let before = weights(&original);
        // a small batch on features 0 and 3 only
        let x = SparseVector::from_pairs(vec![(0, 1.0), (3, 0.1)]);
        let batch = [(x.view(), 0u32)];

        let mut clone = original.clone();
        assert_eq!(shared(&original, &clone), [true; 4]);
        clone.partial_fit(&mut training, &batch, config);
        assert_eq!(bits(&weights(&original)), bits(&before));
        assert_ne!(bits(&weights(&clone)), bits(&before));
        assert_eq!(shared(&original, &clone), [false, true, true, false]);
        let copies = training.take_row_copies();
        assert_eq!(
            copies,
            RowCopies {
                copied: 2,
                recycled: 0
            }
        );

        // the next clone's copies fill the rows the retired original alone
        // held, and train exactly as fresh copies would
        let mut next = clone.clone();
        let mut fresh = clone.clone();
        let mut fresh_training = training.clone();
        let retired_rows: Vec<*const f32> = [0, 3].map(|i| original.rows[i].as_ptr()).to_vec();
        training.recycle(original);
        next.partial_fit(&mut training, &batch, config);
        fresh.partial_fit(&mut fresh_training, &batch, config);
        assert_eq!(bits(&weights(&next)), bits(&weights(&fresh)));
        assert_eq!(shared(&clone, &next), [false, true, true, false]);
        let mut reused: Vec<*const f32> = [0, 3].map(|i| next.rows[i].as_ptr()).to_vec();
        reused.sort();
        let mut retired_rows = retired_rows;
        retired_rows.sort();
        assert_eq!(reused, retired_rows);
        assert_eq!(
            training.take_row_copies(),
            RowCopies {
                copied: 2,
                recycled: 2
            }
        );
        assert_eq!(
            fresh_training.take_row_copies(),
            RowCopies {
                copied: 2,
                recycled: 0
            }
        );
        assert!(training.pool.spare.is_empty(), "a fit drops its leftovers");
        // a model still shared with the published one gives up no row
        let shared_retired = next.clone();
        training.recycle(shared_retired);
        assert!(training.pool.spare.is_empty());
    }

    #[test]
    fn untrained_models_share_one_zero_row() {
        let model = SoftmaxClassifier::untrained(3, 4);
        assert!(model
            .rows
            .iter()
            .all(|row| Arc::ptr_eq(row, &model.rows[0])));
        assert_eq!(weights(&model), vec![0.0; 3 * 4]);
        assert_eq!(&*model.rows[0], &[0.0; 8], "pad columns included");
    }

    #[test]
    fn state_round_trip_is_exact_and_resumes_training() {
        let (examples, dim) = separable();
        let views: Vec<(SparseView<'_>, u32)> =
            examples.iter().map(|(x, y)| (x.view(), *y)).collect();
        let mut original = SoftmaxClassifier::untrained(3, dim);
        let mut original_training = SoftmaxTraining::untrained(3, dim);
        original.partial_fit(&mut original_training, &views[..20], TrainConfig::default());
        let (mut restored, mut restored_training) =
            SoftmaxClassifier::from_state(original.export_state(&original_training)).unwrap();
        // bit-identical inference after the round trip
        for (x, _) in &examples {
            assert_eq!(original.predict_proba(x), restored.predict_proba(x));
        }
        // and bit-identical *continued training*: the AdaGrad state and
        // fit counter survived, so the streams stay in lockstep
        original.partial_fit(&mut original_training, &views[20..], TrainConfig::default());
        restored.partial_fit(&mut restored_training, &views[20..], TrainConfig::default());
        for (x, _) in &examples {
            assert_eq!(original.predict_proba(x), restored.predict_proba(x));
        }
        assert!(
            original.export_state(&original_training) == restored.export_state(&restored_training)
        );
    }

    #[test]
    fn row_tiles_stream_the_exported_rows_and_rebuild_the_blocks() {
        // 140 classes grown to 150: past the stride, and two full tiles
        // plus a partial one
        let dim = 5;
        let example = |c: u32| {
            let x = vec![(c % 5, 1.0 + c as f32 * 0.01), ((c + 2) % 5, 0.5)];
            (SparseVector::from_pairs(x), c)
        };
        let first: Vec<(SparseVector, u32)> = (0..140).map(example).collect();
        let (mut model, mut training) =
            SoftmaxClassifier::train_owned(&first, 140, dim, TrainConfig::default());
        let grown: Vec<(SparseVector, u32)> = (130..150).map(example).collect();
        let views: Vec<(SparseView<'_>, u32)> = grown.iter().map(|(x, y)| (x.view(), *y)).collect();
        model.partial_fit(&mut training, &views, TrainConfig::default());
        let n = model.n_classes();
        assert_eq!(n, 150);
        let bits = |values: &[f32]| values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();

        let state = model.export_state(&training);
        let (mut streamed, mut grad_sq) = (Vec::new(), Vec::new());
        let tile_shape =
            |tile: &[f32]| tile.len() <= TILE_CLASSES * dim && tile.len().is_multiple_of(dim);
        model
            .row_tiles(|tile| {
                assert!(tile_shape(tile));
                streamed.extend_from_slice(tile);
                Ok::<_, ()>(())
            })
            .unwrap();
        training
            .row_tiles(|tile| {
                assert!(tile_shape(tile));
                grad_sq.extend_from_slice(tile);
                Ok::<_, ()>(())
            })
            .unwrap();
        assert_eq!(bits(&streamed), bits(&state.weights));
        assert_eq!(bits(&grad_sq), bits(&state.grad_sq_w));

        let w = || feature_rows_from_tiles(n, dim, tiles_of(&state.weights)).unwrap();
        let g = || feature_major_from_tiles(n, dim, tiles_of(&state.grad_sq_w)).unwrap();
        let rebuilt = SoftmaxClassifier::from_rows(w(), state.biases.clone(), dim, n).unwrap();
        let rebuilt_training =
            SoftmaxTraining::from_blocks(g(), state.grad_sq_b.clone(), dim, n, state.fits).unwrap();
        // the same rows and blocks, pad columns included: the grown
        // model's re-strided pad columns hold 0.0 like the decoded ones
        assert_eq!(bits(&weights(&rebuilt)), bits(&weights(&model)));
        assert_eq!(bits(&rebuilt.rows.concat()), bits(&model.rows.concat()));
        assert!(model.rows.iter().all(|row| row[n..] == [0.0; 2]));
        assert_eq!(bits(&rebuilt.biases), bits(&model.biases));
        assert_eq!(bits(&rebuilt_training.grad_sq_w), bits(&training.grad_sq_w));
        assert_eq!(bits(&rebuilt_training.grad_sq_b), bits(&training.grad_sq_b));
        assert_eq!(
            (
                rebuilt.stride,
                rebuilt_training.stride,
                rebuilt_training.fits
            ),
            (model.stride, training.stride, training.fits)
        );

        // an error stops either stream at once
        let mut calls = 0;
        let stopped = model.row_tiles(|_| {
            calls += 1;
            Err("stop")
        });
        assert_eq!((stopped, calls), (Err("stop"), 1));
        assert!(feature_major_from_tiles(n, dim, |_| Err("stop")).is_err());
        // and shapes that do not fit are rejected
        assert!(SoftmaxClassifier::from_rows(w(), vec![0.0; n - 1], dim, n).is_err());
        assert!(SoftmaxClassifier::from_rows(w(), vec![0.0; n], dim + 1, n).is_err());
        assert!(SoftmaxTraining::from_blocks(g(), vec![0.0; n - 1], dim, n, 1).is_err());
        assert!(SoftmaxTraining::from_blocks(g(), vec![0.0; n], dim + 1, n, 1).is_err());
        assert!(SoftmaxClassifier::from_rows(Vec::new(), Vec::new(), dim, 0).is_err());
        assert!(SoftmaxTraining::from_blocks(Vec::new(), Vec::new(), dim, 0, 1).is_err());
    }

    #[test]
    fn from_state_rejects_corrupt_shapes() {
        let (examples, dim) = separable();
        let (model, training) =
            SoftmaxClassifier::train_owned(&examples, 3, dim, TrainConfig::default());
        let mut state = model.export_state(&training);
        state.weights.pop();
        assert!(SoftmaxClassifier::from_state(state).is_err());
        let mut state = model.export_state(&training);
        state.n_classes = 0;
        assert!(SoftmaxClassifier::from_state(state).is_err());
    }
}
