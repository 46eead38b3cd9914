//! Bit-identity property test for training in the feature-major layout.
//!
//! `SoftmaxClassifier` (the weights and biases) and its `SoftmaxTraining`
//! (the AdaGrad accumulators) train in place in their feature-major
//! blocks (one `dim × stride` array each, class columns contiguous per
//! feature). The reference here is the row-major AdaGrad loop they
//! replaced, kept verbatim over the unsplit `SoftmaxState`: one
//! `dim`-long weight row per class, scores as `bias + x.dot_dense(row)`,
//! class growth as a tail `resize`. After every step of a random
//! `train` → `partial_fit` sequence — with mid-stream class growth inside
//! and past the padded stride, and `export_state` → `from_state` round
//! trips — the two halves' exported weights, biases and both AdaGrad
//! accumulators must equal the reference's bit for bit, and so must the
//! probabilities. A fixed case grows 140 classes to 150 past the stride
//! and streams both re-strided halves through the row-major blob layout
//! and back.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use scrutinizer_learn::softmax::{
    feature_major_from_tiles, feature_rows_from_tiles, softmax_in_place, GRAD_SQ_INIT,
};
use scrutinizer_learn::{SoftmaxClassifier, SoftmaxState, SoftmaxTraining, TrainConfig};
use scrutinizer_text::{SparseVector, SparseView};

/// The row-major AdaGrad trainer: the reference implementation.
struct RowMajor {
    state: SoftmaxState,
}

impl RowMajor {
    fn untrained(n_classes: usize, dim: usize) -> Self {
        RowMajor {
            state: SoftmaxState {
                weights: vec![0.0; n_classes * dim],
                biases: vec![0.0; n_classes],
                grad_sq_w: vec![1e-8; n_classes * dim],
                grad_sq_b: vec![1e-8; n_classes],
                dim,
                n_classes,
                fits: 0,
            },
        }
    }

    fn train(
        examples: &[(SparseView<'_>, u32)],
        n_classes: usize,
        dim: usize,
        config: TrainConfig,
    ) -> Self {
        let mut model = RowMajor::untrained(n_classes, dim);
        model.fit_epochs(examples, config, config.seed);
        model.state.fits = 1;
        model
    }

    fn partial_fit(&mut self, examples: &[(SparseView<'_>, u32)], config: TrainConfig) {
        if examples.is_empty() {
            return;
        }
        let max_class = examples.iter().map(|(_, y)| *y).max().unwrap_or(0) as usize;
        let s = &mut self.state;
        if max_class >= s.n_classes {
            let n_classes = max_class + 1;
            s.weights.resize(n_classes * s.dim, 0.0);
            s.grad_sq_w.resize(n_classes * s.dim, 1e-8);
            s.biases.resize(n_classes, 0.0);
            s.grad_sq_b.resize(n_classes, 1e-8);
            s.n_classes = n_classes;
        }
        let seed = config
            .seed
            .wrapping_add(self.state.fits.wrapping_mul(0x9E37_79B9));
        self.fit_epochs(examples, config, seed);
        self.state.fits += 1;
    }

    fn scores_into(&self, x: SparseView<'_>, scores: &mut [f32]) {
        let s = &self.state;
        for (c, score) in scores.iter_mut().enumerate() {
            *score = s.biases[c] + x.dot_dense(&s.weights[c * s.dim..(c + 1) * s.dim]);
        }
    }

    fn predict_proba(&self, x: SparseView<'_>) -> Vec<f32> {
        let mut probs = vec![0.0f32; self.state.n_classes];
        self.scores_into(x, &mut probs);
        softmax_in_place(&mut probs);
        probs
    }

    fn fit_epochs(&mut self, examples: &[(SparseView<'_>, u32)], config: TrainConfig, seed: u64) {
        let n_classes = self.state.n_classes;
        let dim = self.state.dim;
        let mut order: Vec<usize> = (0..examples.len()).collect();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut probs = vec![0.0f32; n_classes];
        let mut touched: Vec<usize> = Vec::with_capacity(n_classes.min(64));
        for _ in 0..config.epochs {
            order.shuffle(&mut rng);
            for &idx in &order {
                let (x, y) = &examples[idx];
                self.scores_into(*x, &mut probs);
                softmax_in_place(&mut probs);
                touched.clear();
                if n_classes <= config.max_update_classes {
                    touched.extend(0..n_classes);
                } else {
                    let mut ranked: Vec<usize> = (0..n_classes).collect();
                    ranked.select_nth_unstable_by(config.max_update_classes - 1, |&a, &b| {
                        probs[b].total_cmp(&probs[a])
                    });
                    touched.extend_from_slice(&ranked[..config.max_update_classes]);
                    if !touched.contains(&(*y as usize)) {
                        touched.push(*y as usize);
                    }
                }
                let s = &mut self.state;
                for &c in &touched {
                    let g = probs[c] - f32::from(c as u32 == *y);
                    if g == 0.0 {
                        continue;
                    }
                    let gb = g;
                    s.grad_sq_b[c] += gb * gb;
                    s.biases[c] -= config.learning_rate * gb / s.grad_sq_b[c].sqrt();
                    let row = c * dim;
                    for (i, v) in x.iter() {
                        let i = i as usize;
                        if i >= dim {
                            continue;
                        }
                        let slot = row + i;
                        let gw = g * v + config.l2 * s.weights[slot];
                        s.grad_sq_w[slot] += gw * gw;
                        s.weights[slot] -= config.learning_rate * gw / s.grad_sq_w[slot].sqrt();
                    }
                }
            }
        }
    }
}

/// SplitMix64: the per-step data stream, seeded by the strategy.
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

/// One step of a training sequence.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// From-scratch `train`, possibly over more classes than before.
    Train(u64),
    /// Warm-start `partial_fit`; class ids past the current count grow
    /// the model, sometimes within the padded stride, sometimes past it.
    PartialFit(u64),
    /// `export_state` → `from_state`.
    RoundTrip,
}

fn step() -> impl Strategy<Value = Step> {
    prop_oneof![
        1 => (0u64..u64::MAX).prop_map(Step::Train),
        3 => (0u64..u64::MAX).prop_map(Step::PartialFit),
        1 => Just(Step::RoundTrip),
    ]
}

/// A random hyper-parameter set: few epochs, and an update budget that
/// is sometimes below the class count (the candidate-sampling path).
fn config(mix: &mut Mix) -> TrainConfig {
    TrainConfig {
        epochs: 1 + mix.below(3) as usize,
        learning_rate: [0.5, 0.1, 1.0][mix.below(3) as usize],
        l2: [1e-5, 0.0, 1e-3][mix.below(3) as usize],
        seed: mix.next(),
        max_update_classes: 1 + mix.below(10) as usize,
    }
}

/// Random examples over `classes` classes; some feature indices run past
/// `dim`, and quantized values make exact probability ties likely.
fn examples(mix: &mut Mix, dim: usize, classes: usize) -> Vec<(SparseVector, u32)> {
    let n = 1 + mix.below(24) as usize;
    (0..n)
        .map(|_| {
            let nnz = mix.below(26) as usize;
            let pairs = (0..nnz)
                .map(|_| {
                    let value = if mix.below(2) == 0 {
                        mix.signed(2.0)
                    } else {
                        [1.0, -1.0, 0.5][mix.below(3) as usize]
                    };
                    (mix.below(dim as u64 + 4) as u32, value)
                })
                .collect();
            let class = mix.below(classes as u64) as u32;
            (SparseVector::from_pairs(pairs), class)
        })
        .collect()
}

fn views(examples: &[(SparseVector, u32)]) -> Vec<(SparseView<'_>, u32)> {
    examples.iter().map(|(x, y)| (x.view(), *y)).collect()
}

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// The comparison: exported state and probabilities, bit for bit.
fn check(
    model: &SoftmaxClassifier,
    training: &SoftmaxTraining,
    reference: &RowMajor,
    probe: &[(SparseVector, u32)],
) -> Result<(), String> {
    let got = model.export_state(training);
    let want = &reference.state;
    let shape = |s: &SoftmaxState| (s.dim, s.n_classes, s.fits);
    if shape(&got) != shape(want) {
        return Err(format!(
            "shape {:?} != reference {:?}",
            shape(&got),
            shape(want)
        ));
    }
    for (name, a, b) in [
        ("weights", &got.weights, &want.weights),
        ("biases", &got.biases, &want.biases),
        ("grad_sq_w", &got.grad_sq_w, &want.grad_sq_w),
        ("grad_sq_b", &got.grad_sq_b, &want.grad_sq_b),
    ] {
        if bits(a) != bits(b) {
            let at = a
                .iter()
                .zip(b)
                .position(|(x, y)| x.to_bits() != y.to_bits());
            return Err(format!(
                "{name} differ (len {} vs {}, first at {at:?})",
                a.len(),
                b.len()
            ));
        }
    }
    for (r, (x, _)) in probe.iter().enumerate() {
        let got = model.predict_proba_view(x.view());
        if bits(&got) != bits(&reference.predict_proba(x.view())) {
            return Err(format!("probabilities of probe row {r} differ"));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn feature_major_training_equals_the_row_major_reference_bit_for_bit(
        steps in prop::collection::vec(step(), 1..7),
        dim in 1usize..24,
        classes in 1usize..12,
        seed in 0u64..u64::MAX,
    ) {
        let mut mix = Mix(seed);
        let mut model = SoftmaxClassifier::untrained(classes, dim);
        let mut training = SoftmaxTraining::untrained(classes, dim);
        let mut reference = RowMajor::untrained(classes, dim);
        for (round, &step) in steps.iter().enumerate() {
            let probe = examples(&mut mix, dim, 1);
            match step {
                Step::Train(seed) => {
                    let mut mix = Mix(seed);
                    let n_classes = model.n_classes() + mix.below(6) as usize;
                    let data = examples(&mut mix, dim, n_classes);
                    let config = config(&mut mix);
                    (model, training) =
                        SoftmaxClassifier::train(&views(&data), n_classes, dim, config);
                    reference = RowMajor::train(&views(&data), n_classes, dim, config);
                }
                Step::PartialFit(seed) => {
                    let mut mix = Mix(seed);
                    let reach = model.n_classes() + mix.below(12) as usize;
                    let data = examples(&mut mix, dim, reach);
                    let config = config(&mut mix);
                    model.partial_fit(&mut training, &views(&data), config);
                    reference.partial_fit(&views(&data), config);
                }
                Step::RoundTrip => {
                    (model, training) =
                        SoftmaxClassifier::from_state(model.export_state(&training))
                            .expect("an exported state restores");
                }
            }
            let parity = check(&model, &training, &reference, &probe);
            prop_assert!(parity.is_ok(), "after {:?}: {}", &steps[..=round], parity.unwrap_err());
        }
    }
}

/// Streams one half's block the way a snapshot blob stores it —
/// row-major class rows as little-endian f32 bytes, one tile at a time —
/// and returns the bytes.
fn to_blob(row_tiles: impl FnOnce(&mut dyn FnMut(&[f32]) -> Result<(), ()>)) -> Vec<u8> {
    let mut blob = Vec::new();
    row_tiles(&mut |tile| {
        blob.extend(tile.iter().flat_map(|v| v.to_le_bytes()));
        Ok(())
    });
    blob
}

/// Decodes [`to_blob`]'s bytes with `decode`, one of the two tile
/// decoders, into that half's fresh padded rows.
fn from_blob<T>(
    blob: &[u8],
    decode: impl FnOnce(&mut dyn FnMut(&mut [f32]) -> Result<(), ()>) -> Result<T, ()>,
) -> T {
    let mut values = blob
        .chunks_exact(4)
        .map(|raw| f32::from_le_bytes(raw.try_into().expect("4 bytes")));
    let filled = decode(&mut |tile| {
        for slot in tile.iter_mut() {
            *slot = values.next().ok_or(())?;
        }
        Ok(())
    })
    .expect("the blob holds every row");
    assert!(values.next().is_none(), "the blob holds only these rows");
    filled
}

#[test]
fn class_growth_past_the_stride_restrides_both_halves() {
    let dim = 7;
    let config = TrainConfig::default();
    let example = |c: u32| {
        let x = vec![(c % 7, 1.0 + c as f32 * 0.01), ((c + 3) % 9, -0.5)];
        (SparseVector::from_pairs(x), c)
    };
    let first: Vec<(SparseVector, u32)> = (0..140).map(example).collect();
    let (mut model, mut training) = SoftmaxClassifier::train(&views(&first), 140, dim, config);
    let mut reference = RowMajor::train(&views(&first), 140, dim, config);
    assert_eq!((model.stride(), training.stride()), (144, 144));

    // the batch's new label 149 lies past the 144-column stride
    let grown: Vec<(SparseVector, u32)> = (125..150).map(example).collect();
    model.partial_fit(&mut training, &views(&grown), config);
    reference.partial_fit(&views(&grown), config);
    assert_eq!((model.n_classes(), training.n_classes()), (150, 150));
    assert_eq!((model.stride(), training.stride()), (152, 152));
    let probe: Vec<(SparseVector, u32)> = (0..150).step_by(7).map(example).collect();
    let parity = check(&model, &training, &reference, &probe);
    assert!(parity.is_ok(), "{}", parity.unwrap_err());

    // both halves re-strided, pad columns at their initial values
    let pads = |block: &[f32], stride: usize| -> Vec<u32> {
        block
            .chunks_exact(stride)
            .flat_map(|column| column[150..].iter().map(|v| v.to_bits()))
            .collect()
    };
    let all = |value: f32, n: usize| vec![value.to_bits(); n];
    let weights_blob = to_blob(|emit| model.row_tiles(emit).expect("a Vec sink"));
    assert_eq!(weights_blob.len(), dim * 150 * 4);
    assert_eq!(training.grad_sq_block().len(), dim * 152);
    assert_eq!(
        pads(training.grad_sq_block(), 152),
        all(GRAD_SQ_INIT, dim * 2)
    );
    assert_eq!(pads(model.padded_biases(), 152), all(0.0, 2));
    assert_eq!(
        pads(training.padded_grad_sq_biases(), 152),
        all(GRAD_SQ_INIT, 2)
    );

    // streamed to blob bytes, each half is the unsplit reference's rows
    let want = &reference.state;
    let grad_sq_blob = to_blob(|emit| training.row_tiles(emit).expect("a Vec sink"));
    let le = |values: &[f32]| -> Vec<u8> { values.iter().flat_map(|v| v.to_le_bytes()).collect() };
    assert!(weights_blob == le(&want.weights), "streamed weights differ");
    assert!(
        grad_sq_blob == le(&want.grad_sq_w),
        "streamed accumulators differ"
    );

    // and back: the same rows and blocks, pad columns included
    let rows = from_blob(&weights_blob, |fill| {
        feature_rows_from_tiles(150, dim, fill)
    });
    let grad_sq = from_blob(&grad_sq_blob, |fill| {
        feature_major_from_tiles(150, dim, fill)
    });
    assert_eq!(pads(&rows.concat(), 152), all(0.0, dim * 2));
    assert_eq!(bits(&grad_sq), bits(training.grad_sq_block()));
    let rebuilt = SoftmaxClassifier::from_rows(rows, want.biases.clone(), dim, 150)
        .expect("the streamed weights fit");
    let rebuilt_blob = to_blob(|emit| rebuilt.row_tiles(emit).expect("a Vec sink"));
    assert!(rebuilt_blob == weights_blob, "the rebuilt weights differ");
    let rebuilt_training =
        SoftmaxTraining::from_blocks(grad_sq, want.grad_sq_b.clone(), dim, 150, want.fits)
            .expect("the streamed accumulators fit");
    assert_eq!(bits(rebuilt.padded_biases()), bits(model.padded_biases()));
    assert_eq!(
        bits(rebuilt_training.padded_grad_sq_biases()),
        bits(training.padded_grad_sq_biases())
    );
    let parity = check(&rebuilt, &rebuilt_training, &reference, &probe);
    assert!(
        parity.is_ok(),
        "after the blob round trip: {}",
        parity.unwrap_err()
    );

    // the rebuilt halves keep training in lockstep with the reference
    let (mut model, mut training) = (rebuilt, rebuilt_training);
    let more: Vec<(SparseVector, u32)> = (100..150).rev().map(example).collect();
    model.partial_fit(&mut training, &views(&more), config);
    reference.partial_fit(&views(&more), config);
    let parity = check(&model, &training, &reference, &probe);
    assert!(parity.is_ok(), "after resuming: {}", parity.unwrap_err());
}
