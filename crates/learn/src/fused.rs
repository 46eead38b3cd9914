//! Fused multi-model scoring — the bulk kernel behind batched
//! training-utility estimation (Definition 7) and per-claim translation
//! (§3.1).
//!
//! Definition 7 sums the prediction entropy of *four* classifiers per
//! claim, and translation ranks all four per claim. [`FusedEntropy`] is
//! a borrowed view of the classifiers: it owns no weights and is built
//! in O(classifiers), so it can never go stale after a retrain. Its one
//! sweep walks a claim's stored features once, eight at a time, and
//! folds each group through every trained classifier's own
//! feature-major rows in place — per feature, one contiguous row of
//! class columns per classifier — into a reused scratch row.
//! Untrained classifiers fold in as their constant uniform entropy.
//!
//! Translation ([`FusedEntropy::top_k_ids_each`]) must be
//! **bit-identical** to the row-major per-classifier path it replaced
//! (`bias + dot_dense` per class, then the libm softmax), because every
//! screen, plan, verdict and golden fixture downstream depends on the
//! exact ranking. Every lane runs the classifier's one scoring kernel,
//! which keeps that path's per-class summation order: each lane starts
//! at `+0.0`, adds `v · w` for the in-range stored features in CSR order
//! with an unfused multiply then add (`mul_add` rounds once and changes
//! bits), and adds the bias last.
//!
//! Translation and [`FusedEntropy::utilities_into`] share one per-row
//! sweep, which builds that score row and returns the claim's utility:
//! the entropy of each member's lanes, taken before translation softmaxes
//! them in place. So the ranking and the utility read the same scores,
//! and translation's utility is the batched pass's, bit for bit. A claim
//! is translated and scored in one pass over the weights; the batched
//! pass scores only claims whose translation is kept from an older
//! model.

use std::cell::RefCell;

use crate::classifier::PropertyClassifier;
use crate::softmax::{
    entropy_from_scores, entropy_from_scores_reference, feature_groups, rank_top_k,
    softmax_in_place, SoftmaxClassifier,
};
use scrutinizer_text::{FeatureMatrix, SparseView};

/// Per-thread translation scratch, reused across calls, so ranking
/// allocates nothing once a thread has seen the widest classifier.
struct RankScratch {
    /// The score row: every trained classifier's lanes, end to end.
    scores: Vec<f32>,
    /// `(class id, probability)` pairs of the classifier being ranked.
    ranked: Vec<(u32, f32)>,
}

thread_local! {
    static RANK_SCRATCH: RefCell<RankScratch> = const {
        RefCell::new(RankScratch {
            scores: Vec::new(),
            ranked: Vec::new(),
        })
    };
}

/// Several classifiers scored together, reading each one's weights in
/// place.
#[derive(Debug, Clone)]
pub struct FusedEntropy<'a> {
    /// Every trained classifier, in input order.
    members: Vec<Member<'a>>,
    /// Length of one scratch score row: every member's stride, end to
    /// end.
    width: usize,
    /// The members' shared feature dimensionality.
    dim: usize,
    /// Σ `ln(n_labels)` of the untrained classifiers — their constant
    /// entropy contribution per row.
    constant: f64,
}

/// One trained classifier inside a [`FusedEntropy`].
#[derive(Debug, Clone, Copy)]
struct Member<'a> {
    /// Index into the `fuse` input.
    index: usize,
    model: &'a SoftmaxClassifier,
    /// Start of this member's lanes in a scratch score row.
    offset: usize,
}

impl Member<'_> {
    /// This member's lanes of a scratch score row.
    fn lanes<'s>(&self, scratch: &'s mut [f32]) -> &'s mut [f32] {
        &mut scratch[self.offset..][..self.model.stride()]
    }
}

impl<'a> FusedEntropy<'a> {
    /// Views the trained classifiers of `models` together; untrained ones
    /// contribute their uniform entropy as a per-row constant.
    ///
    /// # Panics
    /// Panics if the trained classifiers disagree on feature
    /// dimensionality (they share one featurizer by construction).
    pub fn fuse(models: &[&'a PropertyClassifier]) -> Self {
        let mut constant = 0.0f64;
        let mut members: Vec<Member<'a>> = Vec::with_capacity(models.len());
        let mut width = 0;
        for (index, classifier) in models.iter().enumerate() {
            match classifier.softmax() {
                Some(model) => {
                    assert!(
                        members.first().is_none_or(|m| m.model.dim() == model.dim()),
                        "fused classifiers must share one feature space"
                    );
                    members.push(Member {
                        index,
                        model,
                        offset: width,
                    });
                    width += model.stride();
                }
                None => constant += classifier.uniform_entropy(),
            }
        }
        let dim = members.first().map_or(0, |m| m.model.dim());
        FusedEntropy {
            members,
            width,
            dim,
            constant,
        }
    }

    /// Scores one row into `scores[..width]`, each member's lanes by the
    /// classifiers' one kernel: one walk over the row's features, each
    /// group of eight swept through every member's block in turn, then
    /// each member's biases added. Returns the row's summed prediction
    /// entropy (Definition 7's `u(c)`): the untrained constant plus each
    /// member's [`entropy_from_scores`] of its own lanes, in member
    /// order.
    fn sweep_row(&self, x: SparseView<'_>, scores: &mut [f32]) -> f64 {
        scores[..self.width].fill(0.0);
        feature_groups(x, self.dim, |group| {
            for m in &self.members {
                m.model.add_columns(group, m.lanes(scores));
            }
        });
        let mut utility = self.constant;
        for m in &self.members {
            let lanes = m.lanes(scores);
            m.model.add_biases(lanes);
            utility += entropy_from_scores(&lanes[..m.model.n_classes()]);
        }
        utility
    }

    /// Ranks every trained classifier's classes for one claim, calling
    /// `emit(model, ranked)` once per trained classifier, in input order:
    /// `model` indexes the `fuse` input, `ranked` holds at most `k`
    /// `(class id, probability)` pairs. Returns the claim's summed
    /// prediction entropy (Definition 7's `u(c)`), bit-identical to what
    /// [`utilities_into`](Self::utilities_into) computes for the same row.
    ///
    /// Both run the one per-row sweep, which takes the utility from the
    /// score row before ranking touches it. Then each member takes the
    /// same libm softmax of its lanes and ranks by the same total order —
    /// probability descending by `total_cmp`, then id ascending — found
    /// by partial selection. The score row and ranking buffer are
    /// per-thread scratch, so `emit` must not translate again on the same
    /// thread.
    pub fn top_k_ids_each(
        &self,
        x: SparseView<'_>,
        k: usize,
        mut emit: impl FnMut(usize, &[(u32, f32)]),
    ) -> f64 {
        RANK_SCRATCH.with_borrow_mut(|RankScratch { scores, ranked }| {
            if scores.len() < self.width {
                scores.resize(self.width, 0.0);
            }
            let utility = self.sweep_row(x, scores);
            for m in &self.members {
                let probs = &mut m.lanes(scores)[..m.model.n_classes()];
                softmax_in_place(probs);
                ranked.clear();
                ranked.extend(probs.iter().enumerate().map(|(id, &p)| (id as u32, p)));
                let taken = rank_top_k(ranked, k);
                emit(m.index, &ranked[..taken]);
            }
            utility
        })
    }

    /// Appends the summed prediction entropy (Definition 7's `u(c)`) of
    /// every CSR row to `out`, each from the one per-row sweep
    /// translation runs, through the branch-free [`exp_approx`] entropy.
    /// The [`utilities_into_reference`] scalar twin is the parity oracle
    /// and the throughput baseline the `translate` bench holds this
    /// kernel to.
    ///
    /// [`exp_approx`]: crate::softmax::exp_approx
    /// [`utilities_into_reference`]: Self::utilities_into_reference
    pub fn utilities_into(&self, rows: &FeatureMatrix, out: &mut Vec<f64>) {
        out.reserve(rows.rows());
        let mut scratch = vec![0.0f32; self.width];
        out.extend(rows.iter().map(|row| self.sweep_row(row, &mut scratch)));
    }

    /// The pre-alignment scalar kernel, kept as the parity oracle and the
    /// baseline [`utilities_into`](Self::utilities_into) is benchmarked
    /// against: the trained classifiers' columns concatenated into one
    /// `dim × width` block (unpadded, unaligned, rebuilt per call — a
    /// fraction of a percent of the scoring work at any batch size worth
    /// benchmarking), exact (unpadded) rows, one feature at a time,
    /// plain zip sweeps, libm-`exp` entropy.
    pub fn utilities_into_reference(&self, rows: &FeatureMatrix, out: &mut Vec<f64>) {
        out.reserve(rows.rows());
        if self.members.is_empty() {
            out.extend(std::iter::repeat_n(self.constant, rows.rows()));
            return;
        }
        let dim = self.dim;
        let mut segments = Vec::with_capacity(self.members.len());
        let mut biases = Vec::new();
        for m in &self.members {
            segments.push((biases.len(), biases.len() + m.model.n_classes()));
            biases.extend_from_slice(m.model.biases());
        }
        let width = biases.len();
        let mut weights = Vec::with_capacity(dim * width);
        for i in 0..dim {
            for m in &self.members {
                weights.extend_from_slice(m.model.feature_column(i));
            }
        }
        let mut scratch = vec![0.0f32; width];
        for row in rows.iter() {
            scratch.copy_from_slice(&biases);
            for (i, v) in row.iter() {
                let i = i as usize;
                if i >= dim {
                    continue;
                }
                let column = &weights[i * width..(i + 1) * width];
                for (s, &w) in scratch.iter_mut().zip(column) {
                    *s += v * w;
                }
            }
            let mut utility = self.constant;
            for &(start, end) in &segments {
                utility += entropy_from_scores_reference(&scratch[start..end]);
            }
            out.push(utility);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classifier::ClassifierState;
    use crate::labels::LabelDict;
    use crate::softmax::{SoftmaxState, TrainConfig};
    use scrutinizer_text::SparseVector;

    fn features(idx: u32, extra: u32) -> SparseVector {
        SparseVector::from_pairs(vec![(idx, 1.0), (extra, 0.3)])
    }

    fn trained(labels: &[&str], shift: u32) -> PropertyClassifier {
        let mut c = PropertyClassifier::new(
            "p",
            LabelDict::from_labels(labels.iter().copied()),
            12,
            TrainConfig::default(),
        );
        let examples: Vec<(SparseVector, String)> = (0..36)
            .map(|i| {
                let class = (i as usize) % labels.len();
                (
                    features(class as u32 + shift, 11),
                    labels[class].to_string(),
                )
            })
            .collect();
        c.retrain(&mut None, &examples);
        c
    }

    #[test]
    fn fused_matches_per_classifier_entropies() {
        let a = trained(&["x", "y", "z"], 0);
        let b = trained(&["p", "q"], 4);
        let untrained = PropertyClassifier::new(
            "u",
            LabelDict::from_labels(["m", "n"]),
            12,
            TrainConfig::default(),
        );
        let rows = FeatureMatrix::from_rows((0..6).map(|i| features(i % 4, 11)));

        let fused = FusedEntropy::fuse(&[&a, &b, &untrained]);
        let mut got = Vec::new();
        fused.utilities_into(&rows, &mut got);

        for (r, utility) in got.iter().enumerate() {
            let row = rows.row(r).to_owned_vector();
            let expected: f64 = [&a, &b, &untrained]
                .iter()
                .map(|c| c.prediction_entropy(&row))
                .sum();
            assert!(
                (utility - expected).abs() < 1e-5,
                "row {r}: fused {utility} vs per-classifier {expected}"
            );
        }
    }

    #[test]
    fn vectorized_kernel_matches_the_scalar_reference() {
        let a = trained(&["x", "y", "z"], 0);
        let b = trained(&["p", "q"], 4);
        let fused = FusedEntropy::fuse(&[&a, &b]);
        // ragged nnz so both padded and unpadded row shapes are hit,
        // including an empty row and an out-of-dim feature index
        let rows = FeatureMatrix::from_rows([
            features(0, 11),
            SparseVector::from_pairs(vec![]),
            SparseVector::from_pairs((0..9).map(|i| (i, 0.1 * i as f32 + 0.2)).collect()),
            SparseVector::from_pairs(vec![(2, 1.5), (100, 9.0)]),
        ]);
        let mut fast = Vec::new();
        fused.utilities_into(&rows, &mut fast);
        let mut reference = Vec::new();
        fused.utilities_into_reference(&rows, &mut reference);
        assert_eq!(fast.len(), reference.len());
        for (r, (f, s)) in fast.iter().zip(&reference).enumerate() {
            assert!((f - s).abs() < 1e-5, "row {r}: fast {f} vs reference {s}");
        }
    }

    #[test]
    fn fused_ranking_is_each_classifiers_own_ranking_bit_for_bit() {
        let a = trained(&["x", "y", "z"], 0);
        let untrained = PropertyClassifier::new(
            "u",
            LabelDict::from_labels(["m", "n"]),
            12,
            TrainConfig::default(),
        );
        let b = trained(&["p", "q"], 4);
        let models = [&a, &untrained, &b];
        let fused = FusedEntropy::fuse(&models);
        // 9 in-range features exercise the eight-column sweep and its tail
        let rows = [
            features(0, 11),
            SparseVector::from_pairs(vec![]),
            SparseVector::from_pairs((0..9).map(|i| (i, 0.1 * i as f32 + 0.2)).collect()),
            SparseVector::from_pairs(vec![(2, 1.5), (100, 9.0)]),
        ];
        for row in &rows {
            for k in 0..5 {
                let mut seen = Vec::new();
                fused.top_k_ids_each(row.view(), k, |model, ranked| {
                    let bits = |v: &[(u32, f32)]| -> Vec<(u32, u32)> {
                        v.iter().map(|&(id, p)| (id, p.to_bits())).collect()
                    };
                    let expected = models[model].top_k_ids(row.view(), k);
                    assert_eq!(bits(ranked), bits(&expected), "model {model}, k {k}");
                    seen.push(model);
                });
                assert_eq!(seen, vec![0, 2]);
            }
        }
    }

    /// Irregular values, so a lane summed in another order rounds apart.
    fn irregular(i: usize) -> f32 {
        ((i as f32 + 1.0) * 1.618_034).fract() * 2.0 - 0.7
    }

    /// A classifier over 12 features whose every weight and bias is
    /// nonzero and irregular.
    fn dense_weights(n_classes: usize, salt: usize) -> PropertyClassifier {
        let labels: Vec<String> = (0..n_classes).map(|c| format!("c{c}")).collect();
        let state = ClassifierState {
            labels: labels.clone(),
            model: Some(SoftmaxState {
                weights: (0..n_classes * 12).map(|i| irregular(i + salt)).collect(),
                biases: (0..n_classes).map(|c| irregular(c + salt + 500)).collect(),
                grad_sq_w: vec![1e-8; n_classes * 12],
                grad_sq_b: vec![1e-8; n_classes],
                dim: 12,
                n_classes,
                fits: 1,
            }),
        };
        let scaffold = PropertyClassifier::new(
            "d",
            LabelDict::from_labels(labels.iter().map(String::as_str)),
            12,
            TrainConfig::default(),
        );
        scaffold.with_state(state).expect("fits the scaffold").0
    }

    #[test]
    fn one_sweep_translation_scores_the_utility_bit_for_bit() {
        // 11 classes: a stride of 16 with pad lanes
        let a = dense_weights(11, 0);
        let untrained = PropertyClassifier::new(
            "u",
            LabelDict::from_labels(["m", "n"]),
            12,
            TrainConfig::default(),
        );
        let b = dense_weights(3, 7);
        let models = [&a, &untrained, &b];
        let fused = FusedEntropy::fuse(&models);
        let dense = |n: u32| (0..n).map(|i| (i, irregular(i as usize + 90))).collect();
        let rows = [
            // exactly one full group of eight
            SparseVector::from_pairs(dense(8)),
            // a full group and a three-feature tail
            SparseVector::from_pairs(dense(11)),
            // a tail only
            SparseVector::from_pairs(dense(5)),
            SparseVector::from_pairs(vec![]),
            // an out-of-dim index is skipped
            SparseVector::from_pairs(vec![(2, 1.5), (100, 9.0)]),
        ];
        let matrix = FeatureMatrix::from_rows(rows.iter().cloned());
        let mut batched = Vec::new();
        fused.utilities_into(&matrix, &mut batched);
        for (r, row) in rows.iter().enumerate() {
            // the untrained constant, then each trained member's entropy
            // of its own exact score row, in member order
            let expected = [&a, &b].iter().fold(untrained.uniform_entropy(), |u, c| {
                let model = c.softmax().expect("trained");
                let mut scores = vec![0.0; model.stride()];
                model.scores_into(row.view(), &mut scores);
                u + entropy_from_scores(&scores[..model.n_classes()])
            });
            assert_eq!(
                batched[r].to_bits(),
                expected.to_bits(),
                "row {r}: batched {} vs the exact rows' {expected}",
                batched[r]
            );
            for k in [0, 1, 3] {
                let utility = fused.top_k_ids_each(row.view(), k, |model, ranked| {
                    let bits = |v: &[(u32, f32)]| -> Vec<(u32, u32)> {
                        v.iter().map(|&(id, p)| (id, p.to_bits())).collect()
                    };
                    let expected = models[model].top_k_ids(row.view(), k);
                    assert_eq!(bits(ranked), bits(&expected), "row {r}, model {model}");
                });
                assert_eq!(
                    utility.to_bits(),
                    batched[r].to_bits(),
                    "row {r}, k {k}: one sweep {utility} vs batched {}",
                    batched[r]
                );
            }
        }
    }

    #[test]
    fn all_untrained_is_the_constant() {
        let u1 = PropertyClassifier::new(
            "a",
            LabelDict::from_labels(["x", "y"]),
            4,
            TrainConfig::default(),
        );
        let u2 = PropertyClassifier::new(
            "b",
            LabelDict::from_labels(["p", "q", "r"]),
            4,
            TrainConfig::default(),
        );
        let fused = FusedEntropy::fuse(&[&u1, &u2]);
        let rows = FeatureMatrix::from_rows([features(0, 2), features(1, 3)]);
        let mut got = Vec::new();
        fused.utilities_into(&rows, &mut got);
        let expected = (2.0f64).ln() + (3.0f64).ln();
        assert!(got.iter().all(|u| (u - expected).abs() < 1e-12), "{got:?}");
        let translated = fused.top_k_ids_each(rows.row(0), 3, |_, _| panic!("nothing is trained"));
        assert_eq!(translated.to_bits(), got[0].to_bits());
    }
}
