//! Fused multi-model scoring — the bulk kernel behind batched
//! training-utility estimation (Definition 7) and per-claim translation
//! (§3.1).
//!
//! Definition 7 sums the prediction entropy of *four* classifiers per
//! claim. Scoring them one at a time walks the CSR batch four times and
//! touches four separate transposed weight blocks per stored feature.
//! [`FusedEntropy`] concatenates the trained classifiers' feature-major
//! layouts into one `dim × total_classes` block, so each stored feature
//! contributes with a single contiguous multiply-add sweep across *all*
//! models' classes, and each row needs one pass over the matrix total.
//! Untrained classifiers fold in as their constant uniform entropy.
//!
//! Translation reads the same block: [`FusedEntropy::top_k_ids_each`]
//! scores one claim against all four classifiers in one sweep and ranks
//! each classifier's segment. Its answers must be **bit-identical** to
//! the row-major per-classifier path (`bias + dot_dense` per class, then
//! the libm softmax), because every screen, plan, verdict and golden
//! fixture downstream depends on the exact ranking. So its kernel keeps
//! that path's per-class summation order: each lane starts at `+0.0`,
//! adds `v · w` for the in-range stored features in CSR order with an
//! unfused multiply then add (`mul_add` rounds once and changes bits),
//! and adds the bias last. The entropy kernel has no such constraint and
//! uses fused multiply-adds.
//!
//! The fusion is a snapshot of the classifiers at build time — rebuild it
//! after training (`scrutinizer-core` rebuilds per retrain and ships it
//! inside the published model snapshot).

use std::cell::RefCell;

use crate::classifier::PropertyClassifier;
use crate::softmax::{
    entropy_from_scores, entropy_from_scores_reference, rank_top_k, softmax_in_place, LANES,
};
use scrutinizer_text::{FeatureMatrix, SparseView};

/// Per-thread translation scratch, reused across calls, so ranking
/// allocates nothing once a thread has seen the widest block.
struct RankScratch {
    /// The stride-length score row.
    scores: Vec<f32>,
    /// `(class id, probability)` pairs of the segment being ranked.
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

/// Clamps one CSR entry for the branch-free fused sweep: an in-range
/// feature passes through; an out-of-range index (never produced by the
/// shared featurizer, but tolerated for parity with the scalar path)
/// becomes a zero-valued sweep of column 0.
#[inline]
fn clamp_feature(index: u32, value: f32, dim: usize) -> (usize, f32) {
    let i = index as usize;
    if i < dim {
        (i, value)
    } else {
        (0, 0.0)
    }
}

/// The concatenated feature-major scoring block of several classifiers.
#[derive(Debug, Clone)]
pub struct FusedEntropy {
    /// Total classes across the fused (trained) classifiers.
    width: usize,
    /// Row stride of `weights`: `width` rounded up to a multiple of
    /// [`LANES`], so every per-feature sweep is an exact
    /// `chunks_exact(LANES)` pass with no scalar tail.
    stride: usize,
    /// `[start, end)` segment of each fused classifier inside a scratch row.
    segments: Vec<(usize, usize)>,
    /// Index into the `fuse` input of each segment's classifier.
    members: Vec<usize>,
    /// `dim × stride`: for feature `i`, the concatenated class columns of
    /// every fused classifier at `weights[i * stride ..][..width]`; the
    /// pad columns stay 0.0.
    weights: Vec<f32>,
    /// Concatenated biases padded to length `stride` (pad lanes 0.0).
    biases: Vec<f32>,
    /// Shared feature dimensionality.
    dim: usize,
    /// Σ `ln(n_labels)` of the untrained classifiers — their constant
    /// entropy contribution per row.
    constant: f64,
}

impl FusedEntropy {
    /// Fuses the trained classifiers of `models`; untrained ones
    /// contribute their uniform entropy as a per-row constant.
    ///
    /// # Panics
    /// Panics if the trained classifiers disagree on feature
    /// dimensionality (they share one featurizer by construction).
    pub fn fuse(models: &[&PropertyClassifier]) -> Self {
        let mut constant = 0.0f64;
        // (weights_t, biases, nc, part stride)
        let mut parts: Vec<(&[f32], &[f32], usize, usize)> = Vec::new();
        let mut members = Vec::new();
        let mut dim = 0usize;
        for (index, classifier) in models.iter().enumerate() {
            match classifier.softmax() {
                Some(model) => {
                    assert!(
                        dim == 0 || dim == model.dim(),
                        "fused classifiers must share one feature space"
                    );
                    dim = model.dim();
                    let (weights_t, biases, part_stride) = model.transposed_parts();
                    parts.push((weights_t, biases, model.n_classes(), part_stride));
                    members.push(index);
                }
                None => constant += classifier.uniform_entropy(),
            }
        }
        let width: usize = parts.iter().map(|(_, _, nc, _)| nc).sum();
        let stride = width.next_multiple_of(LANES);
        let mut segments = Vec::with_capacity(parts.len());
        let mut biases = vec![0.0f32; stride];
        let mut start = 0usize;
        for (_, part_biases, nc, _) in &parts {
            segments.push((start, start + nc));
            biases[start..start + nc].copy_from_slice(part_biases);
            start += nc;
        }
        // interleave: fused row i = [m1 column i | m2 column i | ... | 0-pad]
        let mut weights = vec![0.0f32; dim * stride];
        for i in 0..dim {
            let row = &mut weights[i * stride..(i + 1) * stride];
            let mut offset = 0usize;
            for (weights_t, _, nc, part_stride) in &parts {
                row[offset..offset + nc]
                    .copy_from_slice(&weights_t[i * part_stride..i * part_stride + nc]);
                offset += nc;
            }
        }
        FusedEntropy {
            width,
            stride,
            segments,
            members,
            weights,
            biases,
            dim,
            constant,
        }
    }

    /// `(index into the fuse input, class count)` of every fused
    /// (trained) classifier, in segment order. Untrained classifiers are
    /// absent: they are not in the block.
    pub fn segments(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.members
            .iter()
            .zip(&self.segments)
            .map(|(&model, &(start, end))| (model, end - start))
    }

    /// Linear scores of one claim against every fused class, into the
    /// first `stride` lanes of `scores` (pad lanes end at 0.0).
    ///
    /// Bit-identical to the row-major `bias + x.dot_dense(row)` of each
    /// class: every lane accumulates from `+0.0` with an unfused
    /// `a + v * w` over the stored features in CSR order, skipping
    /// indices ≥ `dim`, and the bias is added last (IEEE addition
    /// commutes, so `dot + bias` is `bias + dot`). `mul_add` would round
    /// once instead of twice and change bits. In-range features are
    /// gathered eight at a time and folded into each lane in that order
    /// within one sweep, which keeps the per-lane order and vectorizes
    /// across lanes.
    fn scores_into(&self, x: SparseView<'_>, scores: &mut [f32]) {
        let stride = self.stride;
        let scores = &mut scores[..stride];
        scores.fill(0.0);
        let mut group = [(0usize, 0.0f32); 8];
        let mut filled = 0;
        for (i, v) in x.iter() {
            let i = i as usize;
            if i >= self.dim {
                continue;
            }
            group[filled] = (i * stride, v);
            filled += 1;
            if filled < group.len() {
                continue;
            }
            filled = 0;
            let [(o0, v0), (o1, v1), (o2, v2), (o3, v3), (o4, v4), (o5, v5), (o6, v6), (o7, v7)] =
                group;
            let c0 = &self.weights[o0..][..stride];
            let c1 = &self.weights[o1..][..stride];
            let c2 = &self.weights[o2..][..stride];
            let c3 = &self.weights[o3..][..stride];
            let c4 = &self.weights[o4..][..stride];
            let c5 = &self.weights[o5..][..stride];
            let c6 = &self.weights[o6..][..stride];
            let c7 = &self.weights[o7..][..stride];
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
        for &(offset, v) in &group[..filled] {
            let column = &self.weights[offset..][..stride];
            for (s, &w) in scores.iter_mut().zip(column) {
                *s += v * w;
            }
        }
        for (s, &b) in scores.iter_mut().zip(&self.biases) {
            *s += b;
        }
    }

    /// Ranks every fused classifier's classes for one claim in a single
    /// sweep of the block, calling `emit(model, ranked)` once per segment
    /// in [`segments`](Self::segments) order: `model` indexes the `fuse`
    /// input, `ranked` holds at most `k` `(class id, probability)` pairs.
    ///
    /// Each segment's answer is bit-identical to that classifier's
    /// row-major `SoftmaxClassifier::top_k_view`: the same scores (see
    /// the kernel's summation order in the module doc), the same libm
    /// softmax, and the same total order — probability descending by
    /// `total_cmp`, then id ascending — found by partial selection. The
    /// score row and ranking buffer are per-thread scratch, so `emit`
    /// must not translate again on the same thread.
    pub fn top_k_ids_each(
        &self,
        x: SparseView<'_>,
        k: usize,
        mut emit: impl FnMut(usize, &[(u32, f32)]),
    ) {
        if self.width == 0 {
            return;
        }
        RANK_SCRATCH.with_borrow_mut(|RankScratch { scores, ranked }| {
            if scores.len() < self.stride {
                scores.resize(self.stride, 0.0);
            }
            self.scores_into(x, scores);
            for (&model, &(start, end)) in self.members.iter().zip(&self.segments) {
                let probs = &mut scores[start..end];
                softmax_in_place(probs);
                ranked.clear();
                ranked.extend(probs.iter().enumerate().map(|(id, &p)| (id as u32, p)));
                let taken = rank_top_k(ranked, k);
                emit(model, &ranked[..taken]);
            }
        });
    }

    /// Appends the summed prediction entropy (Definition 7's `u(c)`) of
    /// every CSR row to `out`: one matrix pass, one contiguous
    /// fused-multiply-add sweep per group of eight stored features, one
    /// softmax-entropy per fused segment, plus the untrained constant.
    ///
    /// The hot loop consumes features eight at a time with a scalar-zip
    /// tail for the remainder: each sweep folds eight weight columns into
    /// the scratch row per scratch load/store, split across two
    /// accumulator chains (`a`/`b`) so the fused multiply-adds pipeline
    /// instead of serializing on one dependency chain. Eight columns per
    /// sweep is the lever because the sweep is otherwise bound on scratch
    /// traffic — one column per load/store (the scalar twin's shape)
    /// spends most of its memory ports re-reading the scratch row.
    /// Columns and scratch share the `LANES`-multiple `stride`, so the
    /// sweep is a contiguous same-length pass the compiler turns into
    /// packed FMAs, and the per-segment entropies use the branch-free
    /// [`exp_approx`] kernel. The [`utilities_into_reference`] scalar
    /// twin is the parity oracle and the throughput baseline the
    /// `translate` bench holds this kernel to.
    ///
    /// [`exp_approx`]: crate::softmax::exp_approx
    /// [`utilities_into_reference`]: Self::utilities_into_reference
    pub fn utilities_into(&self, rows: &FeatureMatrix, out: &mut Vec<f64>) {
        out.reserve(rows.rows());
        if self.width == 0 {
            out.extend(std::iter::repeat_n(self.constant, rows.rows()));
            return;
        }
        let stride = self.stride;
        let mut scratch_buf = vec![0.0f32; stride];
        let scratch = &mut scratch_buf[..stride];
        for r in 0..rows.rows() {
            scratch.copy_from_slice(&self.biases);
            if self.dim > 0 {
                let row = rows.row(r);
                let full = row.indices.len() - row.indices.len() % 8;
                // out-of-dim features (never produced by the shared
                // featurizer) degrade to a zero-valued sweep of column 0
                // instead of a branch
                let mut p = 0;
                while p < full {
                    let (i0, v0) = clamp_feature(row.indices[p], row.values[p], self.dim);
                    let (i1, v1) = clamp_feature(row.indices[p + 1], row.values[p + 1], self.dim);
                    let (i2, v2) = clamp_feature(row.indices[p + 2], row.values[p + 2], self.dim);
                    let (i3, v3) = clamp_feature(row.indices[p + 3], row.values[p + 3], self.dim);
                    let (i4, v4) = clamp_feature(row.indices[p + 4], row.values[p + 4], self.dim);
                    let (i5, v5) = clamp_feature(row.indices[p + 5], row.values[p + 5], self.dim);
                    let (i6, v6) = clamp_feature(row.indices[p + 6], row.values[p + 6], self.dim);
                    let (i7, v7) = clamp_feature(row.indices[p + 7], row.values[p + 7], self.dim);
                    let c0 = &self.weights[i0 * stride..][..stride];
                    let c1 = &self.weights[i1 * stride..][..stride];
                    let c2 = &self.weights[i2 * stride..][..stride];
                    let c3 = &self.weights[i3 * stride..][..stride];
                    let c4 = &self.weights[i4 * stride..][..stride];
                    let c5 = &self.weights[i5 * stride..][..stride];
                    let c6 = &self.weights[i6 * stride..][..stride];
                    let c7 = &self.weights[i7 * stride..][..stride];
                    for j in 0..stride {
                        let mut a = scratch[j];
                        let mut b = v4 * c4[j];
                        a = v0.mul_add(c0[j], a);
                        b = v5.mul_add(c5[j], b);
                        a = v1.mul_add(c1[j], a);
                        b = v6.mul_add(c6[j], b);
                        a = v2.mul_add(c2[j], a);
                        b = v7.mul_add(c7[j], b);
                        a = v3.mul_add(c3[j], a);
                        scratch[j] = a + b;
                    }
                    p += 8;
                }
                while p < row.indices.len() {
                    let (i, v) = clamp_feature(row.indices[p], row.values[p], self.dim);
                    let column = &self.weights[i * stride..][..stride];
                    for (s, &w) in scratch.iter_mut().zip(column) {
                        *s = v.mul_add(w, *s);
                    }
                    p += 1;
                }
            }
            let mut utility = self.constant;
            for &(start, end) in &self.segments {
                utility += entropy_from_scores(&scratch[start..end]);
            }
            out.push(utility);
        }
    }

    /// The pre-alignment scalar kernel, kept verbatim as the parity
    /// oracle and the baseline [`utilities_into`](Self::utilities_into)
    /// is benchmarked against: `width`-strided (unpadded, unaligned)
    /// weights, exact (unpadded) rows, one feature at a time, plain zip
    /// sweeps, libm-`exp` entropy. The width-strided weight copy is
    /// rebuilt per call (the pre-alignment kernel kept that layout
    /// resident); the copy is a fraction of a percent of the scoring
    /// work at any batch size worth benchmarking.
    pub fn utilities_into_reference(&self, rows: &FeatureMatrix, out: &mut Vec<f64>) {
        out.reserve(rows.rows());
        if self.width == 0 {
            out.extend(std::iter::repeat_n(self.constant, rows.rows()));
            return;
        }
        let width = self.width;
        let mut weights = vec![0.0f32; self.dim * width];
        for i in 0..self.dim {
            weights[i * width..(i + 1) * width]
                .copy_from_slice(&self.weights[i * self.stride..i * self.stride + width]);
        }
        let mut scratch = vec![0.0f32; width];
        for row in rows.iter() {
            scratch.copy_from_slice(&self.biases[..width]);
            for (i, v) in row.iter() {
                let i = i as usize;
                if i >= self.dim {
                    continue;
                }
                let column = &weights[i * width..(i + 1) * width];
                for (s, &w) in scratch.iter_mut().zip(column) {
                    *s += v * w;
                }
            }
            let mut utility = self.constant;
            for &(start, end) in &self.segments {
                utility += entropy_from_scores_reference(&scratch[start..end]);
            }
            out.push(utility);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::labels::LabelDict;
    use crate::softmax::TrainConfig;
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
        c.retrain(&examples);
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
        assert_eq!(fused.segments().collect::<Vec<_>>(), vec![(0, 3), (2, 2)]);
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
    }
}
