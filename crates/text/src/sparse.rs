//! Sparse feature vectors.

/// A sparse vector: parallel `(index, value)` arrays sorted by index.
///
/// Feature vectors concatenate an embedding block with two TF-IDF blocks
/// (Figure 4); dimensionalities run to tens of thousands while claims touch
/// a few dozen features, so sparse storage is the only sensible layout.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SparseVector {
    indices: Vec<u32>,
    values: Vec<f32>,
}

impl SparseVector {
    /// Creates an empty vector.
    pub fn new() -> Self {
        SparseVector::default()
    }

    /// Builds from possibly unsorted, possibly duplicated pairs; duplicate
    /// indices are summed.
    pub fn from_pairs(mut pairs: Vec<(u32, f32)>) -> Self {
        pairs.sort_unstable_by_key(|(i, _)| *i);
        let mut indices = Vec::with_capacity(pairs.len());
        let mut values: Vec<f32> = Vec::with_capacity(pairs.len());
        for (i, v) in pairs {
            if indices.last() == Some(&i) {
                *values.last_mut().expect("parallel arrays") += v;
            } else {
                indices.push(i);
                values.push(v);
            }
        }
        SparseVector { indices, values }
    }

    /// Number of stored (non-zero) entries.
    pub fn nnz(&self) -> usize {
        self.indices.len()
    }

    /// True when no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.indices.is_empty()
    }

    /// Iterates over `(index, value)` pairs in index order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, f32)> + '_ {
        self.indices
            .iter()
            .copied()
            .zip(self.values.iter().copied())
    }

    /// Dot product with a dense slice (`weights[index]`); indices beyond the
    /// slice are ignored, which lets classifiers be sized lazily.
    pub fn dot_dense(&self, weights: &[f32]) -> f32 {
        let mut total = 0.0f32;
        for (i, v) in self.iter() {
            if let Some(w) = weights.get(i as usize) {
                total += v * w;
            }
        }
        total
    }

    /// Euclidean norm.
    pub fn norm(&self) -> f32 {
        self.values.iter().map(|v| v * v).sum::<f32>().sqrt()
    }

    /// Scales all values in place.
    pub fn scale(&mut self, factor: f32) {
        for v in &mut self.values {
            *v *= factor;
        }
    }

    /// Normalizes to unit Euclidean norm (no-op on zero vectors).
    pub fn l2_normalize(&mut self) {
        let n = self.norm();
        if n > 0.0 {
            self.scale(1.0 / n);
        }
    }

    /// Appends `other` with all its indices shifted by `offset`.
    ///
    /// This is the Figure 4 block concatenation; `offset` must exceed every
    /// index already present so the result stays sorted.
    pub fn concat_shifted(&mut self, other: &SparseVector, offset: u32) {
        debug_assert!(
            self.indices.last().is_none_or(|&last| last < offset),
            "offset must start a fresh block"
        );
        self.indices
            .extend(other.indices.iter().map(|i| i + offset));
        self.values.extend_from_slice(&other.values);
    }

    /// Largest index + 1, or 0 when empty.
    pub fn width(&self) -> u32 {
        self.indices.last().map_or(0, |i| i + 1)
    }

    /// A borrowed view of this vector — the currency of the batched
    /// feature/scoring pipeline: classifiers take views, so a claim's
    /// features are materialized once (in a [`FeatureMatrix`] row or an
    /// owned vector) and then only ever borrowed, never cloned.
    ///
    /// [`FeatureMatrix`]: crate::FeatureMatrix
    pub fn view(&self) -> SparseView<'_> {
        SparseView {
            indices: &self.indices,
            values: &self.values,
        }
    }
}

/// A borrowed sparse vector: parallel `(index, value)` slices sorted by
/// index. Produced by [`SparseVector::view`] and by
/// [`FeatureMatrix::row`](crate::FeatureMatrix::row); consumed by every
/// hot-path classifier API, so features are shared by reference instead of
/// cloned per property.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SparseView<'a> {
    /// Sorted feature indices.
    pub indices: &'a [u32],
    /// Values parallel to `indices`.
    pub values: &'a [f32],
}

impl<'a> SparseView<'a> {
    /// Number of stored (non-zero) entries.
    pub fn nnz(&self) -> usize {
        self.indices.len()
    }

    /// True when no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.indices.is_empty()
    }

    /// Iterates over `(index, value)` pairs in index order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, f32)> + 'a {
        self.indices
            .iter()
            .copied()
            .zip(self.values.iter().copied())
    }

    /// Dot product with a dense slice (`weights[index]`); indices beyond
    /// the slice are ignored, mirroring [`SparseVector::dot_dense`].
    pub fn dot_dense(&self, weights: &[f32]) -> f32 {
        let mut total = 0.0f32;
        for (i, v) in self.iter() {
            if let Some(w) = weights.get(i as usize) {
                total += v * w;
            }
        }
        total
    }

    /// Copies the view into an owned [`SparseVector`].
    pub fn to_owned_vector(&self) -> SparseVector {
        SparseVector {
            indices: self.indices.to_vec(),
            values: self.values.to_vec(),
        }
    }
}

impl FromIterator<(u32, f32)> for SparseVector {
    fn from_iter<T: IntoIterator<Item = (u32, f32)>>(iter: T) -> Self {
        SparseVector::from_pairs(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_pairs_sorts_and_merges() {
        let v = SparseVector::from_pairs(vec![(5, 1.0), (2, 2.0), (5, 3.0)]);
        let pairs: Vec<(u32, f32)> = v.iter().collect();
        assert_eq!(pairs, vec![(2, 2.0), (5, 4.0)]);
        assert_eq!(v.nnz(), 2);
        assert_eq!(v.width(), 6);
    }

    #[test]
    fn dot_dense_ignores_out_of_range() {
        let v = SparseVector::from_pairs(vec![(0, 1.0), (3, 2.0), (100, 5.0)]);
        let weights = [1.0, 0.0, 0.0, 10.0];
        assert_eq!(v.dot_dense(&weights), 21.0);
    }

    #[test]
    fn l2_normalization() {
        let mut v = SparseVector::from_pairs(vec![(0, 3.0), (1, 4.0)]);
        v.l2_normalize();
        assert!((v.norm() - 1.0).abs() < 1e-6);
        let mut zero = SparseVector::new();
        zero.l2_normalize(); // must not panic or produce NaN
        assert_eq!(zero.nnz(), 0);
    }

    #[test]
    fn concat_shifted_blocks() {
        let mut a = SparseVector::from_pairs(vec![(0, 1.0), (9, 2.0)]);
        let b = SparseVector::from_pairs(vec![(0, 3.0), (4, 4.0)]);
        a.concat_shifted(&b, 10);
        let pairs: Vec<(u32, f32)> = a.iter().collect();
        assert_eq!(pairs, vec![(0, 1.0), (9, 2.0), (10, 3.0), (14, 4.0)]);
    }

    #[test]
    fn view_mirrors_the_vector() {
        let v = SparseVector::from_pairs(vec![(0, 1.0), (3, 2.0), (100, 5.0)]);
        let view = v.view();
        assert_eq!(view.nnz(), 3);
        assert!(!view.is_empty());
        let weights = [1.0, 0.0, 0.0, 10.0];
        assert_eq!(view.dot_dense(&weights), v.dot_dense(&weights));
        assert_eq!(
            view.iter().collect::<Vec<_>>(),
            v.iter().collect::<Vec<_>>()
        );
        assert_eq!(view.to_owned_vector(), v);
    }

    #[test]
    fn collects_from_iterator() {
        let v: SparseVector = vec![(1u32, 1.0f32), (0, 2.0)].into_iter().collect();
        assert_eq!(v.iter().next(), Some((0, 2.0)));
    }
}
