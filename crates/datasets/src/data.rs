//! Labeled dataset container, splitting and batch gathering.

use rand::Rng;
use tensor::{Tensor, MAX_RANK};

/// A labeled classification dataset.
///
/// Images/features are stored as one tensor whose first dimension is the
/// sample index (`[N, D]` for tabular data, `[N, C, H, W]` for images).
#[derive(Debug, Clone)]
pub struct ClassificationDataset {
    x: Tensor,
    labels: Vec<usize>,
    classes: usize,
}

impl ClassificationDataset {
    /// Wraps pre-built features and labels.
    ///
    /// # Panics
    ///
    /// Panics if the sample count and label count differ, or any label is
    /// `>= classes`.
    pub fn new(x: Tensor, labels: Vec<usize>, classes: usize) -> Self {
        assert_eq!(
            x.dims()[0],
            labels.len(),
            "sample count {} != label count {}",
            x.dims()[0],
            labels.len()
        );
        assert!(
            labels.iter().all(|&l| l < classes),
            "label out of range for {classes} classes"
        );
        ClassificationDataset { x, labels, classes }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Number of classes.
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// The feature/image tensor (`[N, ...]`).
    pub fn images(&self) -> &Tensor {
        &self.x
    }

    /// The label vector.
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// Per-sample feature count (product of non-batch dims).
    pub fn feature_len(&self) -> usize {
        self.x.dims()[1..].iter().product()
    }

    /// Extracts the samples at `indices` into a new dataset.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn subset(&self, indices: &[usize]) -> ClassificationDataset {
        let mut x = Tensor::default();
        let mut labels = vec![0; indices.len()];
        self.gather_into(indices.iter().copied(), false, &mut x, &mut labels);
        ClassificationDataset {
            x,
            labels,
            classes: self.classes,
        }
    }

    /// Randomly splits into `(train, test)` with `train_fraction` of the
    /// samples in the training set.
    ///
    /// # Panics
    ///
    /// Panics if `train_fraction` is outside `(0, 1)`.
    pub fn split(
        &self,
        train_fraction: f32,
        rng: &mut impl Rng,
    ) -> (ClassificationDataset, ClassificationDataset) {
        assert!(
            train_fraction > 0.0 && train_fraction < 1.0,
            "train fraction must be in (0, 1)"
        );
        let mut indices = vec![0; self.len()];
        shuffle_order(&mut indices, rng);
        let cut = ((self.len() as f32 * train_fraction).round() as usize)
            .clamp(1, self.len().saturating_sub(1).max(1));
        (self.subset(&indices[..cut]), self.subset(&indices[cut..]))
    }

    /// Copies the samples at `rows` into caller-owned batch buffers:
    /// features into `x`, reshaped in place to `[rows.len(), ..sample dims]`
    /// (or `[rows.len(), feature_len]` when `flatten` is set), and labels
    /// into `labels`. `x` keeps its capacity across calls, so once it has
    /// grown to the largest batch, gathering allocates nothing.
    ///
    /// # Panics
    ///
    /// Panics if `labels.len() != rows.len()` or any row is out of bounds.
    pub fn gather_into(
        &self,
        rows: impl ExactSizeIterator<Item = usize>,
        flatten: bool,
        x: &mut Tensor,
        labels: &mut [usize],
    ) {
        assert_eq!(labels.len(), rows.len(), "label buffer != batch size");
        let f = self.feature_len();
        let sample: &[usize] = if flatten { &[f] } else { &self.x.dims()[1..] };
        let mut dims = [rows.len(); MAX_RANK];
        dims[1..=sample.len()].copy_from_slice(sample);
        let mut data = std::mem::take(x).into_vec();
        data.clear();
        data.reserve(rows.len() * f);
        for (label, i) in labels.iter_mut().zip(rows) {
            data.extend_from_slice(&self.x.as_slice()[i * f..(i + 1) * f]);
            *label = self.labels[i];
        }
        *x = Tensor::from_vec(data, &dims[..=sample.len()]).expect("one row per label");
    }
}

/// Overwrites `order` with a uniformly random permutation of
/// `0..order.len()`: reset to the identity, then Fisher–Yates. Starting
/// from the identity makes the result a function of the RNG stream alone,
/// so one reused buffer draws exactly what fresh index vectors would.
pub fn shuffle_order(order: &mut [usize], rng: &mut impl Rng) {
    for (i, slot) in order.iter_mut().enumerate() {
        *slot = i;
    }
    for i in (1..order.len()).rev() {
        let j = rng.gen_range(0..=i);
        order.swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn toy() -> ClassificationDataset {
        let x = Tensor::from_vec((0..20).map(|v| v as f32).collect(), &[10, 2]).unwrap();
        ClassificationDataset::new(x, (0..10).map(|i| i % 2).collect(), 2)
    }

    #[test]
    fn construction_validates() {
        let x = Tensor::zeros(&[3, 2]);
        assert!(std::panic::catch_unwind(|| {
            ClassificationDataset::new(x.clone(), vec![0, 1], 2)
        })
        .is_err());
        assert!(
            std::panic::catch_unwind(|| { ClassificationDataset::new(x, vec![0, 1, 5], 2) })
                .is_err()
        );
    }

    #[test]
    fn subset_selects_rows() {
        let d = toy();
        let s = d.subset(&[3, 7]);
        assert_eq!(s.len(), 2);
        assert_eq!(s.images().row(0), &[6.0, 7.0]);
        assert_eq!(s.labels(), &[1, 1]);
    }

    #[test]
    fn split_partitions_all_samples() {
        let d = toy();
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let (train, test) = d.split(0.7, &mut rng);
        assert_eq!(train.len() + test.len(), d.len());
        assert_eq!(train.len(), 7);
    }

    /// Gathering rows of a shuffled order — full batches and the
    /// remainder, image and flat dims — matches `subset` exactly.
    #[test]
    fn gather_matches_subset() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let images = Tensor::from_vec((0..7 * 8).map(|v| v as f32).collect(), &[7, 2, 2, 2]);
        let images =
            ClassificationDataset::new(images.unwrap(), (0..7).map(|i| i % 3).collect(), 3);
        let mut order = vec![0; images.len()];
        shuffle_order(&mut order, &mut rng);
        let (mut x, mut labels) = (Tensor::default(), vec![0; 3]);
        for d in [toy(), images] {
            for flatten in [false, true] {
                for rows in order.chunks(3) {
                    let want = d.subset(rows);
                    let labels = &mut labels[..rows.len()];
                    d.gather_into(rows.iter().copied(), flatten, &mut x, labels);
                    let dims = if flatten {
                        vec![rows.len(), d.feature_len()]
                    } else {
                        want.images().dims().to_vec()
                    };
                    assert_eq!(x.dims(), dims.as_slice());
                    assert_eq!(x.as_slice(), want.images().as_slice());
                    assert_eq!(labels, want.labels());
                }
            }
        }
    }

    #[test]
    fn gather_reuses_the_batch_buffer() {
        let d = toy();
        let mut x = Tensor::default();
        let mut labels = [0; 4];
        d.gather_into(0..4, false, &mut x, &mut labels);
        let ptr = x.as_slice().as_ptr();
        d.gather_into(8..10, false, &mut x, &mut labels[..2]);
        d.gather_into(4..8, false, &mut x, &mut labels);
        assert_eq!(x.as_slice().as_ptr(), ptr, "the buffer must be reused");
        assert_eq!(x.row(0), &[8.0, 9.0]);
        assert_eq!(labels, [0, 1, 0, 1]);
    }

    /// `shuffle_order` restarts from the identity, so reusing one buffer
    /// draws exactly what a fresh index vector would.
    #[test]
    fn shuffle_order_is_a_fresh_permutation_each_call() {
        let mut reused = vec![0; 10];
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let mut fresh_rng = ChaCha8Rng::seed_from_u64(1);
        for _ in 0..3 {
            shuffle_order(&mut reused, &mut rng);
            let mut fresh = vec![0; 10];
            shuffle_order(&mut fresh, &mut fresh_rng);
            assert_eq!(reused, fresh);
        }
        let mut sorted = reused.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..10).collect::<Vec<_>>());
        assert_ne!(reused, sorted, "seed 1 should not draw the identity");
    }

    /// NaN-total canonical ordering for multiset comparison. total_cmp
    /// (not partial_cmp().unwrap()) so a NaN feature value yields a
    /// comparison failure with a diff, not a panic inside the sort.
    fn canonical(values: &[f32]) -> Vec<f32> {
        let mut v = values.to_vec();
        v.sort_by(|x, y| x.total_cmp(y));
        v
    }

    #[test]
    fn gathered_epoch_preserves_multiset() {
        let d = toy();
        let mut order = vec![0; d.len()];
        shuffle_order(&mut order, &mut ChaCha8Rng::seed_from_u64(1));
        let (mut x, mut labels) = (Tensor::default(), vec![0; d.len()]);
        d.gather_into(order.iter().copied(), false, &mut x, &mut labels);
        let a = canonical(d.images().as_slice());
        let b = canonical(x.as_slice());
        assert_eq!(a, b);
    }

    #[test]
    fn canonical_ordering_survives_nan_features() {
        // Regression: partial_cmp(..).unwrap() panicked here instead of
        // reporting a multiset mismatch when a feature was NaN.
        let v = canonical(&[2.0, f32::NAN, -1.0, f32::NEG_INFINITY]);
        assert_eq!(v[0], f32::NEG_INFINITY);
        assert_eq!(v[1], -1.0);
        assert_eq!(v[2], 2.0);
        assert!(v[3].is_nan(), "total_cmp ranks (positive) NaN above +inf");
    }

    #[test]
    fn feature_len_for_images() {
        let x = Tensor::zeros(&[2, 3, 4, 4]);
        let d = ClassificationDataset::new(x, vec![0, 1], 2);
        assert_eq!(d.feature_len(), 48);
    }
}
