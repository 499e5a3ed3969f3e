//! Elementwise arithmetic, scalar ops, broadcasting helpers and reductions.

use crate::Tensor;

/// A NaN-total order for `f32` that ranks NaN *below* every other value
/// (NaN < −∞ < finite < +∞), so "pick the best" selections never crown a
/// poisoned value and "sort descending" rankings push NaN to the end.
///
/// The f32 sibling of `bayesopt::nan_low_cmp`; the workspace linter's R2
/// rule points NaN-unsafe orderings here.
///
/// # Example
///
/// ```
/// use tensor::nan_low_cmp;
///
/// let mut v = vec![0.3_f32, f32::NAN, f32::NEG_INFINITY, 0.7];
/// v.sort_by(|a, b| nan_low_cmp(*a, *b));
/// assert!(v[0].is_nan());
/// assert_eq!(v[1..], [f32::NEG_INFINITY, 0.3, 0.7]);
/// ```
pub fn nan_low_cmp(a: f32, b: f32) -> std::cmp::Ordering {
    match (a.is_nan(), b.is_nan()) {
        (true, true) => std::cmp::Ordering::Equal,
        (true, false) => std::cmp::Ordering::Less,
        (false, true) => std::cmp::Ordering::Greater,
        (false, false) => a.total_cmp(&b),
    }
}

/// Index of the maximum of `row` (0 for an empty row). NaN-low: a NaN
/// never wins (unless the whole row is NaN), and can't tie-poison the
/// comparator the way `partial_cmp`'s `Equal` fallback did.
pub fn argmax_row(row: &[f32]) -> usize {
    row.iter()
        .enumerate()
        .max_by(|a, b| nan_low_cmp(*a.1, *b.1))
        .map_or(0, |(i, _)| i)
}

impl Tensor {
    /// Applies `f` to every element, returning a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        let mut out = self.clone();
        out.as_mut_slice().iter_mut().for_each(|v| *v = f(*v));
        out
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        self.as_mut_slice().iter_mut().for_each(|v| *v = f(*v));
    }

    /// Combines two same-shape tensors elementwise with `f`.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn zip_map(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
        assert_eq!(
            self.dims(),
            other.dims(),
            "zip_map shape mismatch: {} vs {}",
            self.shape(),
            other.shape()
        );
        let mut out = self.clone();
        out.as_mut_slice()
            .iter_mut()
            .zip(other.as_slice())
            .for_each(|(a, &b)| *a = f(*a, b));
        out
    }

    /// Elementwise sum. See [`Tensor::zip_map`] for panic conditions.
    pub fn add(&self, other: &Tensor) -> Tensor {
        self.zip_map(other, |a, b| a + b)
    }

    /// Elementwise difference. See [`Tensor::zip_map`] for panic conditions.
    pub fn sub(&self, other: &Tensor) -> Tensor {
        self.zip_map(other, |a, b| a - b)
    }

    /// Elementwise (Hadamard) product. See [`Tensor::zip_map`] for panic conditions.
    pub fn mul(&self, other: &Tensor) -> Tensor {
        self.zip_map(other, |a, b| a * b)
    }

    /// Elementwise quotient. See [`Tensor::zip_map`] for panic conditions.
    pub fn div(&self, other: &Tensor) -> Tensor {
        self.zip_map(other, |a, b| a / b)
    }

    /// Adds `other` into `self` in place.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn add_assign(&mut self, other: &Tensor) {
        assert_eq!(self.dims(), other.dims(), "add_assign shape mismatch");
        self.as_mut_slice()
            .iter_mut()
            .zip(other.as_slice())
            .for_each(|(a, &b)| *a += b);
    }

    /// Accumulates `scale * other` into `self` (`axpy`).
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn add_scaled(&mut self, other: &Tensor, scale: f32) {
        assert_eq!(self.dims(), other.dims(), "add_scaled shape mismatch");
        self.as_mut_slice()
            .iter_mut()
            .zip(other.as_slice())
            .for_each(|(a, &b)| *a += scale * b);
    }

    /// Adds a scalar to every element.
    pub fn add_scalar(&self, s: f32) -> Tensor {
        self.map(|v| v + s)
    }

    /// Multiplies every element by a scalar.
    pub fn scale(&self, s: f32) -> Tensor {
        self.map(|v| v * s)
    }

    /// Multiplies every element by a scalar in place.
    pub fn scale_inplace(&mut self, s: f32) {
        self.map_inplace(|v| v * s);
    }

    /// Adds a length-`cols` bias row to every row of a rank-2 tensor.
    ///
    /// # Panics
    ///
    /// Panics if `self` is not rank 2 or `bias` length differs from the
    /// column count.
    pub fn add_row_broadcast(&self, bias: &Tensor) -> Tensor {
        assert_eq!(self.rank(), 2, "add_row_broadcast requires a rank-2 tensor");
        let cols = self.dims()[1];
        assert_eq!(bias.len(), cols, "bias length must equal column count");
        let mut out = self.clone();
        for r in 0..self.dims()[0] {
            let row = out.row_mut(r);
            for (v, &b) in row.iter_mut().zip(bias.as_slice()) {
                *v += b;
            }
        }
        out
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.as_slice().iter().sum()
    }

    /// Arithmetic mean of all elements (0 for an empty tensor).
    pub fn mean(&self) -> f32 {
        if self.is_empty() {
            0.0
        } else {
            self.sum() / self.len() as f32
        }
    }

    /// Maximum element (negative infinity for an empty tensor; NaN
    /// elements are skipped, matching `f32::max`).
    pub fn max(&self) -> f32 {
        self.as_slice()
            .iter()
            .copied()
            // lint:allow(R2, reason = "documented IEEE maxNum semantics: NaN elements are skipped, not ranked")
            .fold(f32::NEG_INFINITY, f32::max)
    }

    /// Minimum element (positive infinity for an empty tensor; NaN
    /// elements are skipped, matching `f32::min`).
    pub fn min(&self) -> f32 {
        self.as_slice()
            .iter()
            .copied()
            // lint:allow(R2, reason = "documented IEEE minNum semantics: NaN elements are skipped, not ranked")
            .fold(f32::INFINITY, f32::min)
    }

    /// Sum over axis 0 of a rank-2 tensor, producing a length-`cols` tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 2.
    pub fn sum_axis0(&self) -> Tensor {
        assert_eq!(self.rank(), 2, "sum_axis0 requires a rank-2 tensor");
        let (rows, cols) = (self.dims()[0], self.dims()[1]);
        let mut out = Tensor::zeros(&[cols]);
        for r in 0..rows {
            for (o, &v) in out.as_mut_slice().iter_mut().zip(self.row(r)) {
                *o += v;
            }
        }
        out
    }

    /// Index of the maximum element of each row of a rank-2 tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 2 or has zero columns.
    pub fn argmax_rows(&self) -> Vec<usize> {
        assert_eq!(self.rank(), 2, "argmax_rows requires a rank-2 tensor");
        assert!(
            self.dims()[1] > 0,
            "argmax_rows requires at least one column"
        );
        (0..self.dims()[0])
            .map(|r| argmax_row(self.row(r)))
            .collect()
    }

    /// Squared L2 norm of all elements.
    pub fn norm_sq(&self) -> f32 {
        self.as_slice().iter().map(|v| v * v).sum()
    }

    /// L2 norm of all elements.
    pub fn norm(&self) -> f32 {
        self.norm_sq().sqrt()
    }

    /// Row-wise softmax of a rank-2 tensor (numerically stabilized).
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 2.
    pub fn softmax_rows(&self) -> Tensor {
        assert_eq!(self.rank(), 2, "softmax_rows requires a rank-2 tensor");
        let mut out = self.clone();
        for r in 0..self.dims()[0] {
            let row = out.row_mut(r);
            // lint:allow(R2, reason = "stability shift only: a NaN logit still poisons the row through exp(NaN), so ranking is not load-bearing")
            let m = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let mut z = 0.0;
            for v in row.iter_mut() {
                *v = (*v - m).exp();
                z += *v;
            }
            if z > 0.0 {
                for v in row.iter_mut() {
                    *v /= z;
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t22(v: [f32; 4]) -> Tensor {
        Tensor::from_vec(v.to_vec(), &[2, 2]).unwrap()
    }

    #[test]
    fn elementwise_arithmetic() {
        let a = t22([1.0, 2.0, 3.0, 4.0]);
        let b = t22([4.0, 3.0, 2.0, 1.0]);
        assert_eq!(a.add(&b).as_slice(), &[5.0, 5.0, 5.0, 5.0]);
        assert_eq!(a.sub(&b).as_slice(), &[-3.0, -1.0, 1.0, 3.0]);
        assert_eq!(a.mul(&b).as_slice(), &[4.0, 6.0, 6.0, 4.0]);
        assert_eq!(a.div(&b).as_slice(), &[0.25, 2.0 / 3.0, 1.5, 4.0]);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn add_rejects_shape_mismatch() {
        let a = Tensor::zeros(&[2, 2]);
        let b = Tensor::zeros(&[4]);
        let _ = a.add(&b);
    }

    #[test]
    fn scalar_ops() {
        let a = t22([1.0, 2.0, 3.0, 4.0]);
        assert_eq!(a.add_scalar(1.0).as_slice(), &[2.0, 3.0, 4.0, 5.0]);
        assert_eq!(a.scale(2.0).as_slice(), &[2.0, 4.0, 6.0, 8.0]);
    }

    #[test]
    fn add_scaled_is_axpy() {
        let mut a = t22([1.0, 1.0, 1.0, 1.0]);
        let b = t22([1.0, 2.0, 3.0, 4.0]);
        a.add_scaled(&b, 0.5);
        assert_eq!(a.as_slice(), &[1.5, 2.0, 2.5, 3.0]);
    }

    #[test]
    fn reductions() {
        let a = t22([1.0, 2.0, 3.0, 4.0]);
        assert_eq!(a.sum(), 10.0);
        assert_eq!(a.mean(), 2.5);
        assert_eq!(a.max(), 4.0);
        assert_eq!(a.min(), 1.0);
        assert_eq!(a.norm_sq(), 30.0);
    }

    #[test]
    fn sum_axis0_collapses_rows() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap();
        assert_eq!(a.sum_axis0().as_slice(), &[5.0, 7.0, 9.0]);
    }

    #[test]
    fn row_broadcast_adds_bias() {
        let a = Tensor::from_vec(vec![0.0; 6], &[2, 3]).unwrap();
        let b = Tensor::from_slice(&[1.0, 2.0, 3.0]);
        let c = a.add_row_broadcast(&b);
        assert_eq!(c.row(0), &[1.0, 2.0, 3.0]);
        assert_eq!(c.row(1), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn argmax_rows_picks_largest() {
        let a = Tensor::from_vec(vec![0.1, 0.9, 0.0, 0.7, 0.2, 0.1], &[2, 3]).unwrap();
        assert_eq!(a.argmax_rows(), vec![1, 0]);
    }

    #[test]
    fn argmax_rows_never_crowns_nan() {
        // Regression: the partial_cmp(..).unwrap_or(Equal) ranking let a
        // NaN logit tie with everything, making the winner depend on
        // element order. NaN-low ranking picks the best finite logit at
        // every NaN position…
        let a = Tensor::from_vec(
            vec![f32::NAN, 0.9, 0.0, 0.7, f32::NAN, 0.1, 0.2, 0.1, f32::NAN],
            &[3, 3],
        )
        .unwrap();
        assert_eq!(a.argmax_rows(), vec![1, 0, 0]);
        // …and an all-NaN row still answers deterministically (max_by
        // keeps the last of all-equal elements).
        let nan_row = Tensor::from_vec(vec![f32::NAN; 3], &[1, 3]).unwrap();
        assert_eq!(nan_row.argmax_rows(), vec![2]);
    }

    #[test]
    fn nan_low_cmp_is_a_total_order_with_nan_lowest() {
        let mut v = [0.3_f32, f32::NAN, f32::NEG_INFINITY, 0.7, f32::INFINITY];
        v.sort_by(|a, b| nan_low_cmp(*a, *b));
        assert!(v[0].is_nan());
        assert_eq!(v[1..], [f32::NEG_INFINITY, 0.3, 0.7, f32::INFINITY]);
        // Descending with NaN last: the idiom the detector NMS and mAP
        // ranking use.
        let mut d = [0.3_f32, f32::NAN, 0.7];
        d.sort_by(|a, b| nan_low_cmp(*b, *a));
        assert_eq!(d[0], 0.7);
        assert_eq!(d[1], 0.3);
        assert!(d[2].is_nan());
    }

    #[test]
    fn softmax_rows_normalizes() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 1000.0, 1000.0, 1000.0], &[2, 3]).unwrap();
        let s = a.softmax_rows();
        for r in 0..2 {
            let sum: f32 = s.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-5, "row {r} sums to {sum}");
        }
        // Large equal logits must not overflow to NaN.
        assert!((s.at(&[1, 0]) - 1.0 / 3.0).abs() < 1e-5);
    }

    #[test]
    fn map_applies_function() {
        let a = t22([1.0, 4.0, 9.0, 16.0]);
        assert_eq!(a.map(f32::sqrt).as_slice(), &[1.0, 2.0, 3.0, 4.0]);
    }
}
