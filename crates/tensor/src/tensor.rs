use serde::{Deserialize, Serialize};

use crate::{Shape, TensorError};

/// A dense, row-major, always-contiguous `f32` tensor.
///
/// `Tensor` is the single numerical container used by every crate in the
/// BayesFT workspace: network weights and activations, dataset images,
/// Gaussian-process kernel matrices, and drifted ReRAM conductances are all
/// `Tensor`s.
///
/// # Example
///
/// ```
/// use tensor::Tensor;
///
/// let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3])?;
/// assert_eq!(t.shape().dims(), &[2, 3]);
/// assert_eq!(t.at(&[1, 2]), 6.0);
/// assert_eq!(t.sum(), 21.0);
/// # Ok::<(), tensor::TensorError>(())
/// ```
#[derive(Serialize, Deserialize)]
pub struct Tensor {
    /// The elements in row-major order, then any elements past them of
    /// the buffer the tensor was made from ([`Tensor::from_buffer`]),
    /// which only [`Tensor::into_buffer`] hands back.
    data: Vec<f32>,
    shape: Shape,
}

impl Clone for Tensor {
    fn clone(&self) -> Self {
        Tensor {
            data: self.as_slice().to_vec(),
            shape: self.shape,
        }
    }
}

impl PartialEq for Tensor {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice() && self.shape == other.shape
    }
}

impl std::fmt::Debug for Tensor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tensor")
            .field("data", &self.as_slice())
            .field("shape", &self.shape)
            .finish()
    }
}

impl Tensor {
    /// Creates a tensor filled with zeros.
    pub fn zeros(dims: &[usize]) -> Self {
        let shape = Shape::new(dims);
        Tensor {
            data: vec![0.0; shape.len()],
            shape,
        }
    }

    /// Creates a tensor filled with ones.
    pub fn ones(dims: &[usize]) -> Self {
        Tensor::full(dims, 1.0)
    }

    /// Creates a tensor with every element set to `value`.
    pub fn full(dims: &[usize], value: f32) -> Self {
        let shape = Shape::new(dims);
        Tensor {
            data: vec![value; shape.len()],
            shape,
        }
    }

    /// Creates the `n`×`n` identity matrix.
    pub fn eye(n: usize) -> Self {
        let mut t = Tensor::zeros(&[n, n]);
        for i in 0..n {
            t.data[i * n + i] = 1.0;
        }
        t
    }

    /// Wraps an existing buffer as a tensor.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] if `data.len()` differs from
    /// the element count implied by `dims`.
    pub fn from_vec(data: Vec<f32>, dims: &[usize]) -> Result<Self, TensorError> {
        let shape = Shape::new(dims);
        if data.len() != shape.len() {
            return Err(TensorError::LengthMismatch {
                expected: shape.len(),
                actual: data.len(),
            });
        }
        Ok(Tensor { data, shape })
    }

    /// Wraps the first elements of `buf` as a tensor of shape `dims`, as a
    /// view: the rest of `buf` stays in it untouched, and
    /// [`Tensor::into_buffer`] hands all of `buf` back. A buffer pool can
    /// so lend a long buffer for a short tensor without ever rewriting the
    /// values past its end.
    ///
    /// # Panics
    ///
    /// Panics if `buf` is shorter than the element count of `dims`.
    pub fn from_buffer(buf: Vec<f32>, dims: &[usize]) -> Self {
        let shape = Shape::new(dims);
        assert!(buf.len() >= shape.len(), "buffer shorter than the tensor");
        Tensor { data: buf, shape }
    }

    /// Creates a rank-1 tensor from a slice.
    pub fn from_slice(data: &[f32]) -> Self {
        Tensor {
            shape: Shape::new(&[data.len()]),
            data: data.to_vec(),
        }
    }

    /// Creates a rank-0-like scalar tensor (shape `[1]`).
    pub fn scalar(value: f32) -> Self {
        Tensor {
            data: vec![value],
            shape: Shape::new(&[1]),
        }
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Dimension extents, outermost first.
    pub fn dims(&self) -> &[usize] {
        self.shape.dims()
    }

    /// Rank (number of dimensions).
    pub fn rank(&self) -> usize {
        self.shape.rank()
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.shape.len()
    }

    /// Whether the tensor has zero elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Immutable view of the underlying row-major buffer.
    pub fn as_slice(&self) -> &[f32] {
        &self.data[..self.len()]
    }

    /// Mutable view of the underlying row-major buffer.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        let len = self.len();
        &mut self.data[..len]
    }

    /// Consumes the tensor, returning the underlying buffer, exactly as
    /// long as the tensor.
    pub fn into_vec(mut self) -> Vec<f32> {
        self.data.truncate(self.len());
        self.data
    }

    /// Consumes the tensor, returning the whole buffer it was made from by
    /// [`Tensor::from_buffer`], values past the tensor's end included; for
    /// any other tensor, the same as [`Tensor::into_vec`].
    pub fn into_buffer(self) -> Vec<f32> {
        self.data
    }

    /// Element at a multi-index.
    ///
    /// # Panics
    ///
    /// Panics if the index rank or any coordinate is out of bounds.
    pub fn at(&self, index: &[usize]) -> f32 {
        self.data[self.shape.offset(index)]
    }

    /// Mutable element at a multi-index.
    ///
    /// # Panics
    ///
    /// Panics if the index rank or any coordinate is out of bounds.
    pub fn at_mut(&mut self, index: &[usize]) -> &mut f32 {
        let off = self.shape.offset(index);
        &mut self.data[off]
    }

    /// Returns a copy reshaped to `dims` (same element count).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ReshapeMismatch`] if element counts differ.
    pub fn reshaped(&self, dims: &[usize]) -> Result<Self, TensorError> {
        let new_shape = Shape::new(dims);
        if new_shape.len() != self.len() {
            return Err(TensorError::ReshapeMismatch {
                from: self.len(),
                to: new_shape.len(),
            });
        }
        Ok(Tensor {
            data: self.as_slice().to_vec(),
            shape: new_shape,
        })
    }

    /// Re-purposes the tensor as a buffer of shape `dims`, resizing the
    /// underlying storage in place. Existing capacity is reused: shrinking
    /// never deallocates and growing back within capacity never allocates,
    /// so a tensor serving as a persistent cache (e.g. a layer's activation
    /// buffer) grows once to its high-water mark and then stays
    /// allocation-free across steps. Grown elements are zero; retained
    /// elements keep their previous values — callers that need defined
    /// contents must overwrite them.
    pub fn reuse_as(&mut self, dims: &[usize]) {
        let shape = Shape::new(dims);
        self.data.truncate(self.len());
        self.data.resize(shape.len(), 0.0);
        self.shape = shape;
    }

    /// Reshapes in place (same element count).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ReshapeMismatch`] if element counts differ.
    pub fn reshape(&mut self, dims: &[usize]) -> Result<(), TensorError> {
        let new_shape = Shape::new(dims);
        if new_shape.len() != self.len() {
            return Err(TensorError::ReshapeMismatch {
                from: self.len(),
                to: new_shape.len(),
            });
        }
        self.shape = new_shape;
        Ok(())
    }

    /// One row of a rank-2 tensor, as a slice.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 2 or `row` is out of bounds.
    pub fn row(&self, row: usize) -> &[f32] {
        assert_eq!(self.rank(), 2, "row() requires a rank-2 tensor");
        let cols = self.dims()[1];
        &self.as_slice()[row * cols..(row + 1) * cols]
    }

    /// Mutable row of a rank-2 tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 2 or `row` is out of bounds.
    pub fn row_mut(&mut self, row: usize) -> &mut [f32] {
        assert_eq!(self.rank(), 2, "row_mut() requires a rank-2 tensor");
        let cols = self.dims()[1];
        &mut self.as_mut_slice()[row * cols..(row + 1) * cols]
    }

    /// Transpose of a rank-2 tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 2.
    pub fn transposed(&self) -> Tensor {
        assert_eq!(self.rank(), 2, "transposed() requires a rank-2 tensor");
        let (r, c) = (self.dims()[0], self.dims()[1]);
        let mut out = Tensor::zeros(&[c, r]);
        for i in 0..r {
            for j in 0..c {
                out.data[j * r + i] = self.data[i * c + j];
            }
        }
        out
    }
}

impl Default for Tensor {
    fn default() -> Self {
        Tensor::zeros(&[0])
    }
}

impl std::fmt::Display for Tensor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Tensor{} ", self.shape)?;
        let preview: Vec<String> = self
            .as_slice()
            .iter()
            .take(8)
            .map(|v| format!("{v:.4}"))
            .collect();
        write!(
            f,
            "[{}{}]",
            preview.join(", "),
            if self.len() > 8 { ", …" } else { "" }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_ones_full() {
        assert!(Tensor::zeros(&[3, 2]).as_slice().iter().all(|&v| v == 0.0));
        assert!(Tensor::ones(&[4]).as_slice().iter().all(|&v| v == 1.0));
        assert!(Tensor::full(&[2, 2], 3.5)
            .as_slice()
            .iter()
            .all(|&v| v == 3.5));
    }

    #[test]
    fn eye_has_unit_diagonal() {
        let i = Tensor::eye(3);
        for r in 0..3 {
            for c in 0..3 {
                assert_eq!(i.at(&[r, c]), if r == c { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(Tensor::from_vec(vec![1.0; 6], &[2, 3]).is_ok());
        assert_eq!(
            Tensor::from_vec(vec![1.0; 5], &[2, 3]).unwrap_err(),
            TensorError::LengthMismatch {
                expected: 6,
                actual: 5
            }
        );
    }

    #[test]
    fn reuse_as_keeps_capacity() {
        let mut t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap();
        t.reuse_as(&[2, 2]); // shrink: capacity retained, prefix kept
        assert_eq!(t.dims(), &[2, 2]);
        assert_eq!(t.as_slice(), &[1.0, 2.0, 3.0, 4.0]);
        t.reuse_as(&[6]); // grow back within capacity: prefix kept, rest zero
        assert_eq!(t.as_slice(), &[1.0, 2.0, 3.0, 4.0, 0.0, 0.0]);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        let r = t.reshaped(&[4]).unwrap();
        assert_eq!(r.as_slice(), t.as_slice());
        assert!(t.reshaped(&[3]).is_err());
    }

    #[test]
    fn at_and_at_mut_round_trip() {
        let mut t = Tensor::zeros(&[2, 3]);
        *t.at_mut(&[1, 2]) = 9.0;
        assert_eq!(t.at(&[1, 2]), 9.0);
        assert_eq!(t.as_slice()[5], 9.0);
    }

    #[test]
    fn transpose_swaps_axes() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap();
        let tt = t.transposed();
        assert_eq!(tt.dims(), &[3, 2]);
        assert_eq!(tt.at(&[2, 1]), t.at(&[1, 2]));
    }

    #[test]
    fn rows_expose_contiguous_slices() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        assert_eq!(t.row(0), &[1.0, 2.0]);
        assert_eq!(t.row(1), &[3.0, 4.0]);
    }

    #[test]
    fn display_previews_elements() {
        let t = Tensor::from_slice(&[1.0, 2.0]);
        let s = t.to_string();
        assert!(s.contains("1.0000") && s.contains("[2]"));
    }
}
