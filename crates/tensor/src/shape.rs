use std::fmt;

use serde::{Deserialize, Serialize};

/// Maximum tensor rank supported by [`Shape`].
///
/// Shapes are stored inline (no heap allocation) so that tensors can be
/// built from recycled buffers on allocation-free hot paths; 8 comfortably
/// covers every rank used in the workspace (≤ 4 today).
pub const MAX_RANK: usize = 8;

/// A tensor shape: the extent of each dimension, outermost first.
///
/// `Shape` stores its extents inline (up to [`MAX_RANK`] dimensions) and
/// centralizes the element-count and row-major stride arithmetic used
/// throughout the workspace. Constructing, cloning, or dropping a `Shape`
/// never touches the heap — this is what keeps `Tensor` creation from
/// recycled workspace buffers allocation-free.
///
/// # Example
///
/// ```
/// use tensor::Shape;
///
/// let s = Shape::new(&[2, 3, 4]);
/// assert_eq!(s.len(), 24);
/// assert_eq!(s.strides(), vec![12, 4, 1]);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Shape {
    // Trailing slots beyond `rank` are always zero so the derived
    // PartialEq/Eq/Hash agree with slice equality of `dims()`.
    dims: [usize; MAX_RANK],
    rank: usize,
}

impl Shape {
    /// Creates a shape from a slice of dimension extents.
    ///
    /// # Panics
    ///
    /// Panics if `dims` has more than [`MAX_RANK`] entries.
    pub fn new(dims: &[usize]) -> Self {
        assert!(
            dims.len() <= MAX_RANK,
            "tensor rank {} exceeds the supported maximum {MAX_RANK}",
            dims.len()
        );
        let mut inline = [0usize; MAX_RANK];
        inline[..dims.len()].copy_from_slice(dims);
        Shape {
            dims: inline,
            rank: dims.len(),
        }
    }

    /// The dimension extents, outermost first.
    pub fn dims(&self) -> &[usize] {
        &self.dims[..self.rank]
    }

    /// Number of dimensions (rank).
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Total number of elements (product of extents; 1 for rank 0).
    pub fn len(&self) -> usize {
        self.dims().iter().product()
    }

    /// Whether the shape contains zero elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Row-major strides, in elements.
    pub fn strides(&self) -> Vec<usize> {
        let mut strides = vec![1usize; self.rank];
        for i in (0..self.rank.saturating_sub(1)).rev() {
            strides[i] = strides[i + 1] * self.dims[i + 1];
        }
        strides
    }

    /// Flat row-major offset for a multi-index.
    ///
    /// # Panics
    ///
    /// Panics if `index` has a different rank or any coordinate is out of
    /// bounds.
    pub fn offset(&self, index: &[usize]) -> usize {
        assert_eq!(
            index.len(),
            self.rank,
            "index rank {} does not match shape rank {}",
            index.len(),
            self.rank
        );
        let mut off = 0usize;
        for (d, (&i, &n)) in index.iter().zip(self.dims()).enumerate() {
            assert!(
                i < n,
                "index {i} out of bounds for dimension {d} of extent {n}"
            );
            off = off * n + i;
        }
        off
    }
}

impl From<Vec<usize>> for Shape {
    fn from(dims: Vec<usize>) -> Self {
        Shape::new(&dims)
    }
}

impl From<&[usize]> for Shape {
    fn from(dims: &[usize]) -> Self {
        Shape::new(dims)
    }
}

impl AsRef<[usize]> for Shape {
    fn as_ref(&self) -> &[usize] {
        self.dims()
    }
}

impl fmt::Debug for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("Shape").field(&self.dims()).finish()
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, d) in self.dims().iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn len_is_product_of_dims() {
        assert_eq!(Shape::new(&[2, 3, 4]).len(), 24);
        assert_eq!(Shape::new(&[7]).len(), 7);
        assert_eq!(Shape::new(&[]).len(), 1);
    }

    #[test]
    fn strides_are_row_major() {
        assert_eq!(Shape::new(&[2, 3, 4]).strides(), vec![12, 4, 1]);
        assert_eq!(Shape::new(&[5]).strides(), vec![1]);
    }

    #[test]
    fn offset_walks_row_major() {
        let s = Shape::new(&[2, 3]);
        assert_eq!(s.offset(&[0, 0]), 0);
        assert_eq!(s.offset(&[0, 2]), 2);
        assert_eq!(s.offset(&[1, 0]), 3);
        assert_eq!(s.offset(&[1, 2]), 5);
    }

    #[test]
    fn offset_matches_stride_arithmetic_at_higher_rank() {
        let s = Shape::new(&[2, 3, 4, 5]);
        let strides = s.strides();
        for idx in [[0, 0, 0, 0], [1, 2, 3, 4], [1, 0, 2, 1]] {
            let by_strides: usize = idx.iter().zip(&strides).map(|(i, st)| i * st).sum();
            assert_eq!(s.offset(&idx), by_strides);
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn offset_rejects_out_of_bounds() {
        Shape::new(&[2, 3]).offset(&[0, 3]);
    }

    #[test]
    fn display_lists_dims() {
        assert_eq!(Shape::new(&[2, 3]).to_string(), "[2, 3]");
    }

    #[test]
    fn zero_extent_shape_is_empty() {
        assert!(Shape::new(&[2, 0, 3]).is_empty());
        assert!(!Shape::new(&[2, 3]).is_empty());
    }

    #[test]
    fn equality_ignores_inline_padding() {
        assert_eq!(Shape::new(&[2, 3]), Shape::new(&[2, 3]));
        assert_ne!(Shape::new(&[2, 3]), Shape::new(&[2, 3, 1]));
        assert_ne!(Shape::new(&[2, 3]), Shape::new(&[3, 2]));
    }

    #[test]
    #[should_panic(expected = "exceeds the supported maximum")]
    fn over_max_rank_panics() {
        let _ = Shape::new(&[1; MAX_RANK + 1]);
    }
}
