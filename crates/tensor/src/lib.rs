//! Dense `f32` N-dimensional tensors for the BayesFT reproduction.
//!
//! This crate is the numerical substrate under [`nn`](https://docs.rs)-style
//! neural-network layers: a row-major, always-contiguous tensor with the
//! handful of operations deep-learning training actually needs — elementwise
//! arithmetic with scalar and same-shape operands, 2-D matrix products (plus
//! the transposed variants backpropagation wants), `im2col`-based 2-D
//! convolution, max/average pooling, and axis reductions.
//!
//! The design intentionally trades generality for predictability:
//!
//! * storage is a contiguous `Vec<f32>` in row-major order — no strides, no
//!   views, no copy-on-write;
//! * shape errors are programming errors and panic with a descriptive
//!   message (the pattern used by `ndarray`), while fallible constructors
//!   return [`TensorError`];
//! * randomness is always injected through an explicit [`rand::Rng`] so every
//!   experiment in the workspace is reproducible from a seed.
//!
//! # Example
//!
//! ```
//! use tensor::{Matmul, Tensor};
//!
//! let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2])?;
//! let b = Tensor::eye(2);
//! let c = a.matmul(&b);
//! assert_eq!(c.as_slice(), a.as_slice());
//! # Ok::<(), tensor::TensorError>(())
//! ```

mod conv;
mod error;
mod init;
mod linalg;
mod ops;
mod pool;
mod shape;
mod tensor;

pub use conv::{col2im, col2im_into, im2col, im2col_into, Conv2dSpec};
pub use error::TensorError;
pub use linalg::{gemm_into, gemm_nt_into, gemm_tn_into, outer, Matmul};
pub use ops::{argmax_row, nan_low_cmp};
pub use pool::{
    avg_pool2d, avg_pool2d_backward, avg_pool2d_backward_into, avg_pool2d_into, max_pool2d,
    max_pool2d_backward, max_pool2d_into, Pool2dSpec,
};
pub use shape::{Shape, MAX_RANK};
pub use tensor::Tensor;

/// Convenience result alias for fallible tensor construction.
pub type Result<T> = std::result::Result<T, TensorError>;
