//! Dense `f32` N-dimensional tensors for the BayesFT reproduction.
//!
//! This crate is the numerical substrate under [`nn`](https://docs.rs)-style
//! neural-network layers: a row-major, always-contiguous tensor with the
//! handful of operations deep-learning training actually needs — elementwise
//! arithmetic with scalar and same-shape operands, 2-D matrix products (plus
//! the transposed variants backpropagation wants), `im2col`-based 2-D
//! convolution, max pooling, and reductions.
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
//! use tensor::{gemm_into, Tensor};
//!
//! let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2])?;
//! let b = Tensor::eye(2);
//! let mut c = Tensor::zeros(&[2, 2]);
//! gemm_into(a.as_slice(), b.as_slice(), c.as_mut_slice(), 2, 2, 2);
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

pub use conv::{col2im_into, im2col_into, Conv2dSpec};
pub use error::TensorError;
pub use linalg::{gemm_into, gemm_nt_acc_into, gemm_nt_into, gemm_tn_acc_into, gemm_tn_into};
pub use ops::{argmax_row, nan_low_cmp};
pub use pool::{max_pool2d_backward_into, max_pool2d_into, Pool2dSpec};
pub use shape::{Shape, MAX_RANK};
pub use tensor::Tensor;

/// Convenience result alias for fallible tensor construction.
pub type Result<T> = std::result::Result<T, TensorError>;
