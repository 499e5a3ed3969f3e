//! From-scratch neural-network substrate for the BayesFT reproduction.
//!
//! The paper trains PyTorch models; this crate provides the equivalent
//! building blocks in pure Rust: a [`Layer`] trait with explicit
//! forward/backward passes, dense and convolutional layers, the four
//! normalization schemes and four activation functions the paper ablates
//! (Fig. 2; built only by [`NormKind::build`] and [`Activation::build`]),
//! standard and alpha [`Dropout`] (the architectural knob BayesFT searches
//! over), residual and pre-activation blocks, softmax cross-entropy, and
//! SGD/momentum/Adam optimizers.
//!
//! Design notes:
//!
//! * Layers are stateful: a training-mode forward caches whatever the
//!   backward pass needs, so a backward call must follow the matching
//!   forward call (standard tape-free reverse mode for sequential graphs).
//! * Each layer implements one forward and one backward,
//!   [`Layer::forward_ws`] and [`Layer::backward_ws`], drawing every buffer
//!   from a reusable [`Workspace`]; [`Layer::forward`] and
//!   [`Layer::backward`] are provided wrappers that run them on a fresh
//!   workspace.
//! * Parameters are exposed through the visitor
//!   [`Layer::visit_params`], which is also how the `reram` crate injects
//!   weight drift into a trained network — every trainable value, including
//!   normalization gains/biases, is reachable, which is exactly what the
//!   paper's "Achilles heel" argument about normalization requires.
//! * All stochastic layers draw from their own seeded RNG so entire
//!   experiments are reproducible.
//!
//! # Example
//!
//! ```
//! use nn::{Activation, Dense, Layer, Mode, Sequential};
//! use rand::SeedableRng;
//! use rand_chacha::ChaCha8Rng;
//! use tensor::Tensor;
//!
//! let mut rng = ChaCha8Rng::seed_from_u64(0);
//! let mut net = Sequential::new(vec![
//!     Box::new(Dense::new(4, 8, &mut rng)),
//!     Activation::Relu.build(),
//!     Box::new(Dense::new(8, 2, &mut rng)),
//! ]);
//! let x = Tensor::ones(&[3, 4]);
//! let logits = net.forward(&x, Mode::Eval);
//! assert_eq!(logits.dims(), &[3, 2]);
//! ```

mod activation;
mod conv;
mod dense;
mod dropout;
mod gradcheck;
mod layer;
mod loss;
mod norm;
mod optim;
mod param;
mod residual;
mod workspace;

pub use activation::Activation;
pub use conv::{Conv2d, Flatten, GlobalAvgPool, MaxPool2d};
pub use dense::Dense;
pub use dropout::{AlphaDropout, Dropout};
pub use gradcheck::{backward_ws_divergence, numeric_gradient, GradCheck};
pub use layer::{Identity, Layer, Sequential};
pub use loss::{softmax_cross_entropy, softmax_cross_entropy_ws, LossOutput};
pub use norm::NormKind;
pub use optim::{Adam, Optimizer, Sgd};
pub use param::{Mode, Param};
pub use residual::{PreActBlock, Residual};
pub use workspace::Workspace;
