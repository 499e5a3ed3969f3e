//! The four baseline methods BayesFT is compared against in Fig. 3:
//!
//! * [`train_erm`] — **ERM**: plain empirical-risk minimization.
//! * [`train_awp`] — **AWP** (Wu et al., ref. [18]): adversarial weight
//!   perturbation; each step computes gradients at adversarially shifted
//!   weights.
//! * [`train_ftna`] — **FTNA** (Liu et al., ref. [6]): replaces the softmax
//!   head with an error-correction codebook; prediction = nearest codeword
//!   by Hamming distance.
//! * [`reram_v_accuracy`] — **ReRAM-V** (Chen et al., ref. [5]): per-device
//!   diagnosis and iterative weight re-programming; evaluation models the
//!   drift that re-accumulates after the last calibration pass.
//!
//! All training functions operate on any [`nn::Layer`] network and a
//! [`datasets::ClassificationDataset`], and return a [`TrainedModel`]
//! bundling the network with its output decoder (softmax argmax, or FTNA
//! codebook decoding).
//!
//! # Example
//!
//! ```
//! use baselines::{train_erm, TrainConfig};
//! use datasets::moons;
//! use models::{Mlp, MlpConfig};
//! use rand::SeedableRng;
//! use rand_chacha::ChaCha8Rng;
//!
//! let mut rng = ChaCha8Rng::seed_from_u64(0);
//! let data = moons(200, 0.1, &mut rng);
//! let net = Box::new(Mlp::new(&MlpConfig::new(2, 2).hidden(16), &mut rng));
//! let cfg = TrainConfig::fast_test();
//! let mut model = train_erm(net, &data, &cfg);
//! assert!(model.accuracy(&data) > 0.5);
//! ```

mod awp;
mod erm;
mod eval;
mod ftna;
mod reram_v;
mod trained;

pub use awp::{train_awp, AwpConfig};
pub use erm::{train_epochs, train_erm, train_step};
pub use eval::drift_accuracy;
pub use ftna::{train_ftna, Codebook};
pub use reram_v::{reram_v_accuracy, ReRamVConfig};
pub use trained::{reshape_for, OutputDecoder, TrainConfig, TrainedModel};
