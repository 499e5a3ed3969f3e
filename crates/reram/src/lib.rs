//! ReRAM fault-injection substrate for the BayesFT reproduction.
//!
//! The paper deploys trained networks onto resistive-RAM crossbars whose
//! conductances drift with temperature, programming error and age. This
//! crate simulates that deployment:
//!
//! * [`DriftModel`] — pluggable weight-perturbation distributions. The
//!   paper's model (Eq. 1) is [`LogNormalDrift`]: `θ′ = θ·e^λ` with
//!   `λ ~ N(0, σ²)`. The full fault suite covers additive Gaussian and
//!   uniform read noise ([`GaussianAdditive`], [`UniformAdditive`]),
//!   bounded process variation ([`UniformDrift`]), static device-to-device
//!   mismatch ([`DeviceVariation`]), stuck-at-zero/one conductance defects
//!   ([`StuckAtFault`]), digital bit flips ([`BitFlipFault`]), discrete
//!   conductance-level quantization ([`LevelQuantization`]), and
//!   deterministic chains of any of these ([`CompositeFault`]).
//! * [`FaultSpec`] — a textual/serializable spec grammar
//!   (`lognormal:0.3`, `quantize:16+stuckat:0.01`) shared by CLIs and JSON
//!   configs, with `FromStr`/`Display` round-tripping and validated
//!   [`FaultSpec::build`] instantiation.
//! * [`FaultInjector`] — snapshots a trained network's parameters, applies
//!   a drift model to every trainable value (dense/conv weights, biases,
//!   and normalization γ/β — the paper's "Achilles heel"), and restores the
//!   pristine weights afterwards. Structural mismatches surface as
//!   recoverable [`FaultError`]s, not panics.
//! * [`monte_carlo`] — the one Monte-Carlo driver for the marginalization
//!   of Eq. (4): it evaluates a metric under `T` independent drift samples
//!   per fault level, in place or fanned out over scoped worker threads
//!   with per-thread network replicas (bit-identical results for every
//!   worker count). Its caller-owned [`McState`] keeps the weight snapshot
//!   and per-worker workspaces across calls, and a fault level that draws
//!   no randomness is scored once per worker.
//! * [`Crossbar`] — a device-level model (differential conductance pairs,
//!   programming noise, quantized levels, read noise) that gives the
//!   ReRAM-V baseline something to diagnose and re-program.
//!
//! # Example
//!
//! ```
//! use nn::{Dense, Layer, Mode};
//! use rand::SeedableRng;
//! use rand_chacha::ChaCha8Rng;
//! use reram::{FaultInjector, FaultSpec};
//! use tensor::Tensor;
//!
//! let mut rng = ChaCha8Rng::seed_from_u64(0);
//! let mut net = Dense::new(4, 2, &mut rng);
//! let x = Tensor::ones(&[1, 4]);
//! let clean = net.forward(&x, Mode::Eval);
//!
//! // Any fault mix, described as text.
//! let model = "quantize:16+lognormal:0.5".parse::<FaultSpec>()?.build()?;
//! let snapshot = FaultInjector::snapshot(&mut net);
//! FaultInjector::inject(&mut net, model.as_ref(), &mut rng);
//! let drifted = net.forward(&x, Mode::Eval); // degraded output
//! snapshot.restore_into(&mut net)?;
//! let restored = net.forward(&x, Mode::Eval);
//! assert_eq!(clean.as_slice(), restored.as_slice());
//! # let _ = drifted;
//! # Ok::<(), reram::FaultError>(())
//! ```

mod crossbar;
mod drift;
mod error;
mod inject;
mod spec;

pub use crossbar::{Crossbar, CrossbarConfig, DriftReport};
pub use drift::{
    BitFlipFault, CompositeDrift, CompositeFault, DeviceVariation, DriftModel, GaussianAdditive,
    LevelQuantization, LogNormalDrift, StuckAtFault, UniformAdditive, UniformDrift,
};
pub use error::FaultError;
pub use inject::{mix_seed, monte_carlo, FaultInjector, McState, McStats, WeightSnapshot};
pub use spec::FaultSpec;
