//! Gaussian-process Bayesian optimization for the BayesFT reproduction.
//!
//! Implements the surrogate-model machinery of the paper's §III-B:
//! a Gaussian-process regressor (Eqs. 5–8) with the exponential kernel of
//! Eq. (9), and the trial-selection rule `α_{t} = argmax p(g(α) | g(α_{1:t−1}))`
//! realized by maximizing an acquisition function over sampled candidates.
//!
//! The paper's own acquisition is the posterior mean
//! ([`Acquisition::PosteriorMean`]); expected improvement and UCB are
//! provided for the acquisition ablation bench.
//!
//! All GP numerics run in `f64` (Cholesky factorization with adaptive
//! jitter) regardless of the `f32` tensors used by the network substrate —
//! kernel matrices are tiny (one row per BO trial) but ill-conditioned.
//!
//! # Example
//!
//! ```
//! use bayesopt::{Acquisition, BayesOpt, SquaredExponential};
//! use rand::SeedableRng;
//! use rand_chacha::ChaCha8Rng;
//!
//! // Maximize f(x) = -(x-0.3)² on [0, 1].
//! let mut bo = BayesOpt::new(1, SquaredExponential::isotropic(1.0, 0.2))
//!     .acquisition(Acquisition::ExpectedImprovement { xi: 0.01 });
//! let mut rng = ChaCha8Rng::seed_from_u64(0);
//! for _ in 0..15 {
//!     let x = bo.suggest(&mut rng)?;
//!     let y = -(x[0] - 0.3f64).powi(2);
//!     bo.tell(x, y);
//! }
//! let (best_x, _) = bo.best_observed().expect("observations were told");
//! assert!((best_x[0] - 0.3).abs() < 0.15);
//! # Ok::<(), bayesopt::GpError>(())
//! ```

mod acquisition;
mod chol;
mod gp;
mod kernel;
mod opt;
mod sampler;

pub use acquisition::Acquisition;
pub use chol::{cholesky, Cholesky};
pub use gp::{GaussianProcess, GpError, Posterior};
pub use kernel::{Kernel, Matern52, SquaredExponential};
pub use opt::{nan_low_cmp, BayesOpt, Observation};
pub use sampler::latin_hypercube;
