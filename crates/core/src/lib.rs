//! **BayesFT** — Bayesian optimization for fault-tolerant neural network
//! architecture (Ye et al., DAC 2021; reproduction), packaged as a
//! composable experiment engine.
//!
//! The paper's pipeline, end to end:
//!
//! 1. **Search space** ([`SearchSpace`]): the paper appends a dropout layer
//!    after every weighted layer and searches the per-layer rates
//!    `α ∈ [0, 1]^{K−1}` (§III-B) — [`DropoutSearchSpace`]. Alternative
//!    spaces plug into the same engine: [`SharedDropoutSpace`] (one shared
//!    rate) and [`GroupedDropoutSpace`] (rates tied across layer groups).
//! 2. **Objective** ([`Objective`]): the drift-marginalized utility of
//!    Eq. (3), estimated by Monte-Carlo sampling (Eq. 4) —
//!    [`DriftObjective`], generic over any [`reram::DriftModel`]
//!    (log-normal, Gaussian-additive, uniform, stuck-at, bit-flip,
//!    composite).
//! 3. **Engine** ([`Engine`], Algorithm 1): alternate SGD epochs on the
//!    weights `θ` with Gaussian-process posterior updates over `α`; pick
//!    each next `α` by maximizing the posterior (via
//!    [`bayesopt::Acquisition`]). Independent Monte-Carlo drift samples
//!    fan out over worker threads (`parallelism(n)`) with bit-identical
//!    results to the serial path.
//! 4. **Reporting** ([`RunReport`], [`accuracy_vs_sigma`], [`SweepTable`],
//!    [`robustness_gain`]): a JSON-serializable run record plus the
//!    accuracy-vs-σ curves of Figs. 2–3 and the "BayesFT is 10–100× more
//!    robust" headline ratios.
//!
//! Errors from every stage surface as the unified [`BayesFtError`].
//!
//! # Example
//!
//! ```
//! use bayesft::{DriftObjective, Engine};
//! use datasets::moons;
//! use models::{Mlp, MlpConfig};
//! use rand::SeedableRng;
//! use rand_chacha::ChaCha8Rng;
//!
//! let mut rng = ChaCha8Rng::seed_from_u64(0);
//! let data = moons(200, 0.1, &mut rng);
//! let (train, val) = data.split(0.8, &mut rng);
//! let net = Box::new(Mlp::new(&MlpConfig::new(2, 2).hidden(16), &mut rng));
//!
//! let result = Engine::builder()
//!     .objective(DriftObjective::with_sigmas(vec![0.0, 0.3, 0.6], 3))
//!     .trials(4)
//!     .epochs_per_trial(2)
//!     .final_epochs(2)
//!     .parallelism(2) // fan MC samples over 2 threads; same result as serial
//!     .seed(7)
//!     .run(net, &train, &val)?;
//!
//! assert_eq!(result.report.trials.len(), 4);
//! assert!(!result.report.best_alpha.is_empty());
//! let json = result.report.to_json_string(); // serializable run record
//! assert!(json.contains("\"best_alpha\""));
//! # Ok::<(), bayesft::BayesFtError>(())
//! ```

mod engine;
mod error;
mod objective;
mod report;
mod space;
mod sweep;

pub use engine::{Engine, ExperimentBuilder, ExperimentResult};
pub use error::BayesFtError;
pub use objective::{DriftObjective, EvalCtx, Objective, ObjectiveMetric};
pub use report::{RunReport, ScenarioMeta, StageTimings, TrialRecord};
pub use space::{DropoutSearchSpace, GroupedDropoutSpace, SearchSpace, SharedDropoutSpace};
pub use sweep::{accuracy_vs_sigma, robustness_gain, MethodCurve, SweepTable, SIGMA_GRID};
