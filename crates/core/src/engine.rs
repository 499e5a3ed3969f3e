//! The experiment engine: a fluent, trait-driven driver for Algorithm 1.
//!
//! [`Engine::builder`] assembles a search from its parts — a
//! [`DropoutSearchSpace`], any [`Objective`], any
//! [`bayesopt::Acquisition`] — and [`Engine::run`] executes the
//! alternating weight-training / Bayesian-optimization loop, fanning the
//! Monte-Carlo drift samples of each objective evaluation over worker
//! threads. The run returns both the trained model and a serializable
//! [`RunReport`].

use std::time::Instant;

use baselines::{train_epochs, OutputDecoder, TrainConfig, TrainedModel};
use bayesopt::{Acquisition, BayesOpt, SquaredExponential};
use datasets::ClassificationDataset;
use nn::{Layer, Workspace};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use reram::mix_seed;

use crate::{
    BayesFtError, DriftObjective, DropoutSearchSpace, EvalCtx, Objective, RunReport, StageTimings,
    TrialRecord,
};

/// Seed stream of the Bayesian-optimization candidate sampler.
const SUGGEST_STREAM: u64 = 0x5bfd;
/// Seed-stream offset of per-trial objective evaluations.
const EVAL_STREAM: u64 = 0x0b5e;
/// Candidate points each acquisition maximization scores.
const CANDIDATES: usize = 192;

/// Result of [`Engine::run`]: the trained model plus the run record.
pub struct ExperimentResult {
    /// The trained network with the best architecture applied, bundled for
    /// drift evaluation alongside the baselines.
    pub model: TrainedModel,
    /// Serializable record of the search (trials, best α, timings).
    pub report: RunReport,
}

impl std::fmt::Debug for ExperimentResult {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExperimentResult")
            .field("best_alpha", &self.report.best_alpha)
            .field("trials", &self.report.trials.len())
            .finish()
    }
}

/// Fluent configuration of an [`Engine`]; see [`Engine::builder`].
pub struct ExperimentBuilder {
    space: Option<DropoutSearchSpace>,
    objective: Option<Box<dyn Objective>>,
    trials: usize,
    epochs_per_trial: usize,
    final_epochs: usize,
    mc_samples: usize,
    sigma: f32,
    max_rate: f32,
    acquisition: Acquisition,
    lengthscale: f64,
    seed: u64,
    parallelism: usize,
    train: TrainConfig,
}

impl Default for ExperimentBuilder {
    fn default() -> Self {
        ExperimentBuilder {
            space: None,
            objective: None,
            trials: 12,
            epochs_per_trial: 3,
            final_epochs: 10,
            mc_samples: 8,
            sigma: 0.6,
            max_rate: 0.8,
            acquisition: Acquisition::PosteriorMean,
            lengthscale: 0.3,
            seed: 0,
            parallelism: 1,
            train: TrainConfig::default(),
        }
    }
}

impl ExperimentBuilder {
    /// Sets the search space (default: the per-layer
    /// [`DropoutSearchSpace::probe`] of the network at run time).
    pub fn space(mut self, space: DropoutSearchSpace) -> Self {
        self.space = Some(space);
        self
    }

    /// Sets the objective (default: a [`DriftObjective`] over the σ-ladder
    /// `{0, σ/2, σ}` with [`ExperimentBuilder::mc_samples`] samples).
    pub fn objective(mut self, objective: impl Objective + 'static) -> Self {
        self.objective = Some(Box::new(objective));
        self
    }

    /// Boxed-form [`ExperimentBuilder::objective`].
    pub fn objective_boxed(mut self, objective: Box<dyn Objective>) -> Self {
        self.objective = Some(objective);
        self
    }

    /// Number of Bayesian-optimization trials (outer iterations).
    pub fn trials(mut self, trials: usize) -> Self {
        self.trials = trials;
        self
    }

    /// SGD epochs per trial (`E` in Algorithm 1).
    pub fn epochs_per_trial(mut self, epochs: usize) -> Self {
        self.epochs_per_trial = epochs;
        self
    }

    /// Fine-tuning epochs after the best architecture is locked in.
    pub fn final_epochs(mut self, epochs: usize) -> Self {
        self.final_epochs = epochs;
        self
    }

    /// Monte-Carlo samples per default-objective evaluation (`T` in Eq. 4).
    pub fn mc_samples(mut self, samples: usize) -> Self {
        self.mc_samples = samples;
        self
    }

    /// Drift level the default objective optimizes for.
    pub fn sigma(mut self, sigma: f32) -> Self {
        self.sigma = sigma;
        self
    }

    /// Largest dropout rate `α = 1` maps to in the default space. A space
    /// set with [`ExperimentBuilder::space`] keeps its own
    /// [`DropoutSearchSpace::max_rate`].
    pub fn max_rate(mut self, max_rate: f32) -> Self {
        self.max_rate = max_rate;
        self
    }

    /// Acquisition rule (default: the paper's posterior mean).
    pub fn acquisition(mut self, acquisition: Acquisition) -> Self {
        self.acquisition = acquisition;
        self
    }

    /// GP kernel lengthscale over the unit cube; [`build`](Self::build)
    /// rejects a lengthscale that is not finite and positive.
    pub fn lengthscale(mut self, lengthscale: f64) -> Self {
        self.lengthscale = lengthscale;
        self
    }

    /// Master seed of the run.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Worker threads for Monte-Carlo objective evaluation. `0` means
    /// "one per available CPU core"; `1` (the default) is fully serial.
    ///
    /// Any value yields bit-identical results; this knob trades threads
    /// for wall-clock only.
    pub fn parallelism(mut self, workers: usize) -> Self {
        self.parallelism = workers;
        self
    }

    /// Weight-training hyper-parameters.
    pub fn train(mut self, train: TrainConfig) -> Self {
        self.train = train;
        self
    }

    /// Validates the configuration and produces a runnable [`Engine`].
    ///
    /// # Errors
    ///
    /// Returns [`BayesFtError::InvalidConfig`] for zero trial budgets,
    /// non-positive drift levels, a kernel lengthscale that is not finite
    /// and positive, or an out-of-range `max_rate`.
    pub fn build(self) -> Result<Engine, BayesFtError> {
        if self.trials == 0 {
            return Err(BayesFtError::InvalidConfig(
                "need at least one search trial".into(),
            ));
        }
        if self.mc_samples == 0 {
            return Err(BayesFtError::InvalidConfig(
                "need at least one Monte-Carlo sample".into(),
            ));
        }
        if !(self.sigma >= 0.0 && self.sigma.is_finite()) {
            return Err(BayesFtError::InvalidConfig(format!(
                "sigma must be finite and >= 0, got {}",
                self.sigma
            )));
        }
        if !(self.lengthscale > 0.0 && self.lengthscale.is_finite()) {
            return Err(BayesFtError::InvalidConfig(format!(
                "lengthscale must be finite and > 0, got {}",
                self.lengthscale
            )));
        }
        crate::space::check_max_rate(self.max_rate)?;
        let parallelism = if self.parallelism == 0 {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        } else {
            self.parallelism
        };
        Ok(Engine {
            builder: ExperimentBuilder {
                parallelism,
                ..self
            },
        })
    }

    /// Builds and immediately runs; see [`Engine::run`].
    ///
    /// # Errors
    ///
    /// Propagates [`ExperimentBuilder::build`] and [`Engine::run`] errors.
    pub fn run(
        self,
        net: Box<dyn Layer>,
        train: &ClassificationDataset,
        val: &ClassificationDataset,
    ) -> Result<ExperimentResult, BayesFtError> {
        self.build()?.run(net, train, val)
    }
}

/// The configured experiment driver (Algorithm 1, generalized).
///
/// # Example
///
/// ```
/// use bayesft::Engine;
/// use datasets::moons;
/// use models::{Mlp, MlpConfig};
/// use rand::SeedableRng;
/// use rand_chacha::ChaCha8Rng;
///
/// let mut rng = ChaCha8Rng::seed_from_u64(0);
/// let data = moons(200, 0.1, &mut rng);
/// let (train, val) = data.split(0.8, &mut rng);
/// let net = Box::new(Mlp::new(&MlpConfig::new(2, 2).hidden(16), &mut rng));
///
/// let result = Engine::builder()
///     .trials(3)
///     .epochs_per_trial(1)
///     .final_epochs(1)
///     .mc_samples(2)
///     .sigma(0.5)
///     .parallelism(2)
///     .run(net, &train, &val)?;
/// assert_eq!(result.report.trials.len(), 3);
/// println!("{}", result.report.to_json_string_pretty());
/// # Ok::<(), bayesft::BayesFtError>(())
/// ```
pub struct Engine {
    builder: ExperimentBuilder,
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("trials", &self.builder.trials)
            .field("parallelism", &self.builder.parallelism)
            .field("seed", &self.builder.seed)
            .finish()
    }
}

impl Engine {
    /// Starts configuring an experiment.
    pub fn builder() -> ExperimentBuilder {
        ExperimentBuilder::default()
    }

    /// Runs the alternating search on a classification task.
    ///
    /// Weights `θ` persist across trials (Algorithm 1 trains them
    /// continuously); only the architecture vector `α` jumps between
    /// Bayesian-optimization suggestions. After the search the best `α` is
    /// re-applied and the weights fine-tuned. One training workspace
    /// serves every trial and the fine-tune, and a [`DriftObjective`]
    /// keeps its Monte-Carlo state across trials, so a trial allocates
    /// buffers only while they first grow.
    ///
    /// The run is deterministic in the master seed: for a fixed seed the
    /// returned [`RunReport`] is [`RunReport::deterministic_eq`]-identical
    /// for every `parallelism` setting.
    ///
    /// # Errors
    ///
    /// Returns [`BayesFtError::EmptySearchSpace`] if no space was supplied
    /// and the network has no dropout layers, [`BayesFtError::Gp`] if the
    /// surrogate cannot be fitted, and
    /// [`BayesFtError::DimensionMismatch`] if the supplied space does not
    /// fit the network.
    pub fn run(
        &self,
        mut net: Box<dyn Layer>,
        train: &ClassificationDataset,
        val: &ClassificationDataset,
    ) -> Result<ExperimentResult, BayesFtError> {
        let cfg = &self.builder;
        let run_start = Instant::now();

        let probed;
        let space = match &cfg.space {
            Some(space) => space,
            None => {
                probed = DropoutSearchSpace::try_probe(net.as_mut())?.max_rate(cfg.max_rate);
                &probed
            }
        };
        space.validate(net.as_mut())?;
        let ladder;
        let objective: &dyn Objective = match &cfg.objective {
            Some(objective) => objective.as_ref(),
            None => {
                // σ ladder {0, σ/2, σ}: robust at the target drift level
                // without surrendering clean accuracy.
                ladder = DriftObjective::with_sigmas(
                    vec![0.0, cfg.sigma / 2.0, cfg.sigma],
                    cfg.mc_samples,
                );
                &ladder
            }
        };

        let epoch_cfg = TrainConfig {
            epochs: cfg.epochs_per_trial,
            ..cfg.train.clone()
        };
        let mut bo = BayesOpt::new(
            space.dim(),
            SquaredExponential::isotropic(1.0, cfg.lengthscale),
        )
        .acquisition(cfg.acquisition)
        .candidates(CANDIDATES);
        let mut suggest_rng = ChaCha8Rng::seed_from_u64(mix_seed(cfg.seed, SUGGEST_STREAM));

        let mut train_ws = Workspace::new();
        let mut timings = StageTimings::default();
        let mut trials = Vec::with_capacity(cfg.trials);
        for t in 0..cfg.trials {
            let mark = Instant::now();
            let alpha = {
                let _s = telemetry::Span::enter(
                    "engine.suggest",
                    telemetry::duration_histogram!("engine_suggest_seconds"),
                );
                bo.suggest(&mut suggest_rng)?
            };
            timings.suggest_ms += ms_since(mark);

            space.apply(net.as_mut(), &alpha)?;

            let mark = Instant::now();
            {
                let _s = telemetry::Span::enter(
                    "engine.train",
                    telemetry::duration_histogram!("engine_train_seconds"),
                );
                let _ = train_epochs(net.as_mut(), train, &epoch_cfg, &mut train_ws);
            }
            timings.train_ms += ms_since(mark);

            let ctx = EvalCtx::new(t, mix_seed(cfg.seed, EVAL_STREAM.wrapping_add(t as u64)))
                .parallelism(cfg.parallelism);
            let mark = Instant::now();
            let stats = {
                let _s = telemetry::Span::enter(
                    "engine.eval",
                    telemetry::duration_histogram!("engine_eval_seconds"),
                );
                objective.evaluate(net.as_mut(), val, &ctx)
            };
            timings.eval_ms += ms_since(mark);

            bo.tell(alpha.clone(), stats.mean as f64);
            trials.push(TrialRecord {
                trial: t,
                alpha,
                objective: stats.mean as f64,
                objective_std: stats.std as f64,
            });
        }

        let (best_alpha, best_objective) = bo
            .best_observed()
            .ok_or_else(|| BayesFtError::InvalidConfig("no trials completed".into()))?;

        // Final: lock in the best architecture and fine-tune.
        space.apply(net.as_mut(), &best_alpha)?;
        let final_cfg = TrainConfig {
            epochs: cfg.final_epochs,
            ..cfg.train.clone()
        };
        let mark = Instant::now();
        {
            let _s = telemetry::Span::enter(
                "engine.finetune",
                telemetry::duration_histogram!("engine_finetune_seconds"),
            );
            let _ = train_epochs(net.as_mut(), train, &final_cfg, &mut train_ws);
        }
        timings.finetune_ms = ms_since(mark);
        timings.total_ms = ms_since(run_start);

        Ok(ExperimentResult {
            model: TrainedModel {
                net,
                decoder: OutputDecoder::Softmax,
                method: "bayesft",
            },
            report: RunReport {
                space: space.label().to_string(),
                objective: objective.label(),
                dim: space.dim(),
                seed: cfg.seed,
                parallelism: cfg.parallelism,
                trials,
                best_alpha,
                best_objective,
                timings,
                scenario: None,
            },
        })
    }
}

fn ms_since(mark: Instant) -> f64 {
    mark.elapsed().as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;
    use models::{Mlp, MlpConfig};

    fn task() -> (ClassificationDataset, ClassificationDataset, Box<Mlp>) {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let data = datasets::moons(200, 0.1, &mut rng);
        let (train, val) = data.split(0.8, &mut rng);
        let net = Box::new(Mlp::new(&MlpConfig::new(2, 2).hidden(16), &mut rng));
        (train, val, net)
    }

    fn quick() -> ExperimentBuilder {
        Engine::builder()
            .trials(3)
            .epochs_per_trial(1)
            .final_epochs(1)
            .mc_samples(2)
            .sigma(0.5)
            .train(TrainConfig::fast_test())
    }

    #[test]
    fn engine_runs_and_reports() {
        let (train, val, net) = task();
        let result = quick().seed(7).run(net, &train, &val).unwrap();
        assert_eq!(result.report.trials.len(), 3);
        assert_eq!(result.report.best_alpha.len(), 2);
        assert!(result
            .report
            .best_alpha
            .iter()
            .all(|a| (0.0..=1.0).contains(a)));
        assert_eq!(result.report.space, "per_layer");
        assert!(result.report.objective.starts_with("drift["));
        assert_eq!(result.model.method, "bayesft");
        assert!(result.report.timings.total_ms > 0.0);
        let json = result.report.to_json_string();
        assert!(json.contains("\"seed\":7"), "{json}");
    }

    #[test]
    fn builder_rejects_bad_configs() {
        assert!(matches!(
            Engine::builder().trials(0).build().unwrap_err(),
            BayesFtError::InvalidConfig(_)
        ));
        assert!(matches!(
            Engine::builder().mc_samples(0).build().unwrap_err(),
            BayesFtError::InvalidConfig(_)
        ));
        assert!(matches!(
            Engine::builder().sigma(-1.0).build().unwrap_err(),
            BayesFtError::InvalidConfig(_)
        ));
        assert!(matches!(
            Engine::builder().max_rate(0.99).build().unwrap_err(),
            BayesFtError::InvalidConfig(_)
        ));
        for lengthscale in [0.0, -0.3, f64::NAN, f64::INFINITY] {
            assert!(
                matches!(
                    Engine::builder().lengthscale(lengthscale).build(),
                    Err(BayesFtError::InvalidConfig(_))
                ),
                "lengthscale {lengthscale} accepted"
            );
        }
    }

    #[test]
    fn dropout_free_network_yields_empty_space_error() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let data = datasets::moons(60, 0.1, &mut rng);
        let (train, val) = data.split(0.8, &mut rng);
        let net = Box::new(Mlp::new(
            &MlpConfig::new(2, 2).dropout(models::DropoutKind::None),
            &mut rng,
        ));
        let err = quick().run(net, &train, &val).unwrap_err();
        assert_eq!(err, BayesFtError::EmptySearchSpace);
    }

    #[test]
    fn custom_space_is_respected() {
        let (train, val, mut net) = task();
        let space = DropoutSearchSpace::shared(net.as_mut()).unwrap();
        let result = quick().space(space).run(net, &train, &val).unwrap();
        assert_eq!(result.report.dim, 1);
        assert_eq!(result.report.space, "shared_rate");
        assert_eq!(result.report.best_alpha.len(), 1);
    }

    #[test]
    fn mismatched_space_is_rejected_before_the_search() {
        let (train, val, _) = task();
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        // Space probed from a 3-dropout network, run against a 2-dropout one.
        let mut deep = Mlp::new(&MlpConfig::new(2, 2).depth(4), &mut rng);
        let space = DropoutSearchSpace::probe(&mut deep);
        let shallow = Box::new(Mlp::new(&MlpConfig::new(2, 2).hidden(16), &mut rng));
        let err = quick().space(space).run(shallow, &train, &val).unwrap_err();
        assert!(
            matches!(
                err,
                BayesFtError::DimensionMismatch {
                    expected: 3,
                    got: 2,
                    ..
                }
            ),
            "{err}"
        );
    }

    #[test]
    fn full_width_seeds_survive_json_round_trip() {
        let (train, val, net) = task();
        let result = quick().seed(u64::MAX).run(net, &train, &val).unwrap();
        let json = result.report.to_json_string();
        assert!(
            json.contains("\"seed\":18446744073709551615"),
            "seed lost precision: {json}"
        );
        assert_eq!(
            result
                .report
                .to_json()
                .get("seed")
                .and_then(serde_json::Value::as_u64),
            Some(u64::MAX)
        );
    }

    #[test]
    fn parallel_run_is_deterministically_equal_to_serial() {
        let (train, val, net) = task();
        let serial = quick()
            .seed(11)
            .parallelism(1)
            .run(net, &train, &val)
            .unwrap();
        let (train2, val2, net2) = task();
        let parallel = quick()
            .seed(11)
            .parallelism(4)
            .run(net2, &train2, &val2)
            .unwrap();
        assert!(serial.report.deterministic_eq(&parallel.report));
        assert_eq!(
            serial.report.to_json().get("trials"),
            parallel.report.to_json().get("trials")
        );
    }

    #[test]
    fn best_alpha_is_the_best_trial() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let data = datasets::moons(150, 0.1, &mut rng);
        let (train, val) = data.split(0.8, &mut rng);
        let net = Box::new(Mlp::new(&MlpConfig::new(2, 2), &mut rng));
        let result = Engine::builder()
            .trials(4)
            .epochs_per_trial(2)
            .final_epochs(2)
            .mc_samples(3)
            .sigma(0.5)
            .train(TrainConfig::fast_test())
            .run(net, &train, &val)
            .unwrap();
        let best = result
            .report
            .trials
            .iter()
            .max_by(|a, b| bayesopt::nan_low_cmp(a.objective, b.objective))
            .unwrap();
        assert_eq!(best.alpha, result.report.best_alpha);
    }

    #[test]
    fn bayesft_beats_erm_under_drift_on_moons() {
        // The paper's headline claim, at miniature scale: the searched
        // architecture is more drift-robust than plain ERM.
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let data = datasets::moons(400, 0.1, &mut rng);
        let (train, val) = data.split(0.8, &mut rng);

        let erm_net = Box::new(Mlp::new(&MlpConfig::new(2, 2).hidden(24), &mut rng));
        let cfg = TrainConfig {
            epochs: 24,
            ..TrainConfig::fast_test()
        };
        let mut erm = baselines::train_erm(erm_net, &train, &cfg);

        let bft_net = Box::new(Mlp::new(&MlpConfig::new(2, 2).hidden(24), &mut rng));
        let mut bft = Engine::builder()
            .trials(8)
            .epochs_per_trial(3)
            .mc_samples(6)
            .sigma(0.8)
            .train(TrainConfig::fast_test())
            .run(bft_net, &train, &val)
            .unwrap()
            .model;

        let sigma = reram::LogNormalDrift::new(1.0);
        let erm_acc = baselines::drift_accuracy(&mut erm, &val, &sigma, 12, 99).mean;
        let bft_acc = baselines::drift_accuracy(&mut bft, &val, &sigma, 12, 99).mean;
        assert!(
            bft_acc >= erm_acc - 0.02,
            "BayesFT ({bft_acc}) should not lose to ERM ({erm_acc}) under drift"
        );
    }
}
