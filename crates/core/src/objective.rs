//! Objectives: the drift-marginalized utility of Eqs. (3)–(4), behind a
//! pluggable trait.

use std::sync::{Arc, Mutex};

use baselines::{eval_batches, OutputDecoder};
use datasets::ClassificationDataset;
use nn::{softmax_cross_entropy_ws, Layer, Workspace};
use reram::{DriftModel, LogNormalDrift, McState, McStats};

/// Per-evaluation metadata handed to an [`Objective`] by the engine.
///
/// Carries the already-decorrelated seed for this trial (see
/// [`reram::mix_seed`]) plus scheduling information, so objectives never
/// derive their own streams from a raw master seed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EvalCtx {
    /// Zero-based trial index within the search.
    pub trial: usize,
    /// Decorrelated RNG seed for this evaluation.
    pub seed: u64,
    /// Worker threads the objective may fan Monte-Carlo samples over
    /// (`<= 1` means serial).
    pub parallelism: usize,
}

impl EvalCtx {
    /// A serial evaluation context.
    pub fn new(trial: usize, seed: u64) -> Self {
        EvalCtx {
            trial,
            seed,
            parallelism: 1,
        }
    }

    /// Sets the worker budget.
    pub fn parallelism(mut self, workers: usize) -> Self {
        self.parallelism = workers;
        self
    }
}

/// A scalar utility of a network on a validation set, to be maximized by
/// the Bayesian-optimization loop.
///
/// Implementations must be deterministic in `(network weights, data, ctx)`:
/// given the same inputs they must return identical statistics regardless
/// of `ctx.parallelism` — the engine's reproducibility guarantee leans on
/// this.
pub trait Objective: Send + Sync {
    /// Evaluates the utility; `.mean` is what the optimizer maximizes.
    fn evaluate(
        &self,
        network: &mut dyn Layer,
        data: &ClassificationDataset,
        ctx: &EvalCtx,
    ) -> McStats;

    /// Short label identifying the objective in a
    /// [`RunReport`](crate::RunReport).
    fn label(&self) -> String {
        "custom".to_string()
    }
}

/// What the Monte-Carlo marginalization measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ObjectiveMetric {
    /// `−E[ℓ]`, the paper's Eq. (3) utility (higher is better): the
    /// per-sample cross-entropy averaged over the whole set, negated.
    NegLoss,
    /// Expected test accuracy (higher is better) — monotonically related
    /// and what Fig. 3 reports.
    #[default]
    Accuracy,
}

/// Evaluates `u(α, θ) ≈ (1/T) Σ_t metric(f(drift_t(θ)))` on a held-out set.
///
/// Generic over the fault distribution: any set of
/// [`reram::DriftModel`]s — log-normal (the paper's Eq. 1), additive
/// Gaussian, uniform, stuck-at, bit-flip, or composites — can be averaged
/// over, not just the log-normal σ-ladder of the original formulation.
///
/// The objective keeps the Monte-Carlo driver's [`McState`] (weight
/// snapshot and worker workspaces) between calls, so scoring one network
/// per search trial allocates its buffers once per objective, not once per
/// trial. The state never changes a result; a clone starts with a fresh
/// one.
///
/// # Example
///
/// ```
/// use bayesft::DriftObjective;
/// use datasets::moons;
/// use models::{Mlp, MlpConfig};
/// use rand::SeedableRng;
/// use rand_chacha::ChaCha8Rng;
/// use reram::StuckAtFault;
/// use std::sync::Arc;
///
/// let mut rng = ChaCha8Rng::seed_from_u64(0);
/// let data = moons(100, 0.1, &mut rng);
/// let mut net = Mlp::new(&MlpConfig::new(2, 2), &mut rng);
///
/// // The paper's log-normal objective…
/// let obj = DriftObjective::new(0.5, 4);
/// assert_eq!(obj.evaluate(&mut net, &data, 7).values.len(), 4);
///
/// // …or any other fault model.
/// let stuck = DriftObjective::with_models(
///     vec![Arc::new(StuckAtFault::new(0.1, 0.0, 1.0))], 4);
/// assert_eq!(stuck.evaluate(&mut net, &data, 7).values.len(), 4);
/// ```
pub struct DriftObjective {
    /// Fault distributions the objective averages over. The paper's
    /// Eq. (3) uses a single log-normal σ; averaging over a small ladder
    /// (e.g. `{0, σ/2, σ}`) trades a little fidelity for architectures
    /// that keep their clean accuracy — used by the search driver.
    levels: Vec<Arc<dyn DriftModel>>,
    /// Monte-Carlo sample count `T` (Eq. 4) per fault level.
    trials: usize,
    /// Measured quantity.
    metric: ObjectiveMetric,
    /// Buffers reused by the next evaluation.
    mc_state: Mutex<McState>,
}

impl Clone for DriftObjective {
    fn clone(&self) -> Self {
        DriftObjective {
            levels: self.levels.clone(),
            trials: self.trials,
            metric: self.metric,
            mc_state: Mutex::default(),
        }
    }
}

impl std::fmt::Debug for DriftObjective {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DriftObjective")
            .field(
                "levels",
                &self.levels.iter().map(|m| m.name()).collect::<Vec<_>>(),
            )
            .field("trials", &self.trials)
            .field("metric", &self.metric)
            .finish()
    }
}

impl DriftObjective {
    /// Creates the objective at a single log-normal drift level `sigma`
    /// with `T = trials` MC samples, measuring accuracy.
    ///
    /// # Panics
    ///
    /// Panics if `trials == 0` or `sigma` is negative.
    pub fn new(sigma: f32, trials: usize) -> Self {
        DriftObjective::with_sigmas(vec![sigma], trials)
    }

    /// Creates an objective that averages the metric over several
    /// log-normal drift levels.
    ///
    /// # Panics
    ///
    /// Panics if `trials == 0`, `sigmas` is empty, or any σ is negative.
    pub fn with_sigmas(sigmas: Vec<f32>, trials: usize) -> Self {
        assert!(!sigmas.is_empty(), "need at least one drift level");
        let levels: Vec<Arc<dyn DriftModel>> = sigmas
            .into_iter()
            .map(|s| Arc::new(LogNormalDrift::new(s)) as Arc<dyn DriftModel>)
            .collect();
        DriftObjective::with_models(levels, trials)
    }

    /// Creates an objective averaging over the fault mix described by
    /// textual/config [`reram::FaultSpec`]s — the entry point scenario
    /// files and CLIs share (`lognormal:0.3`, `quantize:16+stuckat:0.01`).
    ///
    /// # Errors
    ///
    /// Returns [`BayesFtError::InvalidConfig`](crate::BayesFtError::InvalidConfig)
    /// for an empty spec list or `trials == 0`, and
    /// [`BayesFtError::Fault`](crate::BayesFtError::Fault) if a spec fails to
    /// build.
    pub fn from_specs(
        specs: &[reram::FaultSpec],
        trials: usize,
    ) -> Result<Self, crate::BayesFtError> {
        if specs.is_empty() {
            return Err(crate::BayesFtError::InvalidConfig(
                "need at least one fault spec".into(),
            ));
        }
        if trials == 0 {
            return Err(crate::BayesFtError::InvalidConfig(
                "need at least one Monte-Carlo sample".into(),
            ));
        }
        let models = specs
            .iter()
            .map(reram::FaultSpec::build_arc)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(DriftObjective::with_models(models, trials))
    }

    /// Creates an objective averaging over arbitrary fault models.
    ///
    /// # Panics
    ///
    /// Panics if `trials == 0` or `models` is empty.
    pub fn with_models(models: Vec<Arc<dyn DriftModel>>, trials: usize) -> Self {
        assert!(trials > 0, "need at least one Monte-Carlo sample");
        assert!(!models.is_empty(), "need at least one fault model");
        DriftObjective {
            levels: models,
            trials,
            metric: ObjectiveMetric::Accuracy,
            mc_state: Mutex::default(),
        }
    }

    /// Switches the measured quantity.
    pub fn metric(mut self, metric: ObjectiveMetric) -> Self {
        self.metric = metric;
        self
    }

    /// Monte-Carlo samples per fault level.
    pub fn trials(&self) -> usize {
        self.trials
    }

    /// The fault models averaged over.
    pub fn levels(&self) -> &[Arc<dyn DriftModel>] {
        &self.levels
    }

    /// Monte-Carlo statistics of the metric under drift, pooled over all
    /// fault levels; the objective value for Bayesian optimization is
    /// `.mean`. Serial shorthand for [`Objective::evaluate`] with
    /// `EvalCtx::new(0, seed)`; the network's weights are restored
    /// afterwards.
    pub fn evaluate(
        &self,
        network: &mut dyn Layer,
        data: &ClassificationDataset,
        seed: u64,
    ) -> McStats {
        Objective::evaluate(self, network, data, &EvalCtx::new(0, seed))
    }
}

impl Objective for DriftObjective {
    /// Runs every fault level through one [`reram::monte_carlo`] call over
    /// `ctx.parallelism` workers, level `i` seeded
    /// `mix_seed(ctx.seed, i + 1)`; bit-identical for every worker count.
    /// A call that finds the kept state in use by another thread (or
    /// poisoned by a panic) runs on a fresh one instead of waiting.
    fn evaluate(
        &self,
        network: &mut dyn Layer,
        data: &ClassificationDataset,
        ctx: &EvalCtx,
    ) -> McStats {
        let levels: Vec<(&dyn DriftModel, u64)> = self
            .levels
            .iter()
            .enumerate()
            .map(|(i, model)| (model.as_ref(), reram::mix_seed(ctx.seed, i as u64 + 1)))
            .collect();
        let metric = self.metric;
        let mut kept = self.mc_state.try_lock().ok();
        let mut fresh = McState::default();
        reram::monte_carlo(
            network,
            &levels,
            self.trials,
            ctx.parallelism,
            kept.as_deref_mut().unwrap_or(&mut fresh),
            |net, ws| match metric {
                ObjectiveMetric::NegLoss => neg_loss(net, data, ws),
                ObjectiveMetric::Accuracy => OutputDecoder::Softmax.accuracy(net, data, ws),
            },
        )
    }

    fn label(&self) -> String {
        let levels: Vec<&str> = self.levels.iter().map(|m| m.name()).collect();
        format!("drift[{}]x{}", levels.join(","), self.trials)
    }
}

/// `−E[ℓ]` of one drifted network on `data`, through the shared eval loop.
/// Batch losses are weighted by batch size: a partial last batch counts
/// for its samples, not as a whole batch.
fn neg_loss(net: &mut dyn Layer, data: &ClassificationDataset, ws: &mut Workspace) -> f32 {
    let mut total_loss = 0.0f32;
    eval_batches(net, data, ws, |logits, labels, ws| {
        let out = softmax_cross_entropy_ws(logits, labels, ws);
        total_loss += out.loss * labels.len() as f32;
        ws.recycle(out.grad);
    });
    -total_loss / data.len().max(1) as f32
}

#[cfg(test)]
mod tests {
    use super::*;
    use datasets::moons;
    use models::{Mlp, MlpConfig};
    use nn::Mode;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use reram::{GaussianAdditive, StuckAtFault, UniformDrift};

    fn setup() -> (Mlp, ClassificationDataset) {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let data = moons(200, 0.1, &mut rng);
        let net = Mlp::new(&MlpConfig::new(2, 2).hidden(16), &mut rng);
        (net, data)
    }

    #[test]
    fn zero_sigma_objective_is_deterministic() {
        let (mut net, data) = setup();
        let obj = DriftObjective::new(0.0, 3);
        let stats = obj.evaluate(&mut net, &data, 1);
        assert!(stats.std < 1e-9);
    }

    #[test]
    fn neg_loss_is_negative_for_untrained_network() {
        let (mut net, data) = setup();
        let obj = DriftObjective::new(0.0, 1).metric(ObjectiveMetric::NegLoss);
        let stats = obj.evaluate(&mut net, &data, 1);
        assert!(stats.mean < 0.0, "cross-entropy is positive, so −ℓ < 0");
    }

    #[test]
    fn objective_restores_weights() {
        let (mut net, data) = setup();
        let before = reram::FaultInjector::snapshot(&mut net);
        let _ = DriftObjective::new(1.0, 5).evaluate(&mut net, &data, 3);
        let after = reram::FaultInjector::snapshot(&mut net);
        for (a, b) in before.tensors().iter().zip(after.tensors()) {
            assert_eq!(a.as_slice(), b.as_slice());
        }
    }

    #[test]
    fn higher_sigma_increases_variance() {
        let (mut net, data) = setup();
        let low = DriftObjective::new(0.05, 8).evaluate(&mut net, &data, 5);
        let high = DriftObjective::new(2.0, 8).evaluate(&mut net, &data, 5);
        assert!(high.std >= low.std);
    }

    #[test]
    fn arbitrary_models_are_accepted() {
        let (mut net, data) = setup();
        let obj = DriftObjective::with_models(
            vec![
                Arc::new(GaussianAdditive::new(0.2)),
                Arc::new(UniformDrift::new(0.3)),
                Arc::new(StuckAtFault::new(0.05, 0.0, 1.0)),
            ],
            2,
        );
        let stats = obj.evaluate(&mut net, &data, 9);
        assert_eq!(stats.values.len(), 6, "2 samples x 3 fault levels");
        assert!(obj.label().starts_with("drift[gaussian_additive,"));
    }

    #[test]
    fn parallel_evaluation_is_bitwise_equal_to_serial() {
        let (mut net, data) = setup();
        let obj = DriftObjective::with_sigmas(vec![0.0, 0.4, 0.8], 4);
        let serial = obj.evaluate(&mut net, &data, 11);
        for workers in [2usize, 4, 16] {
            let ctx = EvalCtx::new(0, 11).parallelism(workers);
            let parallel = Objective::evaluate(&obj, &mut net, &data, &ctx);
            assert_eq!(serial.values, parallel.values, "{workers} workers");
        }
    }

    /// One objective keeps its state across calls; scoring a sequence of
    /// networks — trained further in between, and one of another shape —
    /// must equal a fresh objective per call, for every worker count.
    #[test]
    fn kept_state_matches_a_fresh_objective_per_call() {
        let (mut net, data) = setup();
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let mut wide = Mlp::new(&MlpConfig::new(2, 2).hidden(24).depth(3), &mut rng);
        let objective = || {
            let models: Vec<Arc<dyn DriftModel>> = vec![
                Arc::new(LogNormalDrift::new(0.0)),
                Arc::new(LogNormalDrift::new(0.5)),
                Arc::new(StuckAtFault::new(0.05, 0.0, 1.0)),
            ];
            DriftObjective::with_models(models, 3).metric(ObjectiveMetric::NegLoss)
        };
        let cfg = baselines::TrainConfig::fast_test();
        for workers in 1..=3 {
            let kept = objective();
            for call in 0..4u64 {
                let target: &mut dyn Layer = if call == 2 { &mut wide } else { &mut net };
                let ctx = EvalCtx::new(0, call).parallelism(workers);
                let got = Objective::evaluate(&kept, target, &data, &ctx);
                let want = Objective::evaluate(&objective(), target, &data, &ctx);
                assert_eq!(got.values, want.values, "call {call}, {workers} workers");
                let _ = baselines::train_epochs(target, &data, &cfg, &mut Workspace::new());
            }
        }
    }

    #[test]
    fn from_specs_matches_hand_built_objective() {
        let (mut net, data) = setup();
        let specs: Vec<reram::FaultSpec> = ["lognormal:0.4", "stuckat:0.05"]
            .iter()
            .map(|s| s.parse().unwrap())
            .collect();
        let from_specs = DriftObjective::from_specs(&specs, 3).unwrap();
        let by_hand = DriftObjective::with_models(
            vec![
                Arc::new(reram::LogNormalDrift::new(0.4)),
                Arc::new(StuckAtFault::new(0.05, 0.0, 1.0)),
            ],
            3,
        );
        let a = from_specs.evaluate(&mut net, &data, 17);
        let b = by_hand.evaluate(&mut net, &data, 17);
        assert_eq!(a.values, b.values, "spec-built objective must be identical");
    }

    #[test]
    fn from_specs_rejects_bad_configs() {
        use crate::BayesFtError;
        assert!(matches!(
            DriftObjective::from_specs(&[], 3).unwrap_err(),
            BayesFtError::InvalidConfig(_)
        ));
        let spec: reram::FaultSpec = "lognormal:0.3".parse().unwrap();
        assert!(matches!(
            DriftObjective::from_specs(&[spec], 0).unwrap_err(),
            BayesFtError::InvalidConfig(_)
        ));
        // A spec built by hand (bypassing the validating parser) still
        // surfaces a recoverable Fault error, not a panic.
        let bad = reram::FaultSpec::LogNormal { sigma: -1.0 };
        assert!(matches!(
            DriftObjective::from_specs(&[bad], 3).unwrap_err(),
            BayesFtError::Fault(_)
        ));
    }

    /// `NegLoss` is −E[ℓ] over samples: 65 samples make one batch of 64
    /// and one of 1, which a mean of batch means would weight equally.
    #[test]
    fn neg_loss_weights_batches_by_size() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let data = moons(65, 0.1, &mut rng);
        let mut net = Mlp::new(&MlpConfig::new(2, 2).hidden(16), &mut rng);
        let obj = DriftObjective::new(0.0, 1).metric(ObjectiveMetric::NegLoss);
        let got = obj.evaluate(&mut net, &data, 1).mean;
        let logits = net.forward(data.images(), Mode::Eval);
        let want = -nn::softmax_cross_entropy(&logits, data.labels()).loss;
        assert!((got - want).abs() < 1e-5, "{got} vs {want}");
    }

    #[test]
    fn trait_object_dispatch_works() {
        let (mut net, data) = setup();
        let obj: Box<dyn Objective> = Box::new(DriftObjective::new(0.3, 2));
        let ctx = EvalCtx::new(0, 42).parallelism(2);
        let stats = obj.evaluate(&mut net, &data, &ctx);
        assert_eq!(stats.values.len(), 2);
    }
}
