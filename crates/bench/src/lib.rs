//! Shared harness for the figure-regeneration binaries.
//!
//! Every `fig*` binary in `src/bin/` reproduces one table/figure of the
//! paper, and each `ablate_*` binary one study beyond it:
//!
//! | binary | experiment |
//! |---|---|
//! | `fig1_decision_boundary` | Fig. 1: an MLP's decision boundary on two-moons as drift grows |
//! | `fig2_ablation` | Fig. 2: dropout, normalization, depth and activation ablations |
//! | `fig3_compare` | Fig. 3(a–i): ERM, FTNA, ReRAM-V, AWP and BayesFT per model and task |
//! | `fig3_detection` | Fig. 3(j): detection mAP under drift, ERM vs BayesFT |
//! | `fig4_detection_vis` | Fig. 4: detections under growing drift, rendered as ASCII |
//! | `ablate_acquisition` | the search's acquisition rule against random search |
//! | `ablate_drift_models` | a search under log-normal drift, scored under other fault models |
//! | `ablate_mc_samples` | the Monte-Carlo sample count `T` of the Eq. (4) estimator |
//!
//! This library holds the pieces they share: task construction, the
//! five-method comparison runner, and ASCII rendering helpers.
//!
//! Budgets: set the environment variable `BENCH_QUICK=1` to shrink every
//! experiment to a smoke-test budget (useful in CI); the default budget is
//! sized for minutes-per-figure on a laptop CPU.

pub mod detection;

use baselines::{
    drift_accuracy, reram_v_accuracy, train_awp, train_erm, train_ftna, AwpConfig, Codebook,
    ReRamVConfig, TrainConfig, TrainedModel,
};
use bayesft::{accuracy_vs_sigma, Engine, MethodCurve, SweepTable, SIGMA_GRID};
use datasets::ClassificationDataset;
use models::ModelKind;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use reram::LogNormalDrift;

/// Experiment scale, controlled by `BENCH_QUICK` / `BENCH_MEDIUM`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Full figure budget.
    Full,
    /// Reduced budget for the deep-CNN panels on slow machines.
    Medium,
    /// Smoke-test budget.
    Quick,
}

impl Scale {
    /// Reads the scale from the environment (`BENCH_QUICK=1` wins over
    /// `BENCH_MEDIUM=1`; default is full).
    pub fn from_env() -> Self {
        let flag = |k: &str| std::env::var(k).map(|v| v == "1").unwrap_or(false);
        if flag("BENCH_QUICK") {
            Scale::Quick
        } else if flag("BENCH_MEDIUM") {
            Scale::Medium
        } else {
            Scale::Full
        }
    }

    /// Samples per class for classification tasks.
    pub fn per_class(&self, classes: usize) -> usize {
        match self {
            // Keep total dataset size roughly constant across class counts.
            Scale::Full => (600 / classes).max(8),
            Scale::Medium => (300 / classes).max(6),
            Scale::Quick => (120 / classes).max(4),
        }
    }

    /// ERM/AWP/FTNA training epochs.
    pub fn epochs(&self) -> usize {
        match self {
            Scale::Full => 14,
            Scale::Medium => 8,
            Scale::Quick => 3,
        }
    }

    /// Monte-Carlo trials per sweep point.
    pub fn mc_trials(&self) -> usize {
        match self {
            Scale::Full => 6,
            Scale::Medium => 4,
            Scale::Quick => 2,
        }
    }

    /// BayesFT search trials.
    pub fn bo_trials(&self) -> usize {
        match self {
            Scale::Full => 8,
            Scale::Medium => 5,
            Scale::Quick => 3,
        }
    }
}

/// A classification task instance: generated data plus its geometry.
pub struct Task {
    /// Task label used in figure titles.
    pub name: &'static str,
    /// Training split.
    pub train: ClassificationDataset,
    /// Held-out split.
    pub test: ClassificationDataset,
    /// Image channels (0 ⇒ tabular features).
    pub in_channels: usize,
    /// Image side length (0 ⇒ tabular features).
    pub hw: usize,
    /// Class count.
    pub classes: usize,
}

/// Builds one of the named tasks (`digits`, `shapes`, `signs`) at a scale.
///
/// # Panics
///
/// Panics on an unknown task name.
pub fn make_task(name: &str, scale: Scale, seed: u64) -> Task {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    match name {
        "digits" => {
            let data = datasets::digits(scale.per_class(10), &mut rng);
            let (train, test) = data.split(0.8, &mut rng);
            Task {
                name: "digits",
                train,
                test,
                in_channels: 1,
                hw: 14,
                classes: 10,
            }
        }
        "shapes" => {
            let data = datasets::shapes(scale.per_class(10), &mut rng);
            let (train, test) = data.split(0.8, &mut rng);
            Task {
                name: "shapes",
                train,
                test,
                in_channels: 3,
                hw: 16,
                classes: 10,
            }
        }
        "signs" => {
            let data = datasets::signs(scale.per_class(43).max(6), &mut rng);
            let (train, test) = data.split(0.8, &mut rng);
            Task {
                name: "signs",
                train,
                test,
                in_channels: 3,
                hw: 16,
                classes: 43,
            }
        }
        other => panic!("unknown task {other:?} (expected digits|shapes|signs)"),
    }
}

/// Training configuration for a scale.
pub fn train_config(scale: Scale, seed: u64) -> TrainConfig {
    TrainConfig {
        epochs: scale.epochs(),
        batch_size: 32,
        lr: 0.05,
        momentum: 0.9,
        seed,
    }
}

/// Runs the full five-method comparison of Fig. 3 for one model/task pair
/// and returns the printable sweep table.
///
/// `include_ftna` is false for the traffic-sign task (Fig. 3(i) omits FTNA,
/// mirroring the paper).
pub fn compare_methods(
    kind: ModelKind,
    task: &Task,
    scale: Scale,
    include_ftna: bool,
) -> SweepTable {
    let seed = 42u64;
    let cfg = train_config(scale, seed);
    let trials = scale.mc_trials();
    let mut table = SweepTable::new(format!("{} on {}", kind.label(), task.name));

    // ERM
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let net = kind.build(task.in_channels, task.hw, task.classes, &mut rng);
    let mut erm = train_erm(net, &task.train, &cfg);
    let sweep = accuracy_vs_sigma(&mut erm, &task.test, &SIGMA_GRID, trials, seed);
    table.push(MethodCurve::from_sweep("ERM", &sweep));
    eprintln!("  [done] ERM");

    // FTNA
    if include_ftna {
        let cb = Codebook::hadamard(task.classes);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let net = kind.build(task.in_channels, task.hw, cb.bits(), &mut rng);
        let mut ftna = train_ftna(net, &task.train, &cfg, cb);
        let sweep = accuracy_vs_sigma(&mut ftna, &task.test, &SIGMA_GRID, trials, seed);
        table.push(MethodCurve::from_sweep("FTNA", &sweep));
        eprintln!("  [done] FTNA");
    }

    // ReRAM-V: ERM training, calibrated deployment.
    let reram_cfg = ReRamVConfig::default();
    let points: Vec<(f32, f32, f32)> = SIGMA_GRID
        .iter()
        .map(|&s| {
            let stats = reram_v_accuracy(&mut erm, &task.test, s, trials, seed, &reram_cfg);
            (s, stats.mean, stats.std)
        })
        .collect();
    table.push(MethodCurve {
        method: "ReRAM-V".into(),
        points,
    });
    eprintln!("  [done] ReRAM-V");

    // AWP
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let net = kind.build(task.in_channels, task.hw, task.classes, &mut rng);
    let mut awp = train_awp(net, &task.train, &cfg, &AwpConfig::default());
    let sweep = accuracy_vs_sigma(&mut awp, &task.test, &SIGMA_GRID, trials, seed);
    table.push(MethodCurve::from_sweep("AWP", &sweep));
    eprintln!("  [done] AWP");

    // BayesFT, through the engine: Monte-Carlo drift samples fan out over
    // all cores (bit-identical to a serial run), and the run record keeps
    // per-stage timings for the log.
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let net = kind.build(task.in_channels, task.hw, task.classes, &mut rng);
    let result = Engine::builder()
        .trials(scale.bo_trials())
        .epochs_per_trial((scale.epochs() / 3).max(1))
        .mc_samples(trials)
        .sigma(0.9)
        .train(cfg.clone())
        .seed(seed)
        .parallelism(0)
        .run(net, &task.train, &task.test)
        .expect("engine run");
    let report = result.report;
    let mut bft = result.model;
    let sweep = accuracy_vs_sigma(&mut bft, &task.test, &SIGMA_GRID, trials, seed);
    table.push(MethodCurve::from_sweep("BayesFT", &sweep));
    eprintln!(
        "  [done] BayesFT (alpha = {:?}; train {:.0} ms, eval {:.0} ms over {} workers)",
        report.best_alpha, report.timings.train_ms, report.timings.eval_ms, report.parallelism
    );

    table
}

/// Single-σ drift accuracy shortcut.
pub fn drift_point(
    model: &mut TrainedModel,
    data: &ClassificationDataset,
    sigma: f32,
    trials: usize,
) -> f32 {
    drift_accuracy(model, data, &LogNormalDrift::new(sigma), trials, 7).mean
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tasks_build_at_quick_scale() {
        for name in ["digits", "shapes", "signs"] {
            let task = make_task(name, Scale::Quick, 0);
            assert!(!task.train.is_empty() && !task.test.is_empty(), "{name}");
            assert_eq!(task.train.classes(), task.classes);
        }
    }

    #[test]
    fn scale_budgets_are_ordered() {
        assert!(Scale::Full.epochs() > Scale::Quick.epochs());
        assert!(Scale::Full.per_class(10) > Scale::Quick.per_class(10));
    }

    #[test]
    #[should_panic(expected = "unknown task")]
    fn unknown_task_panics() {
        let _ = make_task("imagenet", Scale::Quick, 0);
    }
}
