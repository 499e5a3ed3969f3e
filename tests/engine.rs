//! Cross-crate integration tests of the experiment engine: every
//! `DriftModel` variant and every `SearchSpace` implementation drive one
//! fast-budget search end to end, and parallel Monte-Carlo evaluation is
//! checked to reproduce the serial run exactly.

use std::sync::Arc;

use baselines::TrainConfig;
use bayesft::{
    DriftObjective, DropoutSearchSpace, Engine, EvalCtx, ExperimentBuilder, GroupedDropoutSpace,
    Objective, SearchSpace, SharedDropoutSpace,
};
use datasets::{moons, ClassificationDataset};
use models::{Mlp, MlpConfig};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use reram::{
    BitFlipFault, CompositeFault, DeviceVariation, DriftModel, GaussianAdditive, LevelQuantization,
    LogNormalDrift, StuckAtFault, UniformAdditive, UniformDrift,
};

fn task() -> (ClassificationDataset, ClassificationDataset) {
    let mut rng = ChaCha8Rng::seed_from_u64(0);
    let data = moons(160, 0.1, &mut rng);
    data.split(0.8, &mut rng)
}

fn net(depth: usize) -> Box<Mlp> {
    let mut rng = ChaCha8Rng::seed_from_u64(1);
    Box::new(Mlp::new(
        &MlpConfig::new(2, 2).hidden(12).depth(depth),
        &mut rng,
    ))
}

fn fast() -> ExperimentBuilder {
    Engine::builder()
        .trials(3)
        .epochs_per_trial(1)
        .final_epochs(1)
        .mc_samples(2)
        .train(TrainConfig {
            epochs: 1,
            ..TrainConfig::fast_test()
        })
}

#[test]
fn engine_runs_under_every_drift_model_variant() {
    let (train, val) = task();
    let models: Vec<(&str, Arc<dyn DriftModel>)> = vec![
        ("log_normal", Arc::new(LogNormalDrift::new(0.5))),
        ("gaussian_additive", Arc::new(GaussianAdditive::new(0.2))),
        ("uniform", Arc::new(UniformDrift::new(0.3))),
        ("uniform_additive", Arc::new(UniformAdditive::new(0.1))),
        ("device_variation", Arc::new(DeviceVariation::new(0.15))),
        ("stuck_at", Arc::new(StuckAtFault::new(0.05, 0.01, 2.0))),
        ("bit_flip", Arc::new(BitFlipFault::new(0.01, 8, 2.0))),
        ("quantize", Arc::new(LevelQuantization::new(16, 2.0))),
        (
            "composite",
            Arc::new(CompositeFault::new(vec![
                Box::new(LevelQuantization::new(32, 2.0)),
                Box::new(LogNormalDrift::new(0.3)),
                Box::new(StuckAtFault::new(0.02, 0.0, 1.0)),
            ])),
        ),
    ];
    for (name, model) in models {
        let objective = DriftObjective::with_models(vec![model], 2);
        let result = fast()
            .objective(objective)
            .seed(3)
            .run(net(3), &train, &val)
            .unwrap_or_else(|e| panic!("{name}: engine failed: {e}"));
        assert_eq!(result.report.trials.len(), 3, "{name}");
        assert!(
            result.report.objective.contains(name),
            "objective label {} should mention {name}",
            result.report.objective
        );
        assert!(
            result.report.trials.iter().all(|t| t.objective.is_finite()),
            "{name}: non-finite objective"
        );
    }
}

#[test]
fn engine_runs_under_every_search_space_impl() {
    let (train, val) = task();
    // 4 weighted layers -> 3 dropout slots.
    let spaces: Vec<(Box<dyn SearchSpace>, &str, usize)> = {
        let mut probe = net(4);
        vec![
            (
                Box::new(DropoutSearchSpace::probe(probe.as_mut())),
                "per_layer",
                3,
            ),
            (
                Box::new(SharedDropoutSpace::probe(probe.as_mut())),
                "shared_rate",
                1,
            ),
            (
                Box::new(GroupedDropoutSpace::chunked(probe.as_mut(), 2).unwrap()),
                "layer_group",
                2,
            ),
        ]
    };
    for (space, label, dim) in spaces {
        let names = space.names();
        let result = fast()
            .space_boxed(space)
            .seed(5)
            .run(net(4), &train, &val)
            .unwrap_or_else(|e| panic!("{label}: engine failed: {e}"));
        assert_eq!(result.report.space, label);
        assert_eq!(result.report.dim, dim, "{label}");
        assert_eq!(names.len(), dim, "{label}");
        assert_eq!(result.report.best_alpha.len(), dim, "{label}");
        assert!(result
            .report
            .best_alpha
            .iter()
            .all(|&a| (0.0..=1.0).contains(&a)));
    }
}

#[test]
fn parallel_and_serial_runs_produce_identical_reports() {
    let (train, val) = task();
    let serial = fast()
        .sigma(0.6)
        .seed(21)
        .parallelism(1)
        .run(net(3), &train, &val)
        .unwrap();
    for workers in [2usize, 4] {
        let parallel = fast()
            .sigma(0.6)
            .seed(21)
            .parallelism(workers)
            .run(net(3), &train, &val)
            .unwrap();
        assert!(
            serial.report.deterministic_eq(&parallel.report),
            "{workers} workers diverged:\nserial   {}\nparallel {}",
            serial.report.to_json_string(),
            parallel.report.to_json_string()
        );
        // Trial histories are compared bit-for-bit through JSON, which by
        // construction has stable key order.
        assert_eq!(
            serial.report.to_json().get("trials"),
            parallel.report.to_json().get("trials"),
        );
        assert_eq!(parallel.report.parallelism, workers);
    }
}

#[test]
fn report_json_round_trips_key_facts() {
    let (train, val) = task();
    let result = fast().seed(9).run(net(3), &train, &val).unwrap();
    let json = result.report.to_json();
    assert_eq!(
        json.get("seed").and_then(serde_json::Value::as_f64),
        Some(9.0)
    );
    assert_eq!(
        json.get("dim").and_then(serde_json::Value::as_f64),
        Some(result.report.dim as f64)
    );
    let trials = json
        .get("trials")
        .and_then(serde_json::Value::as_array)
        .unwrap();
    assert_eq!(trials.len(), result.report.trials.len());
    let pretty = result.report.to_json_string_pretty();
    assert!(pretty.contains("\"timings\""));
}

/// Engine-level golden pin: `DriftObjective::evaluate` on the fused
/// Monte-Carlo path reproduces the per-trial accuracy bits captured from
/// the pre-refactor implementation (separate inject + per-trial restore).
#[test]
fn drift_objective_reproduces_pre_refactor_golden_values() {
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let data = moons(64, 0.15, &mut rng);
    let mut mlp = Mlp::new(&MlpConfig::new(2, 2).hidden(12), &mut rng);
    let obj = DriftObjective::new(0.6, 5);
    let golden: [u32; 5] = [0x3f000000, 0x3f000000, 0x3e400000, 0x3f380000, 0x3ec80000];
    let serial = obj.evaluate(&mut mlp, &data, 123);
    let bits: Vec<u32> = serial.values.iter().map(|v| v.to_bits()).collect();
    assert_eq!(
        bits,
        golden.to_vec(),
        "serial objective diverged from golden"
    );
    for workers in [2usize, 5] {
        let ctx = EvalCtx::new(0, 123).parallelism(workers);
        let parallel = Objective::evaluate(&obj, &mut mlp, &data, &ctx);
        assert_eq!(parallel.values, serial.values, "{workers} workers");
    }
}
