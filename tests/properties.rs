//! Cross-crate property-based tests on the workspace's core invariants.

use models::{dropout_count, set_dropout_rates, Mlp, MlpConfig};
use nn::{Layer, Mode};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use reram::{DriftModel, FaultInjector, LogNormalDrift, StuckAtFault, UniformDrift};
use tensor::Tensor;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Log-normal drift preserves weight sign for any σ and weight value.
    #[test]
    fn lognormal_drift_preserves_sign(sigma in 0.0f32..3.0, w in -10.0f32..10.0, seed in 0u64..1000) {
        let drift = LogNormalDrift::new(sigma);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let out = drift.perturb(w, &mut rng);
        prop_assert!(out.signum() == w.signum() || w == 0.0, "{w} -> {out}");
    }

    /// σ = 0 is exactly the identity for the paper's drift model.
    #[test]
    fn zero_sigma_is_identity(w in -100.0f32..100.0, seed in 0u64..100) {
        let drift = LogNormalDrift::new(0.0);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        prop_assert_eq!(drift.perturb(w, &mut rng), w);
    }

    /// Uniform drift is bounded: |θ' − θ| ≤ δ|θ|.
    #[test]
    fn uniform_drift_is_bounded(delta in 0.0f32..1.0, w in -5.0f32..5.0, seed in 0u64..100) {
        let drift = UniformDrift::new(delta);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let out = drift.perturb(w, &mut rng);
        prop_assert!((out - w).abs() <= delta * w.abs() + 1e-5);
    }

    /// Stuck-at outputs are always one of {0, ±max, input}.
    #[test]
    fn stuck_at_outputs_are_from_valid_set(w in -3.0f32..3.0, seed in 0u64..200) {
        let drift = StuckAtFault::new(0.3, 0.3, 1.5);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let out = drift.perturb(w, &mut rng);
        prop_assert!(out == 0.0 || out == w || out.abs() == 1.5, "{out}");
    }

    /// Snapshot/restore is exact for arbitrary drift in between.
    #[test]
    fn snapshot_restore_is_exact(sigma in 0.0f32..2.0, seed in 0u64..50) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut net = Mlp::new(&MlpConfig::new(6, 3).hidden(8), &mut rng);
        let x = Tensor::ones(&[1, 6]);
        let before = net.forward(&x, Mode::Eval);
        let snap = FaultInjector::snapshot(&mut net);
        FaultInjector::inject(&mut net, &LogNormalDrift::new(sigma), &mut rng);
        snap.restore_into(&mut net).unwrap();
        let after = net.forward(&x, Mode::Eval);
        prop_assert_eq!(before.as_slice(), after.as_slice());
    }

    /// Dropout-rate application clamps into [0, 0.95] for any input rates.
    #[test]
    fn dropout_rates_always_clamped(rates in proptest::collection::vec(-2.0f32..3.0, 2)) {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let mut net = Mlp::new(&MlpConfig::new(4, 2), &mut rng);
        set_dropout_rates(&mut net, &rates);
        for r in models::dropout_rates(&mut net) {
            prop_assert!((0.0..=0.95).contains(&r), "rate {r}");
        }
    }

    /// The search space dimension equals the number of hidden layers for
    /// an MLP of any depth.
    #[test]
    fn search_dimension_tracks_depth(depth in 2usize..8) {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let mut net = Mlp::new(&MlpConfig::new(4, 2).depth(depth), &mut rng);
        prop_assert_eq!(dropout_count(&mut net), depth - 1);
    }

    /// GP posterior variance is non-negative and bounded by the prior at
    /// any query point, for any observation set.
    #[test]
    fn gp_variance_bounds(
        ys in proptest::collection::vec(-2.0f64..2.0, 2..6),
        q in 0.0f64..1.0
    ) {
        let xs: Vec<Vec<f64>> = (0..ys.len()).map(|i| vec![i as f64 / ys.len() as f64]).collect();
        let mut gp = bayesopt::GaussianProcess::new(
            bayesopt::SquaredExponential::isotropic(1.0, 0.2), 1e-6);
        gp.fit(xs.iter().zip(ys)).unwrap();
        let p = gp.posterior(&[q]).unwrap();
        prop_assert!(p.variance >= 0.0);
        prop_assert!(p.variance <= 1.0 + 1e-6, "variance {} above prior", p.variance);
    }

    /// Codebook decoding is the identity on uncorrupted codewords for any
    /// class count.
    #[test]
    fn codebook_decode_identity(classes in 2usize..30) {
        let cb = baselines::Codebook::hadamard(classes);
        for class in 0..classes {
            let logits: Vec<f32> = cb.code(class).iter()
                .map(|&b| if b == 1 { 1.0 } else { -1.0 }).collect();
            prop_assert_eq!(cb.decode(&logits), class);
        }
    }

    /// IoU is symmetric, bounded, and 1 exactly on self.
    #[test]
    fn iou_properties(
        x0 in 0.0f32..20.0, y0 in 0.0f32..20.0, w in 1.0f32..10.0, h in 1.0f32..10.0,
        dx in -5.0f32..5.0, dy in -5.0f32..5.0
    ) {
        let a = datasets::BBox::new(x0, y0, x0 + w, y0 + h);
        let b = datasets::BBox::new(x0 + dx, y0 + dy, x0 + dx + w, y0 + dy + h);
        let iou = a.iou(&b);
        prop_assert!((0.0..=1.0 + 1e-6).contains(&iou));
        prop_assert!((a.iou(&b) - b.iou(&a)).abs() < 1e-6);
        prop_assert!((a.iou(&a) - 1.0).abs() < 1e-6);
    }

    /// Softmax cross-entropy of any logits is at least ln of the inverse
    /// true-class probability bound, and its gradient rows sum to zero.
    #[test]
    fn cross_entropy_gradient_rows_sum_to_zero(
        vals in proptest::collection::vec(-5.0f32..5.0, 6)
    ) {
        let logits = Tensor::from_vec(vals, &[2, 3]).unwrap();
        let out = nn::softmax_cross_entropy(&logits, &[0, 2]);
        prop_assert!(out.loss >= 0.0);
        for r in 0..2 {
            let s: f32 = out.grad.row(r).iter().sum();
            prop_assert!(s.abs() < 1e-5);
        }
    }

    /// The fused `inject_from` equals `restore_into` + `inject` bitwise
    /// for random network shapes, drift magnitudes, and dirty states.
    #[test]
    fn inject_from_equals_restore_then_inject(
        input_dim in 1usize..6,
        hidden in 1usize..9,
        depth in 2usize..5,
        sigma in 0.0f32..2.0,
        net_seed in 0u64..500,
        drift_seed in 0u64..500,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(net_seed);
        let cfg = MlpConfig::new(input_dim, 2).depth(depth).hidden(hidden);
        let mut fused = Mlp::new(&cfg, &mut rng);
        let mut rng = ChaCha8Rng::seed_from_u64(net_seed);
        let mut unfused = Mlp::new(&cfg, &mut rng);

        let snap_f = FaultInjector::snapshot(&mut fused);
        let snap_u = FaultInjector::snapshot(&mut unfused);
        // Dirty both replicas identically, as a previous trial would.
        let mut d = ChaCha8Rng::seed_from_u64(drift_seed ^ 0xABCD);
        FaultInjector::inject(&mut fused, &UniformDrift::new(0.7), &mut d);
        let mut d = ChaCha8Rng::seed_from_u64(drift_seed ^ 0xABCD);
        FaultInjector::inject(&mut unfused, &UniformDrift::new(0.7), &mut d);

        let model = LogNormalDrift::new(sigma);
        let mut r = ChaCha8Rng::seed_from_u64(drift_seed);
        FaultInjector::inject_from(&snap_f, &mut fused, &model, &mut r).unwrap();
        let mut r = ChaCha8Rng::seed_from_u64(drift_seed);
        snap_u.restore_into(&mut unfused).unwrap();
        FaultInjector::inject(&mut unfused, &model, &mut r);

        let a = FaultInjector::snapshot(&mut fused);
        let b = FaultInjector::snapshot(&mut unfused);
        for (ta, tb) in a.tensors().iter().zip(b.tensors()) {
            prop_assert_eq!(ta.as_slice(), tb.as_slice());
        }
    }

    /// A reused-workspace eval forward is bit-identical to a fresh-workspace
    /// forward for arbitrary MLP geometry and inputs.
    #[test]
    fn forward_ws_matches_forward(
        input_dim in 1usize..6,
        hidden in 1usize..9,
        depth in 2usize..5,
        batch in 1usize..4,
        seed in 0u64..500,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut net = Mlp::new(&MlpConfig::new(input_dim, 3).depth(depth).hidden(hidden), &mut rng);
        let x = Tensor::randn(&[batch, input_dim], 0.0, 1.0, &mut rng);
        let reference = net.forward(&x, Mode::Eval);
        let mut ws = nn::Workspace::new();
        for _ in 0..2 { // second pass runs on recycled buffers
            let y = net.forward_ws(&x, Mode::Eval, &mut ws);
            prop_assert_eq!(y.as_slice(), reference.as_slice());
            prop_assert_eq!(y.dims(), reference.dims());
            ws.recycle(y);
        }
    }
}
