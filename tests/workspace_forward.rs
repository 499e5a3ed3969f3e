//! Workspace reuse is invisible: an eval forward through a reused,
//! stale-content `Workspace` (`Layer::forward_ws`) is bit-identical to one
//! on a fresh workspace (`Layer::forward`), across every layer family and
//! model architecture in the workspace.

use models::{LeNet5, Mlp, MlpConfig};
use nn::{
    Activation, AlphaDropout, Conv2d, Dense, Dropout, Flatten, GlobalAvgPool, Identity, Layer,
    MaxPool2d, Mode, PreActBlock, Residual, Sequential, Workspace,
};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use tensor::Tensor;

/// Asserts a reused-workspace `forward_ws` ≡ fresh-workspace `forward`
/// bitwise on `x`, twice (the second pass runs on recycled, stale-content
/// buffers), and returns the pooled-buffer count so callers can check the
/// pool stabilized.
fn assert_ws_matches(layer: &mut dyn Layer, x: &Tensor) -> usize {
    let reference = layer.forward(x, Mode::Eval);
    let mut ws = Workspace::new();
    for pass in 0..2 {
        let y = layer.forward_ws(x, Mode::Eval, &mut ws);
        assert_eq!(y.dims(), reference.dims(), "{} pass {pass}", layer.name());
        let same = y
            .as_slice()
            .iter()
            .zip(reference.as_slice())
            .all(|(a, b)| a.to_bits() == b.to_bits());
        assert!(same, "{} diverged on pass {pass}", layer.name());
        ws.recycle(y);
    }
    ws.pooled_buffers()
}

#[test]
fn dense_and_activations_match() {
    let mut rng = ChaCha8Rng::seed_from_u64(0);
    let x = Tensor::randn(&[5, 7], 0.0, 1.0, &mut rng);
    let mut dense = Dense::new(7, 3, &mut rng);
    assert_ws_matches(&mut dense, &x);
    for act in Activation::all() {
        let mut layer = act.build();
        assert_ws_matches(layer.as_mut(), &x);
    }
}

#[test]
fn structural_layers_match() {
    let mut rng = ChaCha8Rng::seed_from_u64(1);
    let x = Tensor::randn(&[3, 4], 0.0, 1.0, &mut rng);
    assert_ws_matches(&mut Identity::new(), &x);
    assert_ws_matches(&mut Dropout::new(0.5, 3), &x); // identity in eval
    assert_ws_matches(&mut AlphaDropout::new(0.5, 3), &x);
    assert_ws_matches(&mut Sequential::empty(), &x);

    let mut residual = Residual::new(
        Sequential::new(vec![
            Box::new(Dense::new(4, 4, &mut rng)),
            nn::Activation::Relu.build(),
        ]),
        None,
    );
    assert_ws_matches(&mut residual, &x);

    let mut projected = Residual::new(
        Sequential::new(vec![Box::new(Dense::new(4, 6, &mut rng))]),
        Some(Sequential::new(vec![Box::new(Dense::new(4, 6, &mut rng))])),
    );
    assert_ws_matches(&mut projected, &x);

    let mut preact = PreActBlock::new(
        Sequential::new(vec![
            nn::Activation::Relu.build(),
            Box::new(Dense::new(4, 4, &mut rng)),
        ]),
        None,
    );
    assert_ws_matches(&mut preact, &x);
}

#[test]
fn conv_and_pooling_layers_match() {
    let mut rng = ChaCha8Rng::seed_from_u64(2);
    let x = Tensor::randn(&[2, 3, 8, 8], 0.0, 1.0, &mut rng);
    assert_ws_matches(&mut Conv2d::new(3, 5, 3, 1, 1, &mut rng), &x);
    assert_ws_matches(&mut Conv2d::new(3, 4, 3, 2, 0, &mut rng), &x);
    assert_ws_matches(&mut MaxPool2d::new(2, 2), &x);
    assert_ws_matches(&mut GlobalAvgPool::new(), &x);
    assert_ws_matches(&mut Flatten::new(), &x);
}

#[test]
fn rank_folding_dense_matches() {
    // Dense accepts [N, ..., in] input, folding leading dims; both paths
    // must fold identically.
    let mut rng = ChaCha8Rng::seed_from_u64(3);
    let x = Tensor::randn(&[3, 2, 4], 0.0, 1.0, &mut rng);
    let mut dense = Dense::new(4, 2, &mut rng);
    let reference = dense.forward(&x, Mode::Eval);
    assert_eq!(reference.dims(), &[6, 2]);
    let mut ws = Workspace::new();
    let y = dense.forward_ws(&x, Mode::Eval, &mut ws);
    assert_eq!(y.as_slice(), reference.as_slice());
    assert_eq!(y.dims(), reference.dims());
}

#[test]
fn whole_models_match() {
    let mut rng = ChaCha8Rng::seed_from_u64(4);
    let x = Tensor::randn(&[4, 10], 0.0, 1.0, &mut rng);
    let mut mlp = Mlp::new(
        &MlpConfig::new(10, 3)
            .depth(4)
            .hidden(16)
            .activation(Activation::Gelu),
        &mut rng,
    );
    assert_ws_matches(&mut mlp, &x);

    let img = Tensor::randn(&[2, 1, 14, 14], 0.0, 1.0, &mut rng);
    let mut lenet = LeNet5::new(1, 14, 10, &mut rng);
    assert_ws_matches(&mut lenet, &img);
}

#[test]
fn workspace_pool_stabilizes_across_trials() {
    let mut rng = ChaCha8Rng::seed_from_u64(5);
    let mut mlp = Mlp::new(&MlpConfig::new(6, 2).depth(3).hidden(12), &mut rng);
    let x = Tensor::randn(&[3, 6], 0.0, 1.0, &mut rng);
    let mut ws = Workspace::new();
    let y = mlp.forward_ws(&x, Mode::Eval, &mut ws);
    ws.recycle(y);
    let buffers = ws.pooled_buffers();
    let elements = ws.pooled_elements();
    for _ in 0..10 {
        let y = mlp.forward_ws(&x, Mode::Eval, &mut ws);
        ws.recycle(y);
    }
    assert_eq!(ws.pooled_buffers(), buffers, "pool grew across trials");
    assert_eq!(
        ws.pooled_elements(),
        elements,
        "pool bytes grew across trials"
    );
}

#[test]
fn train_mode_falls_back_and_keeps_backward_working() {
    let mut rng = ChaCha8Rng::seed_from_u64(6);
    let mut net = Sequential::new(vec![
        Box::new(Dense::new(5, 8, &mut rng)),
        nn::Activation::Relu.build(),
        Box::new(Dropout::new(0.4, 11)),
        Box::new(Dense::new(8, 2, &mut rng)),
    ]);
    let x = Tensor::randn(&[4, 5], 0.0, 1.0, &mut rng);
    // Train through forward_ws (refreshing the activation caches), then a
    // fresh-workspace backward must work as usual.
    let mut ws = Workspace::new();
    let y = net.forward_ws(&x, Mode::Train, &mut ws);
    let g = net.backward(&Tensor::ones(y.dims()));
    assert_eq!(g.dims(), x.dims());

    // Train-mode dropout through forward_ws samples a mask exactly like
    // plain forward with the same RNG state.
    let mut a = Dropout::new(0.5, 42);
    let mut b = Dropout::new(0.5, 42);
    let xa = a.forward(&x, Mode::Train);
    let xb = b.forward_ws(&x, Mode::Train, &mut ws);
    assert_eq!(xa.as_slice(), xb.as_slice());
}
