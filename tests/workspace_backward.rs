//! Bit-identity of the workspace train step (`Layer::forward_ws` in
//! `Mode::Train`, `Layer::backward_ws`, pooled loss gradients, in-place
//! optimizers) on a reused, stale-content workspace against
//! fresh-workspace `forward`/`backward` calls, across every layer family
//! and whole-model training loops — plus golden bit-value pins captured
//! from the pre-refactor build, proving the refactor changed buffer
//! provenance and nothing else.

use baselines::{
    train_awp, train_epochs, train_erm, train_ftna, train_step, AwpConfig, Codebook, TrainConfig,
};
use bayesft::{DropoutSearchSpace, Engine, ExperimentResult};
use models::{LeNet5, Mlp, MlpConfig};
use nn::{
    backward_ws_divergence, softmax_cross_entropy, Activation, Adam, AlphaDropout, AvgPool2d,
    BatchNorm, Conv2d, Dense, Dropout, Flatten, GlobalAvgPool, GroupNorm, Identity, InstanceNorm,
    Layer, LayerNorm, MaxPool2d, Mode, Optimizer, PreActBlock, Relu, Residual, Sequential, Sgd,
    Workspace,
};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use tensor::Tensor;

/// FNV-1a over the bit patterns of every parameter value, in visit order.
fn param_digest(net: &mut dyn Layer) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    net.visit_params(&mut |p| {
        for &v in p.value.as_slice() {
            h ^= v.to_bits() as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
    });
    h
}

fn assert_bwd_matches(layer: &dyn Layer, x: &Tensor, what: &str) {
    assert_eq!(
        backward_ws_divergence(layer, x, Mode::Train),
        0,
        "{what}: workspace train step diverged from the allocating path"
    );
}

#[test]
fn dense_and_activations_match() {
    let mut rng = ChaCha8Rng::seed_from_u64(0);
    let x = Tensor::randn(&[5, 7], 0.0, 1.0, &mut rng);
    assert_bwd_matches(&Dense::new(7, 3, &mut rng), &x, "dense");
    for act in Activation::all() {
        assert_bwd_matches(act.build().as_ref(), &x, "activation");
    }
    // Rank folding: dense accepts [N, ..., in] and folds leading dims.
    let folded = Tensor::randn(&[3, 2, 4], 0.0, 1.0, &mut rng);
    assert_bwd_matches(&Dense::new(4, 2, &mut rng), &folded, "dense rank-fold");
}

#[test]
fn structural_layers_match() {
    let mut rng = ChaCha8Rng::seed_from_u64(1);
    let x = Tensor::randn(&[3, 4], 0.0, 1.0, &mut rng);
    assert_bwd_matches(&Identity::new(), &x, "identity");
    // Stochastic layers: clone_box copies the RNG state, so both replicas
    // draw identical masks.
    assert_bwd_matches(&Dropout::new(0.5, 3), &x, "dropout");
    assert_bwd_matches(&Dropout::new(0.0, 3), &x, "dropout rate 0");
    assert_bwd_matches(&AlphaDropout::new(0.5, 3), &x, "alpha_dropout");
    assert_bwd_matches(&Sequential::empty(), &x, "empty sequential");

    let residual = Residual::new(
        Sequential::new(vec![
            Box::new(Dense::new(4, 4, &mut rng)),
            Box::new(Relu::new()),
        ]),
        None,
    );
    assert_bwd_matches(&residual, &x, "residual identity-shortcut");

    let projected = Residual::new(
        Sequential::new(vec![Box::new(Dense::new(4, 6, &mut rng))]),
        Some(Sequential::new(vec![Box::new(Dense::new(4, 6, &mut rng))])),
    );
    assert_bwd_matches(&projected, &x, "residual projection-shortcut");

    let preact = PreActBlock::new(
        Sequential::new(vec![
            Box::new(Relu::new()),
            Box::new(Dense::new(4, 4, &mut rng)),
        ]),
        None,
    );
    assert_bwd_matches(&preact, &x, "preact block");
}

#[test]
fn conv_and_pooling_layers_match() {
    let mut rng = ChaCha8Rng::seed_from_u64(2);
    let x = Tensor::randn(&[2, 3, 8, 8], 0.0, 1.0, &mut rng);
    assert_bwd_matches(&Conv2d::new(3, 5, 3, 1, 1, &mut rng), &x, "conv 3x3 pad");
    assert_bwd_matches(&Conv2d::new(3, 4, 3, 2, 0, &mut rng), &x, "conv strided");
    assert_bwd_matches(&MaxPool2d::new(2, 2), &x, "max_pool2d");
    assert_bwd_matches(&AvgPool2d::new(2, 2), &x, "avg_pool2d");
    assert_bwd_matches(&GlobalAvgPool::new(), &x, "global_avg_pool");
    assert_bwd_matches(&Flatten::new(), &x, "flatten");
}

#[test]
fn norm_layers_match() {
    let mut rng = ChaCha8Rng::seed_from_u64(3);
    let x2 = Tensor::randn(&[4, 6], 1.0, 2.0, &mut rng);
    assert_bwd_matches(&BatchNorm::new(6), &x2, "batch_norm rank-2");
    assert_bwd_matches(&LayerNorm::new(6), &x2, "layer_norm rank-2");
    assert_bwd_matches(&InstanceNorm::new(6), &x2, "instance_norm rank-2");
    assert_bwd_matches(&GroupNorm::new(6, 3), &x2, "group_norm rank-2");
    let x4 = Tensor::randn(&[2, 4, 3, 3], -1.0, 1.5, &mut rng);
    assert_bwd_matches(&BatchNorm::new(4), &x4, "batch_norm rank-4");
    assert_bwd_matches(&LayerNorm::new(4), &x4, "layer_norm rank-4");
    assert_bwd_matches(&InstanceNorm::new(4), &x4, "instance_norm rank-4");
    assert_bwd_matches(&GroupNorm::new(4, 2), &x4, "group_norm rank-4");
}

#[test]
fn whole_models_match() {
    let mut rng = ChaCha8Rng::seed_from_u64(4);
    let mlp = Mlp::new(
        &MlpConfig::new(10, 3)
            .depth(4)
            .hidden(16)
            .activation(Activation::Gelu),
        &mut rng,
    );
    let x = Tensor::randn(&[4, 10], 0.0, 1.0, &mut rng);
    assert_bwd_matches(&mlp, &x, "mlp");

    let lenet = LeNet5::new(1, 14, 10, &mut rng);
    let img = Tensor::randn(&[2, 1, 14, 14], 0.0, 1.0, &mut rng);
    assert_bwd_matches(&lenet, &img, "lenet5");
}

/// Every parameter gradient's bit pattern, in visit order.
fn grad_bits(net: &mut dyn Layer) -> Vec<u32> {
    let mut bits = Vec::new();
    net.visit_params(&mut |p| bits.extend(p.grad.as_slice().iter().map(|v| v.to_bits())));
    bits
}

/// `backward_params_ws` on a copy of `net` leaves the parameter gradients
/// `backward_ws` leaves, bit for bit, over two accumulating steps on one
/// reused workspace.
fn assert_params_only_matches(net: &dyn Layer, x: &Tensor, what: &str) {
    let (mut full, mut params_only) = (net.clone_box(), net.clone_box());
    let mut ws = Workspace::new();
    for step in 0..2 {
        let y = full.forward_ws(x, Mode::Train, &mut ws);
        let g = y.map(|v| (v * 1.7).sin());
        let grad_in = full.backward_ws(&g, &mut ws);
        ws.recycle(grad_in);
        let y2 = params_only.forward_ws(x, Mode::Train, &mut ws);
        params_only.backward_params_ws(&g, &mut ws);
        assert_eq!(y.as_slice(), y2.as_slice(), "{what} step {step}: forward");
        assert_eq!(
            grad_bits(full.as_mut()),
            grad_bits(params_only.as_mut()),
            "{what} step {step}: parameter gradients"
        );
        ws.recycle(y);
        ws.recycle(y2);
    }
}

/// The input-gradient-free backward that training steps run: chains
/// whose first child overrides it (dense, conv) or keeps the provided
/// default (flatten, batch norm), a one-child and an empty chain, and
/// both search models with live dropout.
#[test]
fn params_only_backward_matches_full_backward() {
    let mut rng = ChaCha8Rng::seed_from_u64(6);
    let x = Tensor::randn(&[5, 8], 0.0, 1.0, &mut rng);
    let dense_first = Sequential::new(vec![
        Box::new(Dense::new(8, 6, &mut rng)),
        Box::new(Relu::new()),
        Box::new(Dropout::new(0.4, 3)),
        Box::new(Dense::new(6, 3, &mut rng)),
    ]);
    assert_params_only_matches(&dense_first, &x, "dense-first sequential");
    let default_first = Sequential::new(vec![
        Box::new(BatchNorm::new(8)),
        Box::new(Dense::new(8, 3, &mut rng)),
    ]);
    assert_params_only_matches(&default_first, &x, "batch-norm-first sequential");
    assert_params_only_matches(&BatchNorm::new(8), &x, "batch norm alone");
    let one = Sequential::new(vec![Box::new(Dense::new(8, 2, &mut rng))]);
    assert_params_only_matches(&one, &x, "one-child sequential");
    assert_params_only_matches(&Sequential::empty(), &x, "empty sequential");

    let img = Tensor::randn(&[3, 2, 6, 6], 0.0, 1.0, &mut rng);
    let flatten_first = Sequential::new(vec![
        Box::new(Flatten::new()),
        Box::new(Dense::new(72, 4, &mut rng)),
    ]);
    assert_params_only_matches(&flatten_first, &img, "flatten-first sequential");
    let conv_first = Sequential::new(vec![
        Box::new(Conv2d::new(2, 4, 3, 1, 1, &mut rng)),
        Box::new(Relu::new()),
        Box::new(Conv2d::new(4, 3, 3, 1, 0, &mut rng)),
    ]);
    assert_params_only_matches(&conv_first, &img, "conv-first sequential");

    let mut lenet = LeNet5::new(1, 14, 10, &mut rng);
    models::set_dropout_rates(&mut lenet, &[0.3, 0.5, 0.2]);
    let digits = Tensor::randn(&[33, 1, 14, 14], 0.0, 1.0, &mut rng);
    assert_params_only_matches(&lenet, &digits, "lenet5");
    let mlp = Mlp::new(
        &MlpConfig::new(10, 3).depth(4).hidden(16).initial_rate(0.3),
        &mut rng,
    );
    let rows = Tensor::randn(&[7, 10], 0.0, 1.0, &mut rng);
    assert_params_only_matches(&mlp, &rows, "mlp");
}

/// Fresh-workspace training loop — `forward`, allocating loss,
/// `backward`, optimizer step — the reference the reused-workspace step
/// must reproduce bit for bit.
fn legacy_steps(net: &mut dyn Layer, x: &Tensor, labels: &[usize], opt: &mut dyn Optimizer) {
    for _ in 0..10 {
        let logits = net.forward(x, Mode::Train);
        let out = softmax_cross_entropy(&logits, labels);
        let _ = net.backward(&out.grad);
        opt.step(net);
    }
}

fn ws_steps(net: &mut dyn Layer, x: &Tensor, labels: &[usize], opt: &mut dyn Optimizer) {
    let mut ws = Workspace::new();
    for _ in 0..10 {
        let _ = train_step(net, x, labels, opt, &mut ws);
    }
}

/// Ten-step optimizer loops on a fixed batch: the workspace step must match
/// the legacy loop bitwise, and both must match the digests captured from
/// the pre-refactor build for every optimizer family.
#[test]
fn optimizer_loops_are_bit_identical_and_match_pre_refactor_goldens() {
    let x = Tensor::from_vec(
        (0..32).map(|i| ((i as f32) * 0.37).sin()).collect(),
        &[8, 4],
    )
    .unwrap();
    let labels: Vec<usize> = (0..8).map(|i| i % 3).collect();
    let mk = || {
        let mut r = ChaCha8Rng::seed_from_u64(11);
        Mlp::new(&MlpConfig::new(4, 3).hidden(6), &mut r)
    };
    type OptCase = (&'static str, fn() -> Box<dyn Optimizer>, u64);
    let cases: [OptCase; 4] = [
        ("sgd", || Box::new(Sgd::new(0.1)), 0xc84f055e68d4cb63),
        (
            "sgd+momentum",
            || Box::new(Sgd::new(0.05).momentum(0.9)),
            0x5de46f1e39e9c9f5,
        ),
        (
            "sgd+wd+clip",
            || {
                Box::new(
                    Sgd::new(0.05)
                        .momentum(0.9)
                        .weight_decay(0.01)
                        .clip_norm(1.0),
                )
            },
            0x041f5e570e6d61da,
        ),
        ("adam", || Box::new(Adam::new(0.05)), 0x2e4fb25b39dd7cb7),
    ];
    for (name, mk_opt, golden) in cases {
        let mut legacy = mk();
        legacy_steps(&mut legacy, &x, &labels, mk_opt().as_mut());
        let mut workspace = mk();
        ws_steps(&mut workspace, &x, &labels, mk_opt().as_mut());
        let legacy_digest = param_digest(&mut legacy);
        assert_eq!(
            legacy_digest,
            param_digest(&mut workspace),
            "{name}: workspace loop diverged from legacy loop"
        );
        assert_eq!(
            legacy_digest, golden,
            "{name}: weights diverged from the pre-refactor build"
        );
    }
}

/// A LeNet conv/pool/flatten chain through three momentum-SGD steps pins
/// the convolution/pooling backward_ws kernels end to end.
#[test]
fn lenet_training_matches_pre_refactor_golden() {
    let run = |workspace: bool| -> u64 {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mut lenet = LeNet5::new(1, 14, 4, &mut rng);
        let img = Tensor::randn(&[4, 1, 14, 14], 0.0, 1.0, &mut rng);
        let labels = vec![0usize, 1, 2, 3];
        let mut opt = Sgd::new(0.05).momentum(0.9);
        let mut ws = Workspace::new();
        for _ in 0..3 {
            if workspace {
                let _ = train_step(&mut lenet, &img, &labels, &mut opt, &mut ws);
            } else {
                let logits = lenet.forward(&img, Mode::Train);
                let out = softmax_cross_entropy(&logits, &labels);
                let _ = lenet.backward(&out.grad);
                opt.step(&mut lenet);
            }
        }
        param_digest(&mut lenet)
    };
    let legacy = run(false);
    assert_eq!(legacy, run(true), "workspace LeNet training diverged");
    assert_eq!(
        legacy, 0xf56555a00a947833,
        "diverged from pre-refactor build"
    );
}

/// `train_epochs` (now the workspace path, with shuffling and partial
/// batches) reproduces the pre-refactor losses and weights bit for bit.
#[test]
fn train_epochs_matches_pre_refactor_golden() {
    let mut rng = ChaCha8Rng::seed_from_u64(0);
    let data = datasets::moons(120, 0.1, &mut rng);
    let mut net = Mlp::new(&MlpConfig::new(2, 2).hidden(8), &mut rng);
    let cfg = TrainConfig {
        epochs: 3,
        batch_size: 16,
        lr: 0.1,
        momentum: 0.9,
        seed: 5,
    };
    let losses = train_epochs(&mut net, &data, &cfg, &mut Workspace::new());
    let bits: Vec<u32> = losses.iter().map(|v| v.to_bits()).collect();
    assert_eq!(
        bits,
        vec![1059172250, 1053440642, 1047888117],
        "epoch losses diverged from the pre-refactor build"
    );
    assert_eq!(param_digest(&mut net), 0x99ee317a69770da8);
    let mut first = Vec::new();
    net.visit_params(&mut |p| {
        if first.len() < 4 {
            first.extend(
                p.value
                    .as_slice()
                    .iter()
                    .take(4 - first.len())
                    .map(|v| v.to_bits()),
            );
        }
    });
    assert_eq!(first, vec![1051496224, 1033245264, 1025499248, 3190763888]);
}

/// ERM / AWP / FTNA trainers reproduce their pre-refactor weight digests
/// on the workspace path.
#[test]
fn baseline_trainers_match_pre_refactor_goldens() {
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let data = datasets::moons(100, 0.1, &mut rng);
    let cfg = TrainConfig::fast_test();
    let net = Box::new(Mlp::new(&MlpConfig::new(2, 2).hidden(8), &mut rng));
    let mut awp = train_awp(net, &data, &cfg, &AwpConfig { gamma: 0.02 });
    assert_eq!(param_digest(awp.net.as_mut()), 0x016b2d22c3b27820, "awp");

    let cb = Codebook::hadamard(2);
    let mut rng2 = ChaCha8Rng::seed_from_u64(7);
    let _ = datasets::moons(100, 0.1, &mut rng2);
    let net = Box::new(Mlp::new(&MlpConfig::new(2, cb.bits()).hidden(8), &mut rng2));
    let mut ftna = train_ftna(net, &data, &cfg, cb);
    assert_eq!(param_digest(ftna.net.as_mut()), 0xdbf9d700b9272b3d, "ftna");

    let mut rng3 = ChaCha8Rng::seed_from_u64(13);
    let net = Box::new(Mlp::new(&MlpConfig::new(2, 2).hidden(8), &mut rng3));
    let mut erm = train_erm(net, &data, &cfg);
    assert_eq!(param_digest(erm.net.as_mut()), 0xfd168402fa233fca, "erm");
}

/// One fast engine run on the golden task: seed-0 moons and a 12-wide MLP
/// of `depth` layers, searched over the space `space` builds from the
/// network (the default per-layer space when `None`).
fn golden_engine_run(
    depth: usize,
    space: Option<fn(&mut dyn Layer) -> DropoutSearchSpace>,
    workers: usize,
) -> ExperimentResult {
    let mut rng = ChaCha8Rng::seed_from_u64(0);
    let data = datasets::moons(160, 0.1, &mut rng);
    let (train, val) = data.split(0.8, &mut rng);
    let mut net = Box::new(Mlp::new(
        &MlpConfig::new(2, 2).hidden(12).depth(depth),
        &mut rng,
    ));
    let mut builder = Engine::builder()
        .trials(3)
        .epochs_per_trial(1)
        .final_epochs(1)
        .mc_samples(2)
        .sigma(0.5)
        .train(TrainConfig::fast_test())
        .seed(19)
        .parallelism(workers);
    if let Some(space) = space {
        builder = builder.space(space(net.as_mut()));
    }
    builder.run(net, &train, &val).expect("engine run")
}

/// Asserts a run's best objective, best α, trial objectives and final
/// weights against golden bit patterns.
fn assert_engine_golden(
    result: ExperimentResult,
    best_objective: u64,
    best_alpha: &[u64],
    trials: &[u64],
    digest: u64,
) {
    let report = &result.report;
    let what = format!("{} space, {} workers", report.space, report.parallelism);
    assert_eq!(report.best_objective.to_bits(), best_objective, "{what}");
    let alpha_bits: Vec<u64> = report.best_alpha.iter().map(|v| v.to_bits()).collect();
    assert_eq!(alpha_bits, best_alpha, "{what}");
    let trial_bits: Vec<u64> = report
        .trials
        .iter()
        .map(|t| t.objective.to_bits())
        .collect();
    assert_eq!(trial_bits, trials, "{what}");
    let mut model = result.model;
    assert_eq!(param_digest(model.net.as_mut()), digest, "{what}");
}

/// The full engine loop (train → Monte-Carlo eval → GP → fine-tune) on the
/// workspace training path reproduces the pre-refactor RunReport and final
/// weights bit for bit, serial and parallel alike.
#[test]
fn engine_run_matches_pre_refactor_golden_serial_and_parallel() {
    let serial = golden_engine_run(3, None, 1);
    let parallel = golden_engine_run(3, None, 4);
    assert!(serial.report.deterministic_eq(&parallel.report));
    for result in [serial, parallel] {
        assert_engine_golden(
            result,
            0x3febd55560000000,
            &[4600864569083755700, 4586414101153231552],
            &[
                4605868869087657984,
                4605915781404819456,
                4606009606576013312,
            ],
            0xac1559445fe9430b,
        );
    }
}

/// The shared-rate and chunked-group spaces drive the same engine loop to
/// the values the per-space implementations produced. The grouped run uses
/// a 3-dropout MLP so that one group ties two layers: on the 2-dropout net
/// `chunked(_, 2)` is the per-layer space pinned above.
#[test]
fn engine_run_pins_shared_and_grouped_spaces_serial_and_parallel() {
    fn shared(net: &mut dyn Layer) -> DropoutSearchSpace {
        DropoutSearchSpace::shared(net).expect("net has dropout layers")
    }
    fn chunked(net: &mut dyn Layer) -> DropoutSearchSpace {
        DropoutSearchSpace::chunked(net, 2).expect("3 dropout layers split in 2")
    }
    for workers in [1, 4] {
        let result = golden_engine_run(3, Some(shared), workers);
        assert_eq!(result.report.space, "shared_rate");
        assert_engine_golden(
            result,
            0x3febd55560000000,
            &[4604145124616525652],
            &[
                4606009606576013312,
                4605868869087657984,
                4605915781404819456,
            ],
            0x73c70d1a8ae7c7d0,
        );
        let result = golden_engine_run(4, Some(chunked), workers);
        assert_eq!(result.report.space, "layer_group");
        assert_engine_golden(
            result,
            0x3fed2aaaa0000000,
            &[4601761131702750581, 4592720951717064532],
            &[
                4603288681443229696,
                4606384906187046912,
                4606056518893174784,
            ],
            0x3413cf40215b10d0,
        );
    }
}

/// Eval-mode forwards invalidate the gradient tape (capacity retained):
/// a stray `backward` must fail loudly instead of silently
/// backpropagating through the stale activations of an earlier training
/// step.
#[test]
#[should_panic(expected = "eval-mode forward")]
fn dense_backward_after_eval_forward_panics() {
    let mut rng = ChaCha8Rng::seed_from_u64(0);
    let mut fc = Dense::new(3, 2, &mut rng);
    let x = Tensor::ones(&[2, 3]);
    let _ = fc.forward(&x, Mode::Train);
    let _ = fc.forward(&x, Mode::Eval); // invalidates the tape
    let _ = fc.backward(&Tensor::ones(&[2, 2]));
}

#[test]
#[should_panic(expected = "eval invalidates the tape")]
fn conv_backward_after_eval_forward_panics() {
    let mut rng = ChaCha8Rng::seed_from_u64(0);
    let mut conv = Conv2d::new(1, 2, 3, 1, 1, &mut rng);
    let x = Tensor::ones(&[1, 1, 5, 5]);
    let _ = conv.forward(&x, Mode::Train);
    let _ = conv.forward(&x, Mode::Eval); // invalidates the tape
    let _ = conv.backward(&Tensor::ones(&[1, 2, 5, 5]));
}

#[test]
#[should_panic(expected = "eval invalidates the tape")]
fn max_pool_backward_after_eval_forward_panics() {
    let mut pool = MaxPool2d::new(2, 2);
    let x = Tensor::ones(&[1, 1, 4, 4]);
    let _ = pool.forward(&x, Mode::Train);
    let _ = pool.forward(&x, Mode::Eval); // invalidates the tape
    let _ = pool.backward(&Tensor::ones(&[1, 1, 2, 2]));
}
