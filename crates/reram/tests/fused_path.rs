//! Integration tests pinning the fused inject-from-snapshot Monte-Carlo
//! hot path: golden values captured from the pre-refactor implementation
//! (separate inject + per-trial restore, allocating matmul), fused ≡
//! unfused equivalence, bit-identity across worker counts for every
//! fault model in the suite, and the zero-draw shortcut against a
//! per-sample reference.

use nn::{Dense, Layer, Mode, Relu, Sequential, Workspace};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use reram::{monte_carlo, DriftModel, FaultInjector, McState};
use tensor::Tensor;

/// Σ of the eval-mode outputs on `x` through the allocating `forward`.
fn plain_sum(x: &Tensor) -> impl Fn(&mut dyn Layer, &mut Workspace) -> f32 + Sync + '_ {
    move |n, _| n.forward(x, Mode::Eval).sum()
}

/// The same metric through `forward_ws` on the worker's workspace.
fn ws_sum(x: &Tensor) -> impl Fn(&mut dyn Layer, &mut Workspace) -> f32 + Sync + '_ {
    move |n, ws| {
        let y = n.forward_ws(x, Mode::Eval, ws);
        let sum = y.sum();
        ws.recycle(y);
        sum
    }
}

/// The driver on a fresh state.
fn mc(
    net: &mut dyn Layer,
    levels: &[(&dyn DriftModel, u64)],
    trials: usize,
    workers: usize,
    metric: impl Fn(&mut dyn Layer, &mut Workspace) -> f32 + Sync,
) -> reram::McStats {
    monte_carlo(
        net,
        levels,
        trials,
        workers,
        &mut McState::default(),
        metric,
    )
}

fn test_net(seed: u64) -> Sequential {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    Sequential::new(vec![
        Box::new(Dense::new(3, 4, &mut rng)),
        Box::new(Relu::new()),
        Box::new(Dense::new(4, 2, &mut rng)),
    ])
}

/// One of each fault-model family, with the exact parameters the golden
/// values below were captured under.
fn model_suite() -> Vec<(&'static str, Box<dyn DriftModel>)> {
    vec![
        ("lognormal", Box::new(reram::LogNormalDrift::new(0.5))),
        ("gauss", Box::new(reram::GaussianAdditive::new(0.3))),
        ("uniform", Box::new(reram::UniformDrift::new(0.4))),
        ("uniform_add", Box::new(reram::UniformAdditive::new(0.2))),
        ("devvar", Box::new(reram::DeviceVariation::new(0.15))),
        (
            "stuckat",
            Box::new(reram::StuckAtFault::new(0.2, 0.05, 1.0)),
        ),
        ("bitflip", Box::new(reram::BitFlipFault::new(0.01, 8, 1.0))),
        ("quantize", Box::new(reram::LevelQuantization::new(16, 1.5))),
        (
            "composite",
            "quantize:16+lognormal:0.4"
                .parse::<reram::FaultSpec>()
                .unwrap()
                .build()
                .unwrap(),
        ),
    ]
}

/// Per-trial metric bits of `Σ f(1)` for `test_net(42)` under each model,
/// 6 trials with level seed 99, captured from the implementation **before**
/// the fused hot path landed
/// (commit with separate `inject` + per-trial `restore`). The refactor
/// contract is bit-identity: same trial seeds, same arithmetic order.
const GOLDEN: &[(&str, [u32; 6])] = &[
    (
        "lognormal",
        [
            0x41044d4b, 0x4134bdc2, 0x403668f6, 0x3f772de4, 0x41778a58, 0x4073e3b2,
        ],
    ),
    (
        "gauss",
        [
            0x40b6d677, 0x40bd109a, 0x402880ad, 0x3f8e96f2, 0x40fc34d4, 0x4086fe56,
        ],
    ),
    (
        "uniform",
        [
            0x4068af33, 0x40835095, 0x4042a753, 0x404ac84c, 0x40171b91, 0x404ddf89,
        ],
    ),
    (
        "uniform_add",
        [
            0x4070e2ad, 0x405f3744, 0x409897cd, 0x406b843e, 0x3fc22a73, 0x408bbed8,
        ],
    ),
    (
        "devvar",
        [
            0x40883b0c, 0x408f0a6e, 0x40428ad4, 0x400a4764, 0x40983f94, 0x404d67e4,
        ],
    ),
    (
        "stuckat",
        [
            0x4092f8db, 0x4092f8db, 0x3fe85530, 0x3ffba2d3, 0x3d78560f, 0x40a57413,
        ],
    ),
    (
        "bitflip",
        [
            0x404dfe37, 0x4077b985, 0x404dfe37, 0x404dfe37, 0x40a6de9a, 0x404dfe37,
        ],
    ),
    (
        "quantize",
        [
            0x4066666a, 0x4066666a, 0x4066666a, 0x4066666a, 0x4066666a, 0x4066666a,
        ],
    ),
    (
        "composite",
        [
            0x40a590de, 0x40dc492f, 0x3ffb65bb, 0x3f2471b8, 0x410c42c6, 0x4013db61,
        ],
    ),
];

#[test]
fn fused_path_reproduces_pre_refactor_golden_values() {
    let x = Tensor::ones(&[2, 3]);
    let models = model_suite();
    for (name, expected_bits) in GOLDEN {
        let model = &models
            .iter()
            .find(|(n, _)| n == name)
            .expect("golden model present in suite")
            .1;
        let mut net = test_net(42);
        let stats = mc(&mut net, &[(model.as_ref(), 99)], 6, 1, plain_sum(&x));
        let got: Vec<u32> = stats.values.iter().map(|v| v.to_bits()).collect();
        assert_eq!(got, expected_bits.to_vec(), "{name} diverged from golden");
    }
}

/// One driver call with every golden model as a level (each with level
/// seed 99), evaluated through `forward_ws` on the worker's workspace,
/// reproduces the golden bits in level-major order for every worker count.
#[test]
fn workspace_metric_reproduces_golden_values() {
    let x = Tensor::ones(&[2, 3]);
    let models = model_suite();
    let mut levels: Vec<(&dyn DriftModel, u64)> = Vec::new();
    for (name, _) in GOLDEN {
        let (_, model) = models
            .iter()
            .find(|(n, _)| n == name)
            .expect("golden model present in suite");
        levels.push((model.as_ref(), 99));
    }
    let golden: Vec<u32> = GOLDEN.iter().flat_map(|(_, bits)| *bits).collect();
    for workers in [1usize, 2, 5] {
        let stats = mc(&mut test_net(42), &levels, 6, workers, ws_sum(&x));
        let got: Vec<u32> = stats.values.iter().map(|v| v.to_bits()).collect();
        assert_eq!(got, golden, "{workers} workers diverged from golden");
    }
}

/// `inject_from` must equal `restore_into` followed by `inject` — same RNG
/// stream, same writes — starting from an arbitrarily drifted network.
#[test]
fn inject_from_equals_restore_then_inject_for_every_model() {
    for (name, model) in &model_suite() {
        let mut fused = test_net(5);
        let mut unfused = test_net(5);
        let snap_f = FaultInjector::snapshot(&mut fused);
        let snap_u = FaultInjector::snapshot(&mut unfused);
        // Dirty both networks with an unrelated drift first.
        let mut dirty_rng = ChaCha8Rng::seed_from_u64(77);
        FaultInjector::inject(
            &mut fused,
            &reram::GaussianAdditive::new(0.5),
            &mut dirty_rng,
        );
        let mut dirty_rng = ChaCha8Rng::seed_from_u64(77);
        FaultInjector::inject(
            &mut unfused,
            &reram::GaussianAdditive::new(0.5),
            &mut dirty_rng,
        );

        let mut rng = ChaCha8Rng::seed_from_u64(123);
        FaultInjector::inject_from(&snap_f, &mut fused, model.as_ref(), &mut rng).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(123);
        snap_u.restore_into(&mut unfused).unwrap();
        FaultInjector::inject(&mut unfused, model.as_ref(), &mut rng);

        let a = FaultInjector::snapshot(&mut fused);
        let b = FaultInjector::snapshot(&mut unfused);
        for (ta, tb) in a.tensors().iter().zip(b.tensors()) {
            assert_eq!(ta.as_slice(), tb.as_slice(), "{name} fused != unfused");
        }
    }
}

/// The driver stays bit-identical to its serial run on the fused path for
/// every fault-model variant and worker counts {1, 2, 5}.
#[test]
fn parallel_matches_serial_for_every_model_and_worker_count() {
    let x = Tensor::ones(&[2, 3]);
    for (name, model) in &model_suite() {
        let levels = [(model.as_ref(), 13)];
        let serial = mc(&mut test_net(21), &levels, 7, 1, plain_sum(&x));
        for workers in [1usize, 2, 5] {
            let parallel = mc(&mut test_net(21), &levels, 7, workers, plain_sum(&x));
            assert_eq!(
                serial.values, parallel.values,
                "{name} with {workers} workers diverged from serial"
            );
            assert_eq!(
                serial.mean.to_bits(),
                parallel.mean.to_bits(),
                "{name} mean"
            );
            assert_eq!(serial.std.to_bits(), parallel.std.to_bits(), "{name} std");
        }
    }
}

/// The fused drivers must still hand the network back pristine.
#[test]
fn fused_drivers_restore_the_network() {
    let x = Tensor::ones(&[1, 3]);
    let drift = reram::LogNormalDrift::new(0.9);
    for workers in [1usize, 3] {
        let mut net = test_net(30);
        let clean = net.forward(&x, Mode::Eval);
        let _ = mc(&mut net, &[(&drift, 2)], 5, workers, plain_sum(&x));
        assert_eq!(
            clean.as_slice(),
            net.forward(&x, Mode::Eval).as_slice(),
            "{workers} workers left the network drifted"
        );
    }
}

/// A structural mismatch surfaces as a recoverable error from the fused
/// injector and leaves the target untouched.
#[test]
fn inject_from_rejects_mismatched_snapshot() {
    let mut net = test_net(1);
    let mut other = {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        Sequential::new(vec![
            Box::new(Dense::new(3, 5, &mut rng)),
            Box::new(Relu::new()),
            Box::new(Dense::new(5, 2, &mut rng)),
        ])
    };
    let snap = FaultInjector::snapshot(&mut other);
    let before = FaultInjector::snapshot(&mut net);
    let mut rng = ChaCha8Rng::seed_from_u64(3);
    let err =
        FaultInjector::inject_from(&snap, &mut net, &reram::LogNormalDrift::new(0.5), &mut rng);
    assert!(matches!(
        err,
        Err(reram::FaultError::SnapshotMismatch { .. })
    ));
    let after = FaultInjector::snapshot(&mut net);
    for (a, b) in before.tensors().iter().zip(after.tensors()) {
        assert_eq!(a.as_slice(), b.as_slice(), "failed inject_from wrote data");
    }
}

/// The zero-draw shortcut's level mix: three levels whose injection draws
/// no RNG words (log-normal σ = 0, `quantize:16`, and the two chained)
/// around two that draw. `GaussianAdditive` at σ = 0 draws normals and adds
/// `0·n`, which turns a −0.0 weight into +0.0 when `n > 0`, so its samples
/// differ and it must not take the shortcut.
fn shortcut_mix() -> Vec<Box<dyn DriftModel>> {
    let spec = |s: &str| s.parse::<reram::FaultSpec>().unwrap().build().unwrap();
    vec![
        Box::new(reram::LogNormalDrift::new(0.0)),
        spec("quantize:16"),
        spec("quantize:16+lognormal:0"),
        Box::new(reram::LogNormalDrift::new(0.5)),
        Box::new(reram::GaussianAdditive::new(0.0)),
    ]
}

/// `test_net(seed)` with every third weight set to −0.0, so a σ = 0
/// additive draw can flip its sign bit.
fn signed_zero_net(seed: u64) -> Sequential {
    let mut net = test_net(seed);
    net.visit_params(&mut |p| {
        for v in p.value.as_mut_slice().iter_mut().step_by(3) {
            *v = -0.0;
        }
    });
    net
}

/// A metric that sees every weight bit, signed zeros included: a 24-bit
/// hash of the parameters (exact in f32) plus Σ f(1).
fn bits_metric(x: &Tensor) -> impl Fn(&mut dyn Layer, &mut Workspace) -> f32 + Sync + '_ {
    move |n, ws| {
        let mut h = 0u32;
        n.visit_params(&mut |p| {
            for v in p.value.as_slice() {
                h = h.wrapping_mul(0x0100_0193) ^ v.to_bits();
            }
        });
        let y = n.forward_ws(x, Mode::Eval, ws);
        let sum = y.sum();
        ws.recycle(y);
        (h >> 8) as f32 + sum
    }
}

/// The driver's contract without the shortcut: every sample injects from
/// the pristine snapshot and runs the metric.
fn per_sample_reference(
    net: &mut dyn Layer,
    levels: &[(&dyn DriftModel, u64)],
    trials: usize,
    metric: impl Fn(&mut dyn Layer, &mut Workspace) -> f32,
) -> Vec<f32> {
    let snapshot = FaultInjector::snapshot(net);
    let mut ws = Workspace::new();
    let mut values = Vec::new();
    for &(model, seed) in levels {
        for t in 0..trials {
            let mut rng = ChaCha8Rng::seed_from_u64(reram::mix_seed(seed, t as u64));
            FaultInjector::inject_from(&snapshot, net, model, &mut rng).unwrap();
            values.push(metric(net, &mut ws));
        }
    }
    snapshot.restore_into(net).unwrap();
    values
}

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Levels that draw no randomness are scored once per worker block and
/// copied; the result equals the per-sample reference bit for bit for
/// every worker count, and reusing one state across calls changes nothing.
#[test]
fn zero_draw_shortcut_matches_per_sample_reference() {
    let x = Tensor::ones(&[2, 3]);
    let models = shortcut_mix();
    let levels: Vec<(&dyn DriftModel, u64)> = models
        .iter()
        .zip(40..)
        .map(|(m, seed)| (m.as_ref(), seed))
        .collect();
    let want = bits(&per_sample_reference(
        &mut signed_zero_net(3),
        &levels,
        6,
        bits_metric(&x),
    ));
    // The mix exercises both sides of the shortcut.
    let gauss_zero = &want[24..30];
    assert!(
        gauss_zero.iter().any(|&b| b != gauss_zero[0]),
        "σ = 0 additive samples must differ"
    );
    assert!(want[..6].iter().all(|&b| b == want[0]));
    let mut kept = McState::default();
    for workers in [1usize, 2, 3, 5] {
        for state in [&mut McState::default(), &mut kept] {
            let mut net = signed_zero_net(3);
            let got = monte_carlo(&mut net, &levels, 6, workers, state, bits_metric(&x));
            assert_eq!(bits(&got.values), want, "{workers} workers");
        }
    }
}

/// Each zero-draw level runs the metric once in every worker block that
/// holds any of its samples; every other level runs it once per sample.
#[test]
fn zero_draw_levels_run_the_metric_once_per_worker_block() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    let x = Tensor::ones(&[2, 3]);
    let models = shortcut_mix();
    let levels: Vec<(&dyn DriftModel, u64)> = models.iter().map(|m| (m.as_ref(), 7)).collect();
    let draws_nothing = [true, true, true, false, false];
    let trials = 6;
    for workers in [1usize, 2, 3, 5] {
        let block = (levels.len() * trials).div_ceil(workers);
        let want: usize = draws_nothing
            .iter()
            .enumerate()
            .map(|(i, &fixed)| {
                let (first, last) = (i * trials, (i + 1) * trials - 1);
                if fixed {
                    last / block - first / block + 1
                } else {
                    trials
                }
            })
            .sum();
        let calls = AtomicUsize::new(0);
        let metric = ws_sum(&x);
        let _ = mc(
            &mut signed_zero_net(3),
            &levels,
            trials,
            workers,
            |n, ws| {
                // Ordering: `Relaxed` — a plain tally read after the scoped
                // workers have joined.
                calls.fetch_add(1, Ordering::Relaxed);
                metric(n, ws)
            },
        );
        assert_eq!(calls.into_inner(), want, "{workers} workers");
    }
}
