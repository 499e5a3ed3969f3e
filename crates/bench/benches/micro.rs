//! Criterion micro-benchmarks for the performance-critical kernels under
//! every figure: drift injection, the fused Monte-Carlo trial hot path
//! (latency *and* bytes allocated), Monte-Carlo objective evaluation,
//! GP fit + suggest (latency and bytes per suggest), convolution forward/backward, and matmul kernels.
//!
//! Set `BENCH_QUICK=1` for CI-sized sample counts, and `CRITERION_JSON=
//! path.json` to dump every measurement (including the bytes-allocated
//! gauges) as a JSON artifact.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use baselines::train_step;
use bayesft::{EvalCtx, Objective};
use criterion::{criterion_group, criterion_main, record_metric, BenchmarkId, Criterion};
use models::{LeNet5, Mlp, MlpConfig};
use nn::{Conv2d, Dropout, Layer, Mode, Sgd, Workspace};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use reram::{FaultInjector, LogNormalDrift};
use tensor::{col2im_into, gemm_into, gemm_nt_into, gemm_tn_into, im2col_into, Conv2dSpec, Tensor};

/// Counts allocator traffic so benches can report bytes per trial.
struct CountingAllocator;

static BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn quick() -> bool {
    std::env::var("BENCH_QUICK").is_ok_and(|v| v == "1")
}

fn samples(full: usize) -> usize {
    if quick() {
        (full / 4).max(3)
    } else {
        full
    }
}

fn bench_drift_injection(c: &mut Criterion) {
    let mut group = c.benchmark_group("drift_injection");
    group.sample_size(samples(20));
    for depth in [3usize, 9] {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let mut net = Mlp::new(&MlpConfig::new(196, 10).depth(depth).hidden(64), &mut rng);
        let snapshot = FaultInjector::snapshot(&mut net);
        let drift = LogNormalDrift::new(0.6);
        // Pre-refactor shape of the loop: separate inject + full restore.
        group.bench_with_input(
            BenchmarkId::new("inject_restore_mlp_depth", depth),
            &depth,
            |b, _| {
                b.iter(|| {
                    let mut rng = ChaCha8Rng::seed_from_u64(1);
                    FaultInjector::inject(&mut net, &drift, &mut rng);
                    snapshot.restore_into(&mut net).unwrap();
                })
            },
        );
        // Fused hot path: one pass, straight from the snapshot.
        group.bench_with_input(
            BenchmarkId::new("inject_from_mlp_depth", depth),
            &depth,
            |b, _| {
                b.iter(|| {
                    let mut rng = ChaCha8Rng::seed_from_u64(1);
                    FaultInjector::inject_from(&snapshot, &mut net, &drift, &mut rng).unwrap();
                })
            },
        );
        snapshot.restore_into(&mut net).unwrap();
    }
    group.finish();
}

/// The steady-state Monte-Carlo trial (the paper's Eq. 4 inner loop):
/// latency and allocator traffic of the fused inject + workspace forward.
fn bench_mc_trial(c: &mut Criterion) {
    let mut rng = ChaCha8Rng::seed_from_u64(0);
    let mut net = Mlp::new(&MlpConfig::new(196, 10).depth(3).hidden(64), &mut rng);
    let x = Tensor::randn(&[16, 196], 0.0, 1.0, &mut rng);
    let snapshot = FaultInjector::snapshot(&mut net);
    let drift = LogNormalDrift::new(0.6);

    let mut group = c.benchmark_group("mc_trial");
    group.sample_size(samples(40));
    let mut ws = Workspace::new();
    group.bench_function("fused_inject_forward_ws", |b| {
        b.iter(|| {
            let mut rng = ChaCha8Rng::seed_from_u64(7);
            FaultInjector::inject_from(&snapshot, &mut net, &drift, &mut rng).unwrap();
            let y = net.forward_ws(&x, Mode::Eval, &mut ws);
            let v = y.sum();
            ws.recycle(y);
            v
        })
    });
    group.finish();

    // Allocator traffic per steady-state trial, outside the timing loop:
    // warm the workspace, then measure the steady state.
    let trials = 32u64;
    let mut ws = Workspace::new();
    for t in 0..2 {
        let mut rng = ChaCha8Rng::seed_from_u64(t);
        FaultInjector::inject_from(&snapshot, &mut net, &drift, &mut rng).unwrap();
        let y = net.forward_ws(&x, Mode::Eval, &mut ws);
        ws.recycle(y);
    }
    let before = BYTES.load(Ordering::SeqCst);
    for t in 0..trials {
        let mut rng = ChaCha8Rng::seed_from_u64(t);
        FaultInjector::inject_from(&snapshot, &mut net, &drift, &mut rng).unwrap();
        let y = net.forward_ws(&x, Mode::Eval, &mut ws);
        let _ = y.sum();
        ws.recycle(y);
    }
    let fused_bytes = BYTES.load(Ordering::SeqCst) - before;
    record_metric(
        "mc_trial/fused_bytes_per_trial",
        fused_bytes as f64 / trials as f64,
        "bytes/iter",
    );
    snapshot.restore_into(&mut net).unwrap();
}

/// The steady-state SGD training step (the loop dominating every BayesOpt
/// trial's wall-clock): latency and allocator traffic of the workspace
/// step (`forward_ws`/pooled loss/`backward_ws` + in-place optimizer).
fn bench_train_step(c: &mut Criterion) {
    let mut rng = ChaCha8Rng::seed_from_u64(0);
    let mut net = Mlp::new(&MlpConfig::new(196, 10).depth(3).hidden(64), &mut rng);
    let x = Tensor::randn(&[16, 196], 0.0, 1.0, &mut rng);
    let labels: Vec<usize> = (0..16).map(|i| i % 10).collect();

    let mut group = c.benchmark_group("train_step");
    group.sample_size(samples(40));
    let mut opt = Sgd::new(0.01).momentum(0.9).clip_norm(5.0);
    let mut ws = Workspace::new();
    group.bench_function("workspace_forward_backward", |b| {
        b.iter(|| train_step(&mut net, &x, &labels, &mut opt, &mut ws))
    });
    group.finish();

    // Allocator traffic per steady-state step, outside the timing loop:
    // warm the workspace and caches, then measure the steady state.
    let steps = 32u64;
    let mut ws = Workspace::new();
    for _ in 0..3 {
        let _ = train_step(&mut net, &x, &labels, &mut opt, &mut ws);
    }
    let before = BYTES.load(Ordering::SeqCst);
    for _ in 0..steps {
        let _ = train_step(&mut net, &x, &labels, &mut opt, &mut ws);
    }
    let ws_bytes = BYTES.load(Ordering::SeqCst) - before;
    record_metric(
        "train_step/workspace_bytes_per_step",
        ws_bytes as f64 / steps as f64,
        "bytes/iter",
    );

    // Conv training step: LeNet through the same pair of loops.
    let mut lenet = LeNet5::new(1, 14, 10, &mut rng);
    let img = Tensor::randn(&[8, 1, 14, 14], 0.0, 1.0, &mut rng);
    let img_labels: Vec<usize> = (0..8).map(|i| i % 10).collect();
    let mut group = c.benchmark_group("train_step_lenet");
    group.sample_size(samples(20));
    let mut opt = Sgd::new(0.01).momentum(0.9).clip_norm(5.0);
    let mut ws = Workspace::new();
    group.bench_function("workspace_forward_backward", |b| {
        b.iter(|| train_step(&mut lenet, &img, &img_labels, &mut opt, &mut ws))
    });
    group.finish();
}

fn bench_mc_objective(c: &mut Criterion) {
    let mut group = c.benchmark_group("mc_objective");
    group.sample_size(samples(10));
    let mut rng = ChaCha8Rng::seed_from_u64(0);
    let data = datasets::digits(8, &mut rng);
    let mut net = Mlp::new(&MlpConfig::new(196, 10).hidden(48), &mut rng);
    for t in [1usize, 4] {
        let obj = bayesft::DriftObjective::new(0.6, t);
        group.bench_with_input(BenchmarkId::new("samples", t), &t, |b, _| {
            b.iter(|| obj.evaluate(&mut net, &data, 3))
        });
    }
    // The engine's hot path: the same marginalization fanned out over
    // worker threads (results are bit-identical to serial).
    let obj = bayesft::DriftObjective::new(0.6, 16);
    for workers in [1usize, 2, 4, 8] {
        let ctx = EvalCtx::new(0, 3).parallelism(workers);
        group.bench_with_input(
            BenchmarkId::new("samples16_workers", workers),
            &workers,
            |b, _| b.iter(|| Objective::evaluate(&obj, &mut net, &data, &ctx)),
        );
    }
    group.finish();
}

fn bench_gp(c: &mut Criterion) {
    let mut group = c.benchmark_group("gaussian_process");
    group.sample_size(samples(30));
    for n in [8usize, 32] {
        let x: Vec<Vec<f64>> = (0..n)
            .map(|i| vec![(i as f64 * 0.37).sin().abs(), (i as f64 * 0.73).cos().abs()])
            .collect();
        let y: Vec<f64> = (0..n).map(|i| (i as f64 * 0.21).sin()).collect();
        // A warm refit: the GP refills the buffers it kept from the last one.
        let mut gp =
            bayesopt::GaussianProcess::new(bayesopt::SquaredExponential::isotropic(1.0, 0.3), 1e-6);
        group.bench_with_input(BenchmarkId::new("fit", n), &n, |b, _| {
            b.iter(|| {
                gp.fit(x.iter().zip(y.iter().copied())).unwrap();
                gp.posterior(&[0.5, 0.5]).unwrap()
            })
        });
    }
    // Full suggest cycle.
    let mut bo = bayesopt::BayesOpt::new(4, bayesopt::SquaredExponential::isotropic(1.0, 0.3));
    let mut rng = ChaCha8Rng::seed_from_u64(2);
    for i in 0..16 {
        let x: Vec<f64> = (0..4).map(|d| ((i * 7 + d) as f64 * 0.13) % 1.0).collect();
        bo.tell(x, (i as f64 * 0.3).sin());
    }
    group.bench_function("suggest_16obs_4d", |b| {
        b.iter(|| bo.suggest(&mut rng).unwrap())
    });
    group.finish();

    // Allocator traffic per warm suggest, outside the timing loop: the GP
    // and the candidate batch reuse their buffers, so only the returned
    // point is new.
    let calls = 32u64;
    let before = BYTES.load(Ordering::SeqCst);
    for _ in 0..calls {
        let _ = bo.suggest(&mut rng).unwrap();
    }
    record_metric(
        "gaussian_process/suggest_16obs_4d_bytes",
        (BYTES.load(Ordering::SeqCst) - before) as f64 / calls as f64,
        "bytes/iter",
    );
}

fn bench_conv(c: &mut Criterion) {
    let mut group = c.benchmark_group("conv_forward_backward");
    group.sample_size(samples(20));
    let mut rng = ChaCha8Rng::seed_from_u64(0);
    let mut net = LeNet5::new(1, 14, 10, &mut rng);
    let x = Tensor::randn(&[8, 1, 14, 14], 0.0, 1.0, &mut rng);
    let mut ws = Workspace::new();
    group.bench_function("lenet_fwd_ws_batch8", |b| {
        b.iter(|| {
            let y = net.forward_ws(&x, Mode::Eval, &mut ws);
            let v = y.sum();
            ws.recycle(y);
            v
        })
    });
    group.bench_function("lenet_fwd_bwd_batch8", |b| {
        b.iter(|| {
            let y = net.forward(&x, Mode::Train);
            net.backward(&Tensor::ones(y.dims()))
        })
    });
    // LeNet's conv2 (6→16, 5×5, 7×7 maps → 3×3) on a batch of 32: the
    // chunked layer runs 2 forward and 2 `Wᵀ·G` gemms per step.
    let mut conv2 = Conv2d::new(6, 16, 5, 1, 0, &mut rng);
    let maps = Tensor::randn(&[32, 6, 7, 7], 0.0, 1.0, &mut rng);
    let grad = Tensor::randn(&[32, 16, 3, 3], 0.0, 1.0, &mut rng);
    group.bench_function("lenet_conv2_train_step_b32", |b| {
        b.iter(|| {
            let y = conv2.forward_ws(&maps, Mode::Train, &mut ws);
            let g = conv2.backward_ws(&grad, &mut ws);
            ws.recycle(y);
            ws.recycle(g);
        })
    });
    // LeNet's conv1 (1→6, 5×5, padding 2, 14×14 maps) on a batch of 32,
    // with and without the input gradient (`Wᵀ·G` plus `col2im`): a
    // training step never reads the network's input gradient, so it runs
    // the second. Its own generator leaves the inputs above and below as
    // they were.
    let mut rng1 = ChaCha8Rng::seed_from_u64(1);
    let mut conv1 = Conv2d::new(1, 6, 5, 1, 2, &mut rng1);
    let digits = Tensor::randn(&[32, 1, 14, 14], 0.0, 1.0, &mut rng1);
    let grad = Tensor::randn(&[32, 6, 14, 14], 0.0, 1.0, &mut rng1);
    group.bench_function("lenet_conv1_train_step_b32", |b| {
        b.iter(|| {
            let y = conv1.forward_ws(&digits, Mode::Train, &mut ws);
            let g = conv1.backward_ws(&grad, &mut ws);
            ws.recycle(y);
            ws.recycle(g);
        })
    });
    group.bench_function("lenet_conv1_params_step_b32", |b| {
        b.iter(|| {
            let y = conv1.forward_ws(&digits, Mode::Train, &mut ws);
            conv1.backward_params_ws(&grad, &mut ws);
            ws.recycle(y);
        })
    });
    group.finish();

    // LeNet's first dropout (after conv1) on a batch of 32: one mask
    // word per activation, mask and output written in one pass.
    let mut group = c.benchmark_group("dropout_train_b32_6x14x14");
    group.sample_size(samples(20));
    let acts = Tensor::randn(&[32, 6, 14, 14], 0.0, 1.0, &mut rng);
    for rate in [0.1f32, 0.5] {
        let mut drop = Dropout::new(rate, 7);
        group.bench_function(format!("rate_{rate}"), |b| {
            b.iter(|| {
                let y = drop.forward_ws(&acts, Mode::Train, &mut ws);
                ws.recycle(y);
            })
        });
    }
    group.finish();
}

fn bench_matmul(c: &mut Criterion) {
    let mut group = c.benchmark_group("matmul");
    group.sample_size(samples(30));
    let mut rng = ChaCha8Rng::seed_from_u64(0);
    for n in [32usize, 128] {
        let a = Tensor::randn(&[n, n], 0.0, 1.0, &mut rng);
        let b_mat = Tensor::randn(&[n, n], 0.0, 1.0, &mut rng);
        let mut out = vec![0.0f32; n * n];
        group.bench_with_input(BenchmarkId::new("square_into", n), &n, |b, _| {
            b.iter(|| gemm_into(a.as_slice(), b_mat.as_slice(), &mut out, n, n, n))
        });
    }
    // Sparse lhs (stuck-at-0 faults and post-ReLU activations look like
    // this): the kernel has no zero-skip, so it costs what a dense one does.
    let n = 128;
    let a_sparse = Tensor::from_vec(
        (0..n * n)
            .map(|i| {
                if i % 4 == 0 {
                    (i as f32 * 0.13).sin()
                } else {
                    0.0
                }
            })
            .collect(),
        &[n, n],
    )
    .unwrap();
    let b_mat = Tensor::randn(&[n, n], 0.0, 1.0, &mut rng);
    let mut out = vec![0.0f32; n * n];
    group.bench_function("square_into_sparse75", |b| {
        b.iter(|| gemm_into(a_sparse.as_slice(), b_mat.as_slice(), &mut out, n, n, n))
    });
    // LeNet-5's products on 14×14 inputs: conv1 forward (nn 6×25×196),
    // conv2 forward per sample (nn 16×150×9, a narrow column tail) and
    // per 28-sample chunk (nn 16×150×252), and conv1's backward dW (nt
    // 6×196×25) and dcol (tn 25×6×196); then a 64→64 hidden layer of
    // the moons MLP over its 103-row validation split (nn 103×64×64).
    type Gemm = fn(&[f32], &[f32], &mut [f32], usize, usize, usize);
    let shapes: [(&str, Gemm, [usize; 3]); 6] = [
        ("lenet_nn_6x25x196", gemm_into, [6, 25, 196]),
        ("lenet_nn_16x150x9", gemm_into, [16, 150, 9]),
        ("lenet_nn_16x150x252", gemm_into, [16, 150, 252]),
        ("lenet_nt_6x196x25", gemm_nt_into, [6, 196, 25]),
        ("lenet_tn_25x6x196", gemm_tn_into, [25, 6, 196]),
        ("mlp_nn_103x64x64", gemm_into, [103, 64, 64]),
    ];
    for (name, gemm, [m, k, n]) in shapes {
        let a = Tensor::randn(&[m * k], 0.0, 1.0, &mut rng);
        let b_mat = Tensor::randn(&[k * n], 0.0, 1.0, &mut rng);
        let mut out = vec![0.0f32; m * n];
        group.bench_function(name, |b| {
            b.iter(|| gemm(a.as_slice(), b_mat.as_slice(), &mut out, m, k, n))
        });
    }
    // conv1's lowering and its adjoint: a 5×5 kernel, padding 2, on 14×14.
    let spec = Conv2dSpec::new(1, 6, 5, 1, 2);
    let image = Tensor::randn(&[14 * 14], 0.0, 1.0, &mut rng);
    let mut cols = vec![0.0f32; spec.patch_len() * 14 * 14];
    group.bench_function("lenet_im2col_14x14", |b| {
        b.iter(|| im2col_into(image.as_slice(), &mut cols, &spec, 1, 14, 14))
    });
    let mut grad = vec![0.0f32; 14 * 14];
    group.bench_function("lenet_col2im_14x14", |b| {
        b.iter(|| col2im_into(&cols, &mut grad, &spec, 1, 14, 14))
    });
    group.finish();
}

/// Campaign scheduling overhead: the same four-scenario campaign through
/// the work-stealing shard pool at 1 and 2 shards (outcomes are
/// bit-identical; only wall-clock may differ), plus the result-store
/// persistence round-trip (fsync'd appends + tolerant load + atomic
/// compaction).
fn bench_campaign(c: &mut Criterion) {
    use scenarios::{Campaign, CampaignRunner, ResultStore, Scenario, TaskKind};

    let campaign = Campaign::new(
        "bench",
        (0..4u64)
            .map(|i| {
                Scenario::new(format!("s{i}"), vec!["lognormal:0.4".parse().unwrap()])
                    .seed(i)
                    .budgets(2, 2, 1, 1)
                    .task(TaskKind::Moons {
                        samples: 80,
                        noise: 0.1,
                    })
            })
            .collect(),
    );
    let mut group = c.benchmark_group("campaign");
    group.sample_size(samples(10));
    for shards in [1usize, 2] {
        group.bench_with_input(BenchmarkId::new("shards", shards), &shards, |b, &n| {
            // A fresh runner per iteration: the memo cache would otherwise
            // turn every iteration after the first into pure cache hits.
            b.iter(|| CampaignRunner::new().shards(n).run_campaign(&campaign))
        });
    }
    group.finish();

    // Store round-trip on precomputed outcomes, measured once: fsync'd
    // appends + tolerant load + atomic compaction, no engine time.
    let outcomes: Vec<_> = CampaignRunner::new()
        .run_campaign(&campaign)
        .into_iter()
        .map(|r| r.result.expect("bench scenarios run"))
        .collect();
    let path = std::env::temp_dir().join(format!("bayesft-bench-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let store = ResultStore::open(&path);
    let start = std::time::Instant::now();
    for outcome in &outcomes {
        store.append("bench", outcome).expect("bench store appends");
    }
    let records = store.load().expect("bench store loads");
    store.compact().expect("bench store compacts");
    record_metric(
        "campaign/persist_load_compact_ms",
        start.elapsed().as_secs_f64() * 1e3,
        "ms",
    );
    record_metric(
        "campaign/records_persisted",
        records.len() as f64,
        "records",
    );
    let _ = std::fs::remove_file(&path);
}

/// Cost of the telemetry primitives the instrumented kernels pay per
/// call — a counter bump, a histogram observation, and the full
/// `Timer`/`Span` enter+drop pairs — against the bare `Instant::now()`
/// pair a hand-rolled timer would cost anyway. No trace sink is
/// installed, so spans take the cheap path (the production default).
fn bench_telemetry(c: &mut Criterion) {
    let counter = telemetry::static_counter!("bench_telemetry_ops_total");
    let hist = telemetry::duration_histogram!("bench_telemetry_seconds");

    let mut group = c.benchmark_group("telemetry");
    group.sample_size(samples(40));
    group.bench_function("counter_inc", |b| b.iter(|| counter.inc()));
    group.bench_function("histogram_observe", |b| b.iter(|| hist.observe(1.25e-4)));
    group.bench_function("timer_start_drop", |b| {
        b.iter(|| telemetry::Timer::start(hist))
    });
    group.bench_function("span_enter_drop_no_sink", |b| {
        b.iter(|| telemetry::Span::enter("bench.span", hist))
    });
    // The stripped baseline: what the same timing window costs with the
    // telemetry layer deleted (two clock reads, nothing recorded).
    group.bench_function("bare_instant_pair", |b| {
        b.iter(|| std::time::Instant::now().elapsed())
    });
    group.finish();

    // Steady-state allocator traffic: recording must be allocation-free
    // (registration above was the only allocating step).
    let iters = 4096u64;
    let before = BYTES.load(Ordering::SeqCst);
    for _ in 0..iters {
        counter.inc();
        let _t = telemetry::Timer::start(hist);
        let _s = telemetry::Span::enter("bench.span", hist);
    }
    let bytes = BYTES.load(Ordering::SeqCst) - before;
    record_metric(
        "telemetry/bytes_per_instrumented_op",
        bytes as f64 / iters as f64,
        "bytes/iter",
    );
}

criterion_group!(
    benches,
    bench_drift_injection,
    bench_mc_trial,
    bench_train_step,
    bench_mc_objective,
    bench_gp,
    bench_conv,
    bench_matmul,
    bench_campaign,
    bench_telemetry
);
criterion_main!(benches);
