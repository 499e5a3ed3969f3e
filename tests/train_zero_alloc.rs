//! Asserts the training hot path is allocation-free in the steady state:
//! once per-layer caches, the workspace pool, and optimizer state are warm,
//! a full SGD step — workspace forward, pooled loss gradient, workspace
//! backward, in-place optimizer update — performs **zero** heap
//! allocations, and whole epochs allocate nothing beyond that (allocation
//! count independent of epoch count).
//!
//! The real loops are held to the same bar: one `baselines::train_epochs`
//! call allocates as often at 2 epochs as at 8, and one serial
//! `DriftObjective` evaluation or `drift_accuracy` call allocates as often
//! at 2 Monte-Carlo samples as at 8 — batch gathering, the epoch shuffle
//! and the eval loop add nothing per epoch, batch or sample.
//!
//! This binary runs without the libtest harness (`harness = false`):
//! everything executes on the main thread, so the process-wide allocation
//! counters see no concurrent harness activity (libtest's waiting main
//! thread allocates channel wakeups mid-window otherwise).
//!
//! The hot path is *instrumented*: every gemm/im2col/col2im call records
//! into a `telemetry` histogram. Metric registration (the only allocating
//! telemetry step) happens during warm-up, so the zero-allocation
//! assertions double as proof that recording itself — `Instant::now` plus
//! a few relaxed atomics — allocates nothing; the final check confirms
//! the instrumentation was actually live inside the measured window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use baselines::{
    drift_accuracy, train_epochs, train_step, Codebook, OutputDecoder, TrainConfig, TrainedModel,
};
use bayesft::{DriftObjective, ObjectiveMetric};
use datasets::{digits, ped_scenes};
use models::{set_dropout_rates, DetectionLoss, LeNet5, Mlp, MlpConfig, TinyDetector};
use nn::{Layer, Mode, Optimizer, Sgd, Workspace};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use reram::LogNormalDrift;
use tensor::Tensor;

struct CountingAllocator;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn allocs() -> (u64, u64) {
    (ALLOCS.load(Ordering::SeqCst), BYTES.load(Ordering::SeqCst))
}

/// Heap allocations performed by `f`.
fn count_allocs(f: impl FnOnce()) -> u64 {
    let (before, _) = allocs();
    f();
    allocs().0 - before
}

/// One epoch over prepared batches through the shared workspace train step.
fn epoch(
    net: &mut dyn Layer,
    batches: &[(Tensor, Vec<usize>)],
    opt: &mut dyn Optimizer,
    ws: &mut Workspace,
) -> f32 {
    let mut loss = 0.0;
    for (x, labels) in batches {
        loss += train_step(net, x, labels, opt, ws);
    }
    loss
}

fn main() {
    steady_state_training_step_allocates_nothing();
    train_epochs_allocations_do_not_grow_with_epochs();
    drift_evaluation_allocations_do_not_grow_with_samples();
    println!("train_zero_alloc: ok");
}

/// 30 digit images: batches of 8 leave a remainder of 6, and 70 images
/// leave an eval remainder of 6 after one batch of 64.
fn digit_data(per_class: usize) -> datasets::ClassificationDataset {
    digits(per_class, &mut ChaCha8Rng::seed_from_u64(9))
}

/// The whole training loop — epoch shuffle, batch gathering (flattened
/// for the MLP), step, update — costs a fixed number of allocations per
/// call, whatever the epoch count.
fn train_epochs_allocations_do_not_grow_with_epochs() {
    let data = digit_data(3);
    let mut rng = ChaCha8Rng::seed_from_u64(4);
    let mut mlp = Mlp::new(&MlpConfig::new(196, 10).hidden(16), &mut rng);
    set_dropout_rates(&mut mlp, &[0.2]);
    let mut lenet = LeNet5::new(1, 14, 10, &mut rng);
    let cfg = |epochs| TrainConfig {
        epochs,
        batch_size: 8,
        ..TrainConfig::fast_test()
    };
    for (name, net) in [("mlp", &mut mlp as &mut dyn Layer), ("lenet", &mut lenet)] {
        // Warm the layer caches and telemetry registrations.
        let _ = train_epochs(net, &data, &cfg(1));
        let two = count_allocs(|| assert_eq!(train_epochs(net, &data, &cfg(2)).len(), 2));
        let eight = count_allocs(|| assert_eq!(train_epochs(net, &data, &cfg(8)).len(), 8));
        assert_eq!(
            two, eight,
            "{name}: train_epochs allocated {two} times at 2 epochs but {eight} at 8"
        );
    }
}

/// One serial Monte-Carlo evaluation costs a fixed number of allocations,
/// whatever the sample count: the shared eval loop gathers every batch
/// into the worker's workspace and scores it in place.
fn drift_evaluation_allocations_do_not_grow_with_samples() {
    let data = digit_data(7);
    let mut rng = ChaCha8Rng::seed_from_u64(5);
    let mut mlp = Mlp::new(&MlpConfig::new(196, 10).hidden(16), &mut rng);
    for metric in [ObjectiveMetric::Accuracy, ObjectiveMetric::NegLoss] {
        let objective = |samples| DriftObjective::new(0.5, samples).metric(metric);
        let (warm, two, eight) = (objective(1), objective(2), objective(8));
        let _ = warm.evaluate(&mut mlp, &data, 3);
        let at_two = count_allocs(|| assert_eq!(two.evaluate(&mut mlp, &data, 3).values.len(), 2));
        let at_eight =
            count_allocs(|| assert_eq!(eight.evaluate(&mut mlp, &data, 3).values.len(), 8));
        assert_eq!(
            at_two, at_eight,
            "{metric:?}: DriftObjective allocated {at_two} times at 2 samples but {at_eight} at 8"
        );
    }

    let cb = Codebook::hadamard(10);
    let mut model = TrainedModel {
        net: Box::new(Mlp::new(
            &MlpConfig::new(196, cb.bits()).hidden(16),
            &mut rng,
        )),
        decoder: OutputDecoder::Codebook(cb),
        method: "ftna",
    };
    let drift = LogNormalDrift::new(0.5);
    let _ = drift_accuracy(&mut model, &data, &drift, 1, 3);
    let two = count_allocs(|| {
        assert_eq!(
            drift_accuracy(&mut model, &data, &drift, 2, 3).values.len(),
            2
        )
    });
    let eight = count_allocs(|| {
        assert_eq!(
            drift_accuracy(&mut model, &data, &drift, 8, 3).values.len(),
            8
        )
    });
    assert_eq!(
        two, eight,
        "drift_accuracy (codebook) allocated {two} times at 2 trials but {eight} at 8"
    );
}

fn steady_state_training_step_allocates_nothing() {
    // --- MLP with active dropout: dense, activation, and mask caches. ---
    let mut rng = ChaCha8Rng::seed_from_u64(0);
    let mut mlp = Mlp::new(&MlpConfig::new(16, 4).depth(3).hidden(32), &mut rng);
    set_dropout_rates(&mut mlp, &[0.3, 0.2]);
    // Two batch sizes (full + remainder) exercise the cache-shrink/regrow
    // path: buffers must reach a high-water mark, then stay put.
    let batches = vec![
        (
            Tensor::randn(&[8, 16], 0.0, 1.0, &mut rng),
            (0..8).map(|i| i % 4).collect::<Vec<usize>>(),
        ),
        (
            Tensor::randn(&[5, 16], 0.0, 1.0, &mut rng),
            (0..5).map(|i| i % 4).collect::<Vec<usize>>(),
        ),
    ];
    let mut opt = Sgd::new(0.05).momentum(0.9).clip_norm(5.0);
    let mut ws = Workspace::new();

    // Warm-up: populate per-layer caches, the workspace pool, and the
    // optimizer's velocity buffers.
    let mut acc = 0.0f32;
    for _ in 0..2 {
        acc += epoch(&mut mlp, &batches, &mut opt, &mut ws);
    }

    // Steady state: single steps are allocation-free…
    let (a0, b0) = allocs();
    for (x, labels) in &batches {
        acc += train_step(&mut mlp, x, labels, &mut opt, &mut ws);
    }
    let (a1, b1) = allocs();
    assert!(acc.is_finite());
    assert_eq!(
        a1 - a0,
        0,
        "steady-state MLP train steps allocated {} times ({} bytes)",
        a1 - a0,
        b1 - b0,
    );

    // …and the allocation count is independent of the epoch count: four
    // epochs cost exactly as many allocations as sixteen (namely zero).
    let count_epochs = |epochs: usize, net: &mut Mlp, opt: &mut Sgd, ws: &mut Workspace| -> u64 {
        let (before, _) = allocs();
        for _ in 0..epochs {
            let _ = epoch(net, &batches, opt, ws);
        }
        let (after, _) = allocs();
        after - before
    };
    let four = count_epochs(4, &mut mlp, &mut opt, &mut ws);
    let sixteen = count_epochs(16, &mut mlp, &mut opt, &mut ws);
    assert_eq!(
        four, sixteen,
        "allocations grew with epoch count: {four} for 4 epochs vs {sixteen} for 16"
    );
    assert_eq!(four, 0, "epochs must be allocation-free after warm-up");

    // --- LeNet: conv im2col tape, pooling argmax tape, flatten. ---
    let mut lenet = LeNet5::new(1, 14, 4, &mut rng);
    let img_batches = vec![
        (
            Tensor::randn(&[4, 1, 14, 14], 0.0, 1.0, &mut rng),
            vec![0usize, 1, 2, 3],
        ),
        (
            Tensor::randn(&[2, 1, 14, 14], 0.0, 1.0, &mut rng),
            vec![2usize, 0],
        ),
    ];
    let mut opt = Sgd::new(0.05).momentum(0.9).clip_norm(5.0);
    let mut ws = Workspace::new();
    for _ in 0..2 {
        acc += epoch(&mut lenet, &img_batches, &mut opt, &mut ws);
    }
    let (a0, b0) = allocs();
    for _ in 0..4 {
        acc += epoch(&mut lenet, &img_batches, &mut opt, &mut ws);
    }
    let (a1, b1) = allocs();
    assert!(acc.is_finite());
    assert_eq!(
        a1 - a0,
        0,
        "steady-state LeNet epochs allocated {} times ({} bytes)",
        a1 - a0,
        b1 - b0,
    );

    // --- TinyDetector: pooled detection loss gradient + target scratch. ---
    let scenes = ped_scenes(4, 24, 2, &mut rng);
    let mut det = TinyDetector::new(24, &mut rng);
    set_dropout_rates(&mut det, &[0.2, 0.1]);
    let loss_fn = DetectionLoss::default();
    let mut data = Vec::new();
    for scene in scenes.scenes() {
        data.extend_from_slice(scene.image.as_slice());
    }
    let images = Tensor::from_vec(data, &[4, 3, 24, 24]).unwrap();
    let mut opt = Sgd::new(0.05).momentum(0.9).clip_norm(5.0);
    let mut ws = Workspace::new();
    let det_step = |det: &mut TinyDetector, opt: &mut Sgd, ws: &mut Workspace| -> f32 {
        let raw = det.forward_ws(&images, Mode::Train, ws);
        let (loss, grad) = loss_fn.loss_and_grad_ws(&raw, scenes.scenes(), 24, ws);
        ws.recycle(raw);
        let gin = det.backward_ws(&grad, ws);
        ws.recycle(grad);
        ws.recycle(gin);
        opt.step(det);
        loss
    };
    for _ in 0..2 {
        acc += det_step(&mut det, &mut opt, &mut ws);
    }
    let (a0, b0) = allocs();
    for _ in 0..4 {
        acc += det_step(&mut det, &mut opt, &mut ws);
    }
    let (a1, b1) = allocs();
    assert!(acc.is_finite());
    assert_eq!(
        a1 - a0,
        0,
        "steady-state detector train steps allocated {} times ({} bytes)",
        a1 - a0,
        b1 - b0,
    );

    // --- Telemetry is live AND allocation-free in the steady state. ---
    // The kernels above record into these histograms on every call; if
    // instrumentation were compiled out (or the timers allocated), one of
    // the two assertions below would fail.
    let gemm = telemetry::duration_histogram!("tensor_gemm_seconds");
    let im2col = telemetry::duration_histogram!("tensor_im2col_seconds");
    // Fresh optimizer/workspace for the LeNet (the detector's momentum
    // buffers have detector shapes); warm-up re-fills both.
    let mut opt = Sgd::new(0.05).momentum(0.9).clip_norm(5.0);
    let mut ws = Workspace::new();
    for _ in 0..2 {
        acc += epoch(&mut lenet, &img_batches, &mut opt, &mut ws);
    }
    let gemm_before = gemm.count();
    let im2col_before = im2col.count();
    let (a0, b0) = allocs();
    acc += epoch(&mut lenet, &img_batches, &mut opt, &mut ws);
    let (a1, b1) = allocs();
    assert!(acc.is_finite());
    assert_eq!(
        a1 - a0,
        0,
        "instrumented LeNet epoch allocated {} times ({} bytes)",
        a1 - a0,
        b1 - b0,
    );
    assert!(
        gemm.count() > gemm_before,
        "gemm kernels must record into tensor_gemm_seconds during the measured epoch"
    );
    assert!(
        im2col.count() > im2col_before,
        "conv lowering must record into tensor_im2col_seconds during the measured epoch"
    );
    assert!(gemm.sum() > 0.0 && gemm.sum().is_finite());
}
