//! Asserts the Monte-Carlo steady state is allocation-free: once the
//! workspace is warm, an `inject_from → forward_ws → recycle` trial
//! performs **zero** heap allocations, and a driver call on a warm
//! `McState` allocates only its returned values.
//!
//! This binary runs without the libtest harness (`harness = false`): it
//! installs a counting global allocator, and running on the main thread
//! keeps the measured window free of concurrent harness activity
//! (libtest's waiting main thread allocates channel wakeups otherwise).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use nn::{Dense, Layer, Mode, Relu, Sequential, Workspace};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use reram::{monte_carlo, DriftModel, FaultInjector, LogNormalDrift, McState};
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

fn main() {
    steady_state_trial_allocates_nothing();
    println!("zero_alloc: ok");
}

fn steady_state_trial_allocates_nothing() {
    let mut rng = ChaCha8Rng::seed_from_u64(0);
    let mut net = Sequential::new(vec![
        Box::new(Dense::new(16, 32, &mut rng)),
        Box::new(Relu::new()),
        Box::new(Dense::new(32, 32, &mut rng)),
        Box::new(Relu::new()),
        Box::new(Dense::new(32, 4, &mut rng)),
    ]);
    let x = Tensor::ones(&[8, 16]);
    let model = LogNormalDrift::new(0.4);
    let snapshot = FaultInjector::snapshot(&mut net);
    let mut ws = Workspace::new();

    let trial = |t: usize, net: &mut Sequential, ws: &mut Workspace| -> f32 {
        let mut rng = ChaCha8Rng::seed_from_u64(reram::mix_seed(9, t as u64));
        FaultInjector::inject_from(&snapshot, net, &model, &mut rng)
            .expect("snapshot taken from this network");
        let y = net.forward_ws(&x, Mode::Eval, ws);
        let s = y.sum();
        ws.recycle(y);
        s
    };

    // Warm-up: populate the workspace pool (allocates) and let best-fit
    // settle.
    let mut warm = Vec::with_capacity(4);
    for t in 0..2 {
        warm.push(trial(t, &mut net, &mut ws));
    }

    // Steady state: the fused inject touches weights from the pristine
    // snapshot in place, and every forward buffer comes from the pool.
    let (allocs_before, bytes_before) = allocs();
    let mut acc = 0.0f32;
    for t in 2..32 {
        acc += trial(t, &mut net, &mut ws);
    }
    let (allocs_after, bytes_after) = allocs();
    assert!(acc.is_finite());
    assert_eq!(
        allocs_after - allocs_before,
        0,
        "steady-state trials allocated {} times ({} bytes)",
        allocs_after - allocs_before,
        bytes_after - bytes_before,
    );

    // Sanity: the allocation-free loop computes the same trial values as
    // the public driver with the plain (allocating) metric.
    snapshot.restore_into(&mut net).unwrap();
    let level: [(&dyn DriftModel, u64); 1] = [(&model, 9)];
    let reference = monte_carlo(&mut net, &level, 4, 1, &mut McState::default(), |n, _| {
        n.forward(&x, Mode::Eval).sum()
    });
    assert_eq!(&reference.values[..2], &warm[..2]);

    // Whole-driver check: with the metric running `forward_ws` on the
    // driver's per-worker workspace, the allocation count must not scale
    // with the trial count, serial or threaded (fixed setup cost only:
    // snapshot, values, replicas and threads, and each worker's workspace
    // warm-up in its first trials).
    let count_driver =
        |trials: usize, workers: usize, net: &mut Sequential, state: &mut McState| {
            let (before, _) = allocs();
            let _ = monte_carlo(net, &level, trials, workers, state, |n, ws| {
                let y = n.forward_ws(&x, Mode::Eval, ws);
                let s = y.sum();
                ws.recycle(y);
                s
            });
            let (after, _) = allocs();
            after - before
        };
    for workers in [1usize, 2] {
        let small = count_driver(8, workers, &mut net, &mut McState::default());
        let large = count_driver(64, workers, &mut net, &mut McState::default());
        assert_eq!(
            small, large,
            "{workers} workers: allocations grew with trial count: {small} for 8 trials vs {large} for 64"
        );
    }

    // With a kept state the snapshot and workspace survive the call: once
    // warm, a serial driver call allocates only its returned values.
    let mut state = McState::default();
    let _ = count_driver(8, 1, &mut net, &mut state);
    let warm = count_driver(64, 1, &mut net, &mut state);
    assert_eq!(warm, 1, "a warm serial driver call allocated {warm} times");
}
