//! Shared pieces of the object-detection experiments (Fig. 3(j), Fig. 4).

use datasets::DetectionDataset;
use metrics::{mean_average_precision, Detection};
use models::{DetectionLoss, TinyDetector};
use nn::{Layer, Mode, Optimizer};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use reram::{LogNormalDrift, McStats};
use tensor::Tensor;

/// Stacks all scene images of a dataset into one `[N, 3, H, W]` batch.
pub fn stack_images(data: &DetectionDataset) -> Tensor {
    let size = data.image_size();
    let mut buf = Vec::with_capacity(data.len() * 3 * size * size);
    for scene in data.scenes() {
        buf.extend_from_slice(scene.image.as_slice());
    }
    Tensor::from_vec(buf, &[data.len(), 3, size, size]).expect("scene sizes are uniform")
}

/// Trains a detector with plain ERM for `epochs` full-batch Adam steps.
///
/// Runs on the workspace train path (`forward_ws`/`backward_params_ws` +
/// in-place Adam), so the per-step layer allocations are gone; the detection loss
/// itself still builds its gradient tensor per step.
pub fn train_detector(det: &mut TinyDetector, data: &DetectionDataset, epochs: usize, lr: f32) {
    let images = stack_images(data);
    let loss_fn = DetectionLoss::default();
    let hw = data.image_size();
    let mut opt = nn::Adam::new(lr);
    let mut ws = nn::Workspace::new();
    for _ in 0..epochs {
        let raw = det.forward_ws(&images, Mode::Train, &mut ws);
        let (_, grad) = loss_fn.loss_and_grad(&raw, data.scenes(), hw);
        ws.recycle(raw);
        det.backward_params_ws(&grad, &mut ws);
        opt.step(det);
    }
}

/// mAP@0.5 of a detector on a dataset at its current weights.
pub fn detector_map(det: &mut TinyDetector, data: &DetectionDataset, threshold: f32) -> f32 {
    let images = stack_images(data);
    let per_image = det.detect(&images, threshold);
    let mut detections = Vec::new();
    for (image, dets) in per_image.into_iter().enumerate() {
        for (bbox, score) in dets {
            detections.push(Detection { image, bbox, score });
        }
    }
    let ground_truth: Vec<_> = data.scenes().iter().map(|s| s.boxes.clone()).collect();
    mean_average_precision(&detections, &ground_truth)
}

/// Monte-Carlo mAP under log-normal drift at `sigma`.
pub fn drift_map(
    det: &mut TinyDetector,
    data: &DetectionDataset,
    sigma: f32,
    trials: usize,
    seed: u64,
) -> McStats {
    // `reram::monte_carlo` hands the metric a `&mut dyn Layer`, which
    // cannot reach TinyDetector's typed decode methods, so the
    // snapshot/inject/restore loop is inlined here.
    let snapshot = reram::FaultInjector::snapshot(det);
    let mut values = Vec::with_capacity(trials);
    for t in 0..trials {
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ (0x9E37_79B9u64.wrapping_mul(t as u64 + 1)));
        reram::FaultInjector::inject(det, &LogNormalDrift::new(sigma), &mut rng);
        values.push(detector_map(det, data, 0.5));
        snapshot
            .restore_into(det)
            .expect("snapshot was taken from this network");
    }
    McStats::from_values(values)
}
