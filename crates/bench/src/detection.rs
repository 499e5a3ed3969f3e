//! Shared pieces of the object-detection experiments (Fig. 3(j), Fig. 4).

use datasets::DetectionDataset;
use metrics::{mean_average_precision, Detection};
use models::{decode_detections, DetectionLoss, TinyDetector};
use nn::{Layer, Mode, Optimizer};
use reram::{monte_carlo, LogNormalDrift, McState, McStats};
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
/// Runs on the workspace train path (`forward_ws`, the pooled
/// [`DetectionLoss::loss_and_grad_ws`], `backward_params_ws` and in-place
/// Adam), drawing every step's buffers from one workspace.
pub fn train_detector(det: &mut TinyDetector, data: &DetectionDataset, epochs: usize, lr: f32) {
    let images = stack_images(data);
    let loss_fn = DetectionLoss::default();
    let hw = data.image_size();
    let mut opt = nn::Adam::new(lr);
    let mut ws = nn::Workspace::new();
    for _ in 0..epochs {
        let raw = det.forward_ws(&images, Mode::Train, &mut ws);
        let (_, grad) = loss_fn.loss_and_grad_ws(&raw, data.scenes(), hw, &mut ws);
        ws.recycle(raw);
        det.backward_params_ws(&grad, &mut ws);
        ws.recycle(grad);
        opt.step(det);
    }
}

/// mAP@0.5 of the detections decoded from head output `raw` against the
/// ground truth of `data`.
fn map_of(raw: &Tensor, data: &DetectionDataset, threshold: f32) -> f32 {
    let per_image = decode_detections(raw, data.image_size(), threshold);
    let mut detections = Vec::new();
    for (image, dets) in per_image.into_iter().enumerate() {
        for (bbox, score) in dets {
            detections.push(Detection { image, bbox, score });
        }
    }
    let ground_truth: Vec<_> = data.scenes().iter().map(|s| s.boxes.clone()).collect();
    mean_average_precision(&detections, &ground_truth)
}

/// mAP@0.5 of a detector on a dataset at its current weights.
pub fn detector_map(det: &mut dyn Layer, data: &DetectionDataset, threshold: f32) -> f32 {
    map_of(
        &det.forward(&stack_images(data), Mode::Eval),
        data,
        threshold,
    )
}

/// Monte-Carlo mAP@0.5 under log-normal drift at `sigma`: sample `t` drifts
/// the detector's weights with an RNG seeded `mix_seed(seed, t)` (see
/// [`monte_carlo`]), and the detector is handed back with its weights
/// unchanged.
pub fn drift_map(
    det: &mut dyn Layer,
    data: &DetectionDataset,
    sigma: f32,
    trials: usize,
    seed: u64,
) -> McStats {
    let images = stack_images(data);
    let drift = LogNormalDrift::new(sigma);
    monte_carlo(
        det,
        &[(&drift, seed)],
        trials,
        1,
        &mut McState::default(),
        |net, ws| {
            let raw = net.forward_ws(&images, Mode::Eval, ws);
            let map = map_of(&raw, data, 0.5);
            ws.recycle(raw);
            map
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use datasets::ped_scenes;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use reram::FaultInjector;

    /// A briefly trained detector and its held-out scenes.
    fn trained() -> (TinyDetector, DetectionDataset) {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let (train, test) = ped_scenes(20, 24, 2, &mut rng).split(0.8);
        let mut det = TinyDetector::new(24, &mut rng);
        models::set_dropout_rates(&mut det, &[0.2, 0.2]);
        train_detector(&mut det, &train, 120, 0.01);
        (det, test)
    }

    fn bits(values: &[f32]) -> Vec<u32> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn drift_map_at_zero_sigma_is_the_clean_map() {
        let (mut det, test) = trained();
        let clean = detector_map(&mut det, &test, 0.5);
        assert!(clean > 0.0, "the trained detector finds nothing");
        let stats = drift_map(&mut det, &test, 0.0, 3, 11);
        assert_eq!(bits(&stats.values), bits(&[clean; 3]));
    }

    #[test]
    fn drift_map_hands_the_weights_back_unchanged() {
        let (mut det, test) = trained();
        let before = FaultInjector::snapshot(&mut det);
        let _ = drift_map(&mut det, &test, 0.4, 3, 11);
        let after = FaultInjector::snapshot(&mut det);
        for (b, a) in before.tensors().iter().zip(after.tensors()) {
            assert_eq!(bits(b.as_slice()), bits(a.as_slice()));
        }
    }

    #[test]
    fn drift_map_repeats_bit_for_bit() {
        let (mut det, test) = trained();
        let first = drift_map(&mut det, &test, 0.4, 3, 11);
        let second = drift_map(&mut det, &test, 0.4, 3, 11);
        assert_eq!(bits(&first.values), bits(&second.values));
    }
}
