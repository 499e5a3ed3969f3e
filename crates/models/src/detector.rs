//! TinyDetector (Fig. 3(j), Fig. 4): a single-stage grid detector standing
//! in for the paper's Mask R-CNN on the synthetic pedestrian scenes.
//!
//! The image is divided into a `G×G` cell grid; for each cell the head
//! predicts `[objectness, cx, cy, w, h]` (all squashed by a sigmoid). A cell
//! is positive when a ground-truth pedestrian center falls inside it. This
//! reproduces the failure mode the paper studies — weight drift corrupts
//! both the confidence map and the box regressions — with the same dropout
//! search space as the classifiers.

use datasets::{BBox, Scene};
use nn::{Activation, Conv2d, Dropout, Layer, MaxPool2d, Mode, Sequential, Workspace};
use rand::Rng;
use tensor::Tensor;

use crate::delegate_layer;

/// Downsampling factor from image pixels to grid cells.
pub const GRID: usize = 4;

#[inline]
fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

/// The detector network: conv backbone (two pooling stages) + 1×1 conv head
/// emitting 5 channels per grid cell.
#[derive(Clone)]
pub struct TinyDetector {
    net: Sequential,
    image_hw: usize,
}

impl TinyDetector {
    /// Builds a detector for 3-channel `hw`×`hw` scenes.
    ///
    /// # Panics
    ///
    /// Panics if `hw` is not divisible by [`GRID`].
    pub fn new(hw: usize, rng: &mut impl Rng) -> Self {
        assert_eq!(hw % GRID, 0, "scene size must be divisible by {GRID}");
        let net = Sequential::new(vec![
            Box::new(Conv2d::new(3, 16, 3, 1, 1, rng)),
            Activation::Relu.build(),
            Box::new(Dropout::new(0.0, 0xf1)),
            Box::new(MaxPool2d::new(2, 2)),
            Box::new(Conv2d::new(16, 32, 3, 1, 1, rng)),
            Activation::Relu.build(),
            Box::new(Dropout::new(0.0, 0xf2)),
            Box::new(MaxPool2d::new(2, 2)),
            Box::new(Conv2d::new(32, 5, 1, 1, 0, rng)),
        ]);
        TinyDetector { net, image_hw: hw }
    }

    /// Runs inference on a batch of scene images `[N, 3, H, W]` and decodes
    /// per-image detections (see [`decode_detections`]).
    pub fn detect(&mut self, images: &Tensor, threshold: f32) -> Vec<Vec<(BBox, f32)>> {
        decode_detections(
            &self.net.forward(images, Mode::Eval),
            self.image_hw,
            threshold,
        )
    }
}

/// Decodes the raw head output `[N, 5, G, G]` of a detector built for
/// `image_hw`-pixel scenes (`G = image_hw / GRID`) into per-image
/// `(box, score)` pairs with objectness above `threshold`, after greedy
/// non-maximum suppression.
///
/// # Panics
///
/// Panics if `raw` is not `[N, 5, G, G]`.
pub fn decode_detections(raw: &Tensor, image_hw: usize, threshold: f32) -> Vec<Vec<(BBox, f32)>> {
    let g = image_hw / GRID;
    assert!(
        raw.rank() == 4 && raw.dims()[1..] == [5, g, g],
        "unexpected head output shape"
    );
    let per = 5 * g * g;
    (0..raw.dims()[0])
        .map(|i| {
            let head = &raw.as_slice()[i * per..(i + 1) * per];
            decode_image(head, g, image_hw, threshold)
        })
        .collect()
}

/// [`decode_detections`] for one image's `[5, G, G]` head output.
fn decode_image(head: &[f32], g: usize, image_hw: usize, threshold: f32) -> Vec<(BBox, f32)> {
    let at = |c: usize, i: usize, j: usize| head[(c * g + i) * g + j];
    let cell = GRID as f32;
    let size = image_hw as f32;
    let mut out = Vec::new();
    for i in 0..g {
        for j in 0..g {
            let score = sigmoid(at(0, i, j));
            if score < threshold {
                continue;
            }
            let cx = (j as f32 + sigmoid(at(1, i, j))) * cell;
            let cy = (i as f32 + sigmoid(at(2, i, j))) * cell;
            let w = sigmoid(at(3, i, j)) * size;
            let h = sigmoid(at(4, i, j)) * size;
            out.push((
                BBox::new(cx - w / 2.0, cy - h / 2.0, cx + w / 2.0, cy + h / 2.0),
                score,
            ));
        }
    }
    // Greedy NMS at IoU 0.4. Descending with NaN ranked last: a NaN-scored
    // box (drift-corrupted head output) must not win the suppression
    // contest by tie-ing against every real score.
    out.sort_by(|a, b| tensor::nan_low_cmp(b.1, a.1));
    let mut kept: Vec<(BBox, f32)> = Vec::new();
    for (bbox, score) in out {
        if kept.iter().all(|(k, _)| k.iou(&bbox) < 0.4) {
            kept.push((bbox, score));
        }
    }
    kept
}

delegate_layer!(TinyDetector, "tiny_detector");

/// Builds training targets and the loss/gradient for [`TinyDetector`].
#[derive(Debug, Clone, Copy)]
pub struct DetectionLoss {
    /// Weight on the box-regression terms relative to objectness.
    pub box_weight: f32,
}

impl Default for DetectionLoss {
    fn default() -> Self {
        DetectionLoss { box_weight: 2.0 }
    }
}

impl DetectionLoss {
    /// Computes the mean loss and its gradient w.r.t. the raw head output
    /// for a batch of scenes.
    ///
    /// Objectness: MSE between `σ(logit)` and the 0/1 cell target over all
    /// cells. Box terms: MSE between the sigmoid-decoded offsets/sizes and
    /// the encoded ground truth, on positive cells only.
    ///
    /// The gradient tensor and the per-scene target scratch both come from
    /// `ws`, so a warmed training loop computes the loss with zero heap
    /// allocations. The caller recycles the returned gradient after its
    /// backward pass.
    ///
    /// # Panics
    ///
    /// Panics if `raw` is not `[N, 5, G, G]` with `N == scenes.len()`.
    pub fn loss_and_grad_ws(
        &self,
        raw: &Tensor,
        scenes: &[Scene],
        image_hw: usize,
        ws: &mut Workspace,
    ) -> (f32, Tensor) {
        let g = image_hw / GRID;
        let n = scenes.len();
        assert_eq!(raw.dims(), &[n, 5, g, g], "head output shape mismatch");
        let mut grad = ws.take_tensor(raw.dims());
        grad.as_mut_slice().fill(0.0); // pooled buffers carry stale data
        let mut targets = ws.take(5 * g * g);
        let cell = GRID as f32;
        let size = image_hw as f32;
        let mut loss = 0.0f32;
        let cells = (n * g * g) as f32;
        for (s, scene) in scenes.iter().enumerate() {
            // Cell targets: rows of (obj, cx-frac, cy-frac, w-frac, h-frac).
            targets.fill(0.0);
            for b in &scene.boxes {
                let (cx, cy) = b.center();
                let (w, h) = b.size();
                let j = ((cx / cell) as usize).min(g - 1);
                let i = ((cy / cell) as usize).min(g - 1);
                let row = &mut targets[(i * g + j) * 5..(i * g + j) * 5 + 5];
                row[0] = 1.0;
                row[1] = (cx / cell - j as f32).clamp(0.01, 0.99);
                row[2] = (cy / cell - i as f32).clamp(0.01, 0.99);
                row[3] = (w / size).clamp(0.01, 0.99);
                row[4] = (h / size).clamp(0.01, 0.99);
            }
            for i in 0..g {
                for j in 0..g {
                    let row = &targets[(i * g + j) * 5..(i * g + j) * 5 + 5];
                    let obj_target = row[0];
                    let logit = raw.at(&[s, 0, i, j]);
                    let p = sigmoid(logit);
                    let diff = p - obj_target;
                    loss += diff * diff / cells;
                    *grad.at_mut(&[s, 0, i, j]) = 2.0 * diff * p * (1.0 - p) / cells;
                    if obj_target > 0.0 {
                        for (k, &tk) in row[1..].iter().enumerate() {
                            let l = raw.at(&[s, k + 1, i, j]);
                            let v = sigmoid(l);
                            let d = v - tk;
                            loss += self.box_weight * d * d / cells;
                            *grad.at_mut(&[s, k + 1, i, j]) =
                                2.0 * self.box_weight * d * v * (1.0 - v) / cells;
                        }
                    }
                }
            }
        }
        ws.recycle_vec(targets);
        (loss, grad)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datasets::ped_scenes;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn forward_shape() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let mut det = TinyDetector::new(24, &mut rng);
        let y = det.forward(&Tensor::ones(&[2, 3, 24, 24]), Mode::Eval);
        assert_eq!(y.dims(), &[2, 5, 6, 6]);
    }

    #[test]
    fn decode_respects_threshold_and_nms() {
        let mut raw = Tensor::full(&[1, 5, 6, 6], -10.0); // all objectness ~0
        *raw.at_mut(&[0, 0, 2, 3]) = 10.0; // one confident cell
        *raw.at_mut(&[0, 1, 2, 3]) = 0.0; // cx at cell center
        *raw.at_mut(&[0, 2, 2, 3]) = 0.0; // cy at cell center
        *raw.at_mut(&[0, 3, 2, 3]) = 0.0; // w = 12 px
        *raw.at_mut(&[0, 4, 2, 3]) = 0.0; // h = 12 px
        let dets = decode_detections(&raw, 24, 0.5);
        assert_eq!(dets.len(), 1);
        assert_eq!(dets[0].len(), 1);
        let (bbox, score) = dets[0][0];
        assert!(score > 0.99);
        let (cx, cy) = bbox.center();
        assert!((cx - 14.0).abs() < 0.1 && (cy - 10.0).abs() < 0.1);
    }

    #[test]
    fn nan_scored_cell_cannot_win_nms() {
        // Regression for the partial_cmp(..).unwrap_or(Equal) NMS sort:
        // a NaN objectness logit produces a NaN score that passed the
        // `score < threshold` gate (NaN comparisons are false) and then
        // tied against every real detection, leaving the winner to
        // input order. With nan_low_cmp the NaN box sorts last, so the
        // overlapping real box wins suppression deterministically.
        let mut raw = Tensor::full(&[1, 5, 6, 6], -10.0);
        // Two adjacent confident cells decoding to overlapping boxes;
        // the earlier (scan-order) one is NaN-corrupted.
        for (cell, logit) in [(2usize, f32::NAN), (3usize, 10.0)] {
            *raw.at_mut(&[0, 0, 2, cell]) = logit;
            *raw.at_mut(&[0, 1, 2, cell]) = 0.0;
            *raw.at_mut(&[0, 2, 2, cell]) = 0.0;
            *raw.at_mut(&[0, 3, 2, cell]) = 2.0; // wide boxes → IoU > 0.4
            *raw.at_mut(&[0, 4, 2, cell]) = 2.0;
        }
        let dets = &decode_detections(&raw, 24, 0.5)[0];
        assert_eq!(dets.len(), 1, "overlapping pair must collapse to one");
        assert!(dets[0].1 > 0.99, "the real box must win, got {}", dets[0].1);
    }

    #[test]
    fn loss_gradient_matches_finite_difference() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let scenes = ped_scenes(2, 24, 2, &mut rng);
        let loss_fn = DetectionLoss::default();
        let raw = Tensor::randn(&[2, 5, 6, 6], 0.0, 1.0, &mut rng);
        let mut ws = Workspace::new();
        let mut loss = |raw: &Tensor| loss_fn.loss_and_grad_ws(raw, scenes.scenes(), 24, &mut ws);
        let (_, grad) = loss(&raw);
        let eps = 1e-2;
        let mut max_err = 0.0f32;
        for i in (0..raw.len()).step_by(17) {
            let mut hi = raw.clone();
            hi.as_mut_slice()[i] += eps;
            let mut lo = raw.clone();
            lo.as_mut_slice()[i] -= eps;
            let num = (loss(&hi).0 - loss(&lo).0) / (2.0 * eps);
            max_err = max_err.max((num - grad.as_slice()[i]).abs());
        }
        assert!(max_err < 1e-3, "gradient error {max_err}");
    }

    #[test]
    fn dirty_workspace_loss_is_bit_identical_to_a_fresh_one() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let scenes = ped_scenes(3, 24, 2, &mut rng);
        let loss_fn = DetectionLoss::default();
        let raw = Tensor::randn(&[3, 5, 6, 6], 0.0, 1.0, &mut rng);
        let (loss, grad) =
            loss_fn.loss_and_grad_ws(&raw, scenes.scenes(), 24, &mut Workspace::new());
        let mut ws = Workspace::new();
        // Pre-dirty the pool so stale contents would surface a missing clear.
        let dirty = Tensor::full(&[3, 5, 6, 6], 7.5);
        ws.recycle(dirty);
        ws.recycle_vec(vec![3.25f32; 5 * 6 * 6]);
        for _ in 0..2 {
            let (loss_ws, grad_ws) = loss_fn.loss_and_grad_ws(&raw, scenes.scenes(), 24, &mut ws);
            assert_eq!(loss.to_bits(), loss_ws.to_bits());
            assert_eq!(grad.as_slice(), grad_ws.as_slice());
            ws.recycle(grad_ws);
        }
    }

    #[test]
    fn detector_learns_on_tiny_set() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let scenes = ped_scenes(4, 24, 1, &mut rng);
        let mut det = TinyDetector::new(24, &mut rng);
        let loss_fn = DetectionLoss::default();
        // Stack scene images into one batch.
        let mut data = Vec::new();
        for scene in scenes.scenes() {
            data.extend_from_slice(scene.image.as_slice());
        }
        let images = Tensor::from_vec(data, &[4, 3, 24, 24]).unwrap();
        let mut opt = nn::Adam::new(0.01);
        let mut ws = Workspace::new();
        let mut first = None;
        let mut last = 0.0;
        for _ in 0..40 {
            let raw = det.forward(&images, Mode::Train);
            let (loss, grad) = loss_fn.loss_and_grad_ws(&raw, scenes.scenes(), 24, &mut ws);
            first.get_or_insert(loss);
            last = loss;
            let _ = det.backward(&grad);
            ws.recycle(grad);
            nn::Optimizer::step(&mut opt, &mut det);
        }
        assert!(last < first.unwrap(), "detector loss must decrease");
    }

    #[test]
    fn has_two_dropout_slots() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let mut det = TinyDetector::new(24, &mut rng);
        assert_eq!(crate::dropout_count(&mut det), 2);
    }
}
