//! Spatial-transformer classifier (Fig. 3(i)): a localization network
//! predicts an affine transform, the input is bilinearly resampled through
//! it, and a CNN classifies the canonicalized image — the architecture the
//! paper uses for randomized-geometry traffic-sign recognition (ref. \[27\]).

use nn::{
    Activation, Conv2d, Dense, Dropout, Flatten, Layer, MaxPool2d, Mode, Param, Sequential,
    Workspace,
};
use rand::Rng;
use tensor::Tensor;

use crate::delegate_layer;

/// A differentiable affine spatial transformer: `y = sample(x, θ(x))` where
/// `θ: [N, 6]` comes from an internal localization network and sampling is
/// bilinear with zero padding.
///
/// The localization head is initialized to the identity transform (zero
/// weights, bias `[1,0,0,0,1,0]`), so an untrained STN is a no-op.
#[derive(Clone)]
pub struct SpatialTransformer {
    loc: Sequential,
    cache: Option<StnCache>,
}

#[derive(Clone, Default)]
struct StnCache {
    input: Tensor,
    theta: Tensor,
}

impl SpatialTransformer {
    /// Builds a transformer for `in_channels`×`hw`×`hw` inputs.
    ///
    /// # Panics
    ///
    /// Panics if `hw < 8`.
    pub fn new(in_channels: usize, hw: usize, rng: &mut impl Rng) -> Self {
        assert!(hw >= 8, "spatial transformer needs at least 8×8 inputs");
        let pooled = hw / 2;
        let flat = 8 * pooled * pooled;
        let mut loc = Sequential::new(vec![
            Box::new(Conv2d::new(in_channels, 8, 3, 1, 1, rng)),
            Activation::Relu.build(),
            Box::new(MaxPool2d::new(2, 2)),
            Box::new(Flatten::new()),
            Box::new(Dense::new(flat, 32, rng)),
            Activation::Relu.build(),
            Box::new(Dense::new(32, 6, rng)),
        ]);
        // Identity init of the affine head: zero weight, identity bias.
        let total = {
            let mut n = 0;
            loc.visit_params(&mut |_| n += 1);
            n
        };
        let mut idx = 0;
        loc.visit_params(&mut |p: &mut Param| {
            if idx == total - 2 {
                p.value.map_inplace(|_| 0.0);
            } else if idx == total - 1 {
                p.value = Tensor::from_slice(&[1.0, 0.0, 0.0, 0.0, 1.0, 0.0]);
            }
            idx += 1;
        });
        SpatialTransformer { loc, cache: None }
    }
}

/// Zero-padded pixel fetch.
#[inline]
fn pixel(img: &[f32], c: usize, y: i64, x: i64, h: usize, w: usize) -> f32 {
    if y < 0 || x < 0 || y >= h as i64 || x >= w as i64 {
        0.0
    } else {
        img[(c * h + y as usize) * w + x as usize]
    }
}

impl Layer for SpatialTransformer {
    fn forward_ws(&mut self, input: &Tensor, mode: Mode, ws: &mut Workspace) -> Tensor {
        assert_eq!(input.rank(), 4, "spatial transformer expects [N, C, H, W]");
        let theta = self.loc.forward_ws(input, mode, ws);
        let (n, c, h, w) = (
            input.dims()[0],
            input.dims()[1],
            input.dims()[2],
            input.dims()[3],
        );
        // Every output element is written below, so the pooled buffer
        // needs no zero-fill.
        let mut out = ws.take_tensor(input.dims());
        let src = input.as_slice();
        let dst = out.as_mut_slice();
        let chw = c * h * w;
        for s in 0..n {
            let t = theta.row(s);
            let img = &src[s * chw..(s + 1) * chw];
            for i in 0..h {
                let ys = 2.0 * i as f32 / (h - 1).max(1) as f32 - 1.0;
                for j in 0..w {
                    let xs = 2.0 * j as f32 / (w - 1).max(1) as f32 - 1.0;
                    let sx = t[0] * xs + t[1] * ys + t[2];
                    let sy = t[3] * xs + t[4] * ys + t[5];
                    let px = (sx + 1.0) / 2.0 * (w - 1) as f32;
                    let py = (sy + 1.0) / 2.0 * (h - 1) as f32;
                    let x0 = px.floor() as i64;
                    let y0 = py.floor() as i64;
                    let fx = px - x0 as f32;
                    let fy = py - y0 as f32;
                    for ch in 0..c {
                        let v00 = pixel(img, ch, y0, x0, h, w);
                        let v01 = pixel(img, ch, y0, x0 + 1, h, w);
                        let v10 = pixel(img, ch, y0 + 1, x0, h, w);
                        let v11 = pixel(img, ch, y0 + 1, x0 + 1, h, w);
                        dst[s * chw + (ch * h + i) * w + j] = v00 * (1.0 - fx) * (1.0 - fy)
                            + v01 * fx * (1.0 - fy)
                            + v10 * (1.0 - fx) * fy
                            + v11 * fx * fy;
                    }
                }
            }
        }
        // The backward tape, refreshed in place (grown once, reused
        // across steps).
        let cache = self.cache.get_or_insert_with(StnCache::default);
        cache.input.reuse_as(input.dims());
        cache.input.as_mut_slice().copy_from_slice(src);
        cache.theta.reuse_as(theta.dims());
        cache.theta.as_mut_slice().copy_from_slice(theta.as_slice());
        ws.recycle(theta);
        out
    }

    fn backward_ws(&mut self, grad_out: &Tensor, ws: &mut Workspace) -> Tensor {
        let cache = self
            .cache
            .as_ref()
            .expect("backward called before forward on spatial_transformer");
        let input = &cache.input;
        let theta = &cache.theta;
        let (n, c, h, w) = (
            input.dims()[0],
            input.dims()[1],
            input.dims()[2],
            input.dims()[3],
        );
        let chw = c * h * w;
        let src = input.as_slice();
        let go = grad_out.as_slice();
        let mut grad_input = ws.take_tensor(input.dims());
        grad_input.as_mut_slice().fill(0.0);
        // Every row is written below.
        let mut grad_theta = ws.take_tensor(&[n, 6]);
        for s in 0..n {
            let t = theta.row(s);
            let img = &src[s * chw..(s + 1) * chw];
            let mut gt = [0.0f32; 6];
            for i in 0..h {
                let ys = 2.0 * i as f32 / (h - 1).max(1) as f32 - 1.0;
                for j in 0..w {
                    let xs = 2.0 * j as f32 / (w - 1).max(1) as f32 - 1.0;
                    let sx = t[0] * xs + t[1] * ys + t[2];
                    let sy = t[3] * xs + t[4] * ys + t[5];
                    let px = (sx + 1.0) / 2.0 * (w - 1) as f32;
                    let py = (sy + 1.0) / 2.0 * (h - 1) as f32;
                    let x0 = px.floor() as i64;
                    let y0 = py.floor() as i64;
                    let fx = px - x0 as f32;
                    let fy = py - y0 as f32;
                    let mut dpx = 0.0f32;
                    let mut dpy = 0.0f32;
                    for ch in 0..c {
                        let g = go[s * chw + (ch * h + i) * w + j];
                        if g == 0.0 {
                            continue;
                        }
                        let v00 = pixel(img, ch, y0, x0, h, w);
                        let v01 = pixel(img, ch, y0, x0 + 1, h, w);
                        let v10 = pixel(img, ch, y0 + 1, x0, h, w);
                        let v11 = pixel(img, ch, y0 + 1, x0 + 1, h, w);
                        // Gradient w.r.t. the four source pixels.
                        let gi = grad_input.as_mut_slice();
                        let mut scatter = |y: i64, x: i64, wgt: f32| {
                            if y >= 0 && x >= 0 && (y as usize) < h && (x as usize) < w {
                                gi[s * chw + (ch * h + y as usize) * w + x as usize] += g * wgt;
                            }
                        };
                        scatter(y0, x0, (1.0 - fx) * (1.0 - fy));
                        scatter(y0, x0 + 1, fx * (1.0 - fy));
                        scatter(y0 + 1, x0, (1.0 - fx) * fy);
                        scatter(y0 + 1, x0 + 1, fx * fy);
                        // Gradient w.r.t. the continuous sample position.
                        dpx += g * ((v01 - v00) * (1.0 - fy) + (v11 - v10) * fy);
                        dpy += g * ((v10 - v00) * (1.0 - fx) + (v11 - v01) * fx);
                    }
                    // Chain to θ: px = (sx+1)/2·(w−1), sx = t0·xs + t1·ys + t2.
                    let dsx = dpx * (w - 1) as f32 / 2.0;
                    let dsy = dpy * (h - 1) as f32 / 2.0;
                    gt[0] += dsx * xs;
                    gt[1] += dsx * ys;
                    gt[2] += dsx;
                    gt[3] += dsy * xs;
                    gt[4] += dsy * ys;
                    gt[5] += dsy;
                }
            }
            grad_theta.row_mut(s).copy_from_slice(&gt);
        }
        let grad_via_loc = self.loc.backward_ws(&grad_theta, ws);
        grad_input.add_assign(&grad_via_loc);
        ws.recycle(grad_via_loc);
        ws.recycle(grad_theta);
        grad_input
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.loc.visit_params(f);
    }

    fn visit_dropout(&mut self, f: &mut dyn FnMut(&mut Dropout)) {
        self.loc.visit_dropout(f);
    }

    fn name(&self) -> &'static str {
        "spatial_transformer"
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

impl std::fmt::Debug for SpatialTransformer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpatialTransformer").finish()
    }
}

/// STN classifier (Fig. 3(i)): [`SpatialTransformer`] front-end followed by
/// a small CNN classifier, for the 43-class synthetic traffic-sign task.
#[derive(Clone)]
pub struct StnClassifier {
    net: Sequential,
}

impl StnClassifier {
    /// Builds the classifier for `in_channels`×`hw`×`hw` inputs.
    ///
    /// # Panics
    ///
    /// Panics if `hw` is not divisible by 4.
    pub fn new(in_channels: usize, hw: usize, classes: usize, rng: &mut impl Rng) -> Self {
        assert_eq!(hw % 4, 0, "STN classifier needs hw divisible by 4");
        let flat = 32 * (hw / 4) * (hw / 4);
        let net = Sequential::new(vec![
            Box::new(SpatialTransformer::new(in_channels, hw, rng)),
            Box::new(Conv2d::new(in_channels, 16, 3, 1, 1, rng)),
            Activation::Relu.build(),
            Box::new(Dropout::new(0.0, 0xe1)),
            Box::new(MaxPool2d::new(2, 2)),
            Box::new(Conv2d::new(16, 32, 3, 1, 1, rng)),
            Activation::Relu.build(),
            Box::new(Dropout::new(0.0, 0xe2)),
            Box::new(MaxPool2d::new(2, 2)),
            Box::new(Flatten::new()),
            Box::new(Dense::new(flat, 96, rng)),
            Activation::Relu.build(),
            Box::new(Dropout::new(0.0, 0xe3)),
            Box::new(Dense::new(96, classes, rng)),
        ]);
        StnClassifier { net }
    }
}

delegate_layer!(StnClassifier, "stn_classifier");

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn identity_init_is_a_no_op() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let mut stn = SpatialTransformer::new(1, 8, &mut rng);
        let x = Tensor::randn(&[2, 1, 8, 8], 0.0, 1.0, &mut rng);
        let y = stn.forward(&x, Mode::Eval);
        for (a, b) in x.as_slice().iter().zip(y.as_slice()) {
            assert!((a - b).abs() < 1e-4, "identity STN altered the image");
        }
    }

    #[test]
    fn gradcheck_input_through_sampler() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let mut stn = SpatialTransformer::new(1, 8, &mut rng);
        // Nudge the loc head off identity so the transform is non-trivial
        // but smooth.
        let total = {
            let mut n = 0;
            stn.visit_params(&mut |_| n += 1);
            n
        };
        let mut idx = 0;
        stn.visit_params(&mut |p| {
            if idx == total - 1 {
                p.value = Tensor::from_slice(&[0.9, 0.05, 0.02, -0.03, 0.95, -0.01]);
            }
            idx += 1;
        });
        let x = Tensor::randn(&[1, 1, 8, 8], 0.5, 0.25, &mut rng);
        let err = nn::GradCheck::new().eps(1e-2).max_input_error(&mut stn, &x);
        // Bilinear sampling is piecewise smooth; allow a loose bound.
        assert!(err < 0.15, "input gradient error {err}");
    }

    #[test]
    fn theta_gradients_reach_loc_net() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let mut stn = SpatialTransformer::new(1, 8, &mut rng);
        let x = Tensor::randn(&[2, 1, 8, 8], 0.5, 0.3, &mut rng);
        let y = stn.forward(&x, Mode::Train);
        let _ = stn.backward(&Tensor::ones(y.dims()));
        let mut grad_norm = 0.0;
        stn.visit_params(&mut |p| grad_norm += p.grad.norm_sq());
        assert!(grad_norm > 0.0, "loc-net gradients must be non-zero");
    }

    #[test]
    fn classifier_shapes() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mut net = StnClassifier::new(3, 16, 43, &mut rng);
        let y = net.forward(&Tensor::ones(&[2, 3, 16, 16]), Mode::Eval);
        assert_eq!(y.dims(), &[2, 43]);
        assert_eq!(crate::dropout_count(&mut net), 3);
    }
}
