//! Max and average 2-D pooling with the index bookkeeping needed for
//! backpropagation.

use serde::{Deserialize, Serialize};

/// Geometry of a 2-D pooling window.
///
/// # Example
///
/// ```
/// use tensor::Pool2dSpec;
///
/// let spec = Pool2dSpec::new(2, 2);
/// assert_eq!(spec.output_hw(8, 8), (4, 4));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Pool2dSpec {
    /// Square window side length.
    pub window: usize,
    /// Stride in both spatial dimensions.
    pub stride: usize,
}

impl Pool2dSpec {
    /// Creates a pooling spec.
    ///
    /// # Panics
    ///
    /// Panics if `window` or `stride` is zero.
    pub fn new(window: usize, stride: usize) -> Self {
        assert!(window > 0, "window must be positive");
        assert!(stride > 0, "stride must be positive");
        Pool2dSpec { window, stride }
    }

    /// Output spatial size for an `h`×`w` input.
    ///
    /// # Panics
    ///
    /// Panics if the input is smaller than the window.
    pub fn output_hw(&self, h: usize, w: usize) -> (usize, usize) {
        assert!(
            h >= self.window && w >= self.window,
            "input {h}x{w} smaller than pooling window {}",
            self.window
        );
        (
            (h - self.window) / self.stride + 1,
            (w - self.window) / self.stride + 1,
        )
    }
}

/// Max-pools one `[C, H, W]` image into a caller-provided buffer.
///
/// `src` is one `[C, H, W]` image; `dst` (`C·OH·OW` elements) is fully
/// overwritten, so recycled scratch buffers can be passed directly. The
/// flat index of each output's maximum is recorded when `argmax` is
/// provided (the backward pass scatters through them; eval-mode pooling
/// passes `None`).
///
/// # Panics
///
/// Panics if any slice length disagrees with the geometry.
pub fn max_pool2d_into(
    src: &[f32],
    dst: &mut [f32],
    spec: &Pool2dSpec,
    c: usize,
    h: usize,
    w: usize,
    mut argmax: Option<&mut [usize]>,
) {
    let (oh, ow) = spec.output_hw(h, w);
    assert_eq!(
        src.len(),
        c * h * w,
        "max_pool2d_into image length mismatch"
    );
    assert_eq!(
        dst.len(),
        c * oh * ow,
        "max_pool2d_into output length mismatch"
    );
    if let Some(a) = &argmax {
        assert_eq!(a.len(), dst.len(), "max_pool2d_into argmax length mismatch");
    }
    for ch in 0..c {
        for oy in 0..oh {
            for ox in 0..ow {
                let mut best = f32::NEG_INFINITY;
                let mut best_idx = 0usize;
                for ky in 0..spec.window {
                    for kx in 0..spec.window {
                        let iy = oy * spec.stride + ky;
                        let ix = ox * spec.stride + kx;
                        let idx = (ch * h + iy) * w + ix;
                        if src[idx] > best {
                            best = src[idx];
                            best_idx = idx;
                        }
                    }
                }
                let o = (ch * oh + oy) * ow + ox;
                dst[o] = best;
                if let Some(a) = argmax.as_deref_mut() {
                    a[o] = best_idx;
                }
            }
        }
    }
}

/// Average-pools one `[C, H, W]` image into a caller-provided buffer.
///
/// `src` is one `[C, H, W]` image; `dst` (`C·OH·OW` elements) is fully
/// overwritten.
///
/// # Panics
///
/// Panics if either slice length disagrees with the geometry.
pub fn avg_pool2d_into(
    src: &[f32],
    dst: &mut [f32],
    spec: &Pool2dSpec,
    c: usize,
    h: usize,
    w: usize,
) {
    let (oh, ow) = spec.output_hw(h, w);
    assert_eq!(
        src.len(),
        c * h * w,
        "avg_pool2d_into image length mismatch"
    );
    assert_eq!(
        dst.len(),
        c * oh * ow,
        "avg_pool2d_into output length mismatch"
    );
    let norm = 1.0 / (spec.window * spec.window) as f32;
    for ch in 0..c {
        for oy in 0..oh {
            for ox in 0..ow {
                let mut acc = 0.0;
                for ky in 0..spec.window {
                    for kx in 0..spec.window {
                        let iy = oy * spec.stride + ky;
                        let ix = ox * spec.stride + kx;
                        acc += src[(ch * h + iy) * w + ix];
                    }
                }
                dst[(ch * oh + oy) * ow + ox] = acc * norm;
            }
        }
    }
}

/// Backward pass of [`avg_pool2d_into`]: spreads each output gradient
/// uniformly over its window, writing into a caller-provided buffer.
///
/// `src` is one `[C, OH, OW]` output gradient; `dst` (`C·h·w` elements) is
/// zeroed and then accumulated into, so recycled scratch buffers can be
/// passed directly.
///
/// # Panics
///
/// Panics if either slice length disagrees with the geometry.
pub fn avg_pool2d_backward_into(
    src: &[f32],
    dst: &mut [f32],
    spec: &Pool2dSpec,
    c: usize,
    h: usize,
    w: usize,
) {
    let (oh, ow) = spec.output_hw(h, w);
    assert_eq!(
        src.len(),
        c * oh * ow,
        "avg_pool2d_backward_into gradient length mismatch"
    );
    assert_eq!(
        dst.len(),
        c * h * w,
        "avg_pool2d_backward_into output length mismatch"
    );
    dst.fill(0.0);
    let norm = 1.0 / (spec.window * spec.window) as f32;
    for ch in 0..c {
        for oy in 0..oh {
            for ox in 0..ow {
                let g = src[(ch * oh + oy) * ow + ox] * norm;
                for ky in 0..spec.window {
                    for kx in 0..spec.window {
                        let iy = oy * spec.stride + ky;
                        let ix = ox * spec.stride + kx;
                        dst[(ch * h + iy) * w + ix] += g;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Max-pools one `[c, h, w]` image; returns the pooled image and the
    /// argmax indices.
    fn max_pool(image: &[f32], c: usize, h: usize, w: usize) -> (Vec<f32>, Vec<usize>) {
        let spec = Pool2dSpec::new(2, 2);
        let (oh, ow) = spec.output_hw(h, w);
        let (mut out, mut argmax) = (vec![f32::NAN; c * oh * ow], vec![0; c * oh * ow]);
        max_pool2d_into(image, &mut out, &spec, c, h, w, Some(&mut argmax));
        (out, argmax)
    }

    /// Average-pools with a 2×2 window, stride 2.
    fn avg_pool(image: &[f32], c: usize, h: usize, w: usize) -> Vec<f32> {
        let mut out = vec![f32::NAN; image.len() / 4];
        avg_pool2d_into(image, &mut out, &Pool2dSpec::new(2, 2), c, h, w);
        out
    }

    /// Spreads output gradients back over 2×2 windows, stride 2.
    fn avg_backward(grad_out: &[f32], c: usize, h: usize, w: usize) -> Vec<f32> {
        let mut grad_in = vec![f32::NAN; c * h * w];
        avg_pool2d_backward_into(grad_out, &mut grad_in, &Pool2dSpec::new(2, 2), c, h, w);
        grad_in
    }

    #[test]
    fn max_pool_picks_window_maxima() {
        let img = [
            1.0, 2.0, 5.0, 3.0, 4.0, 0.0, 1.0, 2.0, 8.0, 7.0, 0.0, 1.0, 6.0, 5.0, 2.0, 3.0,
        ];
        let (out, argmax) = max_pool(&img, 1, 4, 4);
        assert_eq!(out, [4.0, 5.0, 8.0, 3.0]);
        // Positions of 4, 5, 8 and 3 in the flat input.
        assert_eq!(argmax, [4, 2, 8, 15]);
    }

    /// The `MaxPool2d` layer's backward routes each output gradient to the
    /// recorded index (its scatter is checked in tests/workspace_backward.rs):
    /// indices are flat over the whole `[C, H, W]` image, and a tie goes to
    /// the first maximum in row-major window order.
    #[test]
    fn max_pool_backward_routes_to_argmax() {
        let img = [1.0, 2.0, 3.0, 4.0, 7.0, 5.0, 7.0, 6.0]; // [2, 2, 2]
        let (out, argmax) = max_pool(&img, 2, 2, 2);
        assert_eq!(out, [4.0, 7.0]);
        assert_eq!(argmax, [3, 4]);
    }

    #[test]
    fn avg_pool_averages() {
        assert_eq!(avg_pool(&[1.0, 3.0, 5.0, 7.0], 1, 2, 2), [4.0]);
    }

    #[test]
    fn avg_pool_backward_spreads_uniformly() {
        assert_eq!(avg_backward(&[8.0], 1, 2, 2), [2.0, 2.0, 2.0, 2.0]);
    }

    #[test]
    fn avg_pool_backward_into_fully_overwrites_recycled_buffers() {
        // Non-overlapping 2×2 windows: every input cell gets exactly a
        // quarter of its window's gradient.
        let go: Vec<f32> = (0..8).map(|v| v as f32 * 0.5).collect();
        let grad_in = avg_backward(&go, 2, 4, 4); // starts as NaN garbage
        for (i, &g) in grad_in.iter().enumerate() {
            let (ch, y, x) = (i / 16, i / 4 % 4, i % 4);
            assert_eq!(g, go[(ch * 2 + y / 2) * 2 + x / 2] * 0.25, "cell {i}");
        }
    }

    #[test]
    fn pooling_gradient_conservation() {
        // Sum of input gradients equals sum of output gradients.
        let go = vec![1.0; 4];
        let total: f32 = go.iter().sum();
        assert!((avg_backward(&go, 1, 4, 4).iter().sum::<f32>() - total).abs() < 1e-6);
    }
}
