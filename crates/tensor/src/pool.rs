//! Max 2-D pooling with the index bookkeeping needed for backpropagation.

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
}
