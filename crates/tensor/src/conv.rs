//! `im2col`/`col2im` lowering for 2-D convolution.
//!
//! Convolution is lowered to a matrix product: a `[C, H, W]` image patch
//! matrix of shape `[C·kh·kw, OH·OW]` is built by [`im2col_into`],
//! multiplied by a `[OC, C·kh·kw]` weight matrix, and the backward pass
//! scatters gradients back with [`col2im_into`].
//!
//! Both work one row segment at a time: for each kernel tap `(c, ky, kx)`
//! and output row `oy`, the output columns whose input pixel lies inside
//! the image form one contiguous range, computed once. With stride 1 that
//! range is a single slice copy (`im2col`) or a single add loop
//! (`col2im`); padding columns are filled with zeros. `col2im` visits taps
//! in the same `(c, ky, kx)` order as a per-element scatter, so every
//! image element accumulates its contributions in ascending `(ky, kx)`.
//!
//! Both take a sample count `n`: `n` images lower side by side into one
//! `[C·kh·kw, n·OH·OW]` matrix (sample `s` owns columns
//! `s·OH·OW .. (s+1)·OH·OW` of every row), so a convolution can multiply
//! a whole chunk of samples with one gemm. Each sample's column block is
//! exactly the single-image matrix, and each image gradient only gathers
//! from its own block, so batching changes no value.

use std::ops::Range;

use serde::{Deserialize, Serialize};

/// Static description of a 2-D convolution (or pooling) geometry.
///
/// # Example
///
/// ```
/// use tensor::Conv2dSpec;
///
/// let spec = Conv2dSpec::new(3, 16, 3, 1, 1);
/// assert_eq!(spec.output_hw(32, 32), (32, 32));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Conv2dSpec {
    /// Input channel count.
    pub in_channels: usize,
    /// Output channel count.
    pub out_channels: usize,
    /// Square kernel side length.
    pub kernel: usize,
    /// Stride in both spatial dimensions.
    pub stride: usize,
    /// Zero padding in both spatial dimensions.
    pub padding: usize,
}

impl Conv2dSpec {
    /// Creates a convolution spec with a square kernel.
    ///
    /// # Panics
    ///
    /// Panics if `kernel` or `stride` is zero.
    pub fn new(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
    ) -> Self {
        assert!(kernel > 0, "kernel must be positive");
        assert!(stride > 0, "stride must be positive");
        Conv2dSpec {
            in_channels,
            out_channels,
            kernel,
            stride,
            padding,
        }
    }

    /// Output spatial size for an `h`×`w` input.
    ///
    /// # Panics
    ///
    /// Panics if the padded input is smaller than the kernel.
    pub fn output_hw(&self, h: usize, w: usize) -> (usize, usize) {
        let ph = h + 2 * self.padding;
        let pw = w + 2 * self.padding;
        assert!(
            ph >= self.kernel && pw >= self.kernel,
            "padded input {ph}x{pw} smaller than kernel {}",
            self.kernel
        );
        (
            (ph - self.kernel) / self.stride + 1,
            (pw - self.kernel) / self.stride + 1,
        )
    }

    /// Rows of the patch matrix: `C·kh·kw`.
    pub fn patch_len(&self) -> usize {
        self.in_channels * self.kernel * self.kernel
    }

    /// The outputs `o` in `0..outputs` whose input coordinate
    /// `o·stride + tap − padding` lies inside `0..len`, for kernel offset
    /// `tap` along an axis of `len` inputs.
    fn valid_outputs(&self, tap: usize, len: usize, outputs: usize) -> Range<usize> {
        let (stride, pad) = (self.stride, self.padding);
        // o·stride + tap ≥ pad  ⇔  o ≥ ⌈(pad − tap) / stride⌉
        let lo = pad.saturating_sub(tap).div_ceil(stride).min(outputs);
        // o·stride + tap < len + pad  ⇔  o < ⌈(len + pad − tap) / stride⌉
        let hi = (len + pad)
            .saturating_sub(tap)
            .div_ceil(stride)
            .min(outputs);
        lo..hi.max(lo)
    }
}

/// Lowers `n` `[C, H, W]` images to a `[C·kh·kw, n·OH·OW]` patch matrix,
/// writing into a caller-provided buffer.
///
/// `src` is `n` consecutive `[C, H, W]` images (`n·C·h·w` elements);
/// `dst` must hold `patch_len() · n·OH·OW` elements, laid out as
/// `[patch_len(), n·OH·OW]` with sample `s` in columns
/// `s·OH·OW .. (s+1)·OH·OW`. It is fully overwritten (zero padding
/// included), so recycled scratch buffers can be passed directly.
///
/// # Panics
///
/// Panics if either slice length disagrees with the geometry.
pub fn im2col_into(src: &[f32], dst: &mut [f32], spec: &Conv2dSpec, n: usize, h: usize, w: usize) {
    let _t = telemetry::Timer::start(telemetry::duration_histogram!("tensor_im2col_seconds"));
    let (oh, ow) = spec.output_hw(h, w);
    let k = spec.kernel;
    let image = spec.in_channels * h * w;
    assert_eq!(src.len(), n * image, "im2col_into image length mismatch");
    assert_eq!(
        dst.len(),
        spec.patch_len() * n * oh * ow,
        "im2col_into output length mismatch"
    );
    let ncols = oh * ow;
    if n == 0 {
        return;
    }
    for (row, dst_row) in dst.chunks_exact_mut(n * ncols).enumerate() {
        let (c, ky, kx) = (row / (k * k), row / k % k, row % k);
        let ys = spec.valid_outputs(ky, h, oh);
        let xs = spec.valid_outputs(kx, w, ow);
        for (s, dst_seg) in dst_row.chunks_exact_mut(ncols).enumerate() {
            let plane = &src[s * image + c * h * w..][..h * w];
            dst_seg[..ys.start * ow].fill(0.0);
            dst_seg[ys.end * ow..].fill(0.0);
            for oy in ys.start..ys.end {
                let seg = &mut dst_seg[oy * ow..][..ow];
                seg[..xs.start].fill(0.0);
                seg[xs.end..].fill(0.0);
                if xs.is_empty() {
                    continue;
                }
                let iy = oy * spec.stride + ky - spec.padding;
                let ix0 = xs.start * spec.stride + kx - spec.padding;
                let src_row = &plane[iy * w..][ix0..w];
                let seg = &mut seg[xs.start..xs.end];
                if spec.stride == 1 {
                    seg.copy_from_slice(&src_row[..seg.len()]);
                } else {
                    for (d, &v) in seg.iter_mut().zip(src_row.iter().step_by(spec.stride)) {
                        *d = v;
                    }
                }
            }
        }
    }
}

/// Scatters a `[C·kh·kw, n·OH·OW]` patch-gradient matrix back to `n`
/// `[C, H, W]` image gradients (the adjoint of [`im2col_into`]), writing
/// into a caller-provided buffer.
///
/// `src` is in the [`im2col_into`] layout; `dst` (`n·C·h·w` elements, `n`
/// consecutive images) is zeroed and then scatter-accumulated into, so
/// recycled scratch buffers can be passed directly.
///
/// # Panics
///
/// Panics if either slice length disagrees with the geometry.
pub fn col2im_into(src: &[f32], dst: &mut [f32], spec: &Conv2dSpec, n: usize, h: usize, w: usize) {
    let _t = telemetry::Timer::start(telemetry::duration_histogram!("tensor_col2im_seconds"));
    let (oh, ow) = spec.output_hw(h, w);
    let k = spec.kernel;
    let image = spec.in_channels * h * w;
    assert_eq!(
        src.len(),
        spec.patch_len() * n * oh * ow,
        "col2im_into patch matrix length mismatch"
    );
    assert_eq!(dst.len(), n * image, "col2im_into image length mismatch");
    dst.fill(0.0);
    let ncols = oh * ow;
    if n == 0 {
        return;
    }
    for (row, src_row) in src.chunks_exact(n * ncols).enumerate() {
        let (c, ky, kx) = (row / (k * k), row / k % k, row % k);
        let xs = spec.valid_outputs(kx, w, ow);
        if xs.is_empty() {
            continue;
        }
        let ix0 = xs.start * spec.stride + kx - spec.padding;
        for (s, src_seg) in src_row.chunks_exact(ncols).enumerate() {
            let plane = &mut dst[s * image + c * h * w..][..h * w];
            for oy in spec.valid_outputs(ky, h, oh) {
                let iy = oy * spec.stride + ky - spec.padding;
                let seg = &src_seg[oy * ow..][xs.start..xs.end];
                let dst_row = &mut plane[iy * w..][ix0..w];
                if spec.stride == 1 {
                    for (d, &v) in dst_row.iter_mut().zip(seg) {
                        *d += v;
                    }
                } else {
                    for (d, &v) in dst_row.iter_mut().step_by(spec.stride).zip(seg) {
                        *d += v;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn output_hw_formula() {
        let spec = Conv2dSpec::new(1, 1, 3, 1, 0);
        assert_eq!(spec.output_hw(5, 5), (3, 3));
        let spec = Conv2dSpec::new(1, 1, 3, 1, 1);
        assert_eq!(spec.output_hw(5, 5), (5, 5));
        let spec = Conv2dSpec::new(1, 1, 2, 2, 0);
        assert_eq!(spec.output_hw(4, 4), (2, 2));
    }

    /// One image's patch matrix.
    fn im2col(image: &[f32], spec: &Conv2dSpec, h: usize, w: usize) -> Vec<f32> {
        let (oh, ow) = spec.output_hw(h, w);
        let mut col = vec![f32::NAN; spec.patch_len() * oh * ow];
        im2col_into(image, &mut col, spec, 1, h, w);
        col
    }

    /// The per-element scatter `col2im_into` must reproduce: taps in
    /// `(c, ky, kx)` order, outputs in `(oy, ox)` order.
    fn naive_col2im(col: &[f32], spec: &Conv2dSpec, h: usize, w: usize) -> Vec<f32> {
        let (oh, ow) = spec.output_hw(h, w);
        let k = spec.kernel;
        let mut image = vec![0.0f32; spec.in_channels * h * w];
        for (row, src) in col.chunks_exact(oh * ow).enumerate() {
            let (c, ky, kx) = (row / (k * k), row / k % k, row % k);
            for (o, &v) in src.iter().enumerate() {
                let iy = (o / ow * spec.stride + ky).checked_sub(spec.padding);
                let ix = (o % ow * spec.stride + kx).checked_sub(spec.padding);
                if let (Some(iy), Some(ix)) = (iy, ix) {
                    if iy < h && ix < w {
                        image[(c * h + iy) * w + ix] += v;
                    }
                }
            }
        }
        image
    }

    #[test]
    fn im2col_identity_kernel() {
        // A 1x1 kernel with stride 1 should reproduce the image as one row.
        let img = [1.0, 2.0, 3.0, 4.0];
        let spec = Conv2dSpec::new(1, 1, 1, 1, 0);
        assert_eq!(im2col(&img, &spec, 2, 2), img);
    }

    #[test]
    fn im2col_extracts_patches() {
        // 3x3 image, 2x2 kernel, stride 1: 4 patches.
        let img: Vec<f32> = (1..=9).map(|v| v as f32).collect();
        let spec = Conv2dSpec::new(1, 1, 2, 1, 0);
        let col = im2col(&img, &spec, 3, 3);
        assert_eq!(col.len(), 4 * 4);
        // First patch (top-left) down the first column: 1, 2, 4, 5.
        assert_eq!([col[0], col[4], col[8], col[12]], [1.0, 2.0, 4.0, 5.0]);
        // Last patch (bottom-right): 5, 6, 8, 9.
        assert_eq!([col[3], col[7], col[11], col[15]], [5.0, 6.0, 8.0, 9.0]);
    }

    #[test]
    fn im2col_zero_pads() {
        let spec = Conv2dSpec::new(1, 1, 3, 1, 1);
        let col = im2col(&[1.0], &spec, 1, 1);
        // Only the center tap sees the pixel.
        assert_eq!(col, [0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn col2im_into_fully_overwrites_recycled_buffers() {
        let spec = Conv2dSpec::new(2, 1, 3, 2, 1);
        let (h, w) = (5, 4);
        let (oh, ow) = spec.output_hw(h, w);
        let col: Vec<f32> = (0..spec.patch_len() * oh * ow)
            .map(|i| (i as f32 * 0.23).sin())
            .collect();
        let mut dst = vec![f32::NAN; 2 * h * w]; // stale garbage must vanish
        col2im_into(&col, &mut dst, &spec, 1, h, w);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&dst), bits(&naive_col2im(&col, &spec, h, w)));
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // <im2col(x), y> == <x, col2im(y)> for random-ish x, y.
        let spec = Conv2dSpec::new(2, 1, 3, 2, 1);
        let (h, w) = (5, 4);
        let x: Vec<f32> = (0..2 * h * w).map(|i| (i as f32 * 0.37).sin()).collect();
        let (oh, ow) = spec.output_hw(h, w);
        let y: Vec<f32> = (0..spec.patch_len() * oh * ow)
            .map(|i| (i as f32 * 0.11).cos())
            .collect();
        let mut image = vec![0.0; x.len()];
        col2im_into(&y, &mut image, &spec, 1, h, w);
        let dot = |u: &[f32], v: &[f32]| u.iter().zip(v).map(|(a, b)| a * b).sum::<f32>();
        let (lhs, rhs) = (dot(&im2col(&x, &spec, h, w), &y), dot(&x, &image));
        assert!((lhs - rhs).abs() < 1e-3, "adjoint mismatch: {lhs} vs {rhs}");
    }
}
