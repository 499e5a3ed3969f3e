//! `im2col`/`col2im` lowering for 2-D convolution.
//!
//! Convolution is lowered to a matrix product: a `[C, H, W]` image patch
//! matrix of shape `[C·kh·kw, OH·OW]` is built by [`im2col_into`],
//! multiplied by a `[OC, C·kh·kw]` weight matrix, and the backward pass
//! scatters gradients back with [`col2im_into`].
//!
//! With stride 1, both go through a zero-padded copy of each
//! `(sample, channel)` plane, `(H + 2p)×(W + 2p)` floats in a stack array
//! of [`PLANE`] floats (padding 0 uses the plane itself). Every output row
//! of a kernel tap `(ky, kx)` is then a plain run of `OW` floats of that
//! copy, with no bounds to clip and no zeros to fill: `im2col` copies the
//! runs out and `col2im` adds them into a zeroed copy, visiting the taps
//! in ascending `(ky, kx)`, then copies its interior back. LeNet's 3- and
//! 14-wide runs are copied with the width fixed at compile time, a few
//! register moves where a `memcpy` call per run cost more than the run.
//!
//! Other strides, and stride-1 planes whose padded copy would not fit,
//! work one row segment at a time: for each kernel tap `(c, ky, kx)` and
//! output row `oy`, the output columns whose input pixel lies inside the
//! image form one contiguous range, computed once; padding columns are
//! filled with zeros.
//!
//! Either way `col2im` adds each image element's contributions in
//! ascending `(ky, kx)`, the order of a per-element scatter over taps in
//! `(c, ky, kx)` order, so every path computes the same bits.
//!
//! Both take a sample count `n`: `n` images lower side by side into one
//! `[C·kh·kw, n·OH·OW]` matrix (sample `s` owns columns
//! `s·OH·OW .. (s+1)·OH·OW` of every row), so a convolution can multiply
//! a whole chunk of samples with one gemm. Each sample's column block is
//! exactly the single-image matrix, and each image gradient only gathers
//! from its own block, so batching changes no value.

use std::ops::Range;

use serde::{Deserialize, Serialize};

/// Floats in the stack copy of one zero-padded plane (8 KiB): the
/// stride-1 lowering takes its padded path while `(H + 2p)·(W + 2p)` fits.
const PLANE: usize = 2048;

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
    let image = spec.in_channels * h * w;
    assert_eq!(src.len(), n * image, "im2col_into image length mismatch");
    assert_eq!(
        dst.len(),
        spec.patch_len() * n * oh * ow,
        "im2col_into output length mismatch"
    );
    if n == 0 {
        return;
    }
    if padded_fits(spec, h, w) {
        im2col_padded(src, dst, spec, n, h, w);
    } else {
        im2col_segments(src, dst, spec, n, h, w);
    }
}

/// Whether a stride-1 lowering's zero-padded plane fits in [`PLANE`]
/// floats (padding 0 needs no copy).
fn padded_fits(spec: &Conv2dSpec, h: usize, w: usize) -> bool {
    let pad = spec.padding;
    spec.stride == 1 && (pad == 0 || (h + 2 * pad) * (w + 2 * pad) <= PLANE)
}

/// Calls `$f::<W>(args)` with `W = $ow` for LeNet's 3- and 14-float
/// rows, whose copies and add loops then compile to a few fixed-size
/// moves instead of a call per run, and with `W = 0` (the width read at
/// run time) otherwise. Only these two widths were measured to gain;
/// each width added here is one more copy of both loops.
macro_rules! by_run_width {
    ($ow:expr, $f:ident($($arg:expr),*)) => {
        match $ow {
            3 => $f::<3>($($arg),*),
            14 => $f::<14>($($arg),*),
            _ => $f::<0>($($arg),*),
        }
    };
}

/// The stride-1 `im2col` through a padded copy of each plane.
fn im2col_padded(src: &[f32], dst: &mut [f32], spec: &Conv2dSpec, n: usize, h: usize, w: usize) {
    let (oh, ow) = spec.output_hw(h, w);
    let (c, k, pad) = (spec.in_channels, spec.kernel, spec.padding);
    let (ohw, pw) = (oh * ow, w + 2 * pad);
    let mut buf = [0.0f32; PLANE];
    for s in 0..n {
        for ch in 0..c {
            let plane = &src[(s * c + ch) * h * w..][..h * w];
            let (padded, pw) = if pad == 0 {
                (plane, w)
            } else {
                // Only the interior is written, so the border stays zero.
                for y in 0..h {
                    buf[(y + pad) * pw + pad..][..w].copy_from_slice(&plane[y * w..][..w]);
                }
                (&buf[..], pw)
            };
            for tap in 0..k * k {
                let (ky, kx) = (tap / k, tap % k);
                let seg = &mut dst[((ch * k * k + tap) * n + s) * ohw..][..ohw];
                let from = &padded[ky * pw + kx..];
                by_run_width!(ow, copy_runs(seg, from, pw, ow));
            }
        }
    }
}

/// Copies the runs of `ow` floats that start `pw` apart in `from` to the
/// consecutive runs of `seg` (`W` is `ow`, or 0).
#[inline(always)]
fn copy_runs<const W: usize>(seg: &mut [f32], from: &[f32], pw: usize, ow: usize) {
    let ow = if W == 0 { ow } else { W };
    for (oy, run) in seg.chunks_exact_mut(ow).enumerate() {
        run.copy_from_slice(&from[oy * pw..][..ow]);
    }
}

/// Adds the consecutive runs of `ow` floats of `seg` into the runs that
/// start `pw` apart in `into` (`W` is `ow`, or 0).
#[inline(always)]
fn add_runs<const W: usize>(seg: &[f32], into: &mut [f32], pw: usize, ow: usize) {
    let ow = if W == 0 { ow } else { W };
    for (oy, run) in seg.chunks_exact(ow).enumerate() {
        for (d, &v) in into[oy * pw..][..ow].iter_mut().zip(run) {
            *d += v;
        }
    }
}

/// The general `im2col`, one clipped row segment at a time.
fn im2col_segments(src: &[f32], dst: &mut [f32], spec: &Conv2dSpec, n: usize, h: usize, w: usize) {
    let (oh, ow) = spec.output_hw(h, w);
    let k = spec.kernel;
    let image = spec.in_channels * h * w;
    let ncols = oh * ow;
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
                for (d, &v) in seg.iter_mut().zip(src_row.iter().step_by(spec.stride)) {
                    *d = v;
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
    let image = spec.in_channels * h * w;
    assert_eq!(
        src.len(),
        spec.patch_len() * n * oh * ow,
        "col2im_into patch matrix length mismatch"
    );
    assert_eq!(dst.len(), n * image, "col2im_into image length mismatch");
    if n == 0 {
        return;
    }
    if padded_fits(spec, h, w) {
        col2im_padded(src, dst, spec, n, h, w);
    } else {
        col2im_segments(src, dst, spec, n, h, w);
    }
}

/// The stride-1 `col2im`: each plane's taps add, in ascending `(ky, kx)`,
/// into a zeroed padded copy (the plane itself with padding 0), whose
/// interior is then copied out.
fn col2im_padded(src: &[f32], dst: &mut [f32], spec: &Conv2dSpec, n: usize, h: usize, w: usize) {
    let (oh, ow) = spec.output_hw(h, w);
    let (c, k, pad) = (spec.in_channels, spec.kernel, spec.padding);
    let (ohw, pw) = (oh * ow, w + 2 * pad);
    let mut buf = [0.0f32; PLANE];
    for s in 0..n {
        for ch in 0..c {
            let plane = &mut dst[(s * c + ch) * h * w..][..h * w];
            let (padded, pw) = if pad == 0 {
                (&mut *plane, w)
            } else {
                (&mut buf[..(h + 2 * pad) * pw], pw)
            };
            padded.fill(0.0);
            for tap in 0..k * k {
                let (ky, kx) = (tap / k, tap % k);
                let seg = &src[((ch * k * k + tap) * n + s) * ohw..][..ohw];
                let into = &mut padded[ky * pw + kx..];
                by_run_width!(ow, add_runs(seg, into, pw, ow));
            }
            if pad > 0 {
                for y in 0..h {
                    plane[y * w..][..w].copy_from_slice(&buf[(y + pad) * pw + pad..][..w]);
                }
            }
        }
    }
}

/// The general `col2im`, one clipped row segment at a time.
fn col2im_segments(src: &[f32], dst: &mut [f32], spec: &Conv2dSpec, n: usize, h: usize, w: usize) {
    let (oh, ow) = spec.output_hw(h, w);
    let k = spec.kernel;
    let image = spec.in_channels * h * w;
    let ncols = oh * ow;
    dst.fill(0.0);
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
                for (d, &v) in dst_row.iter_mut().step_by(spec.stride).zip(seg) {
                    *d += v;
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

    /// The padded path's limit sits where the stride-1 proptest around
    /// it expects: a `(h + 2p)×(w + 2p)` plane of exactly `PLANE` floats
    /// (32×64 or 64×32) fits, one more padded row does not; padding 0
    /// needs no copy, and other strides never take the path.
    #[test]
    fn padded_path_limit_is_one_plane_of_plane_floats() {
        assert_eq!(PLANE, 2048);
        for pad in 1..3 {
            let spec = Conv2dSpec::new(1, 1, 3, 1, pad);
            for pw in [32, 64] {
                assert!(padded_fits(&spec, PLANE / pw - 2 * pad, pw - 2 * pad));
                assert!(!padded_fits(&spec, PLANE / pw + 1 - 2 * pad, pw - 2 * pad));
            }
        }
        assert!(padded_fits(&Conv2dSpec::new(1, 1, 3, 1, 0), 100, 100));
        assert!(!padded_fits(&Conv2dSpec::new(1, 1, 3, 2, 1), 4, 4));
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
