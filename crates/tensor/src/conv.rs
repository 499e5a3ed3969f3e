//! `im2col`/`col2im` lowering for 2-D convolution.
//!
//! Convolution is lowered to a matrix product: a `[C, H, W]` image patch
//! matrix of shape `[C·kh·kw, OH·OW]` is built by [`im2col_into`],
//! multiplied by a `[OC, C·kh·kw]` weight matrix, and the backward pass
//! scatters gradients back with [`col2im_into`].
//!
//! With stride 1, both go through a zero-padded copy of each
//! `(sample, channel)` plane, `(H + 2p)×(W + 2p)` floats in a stack array
//! of [`PLANE`] floats of which only the part a plane uses is zeroed
//! (padding 0 uses the planes themselves). Every output row of a kernel
//! tap `(ky, kx)` is then a plain run of `OW` floats of that copy, with no
//! bounds to clip and no zeros to fill: `im2col` copies the runs out, and
//! `col2im` adds them into a zeroed copy (with padding 0, into the zeroed
//! planes), visiting each plane's taps in ascending `(ky, kx)`, then copies
//! the interior back. One call moves many runs at once: the `k` taps of a
//! kernel row, or with padding 0 the same tap of all `n` samples.
//!
//! A run moves in 128-bit vectors of four floats, one body for every run
//! width. A run of four or more ends with a vector that overlaps its
//! predecessor; a shorter run is one vector whose extra floats land on
//! runs written after it, or two overlapping pairs at the end of a
//! block. `col2im` adds whole vectors too: the lanes past a run's end add
//! `+0.0`, which leaves a sum that started at `+0.0` unchanged (NaN
//! payloads aside), so each float still gets exactly its contributions.
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

use std::mem::MaybeUninit;
use std::ops::Range;

use serde::{Deserialize, Serialize};

/// Floats in the stack copy of one zero-padded plane (8 KiB): the
/// stride-1 lowering takes its padded path while `(H + 2p)·(W + 2p)` fits.
const PLANE: usize = 2048;

/// Floats per vector move of a lowering run: one 128-bit register.
const LANES: usize = 4;

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

/// The stride-1 `im2col` through a padded copy of each plane. With
/// padding 0 every plane is its own copy, so each patch row lowers all
/// `n` samples in one call; otherwise each `(sample, channel)` plane is
/// copied into a zero-bordered stack plane first.
fn im2col_padded(src: &[f32], dst: &mut [f32], spec: &Conv2dSpec, n: usize, h: usize, w: usize) {
    let (oh, ow) = spec.output_hw(h, w);
    let (c, k, pad) = (spec.in_channels, spec.kernel, spec.padding);
    let (ohw, pw) = (oh * ow, w + 2 * pad);
    if pad == 0 {
        let runs = Runs {
            shape: [n, oh, ow],
            to: [ohw, ow],
            from: [c * h * w, w],
        };
        for row in 0..spec.patch_len() {
            let (ch, ky, kx) = (row / (k * k), row / k % k, row % k);
            let from = &src[(ch * h + ky) * w + kx..];
            move_runs(&mut dst[row * n * ohw..][..n * ohw], from, runs);
        }
        return;
    }
    let mut storage = [MaybeUninit::uninit(); PLANE];
    // Only the interior is written below, so the border stays zero.
    let buf = zeroed(&mut storage, (h + 2 * pad) * pw);
    let interior = Runs {
        shape: [1, h, w],
        to: [0, pw],
        from: [0, w],
    };
    // The `k` taps of one kernel row: tap `kx` reads the plane one float
    // further on than tap `kx - 1`, and writes the next patch row.
    let taps = Runs {
        shape: [k, oh, ow],
        to: [n * ohw, ow],
        from: [1, pw],
    };
    for s in 0..n {
        for ch in 0..c {
            let plane = &src[(s * c + ch) * h * w..][..h * w];
            move_runs(&mut buf[pad * pw + pad..], plane, interior);
            for ky in 0..k {
                let to = &mut dst[(((ch * k + ky) * k) * n + s) * ohw..];
                move_runs(to, &buf[ky * pw..], taps);
            }
        }
    }
}

/// The first `len` floats of `storage`, set to `+0.0`.
fn zeroed(storage: &mut [MaybeUninit<f32>], len: usize) -> &mut [f32] {
    let head = &mut storage[..len];
    for x in head.iter_mut() {
        x.write(0.0);
    }
    // SAFETY: every element of `head` was initialized just above, and
    // `MaybeUninit<f32>` has the size and alignment of `f32`.
    unsafe { &mut *(head as *mut [MaybeUninit<f32>] as *mut [f32]) }
}

/// Where the runs of one lowering step lie: `blocks` blocks of `rows`
/// runs of `len` floats each, run `(b, r)` starting at `b·block + r·row`
/// of its slice.
#[derive(Clone, Copy)]
struct Runs {
    /// `[blocks, rows, len]`.
    shape: [usize; 3],
    /// `[block, row]` steps in `to`.
    to: [usize; 2],
    /// `[block, row]` steps in `from`.
    from: [usize; 2],
}

impl Runs {
    /// Asserts that every run lies inside a `to` of `to_len` floats and a
    /// `from` of `from_len`, and returns how many leading rows still do
    /// with each run rounded up to whole `LANES`-float vectors.
    fn check(&self, to_len: usize, from_len: usize) -> usize {
        let [blocks, rows, len] = self.shape;
        // The end of run `(blocks - 1, r)` stretched to `len` floats, if
        // it lies inside a slice of `slice` floats.
        let ends_inside = |[block, row]: [usize; 2], r: usize, len: usize, slice: usize| {
            let end = (blocks - 1)
                .checked_mul(block)
                .and_then(|at| at.checked_add(r.checked_mul(row)?))
                .and_then(|at| at.checked_add(len));
            end.is_some_and(|end| end <= slice)
        };
        assert!(
            ends_inside(self.to, rows - 1, len, to_len),
            "run past the end of `to`"
        );
        assert!(
            ends_inside(self.from, rows - 1, len, from_len),
            "run past the end of `from`"
        );
        let wide = len.next_multiple_of(LANES);
        let fits = |&r: &usize| {
            ends_inside(self.to, r, wide, to_len) && ends_inside(self.from, r, wide, from_len)
        };
        (0..rows).rev().find(fits).map_or(0, |r| r + 1)
    }

    /// Calls `op` on the pointers at offset `at` of the runs in `rows` of
    /// every block, looping over the longer of the two innermost.
    #[inline(always)]
    fn sweep(
        &self,
        to: *mut f32,
        from: *const f32,
        rows: Range<usize>,
        at: usize,
        op: impl Fn(*mut f32, *const f32),
    ) {
        let to = to.wrapping_add(rows.start * self.to[1] + at);
        let from = from.wrapping_add(rows.start * self.from[1] + at);
        let mut loops = [
            (self.shape[0], self.to[0], self.from[0]),
            (rows.len(), self.to[1], self.from[1]),
        ];
        if loops[0].0 > loops[1].0 {
            loops.swap(0, 1);
        }
        let [(outer, to_outer, from_outer), (inner, to_inner, from_inner)] = loops;
        for i in 0..outer {
            let mut t = to.wrapping_add(i * to_outer);
            let mut f = from.wrapping_add(i * from_outer);
            for _ in 0..inner {
                op(t, f);
                t = t.wrapping_add(to_inner);
                f = f.wrapping_add(from_inner);
            }
        }
    }
}

/// Copies every run of `runs` from `from` to `to`.
///
/// A run of at least `LANES` floats moves in `LANES`-float vectors, the
/// last one overlapping its predecessor when the length is not a multiple
/// of `LANES`. A shorter run moves as one vector when the floats it writes
/// past its end belong to its block's next run, which is moved after it,
/// and otherwise as two overlapping pairs, or one float.
///
/// # Panics
///
/// Panics if a run lies past the end of either slice.
fn move_runs(to: &mut [f32], from: &[f32], runs: Runs) {
    if runs.shape.contains(&0) {
        return;
    }
    let fit = runs.check(to.len(), from.len());
    let [_, rows, len] = runs.shape;
    let (t, f) = (to.as_mut_ptr(), from.as_ptr());
    // SAFETY (every closure below): each moves `N` floats at an offset
    // `at` with `at + N <= len`, inside every run by `check`, or `LANES`
    // floats from the start of a run in the rows `check` found to fit.
    unsafe {
        if len >= LANES {
            let last = len - LANES;
            runs.sweep(t, f, 0..rows, 0, |t, f| {
                copy::<LANES>(t, f);
                copy::<LANES>(t.add(LANES.min(last)), f.add(LANES.min(last)));
                copy::<LANES>(t.add((2 * LANES).min(last)), f.add((2 * LANES).min(last)));
                for x in (3 * LANES..last).step_by(LANES) {
                    copy::<LANES>(t.add(x), f.add(x));
                }
                copy::<LANES>(t.add(last), f.add(last));
            });
            return;
        }
        // Rows whose vector ends inside its block, on later runs of it,
        // when the runs of a block are back to back in `to` and no later
        // block starts inside it.
        let inside = (rows * len)
            .checked_sub(LANES)
            .map_or(0, |room| room / len + 1);
        let wide = if runs.to[1] == len && (runs.shape[0] == 1 || runs.to[0] >= rows * len) {
            fit.min(inside)
        } else {
            0
        };
        runs.sweep(t, f, 0..wide, 0, |t, f| copy::<LANES>(t, f));
        if len >= 2 {
            runs.sweep(t, f, wide..rows, 0, |t, f| copy::<2>(t, f));
            runs.sweep(t, f, wide..rows, len - 2, |t, f| copy::<2>(t, f));
        } else {
            runs.sweep(t, f, wide..rows, 0, |t, f| copy::<1>(t, f));
        }
    }
}

/// Adds every run of `runs` of `from` into `to`: each float of `to` gets
/// one `+` per run that covers it.
///
/// Runs move in `LANES`-float vectors; the lanes of the last vector past
/// the run's end add `+0.0`, which leaves every value but `-0.0`
/// unchanged (and a sum that started at `+0.0` is never `-0.0`). The rows
/// whose vectors would leave either slice add one float at a time.
///
/// # Panics
///
/// Panics if a run lies past the end of either slice.
fn add_runs(to: &mut [f32], from: &[f32], runs: Runs) {
    if runs.shape.contains(&0) {
        return;
    }
    let fit = runs.check(to.len(), from.len());
    let [_, rows, len] = runs.shape;
    let (t, f) = (to.as_mut_ptr(), from.as_ptr());
    // The start of each run's last vector, and the lanes of it to add.
    let last = (len - 1) / LANES * LANES;
    let keep = lanes(0..len - last);
    // SAFETY: as in `move_runs`.
    unsafe {
        runs.sweep(t, f, 0..fit, 0, |t, f| {
            for x in (0..last).step_by(LANES) {
                add(t.add(x), f.add(x), [!0; LANES]);
            }
            add(t.add(last), f.add(last), keep);
        });
        runs.sweep(t, f, fit..rows, 0, |t, f| {
            for x in 0..len {
                add(t.add(x), f.add(x), [!0]);
            }
        });
    }
}

/// A lane mask that keeps the lanes in `keep`.
fn lanes(keep: Range<usize>) -> [u32; LANES] {
    std::array::from_fn(|lane| if keep.contains(&lane) { !0 } else { 0 })
}

/// Copies `N` floats from `from` to `to`.
///
/// # Safety
///
/// Both must be valid for `N` floats.
#[inline(always)]
unsafe fn copy<const N: usize>(to: *mut f32, from: *const f32) {
    // SAFETY: guaranteed by the caller.
    unsafe {
        to.cast::<[f32; N]>()
            .write_unaligned(from.cast::<[f32; N]>().read_unaligned())
    }
}

/// Adds the `N` floats at `from`, those of the lanes `keep` clears read as
/// `+0.0`, into the `N` at `to`.
///
/// # Safety
///
/// Both must be valid for `N` floats.
#[inline(always)]
unsafe fn add<const N: usize>(to: *mut f32, from: *const f32, keep: [u32; N]) {
    // SAFETY: guaranteed by the caller.
    unsafe {
        let v = from.cast::<[u32; N]>().read_unaligned();
        let mut sum = to.cast::<[f32; N]>().read_unaligned();
        for lane in 0..N {
            sum[lane] += f32::from_bits(v[lane] & keep[lane]);
        }
        to.cast::<[f32; N]>().write_unaligned(sum);
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
/// into a zeroed padded copy, whose interior is then copied out. With
/// padding 0 the planes are their own copies, all zeroed first, and each
/// patch row adds into all `n` samples in one call.
fn col2im_padded(src: &[f32], dst: &mut [f32], spec: &Conv2dSpec, n: usize, h: usize, w: usize) {
    let (oh, ow) = spec.output_hw(h, w);
    let (c, k, pad) = (spec.in_channels, spec.kernel, spec.padding);
    let (ohw, pw, ph) = (oh * ow, w + 2 * pad, h + 2 * pad);
    if pad == 0 {
        dst.fill(0.0);
        let runs = Runs {
            shape: [n, oh, ow],
            to: [c * h * w, w],
            from: [ohw, ow],
        };
        for row in 0..spec.patch_len() {
            let (ch, ky, kx) = (row / (k * k), row / k % k, row % k);
            add_runs(
                &mut dst[(ch * h + ky) * w + kx..],
                &src[row * n * ohw..],
                runs,
            );
        }
        return;
    }
    let mut storage = [MaybeUninit::uninit(); PLANE + LANES];
    // The `k` taps of one kernel row, as in `im2col_padded`; they add in
    // ascending `kx`, whichever loop `add_runs` puts innermost, since one
    // row of runs covers each plane float once per tap.
    let taps = Runs {
        shape: [k, oh, ow],
        to: [1, pw],
        from: [n * ohw, ow],
    };
    let interior = Runs {
        shape: [1, h, w],
        to: [0, w],
        from: [0, pw],
    };
    for s in 0..n {
        for ch in 0..c {
            // The headroom past the plane takes the `+0.0`s of wide adds.
            let buf = zeroed(&mut storage, ph * pw + LANES);
            for ky in 0..k {
                let from = &src[(((ch * k + ky) * k) * n + s) * ohw..];
                add_runs(&mut buf[ky * pw..], from, taps);
            }
            let plane = &mut dst[(s * c + ch) * h * w..][..h * w];
            move_runs(plane, &buf[pad * pw + pad..], interior);
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
