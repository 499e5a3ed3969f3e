//! Max 2-D pooling with a one-byte argmax tape for backpropagation.
//!
//! [`max_pool2d_into`] pools a whole batch of `[H, W]` planes (`N·C` of
//! them for an `[N, C, H, W]` tensor) in one call, and
//! [`max_pool2d_backward_into`] routes the output gradient back.
//!
//! # Order, ties and NaN
//!
//! Each window is scanned in row-major order from a running maximum of
//! −∞, and an element replaces it only when it compares greater
//! (`x > best`). So the first maximum in row-major window order wins, a
//! tie keeps the earlier element (`+0.0` after `-0.0` keeps `-0.0`), and
//! NaN never wins. A window with no element above −∞ (all NaN or −∞)
//! outputs −∞ and records its own first element, so its gradient stays
//! inside the window.
//!
//! # The tape
//!
//! With an argmax buffer, each output records where its maximum sits
//! inside its window, as the offset `ky·window + kx` in one byte; windows
//! are at most 16 wide, so every offset fits. The backward pass gives
//! each input element `0.0 + g` summed over the outputs that picked it, in
//! output order (`+0.0` where none did): the bits of zeroing the input
//! gradient and adding each output's gradient at its recorded element, so
//! a `-0.0` gradient lands as `+0.0`.
//!
//! # Kernels
//!
//! The 2×2 window at stride 2, the only pooling the model zoo builds, has
//! branch-free kernels: each of a window's four compares is a select, so
//! the random comparisons that follow ReLU and dropout cost no mispredicted
//! branches. The forward has a portable body and, on x86-64 CPUs that
//! report AVX-512F, a sixteen-lane body picked at run time; both make the
//! same selects in the same order, so they compute the same bits. The
//! sixteen-lane body packs consecutive output rows side by side, so rows
//! narrower than sixteen windows (LeNet's are 7 and 1) still fill its
//! lanes. Every other geometry runs one scalar loop over the same rule.
//!
//! The backward is one scalar loop for every geometry and CPU. A
//! sixteen-lane backward that wrote each window's four gradients at once
//! tied with it end to end: on an AVX-512F Xeon a LeNet benchmark run
//! took 0.1887 s with it and 0.1890 s without (the loop won 3 of 8
//! pairs), so it was retired.

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

    /// Whether this is the 2×2 window at stride 2 the vector kernels serve.
    fn is_two_by_two(&self) -> bool {
        (self.window, self.stride) == (2, 2)
    }
}

/// Widest window whose offsets fit in one byte.
const MAX_WINDOW: usize = 16;

/// Checks the geometry and the lengths of one pooling call's input (or
/// input gradient) and output (or output gradient).
fn check(spec: &Pool2dSpec, [planes, h, w]: [usize; 3], inputs: usize, outputs: usize) {
    assert!(
        spec.window <= MAX_WINDOW,
        "pooling window {} wider than {MAX_WINDOW}: its offsets would not fit in a byte",
        spec.window
    );
    let (oh, ow) = spec.output_hw(h, w);
    assert_eq!(inputs, planes * h * w, "max_pool2d image length mismatch");
    assert_eq!(
        outputs,
        planes * oh * ow,
        "max_pool2d output length mismatch"
    );
}

/// Max-pools `planes` `[h, w]` planes into a caller-provided buffer.
///
/// `src` holds the planes back to back (an `[N, C, H, W]` batch is
/// `N·C` planes); `dst` (`planes·OH·OW` elements) is fully overwritten,
/// so recycled scratch buffers can be passed directly. When `argmax` is
/// provided, each output's window offset is recorded in it (see the
/// module docs); eval-mode pooling passes `None`.
///
/// # Panics
///
/// Panics if any slice length disagrees with the geometry, or if the
/// window is wider than 16.
pub fn max_pool2d_into(
    src: &[f32],
    dst: &mut [f32],
    spec: &Pool2dSpec,
    planes: usize,
    h: usize,
    w: usize,
    argmax: Option<&mut [u8]>,
) {
    check(spec, [planes, h, w], src.len(), dst.len());
    if let Some(a) = &argmax {
        assert_eq!(a.len(), dst.len(), "max_pool2d argmax length mismatch");
    }
    if !spec.is_two_by_two() {
        scan(src, dst, argmax, spec, [planes, h, w]);
        return;
    }
    let body = Body::widest();
    // SAFETY: `widest` picks only a body whose features the CPU reported,
    // and the lengths were checked above.
    unsafe {
        match argmax {
            Some(tape) => body.pool::<true>(src, dst, tape, [planes, h, w]),
            None => body.pool::<false>(src, dst, &mut [], [planes, h, w]),
        }
    }
}

/// Routes `grad_out` back through a training forward's argmax tape.
///
/// `grad_in` (`planes·h·w` elements) is fully overwritten: each element
/// gets the bits of `0.0` plus the gradients of the outputs whose `argmax`
/// byte names it, added in output order.
///
/// # Panics
///
/// Panics if any slice length disagrees with the geometry, or if the
/// window is wider than 16.
pub fn max_pool2d_backward_into(
    grad_out: &[f32],
    argmax: &[u8],
    grad_in: &mut [f32],
    spec: &Pool2dSpec,
    planes: usize,
    h: usize,
    w: usize,
) {
    check(spec, [planes, h, w], grad_in.len(), grad_out.len());
    assert_eq!(
        argmax.len(),
        grad_out.len(),
        "max_pool2d argmax length mismatch"
    );
    scatter(grad_out, argmax, grad_in, spec, [planes, h, w]);
}

/// One step of a window scan: `x`, at window offset `k`, replaces the
/// running maximum only when it compares greater. Both updates are
/// selects, so the step has no branch.
#[inline(always)]
fn step(best: &mut f32, off: &mut u8, x: f32, k: u8) {
    let greater = x > *best;
    *best = if greater { x } else { *best };
    *off = if greater { k } else { *off };
}

/// The forward for any geometry, one window at a time.
fn scan(
    src: &[f32],
    dst: &mut [f32],
    mut argmax: Option<&mut [u8]>,
    spec: &Pool2dSpec,
    [planes, h, w]: [usize; 3],
) {
    let (oh, ow) = spec.output_hw(h, w);
    let window = spec.window;
    for plane in 0..planes {
        let image = &src[plane * h * w..][..h * w];
        for oy in 0..oh {
            let o = (plane * oh + oy) * ow;
            let rows = &image[oy * spec.stride * w..];
            for (ox, v) in dst[o..][..ow].iter_mut().enumerate() {
                let (mut best, mut off) = (f32::NEG_INFINITY, 0);
                for ky in 0..window {
                    let row = &rows[ky * w + ox * spec.stride..][..window];
                    for (kx, &x) in row.iter().enumerate() {
                        step(&mut best, &mut off, x, (ky * window + kx) as u8);
                    }
                }
                *v = best;
                if let Some(a) = argmax.as_deref_mut() {
                    a[o + ox] = off;
                }
            }
        }
    }
}

/// The backward: zeroes `grad_in`, then adds each output's gradient at
/// its recorded element, in output order.
fn scatter(
    grad_out: &[f32],
    argmax: &[u8],
    grad_in: &mut [f32],
    spec: &Pool2dSpec,
    [planes, h, w]: [usize; 3],
) {
    let (oh, ow) = spec.output_hw(h, w);
    // Each window offset's distance from the window's first element.
    let mut delta = [0usize; MAX_WINDOW * MAX_WINDOW];
    for (k, d) in delta[..spec.window * spec.window].iter_mut().enumerate() {
        *d = k / spec.window * w + k % spec.window;
    }
    grad_in.fill(0.0);
    for plane in 0..planes {
        let image = &mut grad_in[plane * h * w..][..h * w];
        for oy in 0..oh {
            let o = (plane * oh + oy) * ow;
            let row = &mut image[oy * spec.stride * w..];
            let outputs = grad_out[o..][..ow].iter().zip(&argmax[o..][..ow]);
            for (ox, (&g, &off)) in outputs.enumerate() {
                row[ox * spec.stride + delta[usize::from(off)]] += g;
            }
        }
    }
}

/// The 2×2, stride-2 forward's bodies, narrowest first.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Body {
    /// Scalar selects, for any CPU.
    Portable,
    /// Sixteen outputs per step in 512-bit registers: AVX-512F.
    #[cfg(target_arch = "x86_64")]
    Avx512,
}

impl Body {
    /// The bodies the CPU has the features of, narrowest first.
    fn supported() -> impl Iterator<Item = Body> {
        #[cfg(target_arch = "x86_64")]
        let wide = std::arch::is_x86_feature_detected!("avx512f").then_some(Body::Avx512);
        #[cfg(not(target_arch = "x86_64"))]
        let wide = None;
        std::iter::once(Body::Portable).chain(wide)
    }

    /// The widest body the CPU runs: the one [`max_pool2d_into`] dispatches
    /// to.
    fn widest() -> Body {
        Body::supported().last().unwrap_or(Body::Portable)
    }

    /// Pools `planes` `[h, w]` planes with 2×2 windows at stride 2,
    /// recording each output's window offset into `tape` when `TAPE`.
    ///
    /// # Safety
    ///
    /// The CPU must have the body's features ([`Body::supported`]), `src`
    /// must hold `planes·h·w` floats, `dst` `planes·⌊h/2⌋·⌊w/2⌋`, and
    /// `tape` as many bytes as `dst` has floats when `TAPE`.
    unsafe fn pool<const TAPE: bool>(
        self,
        src: &[f32],
        dst: &mut [f32],
        tape: &mut [u8],
        geometry: [usize; 3],
    ) {
        match self {
            Body::Portable => portable::<TAPE>(src, dst, tape, geometry),
            // SAFETY: the caller guarantees AVX-512F and the lengths.
            #[cfg(target_arch = "x86_64")]
            Body::Avx512 => unsafe { avx512::pool::<TAPE>(src, dst, tape, geometry) },
        }
    }
}

/// The portable body: one window at a time, four selecting steps each.
fn portable<const TAPE: bool>(
    src: &[f32],
    dst: &mut [f32],
    tape: &mut [u8],
    [planes, h, w]: [usize; 3],
) {
    let (oh, ow) = (h / 2, w / 2);
    for plane in 0..planes {
        for oy in 0..oh {
            let top = &src[(plane * h + 2 * oy) * w..][..2 * ow];
            let bottom = &src[(plane * h + 2 * oy + 1) * w..][..2 * ow];
            let o = (plane * oh + oy) * ow;
            let out = &mut dst[o..][..ow];
            let pairs = top.chunks_exact(2).zip(bottom.chunks_exact(2));
            for (ox, (t, b)) in pairs.enumerate() {
                let (mut best, mut off) = (f32::NEG_INFINITY, 0);
                for (k, x) in [t[0], t[1], b[0], b[1]].into_iter().enumerate() {
                    step(&mut best, &mut off, x, k as u8);
                }
                out[ox] = best;
                if TAPE {
                    tape[o + ox] = off;
                }
            }
        }
    }
}

/// The sixteen-lane forward. A step handles up to sixteen consecutive
/// windows, one lane each: a few whole output rows side by side when rows
/// have at most sixteen windows, else sixteen windows of one row. Each
/// of a step's rows is a run of floats in each of its two input rows, and
/// `Walk` places the runs in a pair of registers per input row (32 lanes,
/// two per window): the kernel loads the runs and permutes the pairs into
/// a window's four elements.
#[cfg(target_arch = "x86_64")]
mod avx512 {
    use std::arch::x86_64::*;

    /// Windows per step.
    const LANES: usize = 16;

    /// The first `n` lanes (`n ≤ 16`).
    fn lanes(n: usize) -> __mmask16 {
        ((1u32 << n) - 1) as __mmask16
    }

    /// Consecutive output rows whose windows one step handles.
    struct Step {
        /// The index of the step's first output.
        out: usize,
        /// Input index of the first row's first window's top-left element.
        top: usize,
        /// Rows in the step, each [`Walk::stride`] input elements after
        /// the last.
        rows: usize,
        /// Windows per row.
        len: usize,
    }

    /// How one call walks its windows: its steps, and where a step's rows
    /// sit in a register pair. Rows of `width ≤ 8` windows fill each
    /// register with `⌊16 / 2·width⌋` of them, and a wider row spans both
    /// registers.
    struct Walk {
        geometry: [usize; 3],
        /// Input elements between consecutive rows of a step.
        stride: usize,
        /// Rows per step.
        rows: usize,
        /// Each row's first lane of the pair's 32.
        start: [usize; LANES],
        /// The lane of each window's left element (its right one is next).
        left: __m512i,
    }

    impl Walk {
        #[target_feature(enable = "avx512f")]
        fn new(geometry: [usize; 3]) -> Walk {
            let [_, h, w] = geometry;
            let width = (w / 2).min(LANES);
            assert!(width > 0, "a row of at least one window");
            let per_register = LANES / (2 * width);
            let rows = (2 * per_register).max(1);
            let mut start = [0; LANES];
            let mut left = [0i32; LANES];
            for (j, s) in start[..rows].iter_mut().enumerate() {
                *s = match per_register {
                    0 => 0,
                    p => LANES * (j / p) + 2 * width * (j % p),
                };
                for x in 0..width {
                    left[j * width + x] = (*s + 2 * x) as i32;
                }
            }
            Walk {
                geometry,
                // Output rows are evenly spaced through the whole batch
                // when each plane has one of them; otherwise they are `2w`
                // apart within a plane.
                stride: if h / 2 == 1 { h * w } else { 2 * w },
                rows,
                start,
                // SAFETY: `left` holds the sixteen `i32`s loaded.
                left: unsafe { _mm512_loadu_si512(left.as_ptr().cast()) },
            }
        }

        /// Calls `f` on every step, in output order.
        #[inline(always)]
        fn steps(&self, mut f: impl FnMut(Step)) {
            let [planes, h, w] = self.geometry;
            let (oh, ow) = (h / 2, w / 2);
            // A plane's odd last row breaks the spacing between planes
            // unless the plane has a single output row.
            let (spans, rows) = match h % 2 == 0 || oh == 1 {
                true => (1, planes * oh),
                false => (planes, oh),
            };
            let mut out = 0;
            for span in 0..spans {
                let mut r = 0;
                while r < rows {
                    let top = span * h * w + r * self.stride;
                    let step_rows = self.rows.min(rows - r);
                    let mut ox = 0;
                    while ox < ow {
                        let len = (ow - ox).min(LANES);
                        f(Step {
                            out,
                            top: top + 2 * ox,
                            rows: step_rows,
                            len,
                        });
                        out += step_rows * len;
                        ox += len;
                    }
                    r += step_rows;
                }
            }
        }

        /// The input elements a step's rows span from its `top`.
        fn extent(&self, step: &Step) -> usize {
            (step.rows - 1) * self.stride + self.geometry[2] + 2 * step.len
        }

        /// The masks of row `j`'s `2·len` floats in a step's pair.
        fn masks(&self, j: usize, len: usize) -> [__mmask16; 2] {
            let bits = ((1u64 << (2 * len)) - 1) << self.start[j];
            [bits as __mmask16, (bits >> LANES) as __mmask16]
        }
    }

    /// [`super::Body::pool`] on sixteen lanes.
    ///
    /// # Safety
    ///
    /// The running CPU must support AVX-512F, and the lengths must be as
    /// [`super::Body::pool`] requires.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn pool<const TAPE: bool>(
        src: &[f32],
        dst: &mut [f32],
        tape: &mut [u8],
        geometry: [usize; 3],
    ) {
        let walk = Walk::new(geometry);
        let w = geometry[2];
        let right = _mm512_add_epi32(walk.left, _mm512_set1_epi32(1));
        walk.steps(|step| {
            let region = &src[step.top..][..walk.extent(&step)];
            let mut top = [_mm512_setzero_ps(); 2];
            let mut bottom = top;
            for j in 0..step.rows {
                // The pair's lane `start + i` reads element `i` of row
                // `j`'s run.
                let run = region.as_ptr().wrapping_add(j * walk.stride);
                let base = run.wrapping_sub(walk.start[j]);
                for (half, mask) in walk.masks(j, step.len).into_iter().enumerate() {
                    let at = base.wrapping_add(half * LANES);
                    // SAFETY: a masked load reads only its mask's lanes,
                    // here the row's runs in its two input rows, which lie
                    // in `region`; the masked-off lanes do not fault.
                    unsafe {
                        top[half] = _mm512_mask_loadu_ps(top[half], mask, at);
                        bottom[half] = _mm512_mask_loadu_ps(bottom[half], mask, at.wrapping_add(w));
                    }
                }
            }
            let [a, c] = [top, bottom].map(|[lo, hi]| _mm512_permutex2var_ps(lo, walk.left, hi));
            let [b, d] = [top, bottom].map(|[lo, hi]| _mm512_permutex2var_ps(lo, right, hi));
            let mut best = _mm512_set1_ps(f32::NEG_INFINITY);
            let mut off = _mm512_setzero_si512();
            for (k, x) in [a, b, c, d].into_iter().enumerate() {
                let greater = _mm512_cmp_ps_mask::<_CMP_GT_OQ>(x, best);
                best = _mm512_mask_mov_ps(best, greater, x);
                off = _mm512_mask_mov_epi32(off, greater, _mm512_set1_epi32(k as i32));
            }
            let n = step.rows * step.len;
            let out = &mut dst[step.out..][..n];
            // SAFETY: `out` holds the `n` floats stored.
            unsafe { _mm512_mask_storeu_ps(out.as_mut_ptr(), lanes(n), best) };
            if TAPE {
                let offsets = &mut tape[step.out..][..n];
                // SAFETY: `offsets` holds the `n` bytes stored.
                unsafe {
                    _mm512_mask_cvtepi32_storeu_epi8(offsets.as_mut_ptr().cast(), lanes(n), off)
                };
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    /// The branchy window scan the kernels replaced, kept as their
    /// oracle: outputs and the flat index of each maximum over all
    /// `planes`. It differs from the replaced loop only where a window
    /// has no element above −∞: the loop recorded index 0 of the image,
    /// and this records the window's own first element.
    fn oracle(
        src: &[f32],
        spec: &Pool2dSpec,
        planes: usize,
        h: usize,
        w: usize,
    ) -> (Vec<f32>, Vec<usize>) {
        let (oh, ow) = spec.output_hw(h, w);
        let (mut out, mut argmax) = (Vec::new(), Vec::new());
        for ch in 0..planes {
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut best = f32::NEG_INFINITY;
                    let mut best_idx = (ch * h + oy * spec.stride) * w + ox * spec.stride;
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
                    out.push(best);
                    argmax.push(best_idx);
                }
            }
        }
        (out, argmax)
    }

    /// The flat input index each recorded window offset names.
    fn flat(argmax: &[u8], spec: &Pool2dSpec, planes: usize, h: usize, w: usize) -> Vec<usize> {
        let (oh, ow) = spec.output_hw(h, w);
        let k = spec.window;
        (0..planes * oh * ow)
            .map(|o| {
                let (ch, oy, ox) = (o / (oh * ow), o / ow % oh, o % ow);
                let off = usize::from(argmax[o]);
                (ch * h + oy * spec.stride + off / k) * w + ox * spec.stride + off % k
            })
            .collect()
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Values heavy in ties and special cases: both zeros, NaN, ±∞,
    /// subnormals of both signs and a few repeated finite values.
    const PALETTE: [f32; 12] = [
        0.0,
        -0.0,
        1.0,
        1.0,
        -1.0,
        2.5,
        f32::NAN,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::from_bits(1),
        -1.0e-40,
        -2.5,
    ];

    /// `len` palette values from a 64-bit LCG seeded with `seed`.
    fn values(len: usize, seed: u64) -> Vec<f32> {
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        (0..len)
            .map(|_| {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                PALETTE[(state >> 33) as usize % PALETTE.len()]
            })
            .collect()
    }

    /// Checks the dispatched entry point and, for 2×2 windows at stride
    /// 2, every forward body the CPU runs, with and without a tape, into
    /// dirty buffers against the oracle; then the backward against the
    /// old zero-fill-and-scatter through the oracle's flat indices.
    fn check(spec: Pool2dSpec, planes: usize, h: usize, w: usize, seed: u64) {
        let src = values(planes * h * w, seed);
        let (want, want_idx) = oracle(&src, &spec, planes, h, w);
        let label = format!("{h}x{w}, {planes} planes, window {spec:?}, seed {seed}");
        let (mut out, mut tape) = (vec![f32::NAN; want.len()], vec![0xa5u8; want.len()]);
        max_pool2d_into(&src, &mut out, &spec, planes, h, w, Some(&mut tape));
        assert_eq!(bits(&out), bits(&want), "values, {label}");
        assert_eq!(
            flat(&tape, &spec, planes, h, w),
            want_idx,
            "argmax, {label}"
        );
        out.fill(f32::NAN);
        max_pool2d_into(&src, &mut out, &spec, planes, h, w, None);
        assert_eq!(bits(&out), bits(&want), "values without a tape, {label}");
        if spec == Pool2dSpec::new(2, 2) {
            for body in Body::supported() {
                out.fill(f32::NAN);
                tape.fill(0xa5);
                // SAFETY: `supported` lists only bodies the CPU runs, and
                // the buffers have the lengths the geometry needs.
                unsafe { body.pool::<true>(&src, &mut out, &mut tape, [planes, h, w]) };
                assert_eq!(bits(&out), bits(&want), "{body:?} values, {label}");
                let idx = flat(&tape, &spec, planes, h, w);
                assert_eq!(idx, want_idx, "{body:?} argmax, {label}");
                out.fill(f32::NAN);
                // SAFETY: as above; no tape is written.
                unsafe { body.pool::<false>(&src, &mut out, &mut [], [planes, h, w]) };
                assert_eq!(bits(&out), bits(&want), "{body:?} without a tape, {label}");
            }
        }

        let grad = values(want.len(), seed + 1);
        let mut want_grad = vec![0.0f32; src.len()];
        for (&g, &idx) in grad.iter().zip(&want_idx) {
            want_grad[idx] += g;
        }
        let mut grad_in = vec![f32::NAN; src.len()];
        max_pool2d_backward_into(&grad, &tape, &mut grad_in, &spec, planes, h, w);
        assert_eq!(bits(&grad_in), bits(&want_grad), "backward, {label}");
    }

    /// Every 2×2 body against the oracle on every odd and even plane size
    /// from 2×2 to 33×33, LeNet's two pools on a batch of 32, and rows
    /// wider than one step.
    #[test]
    fn two_by_two_bodies_match_the_branchy_scan_bit_for_bit() {
        let spec = Pool2dSpec::new(2, 2);
        for h in 2..=33 {
            for w in 2..=33 {
                check(spec, 3, h, w, (h * 64 + w) as u64);
            }
        }
        check(spec, 32 * 6, 14, 14, 1);
        check(spec, 32 * 16, 3, 3, 2);
        // Rows of more than sixteen windows, split into steps.
        for (h, w) in [(2, 34), (3, 35), (5, 66), (4, 100)] {
            check(spec, 2, h, w, (h * 128 + w) as u64);
        }
    }

    proptest! {
        /// Any window up to 4 at any stride up to 4, on any plane size up
        /// to 33 and up to three planes.
        #[test]
        fn any_geometry_matches_the_branchy_scan(
            window in 1usize..5,
            stride in 1usize..5,
            h in 0usize..30,
            w in 0usize..30,
            planes in 1usize..4,
            seed in 0u64..1_000_000,
        ) {
            let (h, w) = (window + h, window + w);
            check(Pool2dSpec::new(window, stride), planes, h, w, seed);
        }
    }

    #[test]
    fn max_pool_picks_window_maxima() {
        let img = [
            1.0, 2.0, 5.0, 3.0, 4.0, 0.0, 1.0, 2.0, 8.0, 7.0, 0.0, 1.0, 6.0, 5.0, 2.0, 3.0,
        ];
        let (mut out, mut argmax) = ([0.0; 4], [0; 4]);
        max_pool2d_into(
            &img,
            &mut out,
            &Pool2dSpec::new(2, 2),
            1,
            4,
            4,
            Some(&mut argmax),
        );
        assert_eq!(out, [4.0, 5.0, 8.0, 3.0]);
        // 4 bottom-left, 5 top-left, 8 top-left and 3 bottom-right.
        assert_eq!(argmax, [2, 0, 0, 3]);
    }

    /// The backward routes each output's gradient to its recorded element,
    /// plane by plane; a tie goes to the first maximum in row-major window
    /// order.
    #[test]
    fn max_pool_backward_routes_to_argmax() {
        let img = [1.0, 2.0, 3.0, 4.0, 7.0, 5.0, 7.0, 6.0]; // [2, 2, 2]
        let spec = Pool2dSpec::new(2, 2);
        let (mut out, mut argmax) = ([0.0; 2], [9; 2]);
        max_pool2d_into(&img, &mut out, &spec, 2, 2, 2, Some(&mut argmax));
        assert_eq!(out, [4.0, 7.0]);
        assert_eq!(argmax, [3, 0]);
        let mut grad_in = [f32::NAN; 8];
        max_pool2d_backward_into(&[1.0, 2.0], &argmax, &mut grad_in, &spec, 2, 2, 2);
        assert_eq!(grad_in, [0.0, 0.0, 0.0, 1.0, 2.0, 0.0, 0.0, 0.0]);
    }

    /// A window with nothing above −∞ outputs −∞ and sends its gradient
    /// to its own first element, not to the image's.
    #[test]
    fn degenerate_windows_keep_their_gradient_inside_the_window() {
        let (nan, ninf) = (f32::NAN, f32::NEG_INFINITY);
        let img = [1.0, 2.0, nan, ninf, 3.0, 4.0, nan, nan]; // [1, 2, 4]
        let spec = Pool2dSpec::new(2, 2);
        let (mut out, mut argmax) = ([0.0; 2], [9; 2]);
        max_pool2d_into(&img, &mut out, &spec, 1, 2, 4, Some(&mut argmax));
        assert_eq!(out, [4.0, ninf]);
        assert_eq!(argmax, [3, 0]);
        let mut grad_in = [nan; 8];
        max_pool2d_backward_into(&[1.0, 2.0], &argmax, &mut grad_in, &spec, 1, 2, 4);
        assert_eq!(grad_in, [0.0, 0.0, 2.0, 0.0, 0.0, 1.0, 0.0, 0.0]);
    }
}
