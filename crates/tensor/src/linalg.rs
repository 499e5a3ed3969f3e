//! Rank-2 matrix products, including the transposed variants used by
//! backpropagation and the allocation-free `_into` variants used by the
//! Monte-Carlo evaluation hot path.
//!
//! # One packed microkernel
//!
//! [`gemm_into`] (`A·B`), [`gemm_tn_into`] (`Aᵀ·B`) and [`gemm_nt_into`]
//! (`A·Bᵀ`) are one blocked kernel instantiated for three operand
//! layouts; they differ only in how they pack `B` and gather `A`:
//!
//! - `C` is cut into column blocks of `NR` columns. For each block and
//!   each K-chunk, the `B` values it needs are packed into a K-panel on
//!   the stack, `NR` contiguous floats per `k` (row copies for `nn`/`tn`,
//!   a transposing gather for `nt`; tail columns padded with zeros).
//! - An `MR×NR` tile of `C` then lives in locals (`MR·NR = 32` floats,
//!   eight SSE registers) while the kernel walks the panel, gathering the
//!   tile's `MR` values of `A` per `k` from rows (`nn`/`nt`) or a column
//!   run (`tn`). Narrow column tails get taller tiles — `1×32`, `2×16`,
//!   `2×12`, `4×8`, `8×4` — so every tile keeps several independent
//!   accumulator chains in flight.
//! - The partial sums of a tile go back through `C` between K-chunks
//!   (an `f32` store is exact), so the panel stays a fixed 4 KiB array
//!   and the kernel never allocates.
//!
//! # Per-element order invariant
//!
//! Every output element starts at `+0.0` and adds its `a·b` terms in
//! ascending `k`, each as a separate multiply then add — no fused
//! multiply-add, no reassociation, no split accumulators. Blocking only
//! changes *which* elements are in flight, never the order of additions
//! within one element, so all three layouts, and the allocating
//! [`Matmul`] wrappers, agree with a naive sequential triple loop down to
//! the last ULP (NaN payloads aside, which IEEE-754 leaves unspecified).
//!
//! There is no zero-skip. With a non-finite `B`, skipping `0.0·b` would
//! mask the NaN the product must carry — a zeroed weight or activation
//! would hide e.g. an overflowing activation under stuck-at-zero faults —
//! so a skip has to be gated on a finiteness scan of `B`; with that scan
//! included, the search over post-ReLU activations (about half zeros) ran
//! slower with the skip than without it.

use std::array::from_fn;

use crate::Tensor;

/// Floats in the packed `B` K-panel (a 4 KiB stack array): an `NR`-column
/// block packs up to `PANEL / NR` values of `k` per chunk.
const PANEL: usize = 1024;

/// One product's operands: `A` is `[m, k]` (`[k, m]` when `A_T`), `B` is
/// `[k, n]` (`[n, k]` when `B_T`), and the result is `[m, n]`.
#[derive(Clone, Copy)]
struct Operands<'a> {
    a: &'a [f32],
    b: &'a [f32],
    m: usize,
    k: usize,
    n: usize,
}

/// The kernel behind all three entry points: `C = op(A)·op(B)` with `c`
/// fully overwritten.
fn gemm<const A_T: bool, const B_T: bool>(
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    if k == 0 {
        c.fill(0.0);
        return;
    }
    let ops = Operands { a, b, m, k, n };
    let mut panel = [0.0f32; PANEL];
    let mut j0 = 0;
    while j0 < n {
        j0 += match n - j0 {
            32.. => column_block::<1, 32, A_T, B_T>(ops, c, j0, &mut panel),
            13..=31 => column_block::<2, 16, A_T, B_T>(ops, c, j0, &mut panel),
            9..=12 => column_block::<2, 12, A_T, B_T>(ops, c, j0, &mut panel),
            5..=8 => column_block::<4, 8, A_T, B_T>(ops, c, j0, &mut panel),
            _ => column_block::<8, 4, A_T, B_T>(ops, c, j0, &mut panel),
        };
    }
}

/// Computes columns `j0..j0 + NR` of `C` (clipped to `n`), one K-chunk
/// at a time, and returns `NR`.
#[inline(always)]
fn column_block<const MR: usize, const NR: usize, const A_T: bool, const B_T: bool>(
    ops: Operands<'_>,
    c: &mut [f32],
    j0: usize,
    panel: &mut [f32; PANEL],
) -> usize {
    let Operands { m, k, n, .. } = ops;
    let nr = NR.min(n - j0);
    let mut k0 = 0;
    while k0 < k {
        let kc = (PANEL / NR).min(k - k0);
        let bp = &mut panel[..kc * NR];
        pack_b::<NR, B_T>(ops, bp, k0, j0, nr);
        let bp = &*bp;
        let mut i0 = 0;
        while i0 < m {
            // A row tail repeats its last row; the copies are never stored.
            let mr = MR.min(m - i0);
            let rows: [usize; MR] = from_fn(|r| i0 + r.min(mr - 1));
            let mut acc = [[0.0f32; NR]; MR];
            if k0 > 0 {
                for (tile_row, &i) in acc.iter_mut().zip(&rows).take(mr) {
                    copy_row::<NR>(&c[i * n + j0..][..nr], &mut tile_row[..nr]);
                }
            }
            microkernel::<MR, NR, A_T>(ops, &rows, k0, bp, &mut acc);
            for (tile_row, &i) in acc.iter().zip(&rows).take(mr) {
                copy_row::<NR>(&tile_row[..nr], &mut c[i * n + j0..][..nr]);
            }
            i0 += MR;
        }
        k0 += kc;
    }
    NR
}

/// Packs `B[k0 .. k0 + kc, j0 .. j0 + nr]` into `bp` as `kc` runs of `NR`
/// floats, zero-padding columns `nr..NR`.
#[inline(always)]
fn pack_b<const NR: usize, const B_T: bool>(
    ops: Operands<'_>,
    bp: &mut [f32],
    k0: usize,
    j0: usize,
    nr: usize,
) {
    let Operands { b, k, n, .. } = ops;
    let kc = bp.len() / NR;
    if B_T {
        // `B` is `[n, k]`: column j of the block is the contiguous run
        // `b[j, k0..k0 + kc]`, scattered down the panel.
        if nr < NR {
            bp.fill(0.0);
        }
        for (jj, src) in b[j0 * k..].chunks(k).take(nr).enumerate() {
            for (dst, &v) in bp.chunks_exact_mut(NR).zip(&src[k0..k0 + kc]) {
                dst[jj] = v;
            }
        }
    } else {
        for (dst, src) in bp.chunks_exact_mut(NR).zip(b[k0 * n..].chunks(n)) {
            if nr == NR {
                dst.copy_from_slice(&src[j0..j0 + NR]);
            } else {
                for (jj, d) in dst.iter_mut().enumerate() {
                    *d = if jj < nr { src[j0 + jj] } else { 0.0 };
                }
            }
        }
    }
}

/// `acc[r][j] += A[rows[r], k0 + kk] · bp[kk][j]` for each `kk` of the
/// panel in ascending order, as a separate multiply then add.
#[inline(always)]
fn microkernel<const MR: usize, const NR: usize, const A_T: bool>(
    ops: Operands<'_>,
    rows: &[usize; MR],
    k0: usize,
    bp: &[f32],
    acc: &mut [[f32; NR]; MR],
) {
    let Operands { a, m, k, .. } = ops;
    let kc = bp.len() / NR;
    if A_T {
        // `A` is `[k, m]`: the tile's values for one `k` share a row.
        for (arow, brow) in a[k0 * m..][..kc * m]
            .chunks_exact(m)
            .zip(bp.chunks_exact(NR))
        {
            tile_update(acc, &from_fn(|r| arow[rows[r]]), brow);
        }
    } else {
        let arows: [&[f32]; MR] = from_fn(|r| &a[rows[r] * k + k0..][..kc]);
        for (kk, brow) in bp.chunks_exact(NR).enumerate() {
            tile_update(acc, &from_fn(|r| arows[r][kk]), brow);
        }
    }
}

/// One `k` step of the tile: `acc[r][j] += av[r] · brow[j]`.
///
/// Constant-range index loops (rather than iterator zips) let the
/// compiler keep the whole tile in registers.
#[inline(always)]
#[allow(clippy::needless_range_loop)]
fn tile_update<const MR: usize, const NR: usize>(
    acc: &mut [[f32; NR]; MR],
    av: &[f32; MR],
    brow: &[f32],
) {
    for r in 0..MR {
        for j in 0..NR {
            acc[r][j] += av[r] * brow[j];
        }
    }
}

/// Copies `src` into `dst` (equal lengths), with a fixed-size copy for a
/// full `NR`-wide row.
#[inline(always)]
fn copy_row<const NR: usize>(src: &[f32], dst: &mut [f32]) {
    match (
        <&[f32; NR]>::try_from(src),
        <&mut [f32; NR]>::try_from(&mut *dst),
    ) {
        (Ok(src), Ok(dst)) => *dst = *src,
        _ => dst.copy_from_slice(src),
    }
}

/// `C = A·B` on raw row-major slices: `[m, k] x [k, n] -> [m, n]`.
///
/// `c` is fully overwritten, so recycled scratch buffers can be passed
/// directly. This is the kernel behind both [`Matmul::matmul`] and
/// [`Matmul::matmul_into`]; layers that need to run on reshaped views
/// (e.g. a dense layer folding `[N, ...]` input to `[N, features]`) can
/// call it without materializing a rank-2 tensor.
///
/// # Panics
///
/// Panics if slice lengths disagree with `m`, `k`, `n`.
pub fn gemm_into(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    let _t = telemetry::Timer::start(telemetry::duration_histogram!("tensor_gemm_seconds"));
    assert_eq!(a.len(), m * k, "gemm_into lhs length mismatch");
    assert_eq!(b.len(), k * n, "gemm_into rhs length mismatch");
    assert_eq!(c.len(), m * n, "gemm_into output length mismatch");
    gemm::<false, false>(a, b, c, m, k, n);
}

/// `C = Aᵀ·B` on raw row-major slices: `[k, m] x [k, n] -> [m, n]`.
///
/// See [`gemm_into`] for overwrite and panic behaviour.
pub fn gemm_tn_into(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    let _t = telemetry::Timer::start(telemetry::duration_histogram!("tensor_gemm_seconds"));
    assert_eq!(a.len(), k * m, "gemm_tn_into lhs length mismatch");
    assert_eq!(b.len(), k * n, "gemm_tn_into rhs length mismatch");
    assert_eq!(c.len(), m * n, "gemm_tn_into output length mismatch");
    gemm::<true, false>(a, b, c, m, k, n);
}

/// `C = A·Bᵀ` on raw row-major slices: `[m, k] x [n, k] -> [m, n]`.
///
/// See [`gemm_into`] for overwrite and panic behaviour.
pub fn gemm_nt_into(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    let _t = telemetry::Timer::start(telemetry::duration_histogram!("tensor_gemm_seconds"));
    assert_eq!(a.len(), m * k, "gemm_nt_into lhs length mismatch");
    assert_eq!(b.len(), n * k, "gemm_nt_into rhs length mismatch");
    assert_eq!(c.len(), m * n, "gemm_nt_into output length mismatch");
    gemm::<false, true>(a, b, c, m, k, n);
}

/// Matrix-product operations on rank-2 tensors.
///
/// Implemented for [`Tensor`]; the trait exists so downstream crates can
/// write generic code over alternative matrix backends in tests. The
/// `_into` variants write into a caller-provided output tensor of the
/// correct shape, allowing scratch buffers to be reused across calls; they
/// are bit-identical to the allocating variants.
pub trait Matmul {
    /// `self @ other` for `[m, k] x [k, n] -> [m, n]`.
    fn matmul(&self, other: &Self) -> Self;
    /// `selfᵀ @ other` for `[k, m] x [k, n] -> [m, n]` without materializing
    /// the transpose.
    fn matmul_tn(&self, other: &Self) -> Self;
    /// `self @ otherᵀ` for `[m, k] x [n, k] -> [m, n]` without materializing
    /// the transpose.
    fn matmul_nt(&self, other: &Self) -> Self;
    /// [`Matmul::matmul`] writing into `out` (shape `[m, n]`), overwriting
    /// its contents without allocating.
    fn matmul_into(&self, other: &Self, out: &mut Self);
    /// [`Matmul::matmul_tn`] writing into `out` (shape `[m, n]`).
    fn matmul_tn_into(&self, other: &Self, out: &mut Self);
    /// [`Matmul::matmul_nt`] writing into `out` (shape `[m, n]`).
    fn matmul_nt_into(&self, other: &Self, out: &mut Self);
}

/// Validates rank-2 operands and returns `(m, k, n)` for the `nn` product.
fn nn_dims(a: &Tensor, b: &Tensor) -> (usize, usize, usize) {
    assert_eq!(a.rank(), 2, "matmul lhs must be rank 2");
    assert_eq!(b.rank(), 2, "matmul rhs must be rank 2");
    let (m, k) = (a.dims()[0], a.dims()[1]);
    let (k2, n) = (b.dims()[0], b.dims()[1]);
    assert_eq!(
        k,
        k2,
        "matmul inner dimension mismatch: {} vs {}",
        a.shape(),
        b.shape()
    );
    (m, k, n)
}

fn tn_dims(a: &Tensor, b: &Tensor) -> (usize, usize, usize) {
    assert_eq!(a.rank(), 2, "matmul_tn lhs must be rank 2");
    assert_eq!(b.rank(), 2, "matmul_tn rhs must be rank 2");
    let (k, m) = (a.dims()[0], a.dims()[1]);
    let (k2, n) = (b.dims()[0], b.dims()[1]);
    assert_eq!(k, k2, "matmul_tn leading dimension mismatch");
    (m, k, n)
}

fn nt_dims(a: &Tensor, b: &Tensor) -> (usize, usize, usize) {
    assert_eq!(a.rank(), 2, "matmul_nt lhs must be rank 2");
    assert_eq!(b.rank(), 2, "matmul_nt rhs must be rank 2");
    let (m, k) = (a.dims()[0], a.dims()[1]);
    let (n, k2) = (b.dims()[0], b.dims()[1]);
    assert_eq!(k, k2, "matmul_nt trailing dimension mismatch");
    (m, k, n)
}

fn check_out(out: &Tensor, m: usize, n: usize) {
    assert_eq!(
        out.dims(),
        &[m, n],
        "matmul output shape mismatch: {} vs [{m}, {n}]",
        out.shape()
    );
}

impl Matmul for Tensor {
    /// # Panics
    ///
    /// Panics if either operand is not rank 2 or the inner dimensions differ.
    fn matmul(&self, other: &Tensor) -> Tensor {
        let (m, k, n) = nn_dims(self, other);
        let mut out = Tensor::zeros(&[m, n]);
        gemm_into(
            self.as_slice(),
            other.as_slice(),
            out.as_mut_slice(),
            m,
            k,
            n,
        );
        out
    }

    /// # Panics
    ///
    /// Panics if either operand is not rank 2 or the shared leading
    /// dimensions differ.
    fn matmul_tn(&self, other: &Tensor) -> Tensor {
        let (m, k, n) = tn_dims(self, other);
        let mut out = Tensor::zeros(&[m, n]);
        gemm_tn_into(
            self.as_slice(),
            other.as_slice(),
            out.as_mut_slice(),
            m,
            k,
            n,
        );
        out
    }

    /// # Panics
    ///
    /// Panics if either operand is not rank 2 or the trailing dimensions
    /// differ.
    fn matmul_nt(&self, other: &Tensor) -> Tensor {
        let (m, k, n) = nt_dims(self, other);
        let mut out = Tensor::zeros(&[m, n]);
        gemm_nt_into(
            self.as_slice(),
            other.as_slice(),
            out.as_mut_slice(),
            m,
            k,
            n,
        );
        out
    }

    /// # Panics
    ///
    /// Panics like [`Matmul::matmul`], plus if `out` is not `[m, n]`.
    fn matmul_into(&self, other: &Tensor, out: &mut Tensor) {
        let (m, k, n) = nn_dims(self, other);
        check_out(out, m, n);
        gemm_into(
            self.as_slice(),
            other.as_slice(),
            out.as_mut_slice(),
            m,
            k,
            n,
        );
    }

    /// # Panics
    ///
    /// Panics like [`Matmul::matmul_tn`], plus if `out` is not `[m, n]`.
    fn matmul_tn_into(&self, other: &Tensor, out: &mut Tensor) {
        let (m, k, n) = tn_dims(self, other);
        check_out(out, m, n);
        gemm_tn_into(
            self.as_slice(),
            other.as_slice(),
            out.as_mut_slice(),
            m,
            k,
            n,
        );
    }

    /// # Panics
    ///
    /// Panics like [`Matmul::matmul_nt`], plus if `out` is not `[m, n]`.
    fn matmul_nt_into(&self, other: &Tensor, out: &mut Tensor) {
        let (m, k, n) = nt_dims(self, other);
        check_out(out, m, n);
        gemm_nt_into(
            self.as_slice(),
            other.as_slice(),
            out.as_mut_slice(),
            m,
            k,
            n,
        );
    }
}

/// Outer product of two rank-1 tensors: `[m] x [n] -> [m, n]`.
///
/// # Panics
///
/// Panics if either operand is not rank 1.
///
/// # Example
///
/// ```
/// use tensor::{outer, Tensor};
///
/// let u = Tensor::from_slice(&[1.0, 2.0]);
/// let v = Tensor::from_slice(&[3.0, 4.0]);
/// assert_eq!(outer(&u, &v).as_slice(), &[3.0, 4.0, 6.0, 8.0]);
/// ```
pub fn outer(u: &Tensor, v: &Tensor) -> Tensor {
    assert_eq!(u.rank(), 1, "outer lhs must be rank 1");
    assert_eq!(v.rank(), 1, "outer rhs must be rank 1");
    let (m, n) = (u.len(), v.len());
    let mut out = Tensor::zeros(&[m, n]);
    for i in 0..m {
        let ui = u.as_slice()[i];
        let row = &mut out.as_mut_slice()[i * n..(i + 1) * n];
        for (o, &vv) in row.iter_mut().zip(v.as_slice()) {
            *o = ui * vv;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_matches_hand_computation() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap();
        let b = Tensor::from_vec(vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0], &[3, 2]).unwrap();
        let c = a.matmul(&b);
        assert_eq!(c.dims(), &[2, 2]);
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn identity_is_neutral() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        assert_eq!(a.matmul(&Tensor::eye(2)).as_slice(), a.as_slice());
        assert_eq!(Tensor::eye(2).matmul(&a).as_slice(), a.as_slice());
    }

    #[test]
    fn transposed_variants_agree_with_explicit_transpose() {
        let a = Tensor::from_vec(vec![1.0, -2.0, 0.5, 3.0, 4.0, -1.0], &[3, 2]).unwrap();
        let b = Tensor::from_vec(vec![2.0, 1.0, 0.0, -1.0, 1.5, 2.5], &[3, 2]).unwrap();
        let tn = a.matmul_tn(&b);
        let expected = a.transposed().matmul(&b);
        for (x, y) in tn.as_slice().iter().zip(expected.as_slice()) {
            assert!((x - y).abs() < 1e-6);
        }

        let c = Tensor::from_vec(vec![1.0, 0.0, 2.0, -1.0], &[2, 2]).unwrap();
        let d = Tensor::from_vec(vec![2.0, 1.0, 0.0, -1.0, 1.5, 2.5], &[3, 2]).unwrap();
        let nt = c.matmul_nt(&d);
        let expected = c.matmul(&d.transposed());
        for (x, y) in nt.as_slice().iter().zip(expected.as_slice()) {
            assert!((x - y).abs() < 1e-6);
        }
    }

    #[test]
    #[should_panic(expected = "inner dimension mismatch")]
    fn matmul_rejects_mismatched_inner_dims() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[2, 2]);
        let _ = a.matmul(&b);
    }

    #[test]
    fn into_variants_are_bit_identical_to_allocating_ones() {
        // Dimensions straddling the tile widths exercise full and tail tiles.
        for (m, k, n) in [(1, 1, 1), (3, 5, 9), (8, 8, 8), (7, 17, 13), (9, 300, 45)] {
            let a = Tensor::from_vec(
                (0..m * k)
                    .map(|i| ((i * 37 % 19) as f32 - 9.0) * 0.37)
                    .collect(),
                &[m, k],
            )
            .unwrap();
            let b = Tensor::from_vec(
                (0..k * n)
                    .map(|i| ((i * 23 % 17) as f32 - 8.0) * 0.59)
                    .collect(),
                &[k, n],
            )
            .unwrap();
            let mut out = Tensor::full(&[m, n], f32::NAN); // into() must fully overwrite
            a.matmul_into(&b, &mut out);
            assert_eq!(out.as_slice(), a.matmul(&b).as_slice(), "nn {m}x{k}x{n}");

            let at = a.transposed(); // [k, m] stored transposed
            at.matmul_tn_into(&b, &mut out);
            assert_eq!(
                out.as_slice(),
                at.matmul_tn(&b).as_slice(),
                "tn {m}x{k}x{n}"
            );

            let bt = b.transposed(); // [n, k]
            a.matmul_nt_into(&bt, &mut out);
            assert_eq!(
                out.as_slice(),
                a.matmul_nt(&bt).as_slice(),
                "nt {m}x{k}x{n}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "output shape mismatch")]
    fn matmul_into_rejects_wrong_output_shape() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[3, 4]);
        let mut out = Tensor::zeros(&[2, 3]);
        a.matmul_into(&b, &mut out);
    }

    /// The three variants must agree on non-finite propagation: a zero in
    /// the left operand multiplied by NaN/±∞ in the right is NaN and must
    /// reach the output (IEEE `0.0 · NaN = NaN`).
    #[test]
    fn zero_times_non_finite_propagates_in_all_variants() {
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            // a has an exact zero in the position that meets the bad value.
            let a = Tensor::from_vec(vec![0.0, 1.0], &[1, 2]).unwrap();
            let b = Tensor::from_vec(vec![bad, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
            let nn = a.matmul(&b);
            assert!(nn.as_slice()[0].is_nan(), "matmul masked 0·{bad}");

            let at = a.transposed();
            let tn = at.matmul_tn(&b);
            assert!(tn.as_slice()[0].is_nan(), "matmul_tn masked 0·{bad}");

            let bt = b.transposed();
            let nt = a.matmul_nt(&bt);
            assert!(nt.as_slice()[0].is_nan(), "matmul_nt masked 0·{bad}");
        }
    }

    /// With a non-finite right operand the variants must agree elementwise,
    /// NaN positions included.
    #[test]
    fn variants_agree_elementwise_under_non_finite_inputs() {
        let a = Tensor::from_vec(vec![0.0, 1.0, -2.0, 0.0, 0.5, 0.0], &[2, 3]).unwrap();
        let b =
            Tensor::from_vec(vec![f32::NAN, 2.0, f32::INFINITY, -1.0, 0.0, 3.0], &[3, 2]).unwrap();
        let nn = a.matmul(&b);
        let tn = a.transposed().matmul_tn(&b);
        let nt = a.matmul_nt(&b.transposed());
        for ((&x, &y), &z) in nn.as_slice().iter().zip(tn.as_slice()).zip(nt.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits(), "nn vs tn disagree");
            assert_eq!(x.to_bits(), z.to_bits(), "nn vs nt disagree");
        }
    }

    /// NaN/±∞ in the *left* operand flows through the product too.
    #[test]
    fn non_finite_lhs_propagates() {
        let a = Tensor::from_vec(vec![f32::NAN, 0.0], &[1, 2]).unwrap();
        let b = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        assert!(a.matmul(&b).as_slice().iter().all(|v| v.is_nan()));
    }

    /// A sparse left operand (every third entry zero) gives the bits of
    /// the plain sequential loop.
    #[test]
    fn sparse_lhs_matches_dense_recomputation() {
        let a = Tensor::from_vec(
            (0..6 * 9)
                .map(|i| {
                    if i % 3 == 0 {
                        0.0
                    } else {
                        (i as f32 * 0.31).sin()
                    }
                })
                .collect(),
            &[6, 9],
        )
        .unwrap();
        let b = Tensor::from_vec(
            (0..9 * 11).map(|i| (i as f32 * 0.17).cos()).collect(),
            &[9, 11],
        )
        .unwrap();
        let fast = a.matmul(&b);
        // Dense reference: the same per-element order, zeros included.
        let (m, k, n) = (6, 9, 11);
        let mut dense = vec![0.0f32; m * n];
        for i in 0..m {
            for kk in 0..k {
                let aik = a.as_slice()[i * k + kk];
                for j in 0..n {
                    dense[i * n + j] += aik * b.as_slice()[kk * n + j];
                }
            }
        }
        for (x, y) in fast.as_slice().iter().zip(&dense) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn gemm_slices_handle_non_rank2_views() {
        // A [2, 2, 2] batch folded to [4, 2] without reshaping.
        let a: Vec<f32> = (0..8).map(|i| i as f32).collect();
        let b = [1.0f32, 0.0, 0.0, 1.0];
        let mut c = vec![f32::NAN; 8];
        gemm_into(&a, &b, &mut c, 4, 2, 2);
        assert_eq!(c, a);
    }

    #[test]
    fn outer_product() {
        let u = Tensor::from_slice(&[1.0, 2.0, 3.0]);
        let v = Tensor::from_slice(&[4.0, 5.0]);
        let o = outer(&u, &v);
        assert_eq!(o.dims(), &[3, 2]);
        assert_eq!(o.at(&[2, 1]), 15.0);
    }
}
