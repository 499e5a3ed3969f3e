//! Rank-2 matrix products on raw row-major slices: `A·B`, and the
//! transposed variants `Aᵀ·B` and `A·Bᵀ` that backpropagation needs. They
//! write into caller-provided buffers and never allocate.
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
//!   a transposing gather for `nt`, four rows at a time as SSE 4×4
//!   transposes on x86_64; tail columns padded with zeros).
//! - An `MR×NR` tile of `C` then lives in locals while the kernel walks
//!   the panel, gathering the tile's `MR` values of `A` per `k` from rows
//!   (`nn`/`nt`) or a column run (`tn`).
//! - The partial sums of a tile go back through `C` between K-chunks
//!   (an `f32` store is exact), so the panel stays a fixed 4 KiB array
//!   and the kernel never allocates.
//!
//! # Two tile tables
//!
//! A tile's accumulators are independent add chains, and an add has a
//! latency of several cycles, so a tile needs about eight chains in
//! flight to issue one vector add per cycle (Goto & van de Geijn,
//! "Anatomy of High-Performance Matrix Multiplication", 2008). The one
//! tile walker is compiled twice, each with its own table of `MR×NR`
//! tile shapes by the number of columns left:
//!
//! - The 128-bit table: 1×32 for ≥ 32 columns, 2×16 for 13–31, 2×12 for
//!   9–12, 4×8 for 5–8 and 8×4 below. Every tile is 32 floats, eight SSE
//!   registers. It is the only path on targets other than x86_64 and on
//!   x86_64 CPUs without AVX2.
//! - The 256-bit table: 2×32 for ≥ 32 columns, 4×16 for 16–31, 8×8 for
//!   8–15 and 8×4 below. It is compiled with AVX2 enabled and chosen at
//!   run time when the CPU reports AVX2, AVX-512F CPUs included. Its tiles
//!   hold eight 8-lane accumulators (64 floats): the 1×32 tile would be
//!   only four 256-bit chains and bound by add latency. Its 8×4 tail tile
//!   is eight 4-lane chains, as in the 128-bit table.
//!
//! A third table, compiled with AVX-512F (2×64 and 4×32 tiles of eight
//! 16-lane accumulators from 32 columns on), lost to the 256-bit one end to
//! end on an AVX-512F Xeon: with it off, a benchmark run of the MLP
//! search went 0.0646 → 0.0633 s (won 9 of 10 pairs), of the LeNet search
//! 0.1936 → 0.1875 s (won 10 of 10), and the campaign tied (0.0884 →
//! 0.0875 s, won 12 of 20), with the same bits. So it was retired: the
//! 256-bit table's 2×32 tile already keeps eight add chains in flight.
//!
//! No table enables `fma`, and no tile adds with one: a fused
//! multiply-add rounds once where a multiply then an add round twice, so
//! it would change the bits.
//!
//! # Per-element order invariant
//!
//! Every output element starts at `+0.0` and adds its `a·b` terms in
//! ascending `k`, each as a separate multiply then add — no fused
//! multiply-add, no reassociation, no split accumulators. Blocking and the
//! tile table only change *which* elements are in flight, never the order
//! of additions within one element, so all three layouts and both tables
//! agree with a naive sequential triple loop down to the last ULP (NaN
//! payloads aside, which IEEE-754 leaves unspecified).
//!
//! There is no zero-skip. With a non-finite `B`, skipping `0.0·b` would
//! mask the NaN the product must carry — a zeroed weight or activation
//! would hide e.g. an overflowing activation under stuck-at-zero faults —
//! so a skip has to be gated on a finiteness scan of `B`; with that scan
//! included, the search over post-ReLU activations (about half zeros) ran
//! slower with the skip than without it.
//!
//! # The accumulating mode
//!
//! [`gemm_nt_acc_into`] computes `C += Σ_s A_s·B_sᵀ` over `segments`
//! equal runs of `k`, for a convolution chunk's weight gradient (one
//! segment per sample); [`gemm_tn_acc_into`] computes `C += Aᵀ·B`, one
//! segment, for a dense layer's. They are a const-generic mode of the
//! same tile walker, with one rounding rule on top of the invariant
//! above: each segment's sum of each element starts at `+0.0` and adds
//! its terms in ascending `k`, and is then added into `C` once, segment
//! after segment. That is the bits of a `gemm_*_into` per segment into
//! scratch, each followed by an add loop, without the scratch, the copies
//! of strided operands, or the second pass.
//!
//! A K-chunk never crosses a segment end. Between the K-chunks of one
//! segment a tile's partial sums wait in a second 4 KiB stack array (an
//! `f32` store is exact), since `C` holds the earlier segments' sum; that
//! array holds `PANEL / NR` rows, so such segments walk the rows in bands
//! of that many. Every row tile of a column block shares one `B` pack per
//! K-chunk of each segment (per band). The overwriting mode keeps its
//! own K-chunk loop over all rows, so the mode adds no work to it.

use std::array::from_fn;
use std::ops::Range;

/// Floats in the packed `B` K-panel (a 4 KiB stack array): an `NR`-column
/// block packs up to `PANEL / NR` values of `k` per chunk.
const PANEL: usize = 1024;

/// One product's operands: `A` is `[m, k]` (`[k, m]` when `A_T`), `B` is
/// `[k, n]` (`[n, k]` when `B_T`), and the result is `[m, n]`. The `k`
/// range is cut into segments of `seg` values (`seg = k` outside the
/// accumulating mode).
#[derive(Clone, Copy)]
struct Operands<'a> {
    a: &'a [f32],
    b: &'a [f32],
    m: usize,
    k: usize,
    n: usize,
    seg: usize,
}

/// The kernel behind every entry point, on the widest tile table the CPU
/// runs: `C = op(A)·op(B)` with `c` fully overwritten, or with `ACC`,
/// `C += ` each segment's product in turn.
fn gemm<const A_T: bool, const B_T: bool, const ACC: bool>(ops: Operands<'_>, c: &mut [f32]) {
    if ops.k == 0 {
        // An empty sum is `+0.0`, and the accumulating mode still adds it.
        if ACC {
            c.iter_mut().for_each(|v| *v += 0.0);
        } else {
            c.fill(0.0);
        }
        return;
    }
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: `is_x86_feature_detected!("avx2")` just confirmed that
        // the running CPU supports every instruction this AVX2 build uses.
        unsafe { gemm_avx2::<A_T, B_T, ACC>(ops, c) };
        return;
    }
    gemm_portable::<A_T, B_T, ACC>(ops, c);
}

/// The 128-bit tile table (see the module docs), for any CPU.
fn gemm_portable<const A_T: bool, const B_T: bool, const ACC: bool>(
    ops: Operands<'_>,
    c: &mut [f32],
) {
    walk_tiles::<128, A_T, B_T, ACC>(ops, c);
}

/// The 256-bit tile table (see the module docs).
///
/// # Safety
///
/// The running CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn gemm_avx2<const A_T: bool, const B_T: bool, const ACC: bool>(
    ops: Operands<'_>,
    c: &mut [f32],
) {
    walk_tiles::<256, A_T, B_T, ACC>(ops, c);
}

/// Walks `C` in column blocks, each as wide as the table's tile for the
/// remaining columns; `BITS` (128 or 256) picks the table. Inlined
/// into every entry point, so each compiles it for its own instruction
/// set.
#[inline(always)]
fn walk_tiles<const BITS: u32, const A_T: bool, const B_T: bool, const ACC: bool>(
    ops: Operands<'_>,
    c: &mut [f32],
) {
    let mut panel = [0.0f32; PANEL];
    let mut part = [0.0f32; PANEL];
    let mut j0 = 0;
    while j0 < ops.n {
        let bufs = (&mut panel, &mut part);
        j0 += match (BITS, ops.n - j0) {
            (256, 32..) => column_block::<2, 32, A_T, B_T, ACC>(ops, c, j0, bufs),
            (256, 16..=31) => column_block::<4, 16, A_T, B_T, ACC>(ops, c, j0, bufs),
            (256, 8..=15) => column_block::<8, 8, A_T, B_T, ACC>(ops, c, j0, bufs),
            (128, 32..) => column_block::<1, 32, A_T, B_T, ACC>(ops, c, j0, bufs),
            (128, 13..=31) => column_block::<2, 16, A_T, B_T, ACC>(ops, c, j0, bufs),
            (128, 9..=12) => column_block::<2, 12, A_T, B_T, ACC>(ops, c, j0, bufs),
            (128, 5..=8) => column_block::<4, 8, A_T, B_T, ACC>(ops, c, j0, bufs),
            _ => column_block::<8, 4, A_T, B_T, ACC>(ops, c, j0, bufs),
        };
    }
}

/// Computes columns `j0..j0 + NR` of `C` (clipped to `n`), one K-chunk
/// at a time, and returns `NR`.
///
/// Between the K-chunks of a product a tile's partial sums wait in `C`.
/// With `ACC`, a K-chunk never crosses a segment end, and partial sums
/// wait in `part` instead (`C` still holds the earlier segments' sum
/// there). `part` holds `PANEL / NR` rows, so a segment longer than one
/// K-chunk walks the rows in bands of that many, packing `B` once per
/// band; otherwise every row tile shares one pack per K-chunk.
#[inline(always)]
fn column_block<
    const MR: usize,
    const NR: usize,
    const A_T: bool,
    const B_T: bool,
    const ACC: bool,
>(
    ops: Operands<'_>,
    c: &mut [f32],
    j0: usize,
    (panel, part): (&mut [f32; PANEL], &mut [f32; PANEL]),
) -> usize {
    let Operands { m, k, n, seg, .. } = ops;
    let nr = NR.min(n - j0);
    let depth = PANEL / NR;
    if !ACC {
        let mut k0 = 0;
        while k0 < k {
            let kc = depth.min(k - k0);
            let bp = &mut panel[..kc * NR];
            pack_b::<NR, B_T>(ops, bp, k0, j0, nr);
            row_tiles::<MR, NR, A_T, false>(ops, c, part, bp, (j0, k0), 0..m, (k0 == 0, false));
            k0 += kc;
        }
        return NR;
    }
    // Rows per band: all of them unless partial sums must be parked.
    let band = if seg > depth {
        depth / MR * MR
    } else {
        m.max(1)
    };
    for b0 in (0..m).step_by(band) {
        for s0 in (0..k).step_by(seg) {
            let mut k0 = s0;
            while k0 < s0 + seg {
                let kc = depth.min(s0 + seg - k0);
                let bp = &mut panel[..kc * NR];
                pack_b::<NR, B_T>(ops, bp, k0, j0, nr);
                let (first, last) = (k0 == s0, k0 + kc == s0 + seg);
                let rows = b0..m.min(b0 + band);
                row_tiles::<MR, NR, A_T, true>(ops, c, part, bp, (j0, k0), rows, (first, last));
                k0 += kc;
            }
        }
    }
    NR
}

/// Runs the `MR`-row tiles of `rows` over the packed K-chunk `bp` that
/// starts at `k0`, for columns `j0..j0 + NR` of `C` (clipped to `n`).
///
/// A tile starts at zero on a product's (with `ACC`, a segment's) `first`
/// chunk and otherwise from its partial sums. It then stores its sums
/// back to `C`, or with `ACC` parks them in `part` (indexed from the
/// first of `rows`) until the segment's `last` chunk adds them into `C`.
#[inline(always)]
fn row_tiles<const MR: usize, const NR: usize, const A_T: bool, const ACC: bool>(
    ops: Operands<'_>,
    c: &mut [f32],
    part: &mut [f32; PANEL],
    bp: &[f32],
    (j0, k0): (usize, usize),
    rows: Range<usize>,
    (first, last): (bool, bool),
) {
    let n = ops.n;
    let nr = NR.min(n - j0);
    let parked = |i: usize| (i - rows.start) * NR;
    let mut i0 = rows.start;
    while i0 < rows.end {
        // A row tail repeats its last row; the copies are never stored.
        let mr = MR.min(rows.end - i0);
        let tile: [usize; MR] = from_fn(|r| i0 + r.min(mr - 1));
        let mut acc = [[0.0f32; NR]; MR];
        if !first {
            for (tile_row, &i) in acc.iter_mut().zip(&tile).take(mr) {
                let saved = if ACC {
                    &part[parked(i)..][..nr]
                } else {
                    &c[i * n + j0..][..nr]
                };
                copy_row::<NR>(saved, &mut tile_row[..nr]);
            }
        }
        microkernel::<MR, NR, A_T>(ops, &tile, k0, bp, &mut acc);
        for (tile_row, &i) in acc.iter().zip(&tile).take(mr) {
            let tile_row = &tile_row[..nr];
            if !ACC {
                copy_row::<NR>(tile_row, &mut c[i * n + j0..][..nr]);
            } else if last {
                for (d, &v) in c[i * n + j0..][..nr].iter_mut().zip(tile_row) {
                    *d += v;
                }
            } else {
                copy_row::<NR>(tile_row, &mut part[parked(i)..][..nr]);
            }
        }
        i0 += MR;
    }
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
        let run = |jj: usize| &b[(j0 + jj) * k + k0..][..kc];
        // Columns in fours as SSE transposes on x86_64, the rest one by one.
        let fours = if cfg!(target_arch = "x86_64") {
            nr / 4
        } else {
            0
        };
        #[cfg(target_arch = "x86_64")]
        for jj in (0..fours).map(|q| 4 * q) {
            transpose_runs4(
                [run(jj), run(jj + 1), run(jj + 2), run(jj + 3)],
                &mut bp[jj..],
                NR,
            );
        }
        for jj in 4 * fours..nr {
            for (dst, &v) in bp.chunks_exact_mut(NR).zip(run(jj)) {
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

/// Writes `runs[q][kk]` to `dst[kk·stride + q]`: four equal runs of `B`
/// into four adjacent panel columns, four values of `k` at a time as one
/// SSE 4×4 transpose (SSE is part of every x86_64 CPU), which stores a
/// panel row's four values at once.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn transpose_runs4(runs: [&[f32]; 4], dst: &mut [f32], stride: usize) {
    use std::arch::x86_64::{
        _mm_loadu_ps, _mm_movehl_ps, _mm_movelh_ps, _mm_storeu_ps, _mm_unpackhi_ps, _mm_unpacklo_ps,
    };
    let len = runs[0].len();
    let mut kk = 0;
    while kk + 4 <= len {
        // SAFETY: every x86_64 CPU has SSE, and each load and store below
        // touches exactly the four floats of a slice bounds-checked to
        // that length.
        unsafe {
            let [r0, r1, r2, r3] = runs.map(|run| _mm_loadu_ps(run[kk..kk + 4].as_ptr()));
            let (lo01, lo23) = (_mm_unpacklo_ps(r0, r1), _mm_unpacklo_ps(r2, r3));
            let (hi01, hi23) = (_mm_unpackhi_ps(r0, r1), _mm_unpackhi_ps(r2, r3));
            let columns = [
                _mm_movelh_ps(lo01, lo23),
                _mm_movehl_ps(lo23, lo01),
                _mm_movelh_ps(hi01, hi23),
                _mm_movehl_ps(hi23, hi01),
            ];
            for (x, v) in columns.into_iter().enumerate() {
                _mm_storeu_ps(dst[(kk + x) * stride..][..4].as_mut_ptr(), v);
            }
        }
        kk += 4;
    }
    for kk in kk..len {
        for (q, run) in runs.iter().enumerate() {
            dst[kk * stride + q] = run[kk];
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
/// directly. Working on slices lets layers run on reshaped views (e.g. a
/// dense layer folding `[N, ...]` input to `[N, features]`) without
/// materializing a rank-2 tensor.
///
/// # Panics
///
/// Panics if slice lengths disagree with `m`, `k`, `n`.
pub fn gemm_into(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    let _t = telemetry::Timer::start(telemetry::duration_histogram!("tensor_gemm_seconds"));
    assert_eq!(a.len(), m * k, "gemm_into lhs length mismatch");
    assert_eq!(b.len(), k * n, "gemm_into rhs length mismatch");
    assert_eq!(c.len(), m * n, "gemm_into output length mismatch");
    gemm::<false, false, false>(
        Operands {
            a,
            b,
            m,
            k,
            n,
            seg: k,
        },
        c,
    );
}

/// `C = Aᵀ·B` on raw row-major slices: `[k, m] x [k, n] -> [m, n]`.
///
/// See [`gemm_into`] for overwrite and panic behaviour.
pub fn gemm_tn_into(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    let _t = telemetry::Timer::start(telemetry::duration_histogram!("tensor_gemm_seconds"));
    assert_eq!(a.len(), k * m, "gemm_tn_into lhs length mismatch");
    assert_eq!(b.len(), k * n, "gemm_tn_into rhs length mismatch");
    assert_eq!(c.len(), m * n, "gemm_tn_into output length mismatch");
    gemm::<true, false, false>(
        Operands {
            a,
            b,
            m,
            k,
            n,
            seg: k,
        },
        c,
    );
}

/// `C = A·Bᵀ` on raw row-major slices: `[m, k] x [n, k] -> [m, n]`.
///
/// See [`gemm_into`] for overwrite and panic behaviour.
pub fn gemm_nt_into(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    let _t = telemetry::Timer::start(telemetry::duration_histogram!("tensor_gemm_seconds"));
    assert_eq!(a.len(), m * k, "gemm_nt_into lhs length mismatch");
    assert_eq!(b.len(), n * k, "gemm_nt_into rhs length mismatch");
    assert_eq!(c.len(), m * n, "gemm_nt_into output length mismatch");
    gemm::<false, true, false>(
        Operands {
            a,
            b,
            m,
            k,
            n,
            seg: k,
        },
        c,
    );
}

/// `C += Σ_s A_s·B_sᵀ` on raw row-major slices, for `A` `[m, k]` and `B`
/// `[n, k]` cut into `segments` equal runs of `k` (`A_s` and `B_s` are
/// columns `s·k/segments ..` of each), so a row of `B` strides over every
/// segment.
///
/// Each segment's product is rounded as [`gemm_nt_into`] rounds it and
/// then added into `c`, segment after segment: the bits of a
/// `gemm_nt_into` per segment into scratch, each followed by an add loop.
///
/// # Panics
///
/// Panics if slice lengths disagree with `m`, `k`, `n`, or `segments` is
/// zero or does not divide `k`.
pub fn gemm_nt_acc_into(
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    segments: usize,
) {
    let _t = telemetry::Timer::start(telemetry::duration_histogram!("tensor_gemm_seconds"));
    assert_eq!(a.len(), m * k, "gemm_nt_acc_into lhs length mismatch");
    assert_eq!(b.len(), n * k, "gemm_nt_acc_into rhs length mismatch");
    assert_eq!(c.len(), m * n, "gemm_nt_acc_into output length mismatch");
    assert!(
        segments > 0 && k.is_multiple_of(segments),
        "{segments} segments do not divide k = {k}"
    );
    let seg = k / segments;
    gemm::<false, true, true>(Operands { a, b, m, k, n, seg }, c);
}

/// `C += Aᵀ·B` on raw row-major slices: `[k, m] x [k, n] -> [m, n]`.
///
/// The product is rounded as [`gemm_tn_into`] rounds it and then added
/// into `c`: the bits of a `gemm_tn_into` into scratch followed by an add
/// loop.
///
/// # Panics
///
/// Panics if slice lengths disagree with `m`, `k`, `n`.
pub fn gemm_tn_acc_into(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    let _t = telemetry::Timer::start(telemetry::duration_histogram!("tensor_gemm_seconds"));
    assert_eq!(a.len(), k * m, "gemm_tn_acc_into lhs length mismatch");
    assert_eq!(b.len(), k * n, "gemm_tn_acc_into rhs length mismatch");
    assert_eq!(c.len(), m * n, "gemm_tn_acc_into output length mismatch");
    gemm::<true, false, true>(
        Operands {
            a,
            b,
            m,
            k,
            n,
            seg: k,
        },
        c,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The sequential triple loop every kernel must reproduce bit for bit:
    /// each element starts at `+0.0` and adds its products in ascending `k`.
    fn naive(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
        let mut c = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f32;
                for kk in 0..k {
                    acc += a[i * k + kk] * b[kk * n + j];
                }
                c[i * n + j] = acc;
            }
        }
        c
    }

    /// `rows × cols` row-major `x` stored transposed.
    fn transpose(x: &[f32], rows: usize, cols: usize) -> Vec<f32> {
        (0..rows * cols)
            .map(|i| x[(i % rows) * cols + i / rows])
            .collect()
    }

    /// Bit patterns with every NaN mapped to one value: IEEE-754 leaves
    /// NaN payloads and signs unspecified.
    fn canonical_bits(values: &[f32]) -> Vec<u32> {
        values
            .iter()
            .map(|v| if v.is_nan() { u32::MAX } else { v.to_bits() })
            .collect()
    }

    type Kernel = fn(Operands<'_>, &mut [f32]);

    /// One tile table's `nn`, `tn` and `nt` instantiations, overwriting
    /// and accumulating.
    struct Table {
        name: &'static str,
        layouts: [Kernel; 3],
        accumulating: [Kernel; 3],
    }

    /// A tile table's three layouts in one mode, each a plain `fn`.
    macro_rules! layouts {
        ($kernel:ident, $acc:literal) => {
            [
                |ops, c| unsafe { $kernel::<false, false, $acc>(ops, c) },
                |ops, c| unsafe { $kernel::<true, false, $acc>(ops, c) },
                |ops, c| unsafe { $kernel::<false, true, $acc>(ops, c) },
            ]
        };
    }

    /// The tables this CPU can run: the portable one always, and the AVX2
    /// one where the CPU has AVX2. The dispatcher picks only the wider,
    /// so each is called directly here.
    ///
    /// SAFETY (every `unsafe` the macro writes): the portable kernel is a
    /// safe `fn`, and the AVX2 table is pushed only after the CPU
    /// reported AVX2 just above.
    #[allow(unused_unsafe)]
    fn tables() -> Vec<Table> {
        #[allow(unused_mut)]
        let mut tables = vec![Table {
            name: "128-bit",
            layouts: layouts!(gemm_portable, false),
            accumulating: layouts!(gemm_portable, true),
        }];
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            tables.push(Table {
                name: "256-bit",
                layouts: layouts!(gemm_avx2, false),
                accumulating: layouts!(gemm_avx2, true),
            });
        }
        tables
    }

    /// `len` operand values: mostly finite values of mixed magnitude,
    /// with exact zeros, `-0.0` and subnormals mixed in, plus NaN, +∞ and
    /// −∞ at three fixed positions so most outputs stay finite.
    fn operand(len: usize, salt: usize) -> Vec<f32> {
        let mut v: Vec<f32> = (0..len)
            .map(|i| match (i * 31 + salt * 17) % 23 {
                0 => 0.0,
                1 => -0.0,
                2 => f32::from_bits(1),
                3 => -1.5e-39,
                4 => 3.0e-20,
                5 => -2.0e19,
                r => ((i * 7 + salt) as f32 * 0.37).sin() * r as f32,
            })
            .collect();
        for (at, bad) in [
            (3, f32::NAN),
            (len / 2, f32::INFINITY),
            (len.saturating_sub(1), f32::NEG_INFINITY),
        ] {
            if at < len && !(salt + at).is_multiple_of(4) {
                v[at] = bad;
            }
        }
        v
    }

    /// Checks every table in all three layouts against [`naive`] for one
    /// `m×k×n` product, writing into a dirty output buffer.
    fn check(tables: &[Table], m: usize, k: usize, n: usize) {
        let (a, b) = (operand(m * k, m + n), operand(k * n, k + 2 * n));
        let want = canonical_bits(&naive(&a, &b, m, k, n));
        let (at, bt) = (transpose(&a, m, k), transpose(&b, k, n));
        let mut c = vec![f32::NAN; m * n];
        for table in tables {
            let [nn, tn, nt] = table.layouts;
            for (layout, kernel, a, b) in
                [("nn", nn, &a, &b), ("tn", tn, &at, &b), ("nt", nt, &a, &bt)]
            {
                c.fill(f32::NAN);
                kernel(
                    Operands {
                        a,
                        b,
                        m,
                        k,
                        n,
                        seg: k,
                    },
                    &mut c,
                );
                assert!(
                    canonical_bits(&c) == want,
                    "{} {layout} {m}x{k}x{n} differs from the naive loop",
                    table.name
                );
            }
        }
    }

    /// Every tile table, all three layouts, bit for bit against the
    /// naive loop: every tail tile (n ≤ 40), every row tail (m ≤ 9) and
    /// the K-chunk boundary of every tile width; one to four 32-column
    /// blocks followed by every 0–15-column tail; plus the LeNet and MLP
    /// products the micro bench times.
    #[test]
    fn tile_tables_match_naive_triple_loop_bit_for_bit() {
        let tables = tables();
        // An NR-column block packs `PANEL / NR` values of k per K-chunk,
        // and its partial sums go through C from the second chunk on. k
        // runs one below, at and one above the chunks of NR = 32, 16 and
        // 8, and k = 300 crosses the chunk of NR = 12 three times.
        let mut ks = vec![1, 300];
        for nr in [32, 16, 8] {
            let kc = PANEL / nr;
            ks.extend([kc - 1, kc, kc + 1]);
        }
        for n in 1..=40 {
            for m in 1..=9 {
                for &k in &ks {
                    check(&tables, m, k, n);
                }
            }
        }
        // The 8×4 tail tile's chunk (NR = 4), on the widths that reach it.
        for n in 1..=8 {
            for m in 1..=9 {
                for k in [PANEL / 4, PANEL / 4 + 1] {
                    check(&tables, m, k, n);
                }
            }
        }
        // One to four 32-column blocks (n 32–47, 64–79, 96–111 and
        // 128–143), each then the 0–15-column tail, around the K-chunk of
        // NR = 32 (`PANEL / 32` values of k) and past it.
        let kc = PANEL / 32;
        for base in [32, 64, 96, 128] {
            for n in base..base + 16 {
                for m in [1, 2, 3, 4, 5, 7] {
                    for k in [1, kc - 1, kc, kc + 1, 2 * kc + 5] {
                        check(&tables, m, k, n);
                    }
                }
            }
        }
        for (m, k, n) in [
            (6, 25, 196),
            (16, 150, 9),
            (16, 150, 252),
            (6, 196, 25),
            (25, 6, 196),
            (103, 64, 64),
        ] {
            check(&tables, m, k, n);
        }
    }

    /// `rows × cols` row-major `x`'s columns `c0..c0 + len`, as a
    /// `rows × len` matrix.
    fn columns(x: &[f32], rows: usize, cols: usize, c0: usize, len: usize) -> Vec<f32> {
        (0..rows)
            .flat_map(|r| &x[r * cols + c0..][..len])
            .copied()
            .collect()
    }

    /// Checks every table's accumulating mode, in all three layouts,
    /// against a `gemm_into` per segment followed by an add loop, both
    /// starting from the same dirty `C` (non-finite values, `-0.0` and
    /// subnormals included).
    fn check_accumulating(tables: &[Table], m: usize, seg: usize, segments: usize, n: usize) {
        let k = seg * segments;
        let (a, b) = (operand(m * k, m + n + seg), operand(k * n, k + 2 * n));
        let dirty = operand(m * n, 3 * m + n);
        let mut want = dirty.clone();
        let mut part = vec![0.0f32; m * n];
        for s in 0..segments {
            let a_s = columns(&a, m, k, s * seg, seg);
            gemm_into(&a_s, &b[s * seg * n..][..seg * n], &mut part, m, seg, n);
            for (w, &p) in want.iter_mut().zip(&part) {
                *w += p;
            }
        }
        let want = canonical_bits(&want);
        let (at, bt) = (transpose(&a, m, k), transpose(&b, k, n));
        let mut c = dirty.clone();
        for table in tables {
            let [nn, tn, nt] = table.accumulating;
            for (layout, kernel, a, b) in
                [("nn", nn, &a, &b), ("tn", tn, &at, &b), ("nt", nt, &a, &bt)]
            {
                c.copy_from_slice(&dirty);
                kernel(Operands { a, b, m, k, n, seg }, &mut c);
                assert!(
                    canonical_bits(&c) == want,
                    "{} {layout} {m}x({segments}x{seg})x{n} accumulating differs from a gemm per segment",
                    table.name
                );
            }
        }
    }

    /// Every tile table's accumulating mode, all three layouts, bit for
    /// bit against a product per segment plus an add: segment lengths
    /// around the K-chunk of every tile width (NR = 32, 16, 12, 8, 4) on
    /// every tail tile, one segment and several; row counts past the band
    /// of parked partial sums for each width; and the LeNet conv2 and
    /// conv1 `dW` products.
    #[test]
    fn accumulating_mode_matches_a_product_per_segment_bit_for_bit() {
        let tables = tables();
        let mut segs = vec![1, 2, 9];
        for nr in [32, 16, 12, 8, 4] {
            let kc = PANEL / nr;
            segs.extend([kc - 1, kc, kc + 1]);
        }
        for n in (1..=40).chain([64, 70, 100]) {
            for m in [1, 3, 6] {
                for &seg in &segs {
                    for segments in [1, 3] {
                        check_accumulating(&tables, m, seg, segments, n);
                    }
                }
            }
        }
        // Segments one above the K-chunk park their partial sums in bands
        // of `PANEL / NR` rows; one row past a band opens a second band.
        for (n, nr) in [(40, 32), (20, 16), (13, 16), (10, 12), (8, 8), (4, 4)] {
            let kc = PANEL / nr;
            check_accumulating(&tables, kc + 1, kc + 1, 2, n);
        }
        for (m, seg, segments, n) in [(16, 9, 28, 150), (6, 196, 1, 25), (0, 5, 2, 7)] {
            check_accumulating(&tables, m, seg, segments, n);
        }
    }

    /// An empty product adds `+0.0`, as a zero-length `gemm_*_into` into
    /// scratch plus an add loop would: `-0.0` becomes `+0.0` and nothing
    /// else changes.
    #[test]
    fn accumulating_an_empty_product_adds_positive_zero() {
        let mut c = [-0.0, 1.5, f32::NEG_INFINITY];
        gemm_nt_acc_into(&[], &[], &mut c, 1, 0, 3, 2);
        assert_eq!(
            c.map(f32::to_bits),
            [0.0f32, 1.5, f32::NEG_INFINITY].map(f32::to_bits)
        );
        gemm_tn_acc_into(&[], &[], &mut c, 3, 0, 1);
        assert_eq!(
            c.map(f32::to_bits),
            [0.0f32, 1.5, f32::NEG_INFINITY].map(f32::to_bits)
        );
    }

    #[test]
    #[should_panic(expected = "segments do not divide k")]
    fn accumulating_rejects_uneven_segments() {
        gemm_nt_acc_into(&[0.0; 5], &[0.0; 5], &mut [0.0; 1], 1, 5, 1, 2);
    }

    #[test]
    fn matmul_matches_hand_computation() {
        let a = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let b = [7.0, 8.0, 9.0, 10.0, 11.0, 12.0];
        let mut c = [0.0; 4];
        gemm_into(&a, &b, &mut c, 2, 3, 2);
        assert_eq!(c, [58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn identity_is_neutral() {
        let a = [1.0, 2.0, 3.0, 4.0];
        let eye = [1.0, 0.0, 0.0, 1.0];
        let mut c = [0.0; 4];
        gemm_into(&a, &eye, &mut c, 2, 2, 2);
        assert_eq!(c, a);
        gemm_into(&eye, &a, &mut c, 2, 2, 2);
        assert_eq!(c, a);
    }

    #[test]
    fn transposed_variants_agree_with_explicit_transpose() {
        let a = [1.0, -2.0, 0.5, 3.0, 4.0, -1.0]; // [3, 2]
        let b = [2.0, 1.0, 0.0, -1.0, 1.5, 2.5]; // [3, 2]
        let mut tn = [0.0; 4];
        gemm_tn_into(&a, &b, &mut tn, 2, 3, 2);
        assert_eq!(tn.to_vec(), naive(&transpose(&a, 3, 2), &b, 2, 3, 2));

        let c = [1.0, 0.0, 2.0, -1.0]; // [2, 2]
        let mut nt = [0.0; 6];
        gemm_nt_into(&c, &b, &mut nt, 2, 2, 3);
        assert_eq!(nt.to_vec(), naive(&c, &transpose(&b, 3, 2), 2, 2, 3));
    }

    #[test]
    #[should_panic(expected = "rhs length mismatch")]
    fn matmul_rejects_mismatched_inner_dims() {
        // A [2, 3] lhs against a [2, 2] rhs.
        gemm_into(&[0.0; 6], &[0.0; 4], &mut [0.0; 4], 2, 3, 2);
    }

    #[test]
    #[should_panic(expected = "output length mismatch")]
    fn matmul_into_rejects_wrong_output_shape() {
        gemm_into(&[0.0; 6], &[0.0; 12], &mut [0.0; 6], 2, 3, 4);
    }

    /// The three variants must agree on non-finite propagation: a zero in
    /// the left operand multiplied by NaN/±∞ in the right is NaN and must
    /// reach the output (IEEE `0.0 · NaN = NaN`).
    #[test]
    fn zero_times_non_finite_propagates_in_all_variants() {
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            // a has an exact zero in the position that meets the bad value.
            let a = [0.0, 1.0]; // [1, 2], and its own transpose
            let b = [bad, 2.0, 3.0, 4.0]; // [2, 2]
            let mut c = [0.0; 2];
            gemm_into(&a, &b, &mut c, 1, 2, 2);
            assert!(c[0].is_nan(), "gemm_into masked 0·{bad}");
            gemm_tn_into(&a, &b, &mut c, 1, 2, 2);
            assert!(c[0].is_nan(), "gemm_tn_into masked 0·{bad}");
            gemm_nt_into(&a, &transpose(&b, 2, 2), &mut c, 1, 2, 2);
            assert!(c[0].is_nan(), "gemm_nt_into masked 0·{bad}");
        }
    }

    /// With a non-finite right operand the variants must agree bit for bit,
    /// NaN elements included.
    #[test]
    fn variants_agree_elementwise_under_non_finite_inputs() {
        let a = [0.0, 1.0, -2.0, 0.0, 0.5, 0.0]; // [2, 3]
        let b = [f32::NAN, 2.0, f32::INFINITY, -1.0, 0.0, 3.0]; // [3, 2]
        let (mut nn, mut tn, mut nt) = ([0.0; 4], [0.0; 4], [0.0; 4]);
        gemm_into(&a, &b, &mut nn, 2, 3, 2);
        gemm_tn_into(&transpose(&a, 2, 3), &b, &mut tn, 2, 3, 2);
        gemm_nt_into(&a, &transpose(&b, 3, 2), &mut nt, 2, 3, 2);
        let bits = |c: &[f32]| c.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&nn), bits(&tn), "nn vs tn");
        assert_eq!(bits(&nn), bits(&nt), "nn vs nt");
    }

    /// NaN/±∞ in the *left* operand flows through the product too.
    #[test]
    fn non_finite_lhs_propagates() {
        let mut c = [0.0; 2];
        gemm_into(&[f32::NAN, 0.0], &[1.0, 2.0, 3.0, 4.0], &mut c, 1, 2, 2);
        assert!(c.iter().all(|v| v.is_nan()));
    }

    /// A sparse left operand (every third entry zero) gives the bits of
    /// the plain sequential loop.
    #[test]
    fn sparse_lhs_matches_dense_recomputation() {
        let (m, k, n) = (6, 9, 11);
        let a: Vec<f32> = (0..m * k)
            .map(|i| {
                if i % 3 == 0 {
                    0.0
                } else {
                    (i as f32 * 0.31).sin()
                }
            })
            .collect();
        let b: Vec<f32> = (0..k * n).map(|i| (i as f32 * 0.17).cos()).collect();
        let mut c = vec![0.0; m * n];
        gemm_into(&a, &b, &mut c, m, k, n);
        assert_eq!(canonical_bits(&c), canonical_bits(&naive(&a, &b, m, k, n)));
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
}
