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
//!   (`nn`/`nt`, each loaded next to the row of the tile it feeds, so a
//!   tall tile's accumulators stay in registers) or a column run (`tn`).
//! - The partial sums of a tile go back through `C` between K-chunks
//!   (an `f32` store is exact), so the panel stays a fixed 4 KiB array
//!   and the kernel never allocates.
//!
//! # Two tile tables, by columns and rows
//!
//! A tile's accumulators are independent add chains, and an add has a
//! latency of several cycles, so a tile needs about eight chains in
//! flight to issue one vector add per cycle (Goto & van de Geijn,
//! "Anatomy of High-Performance Matrix Multiplication", 2008). The one
//! tile walker is compiled twice, each with its own table of `MR×NR`
//! tile shapes by the number of columns left and, for the tall tiles,
//! by the number of rows:
//!
//! - The 128-bit table: 1×32 for ≥ 32 columns, 2×16 for 13–31, 2×12 for
//!   9–12, 4×8 for 5–8 and a tall `MR`×4 below. It is the only path on
//!   targets other than x86_64 and on x86_64 CPUs without AVX2.
//! - The 256-bit table: 2×32 for ≥ 32 columns, 4×16 for 16–31, a tall
//!   `MR`×8 for 5–15 and a tall `MR`×4 below. It is compiled with AVX2
//!   enabled and chosen at run time when the CPU reports AVX2, AVX-512F
//!   CPUs included. Its wide tiles hold eight 8-lane accumulators (64
//!   floats): the 1×32 tile would be only four 256-bit chains and bound by
//!   add latency.
//! - A tall tile holds one vector per row, and its row count `MR` is the
//!   one from 5 to 8 that computes the fewest rows for the product's `m`
//!   (ties to the taller): a row tail repeats the tile's last row, so
//!   eight-row tiles over 25 rows would compute 32. A product 6 columns
//!   wide takes one `MR`×8 block (two lanes padded) rather than two `MR`×4
//!   blocks.
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
//! segment, for a dense layer's. They are a mode of the same tile walker,
//! with one rounding rule on top of the invariant above: each segment's
//! sum of each element starts at `+0.0` and adds its terms in ascending
//! `k`, and is then added into `C` once, segment after segment. That is
//! the bits of a `gemm_*_into` per segment into scratch, each followed by
//! an add loop, without the scratch, the copies of strided operands, or
//! the second pass.
//!
//! The walker runs every segment over a band of `C`'s rows before it
//! moves on: each segment's tile sums start at zero in registers and are
//! added into the band's rows when the segment ends. A K-chunk holds as
//! many whole segments as fit, so short segments share one pack of `B`,
//! and never crosses a segment end; a segment longer than a chunk parks
//! its tiles' partial sums in a stack array between chunks (an `f32`
//! store is exact).
//!
//! `gemm_nt_acc_into` computes the transposed product, `Cᵀ += Σ_s
//! B_s·A_sᵀ`: the walker holds a band of `Cᵀ`'s rows in an 8 KiB stack
//! array while the segments run, and moves it to and from `C` through 4×4
//! transposes once. A convolution's `B` is its patch matrix
//! (`C·k·k` rows), far taller than its output gradient `A` (one row per
//! output channel), so this reads the patch rows in place and packs the
//! few gradient rows: conv2 of LeNet packs 16 rows where it packed 150.
//! Each `a·b` is the same product as `b·a`, and every addition keeps its
//! order, so the bits are those of the untransposed product.

use std::array::from_fn;
use std::ops::Range;

/// Floats in the packed `B` K-panel (a 4 KiB stack array): an `NR`-column
/// block packs up to `PANEL / NR` values of `k` per chunk.
const PANEL: usize = 1024;

/// Zeros for the padding columns of an `nt` pack: as long as the K-chunk
/// of the narrowest column block (`NR = 4`).
static ZEROS: [f32; PANEL / 4] = [0.0; PANEL / 4];

/// Floats in the stack array (8 KiB) that holds a band of a transposed
/// `C`'s rows while every segment runs over it.
const BAND: usize = 2048;

/// How a product meets `C` (the walker's `MODE` parameter): `C =
/// op(A)·op(B)`, every element overwritten.
const OVERWRITE: u8 = 0;
/// `C += ` each segment's product in turn.
const ADD: u8 = 1;
/// As [`ADD`], into a `C` stored transposed (`[n, m]`).
const ADD_T: u8 = 2;

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
/// runs, in `MODE` ([`OVERWRITE`], [`ADD`] or [`ADD_T`]).
fn gemm<const A_T: bool, const B_T: bool, const MODE: u8>(ops: Operands<'_>, c: &mut [f32]) {
    if ops.k == 0 {
        // An empty sum is `+0.0`, and the accumulating mode still adds it.
        if MODE == OVERWRITE {
            c.fill(0.0);
        } else {
            c.iter_mut().for_each(|v| *v += 0.0);
        }
        return;
    }
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: `is_x86_feature_detected!("avx2")` just confirmed that
        // the running CPU supports every instruction this AVX2 build uses.
        unsafe { gemm_avx2::<A_T, B_T, MODE>(ops, c) };
        return;
    }
    gemm_portable::<A_T, B_T, MODE>(ops, c);
}

/// The 128-bit tile table (see the module docs), for any CPU.
fn gemm_portable<const A_T: bool, const B_T: bool, const MODE: u8>(
    ops: Operands<'_>,
    c: &mut [f32],
) {
    walk_tiles::<128, A_T, B_T, MODE>(ops, c);
}

/// The 256-bit tile table (see the module docs).
///
/// # Safety
///
/// The running CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn gemm_avx2<const A_T: bool, const B_T: bool, const MODE: u8>(
    ops: Operands<'_>,
    c: &mut [f32],
) {
    walk_tiles::<256, A_T, B_T, MODE>(ops, c);
}

/// The walker's stack arrays, each present (and zeroed) only in the modes
/// that use it: the `B` panel; the parked partial sums of a segment longer
/// than a K-chunk ([`ADD`], [`ADD_T`]); and a band of a transposed `C`
/// ([`ADD_T`]).
type Stack<'s> = (
    &'s mut [f32; PANEL],
    Option<&'s mut [f32; PANEL]>,
    Option<&'s mut [f32; BAND]>,
);

/// Walks `C` in column blocks, each as wide as the table's tile for the
/// remaining columns; `BITS` (128 or 256) picks the table. Inlined
/// into every entry point, so each compiles it for its own instruction
/// set.
#[inline(always)]
fn walk_tiles<const BITS: u32, const A_T: bool, const B_T: bool, const MODE: u8>(
    ops: Operands<'_>,
    c: &mut [f32],
) {
    let mut panel = [0.0f32; PANEL];
    let mut part = (MODE != OVERWRITE).then_some([0.0f32; PANEL]);
    let mut band = (MODE == ADD_T).then_some([0.0f32; BAND]);
    let mut j0 = 0;
    while j0 < ops.n {
        let stack = (&mut panel, part.as_mut(), band.as_mut());
        j0 += match (BITS, ops.n - j0) {
            (256, 32..) => column_block::<2, 32, A_T, B_T, MODE>(ops, c, j0, stack),
            (256, 16..=31) => column_block::<4, 16, A_T, B_T, MODE>(ops, c, j0, stack),
            (256, 5..=15) => tall_block::<8, A_T, B_T, MODE>(ops, c, j0, stack),
            (128, 32..) => column_block::<1, 32, A_T, B_T, MODE>(ops, c, j0, stack),
            (128, 13..=31) => column_block::<2, 16, A_T, B_T, MODE>(ops, c, j0, stack),
            (128, 9..=12) => column_block::<2, 12, A_T, B_T, MODE>(ops, c, j0, stack),
            (128, 5..=8) => column_block::<4, 8, A_T, B_T, MODE>(ops, c, j0, stack),
            _ => tall_block::<4, A_T, B_T, MODE>(ops, c, j0, stack),
        };
    }
}

/// A column block of tall tiles, one `NR`-float vector per row, with the
/// row count from 5 to 8 that computes the fewest rows of `C` (a row tail
/// repeats its last row); ties go to the taller tile.
#[inline(always)]
fn tall_block<const NR: usize, const A_T: bool, const B_T: bool, const MODE: u8>(
    ops: Operands<'_>,
    c: &mut [f32],
    j0: usize,
    stack: Stack<'_>,
) -> usize {
    match (5..=8).rev().min_by_key(|&mr| ops.m.div_ceil(mr) * mr) {
        Some(5) => column_block::<5, NR, A_T, B_T, MODE>(ops, c, j0, stack),
        Some(6) => column_block::<6, NR, A_T, B_T, MODE>(ops, c, j0, stack),
        Some(7) => column_block::<7, NR, A_T, B_T, MODE>(ops, c, j0, stack),
        _ => column_block::<8, NR, A_T, B_T, MODE>(ops, c, j0, stack),
    }
}

/// Computes columns `j0..j0 + NR` of `C` (clipped to `n`), one K-chunk
/// at a time, and returns `NR`.
///
/// Overwriting, a tile's partial sums wait in `C` between the K-chunks of
/// a product. Accumulating, the block runs every segment over a band of
/// rows at a time, adding each segment's sums into `C`'s rows; for
/// [`ADD_T`] it copies the band of the transposed `C` into `sums` first
/// and back after. A K-chunk holds whole segments, or, for a segment
/// longer than a chunk, one piece of a segment, whose partial sums wait in
/// `part` (so a band has no more rows than `part` holds).
#[inline(always)]
fn column_block<
    const MR: usize,
    const NR: usize,
    const A_T: bool,
    const B_T: bool,
    const MODE: u8,
>(
    ops: Operands<'_>,
    c: &mut [f32],
    j0: usize,
    (panel, part, mut sums): Stack<'_>,
) -> usize {
    let Operands { m, k, n, seg, .. } = ops;
    let nr = NR.min(n - j0);
    let depth = PANEL / NR;
    if MODE == OVERWRITE {
        let mut k0 = 0;
        while k0 < k {
            let kc = depth.min(k - k0);
            let bp = &mut panel[..kc * NR];
            pack_b::<NR, B_T>(ops, bp, k0, j0, nr);
            row_tiles::<MR, NR, A_T>(ops, c, bp, (j0, k0), k0 == 0);
            k0 += kc;
        }
        return NR;
    }
    let part = part.expect("the accumulating modes park partial sums");
    let mut band = m;
    if MODE == ADD_T {
        band = band.min(BAND / NR / MR * MR);
    }
    if seg > depth {
        band = band.min(depth / MR * MR);
    }
    for b0 in (0..m).step_by(band.max(1)) {
        let rows = b0..m.min(b0 + band);
        // Where the running sums of row `i` (from the band's first) start,
        // with the row stride: `C` itself, or the band of `Cᵀ`.
        let (sink, ld, at) = if MODE == ADD_T {
            let sums = sums.as_deref_mut().expect("ADD_T holds a band");
            transpose_into(&c[j0 * m + b0..], m, (nr, rows.len()), sums, NR);
            (&mut sums[..], NR, 0)
        } else {
            (&mut c[..], n, b0 * n + j0)
        };
        let mut k0 = 0;
        while k0 < k {
            // Whole segments, or the piece of one up to its end.
            let (kc, pieces) = if seg <= depth {
                ((depth / seg * seg).min(k - k0), (true, true))
            } else {
                let kc = depth.min(seg - k0 % seg);
                (kc, (k0 % seg == 0, (k0 + kc) % seg == 0))
            };
            let bp = &mut panel[..kc * NR];
            pack_b::<NR, B_T>(ops, bp, k0, j0, nr);
            let sink = (&mut *sink, ld, at, nr);
            segment_tiles::<MR, NR, A_T>(ops, (sink, part), bp, k0, rows.clone(), pieces);
            k0 += kc;
        }
        if MODE == ADD_T {
            let sums = sums.as_deref().expect("ADD_T holds a band");
            transpose_into(sums, NR, (rows.len(), nr), &mut c[j0 * m + b0..], m);
        }
    }
    NR
}

/// Runs the `MR`-row tiles over the packed K-chunk `bp` that starts at
/// `k0`, for columns `j0..j0 + NR` of `C` (clipped to `n`), overwriting.
///
/// A tile starts at zero on a product's `first` chunk and otherwise from
/// its partial sums in `C`, and stores its sums back to `C`.
#[inline(always)]
fn row_tiles<const MR: usize, const NR: usize, const A_T: bool>(
    ops: Operands<'_>,
    c: &mut [f32],
    bp: &[f32],
    (j0, k0): (usize, usize),
    first: bool,
) {
    let Operands { m, n, .. } = ops;
    let nr = NR.min(n - j0);
    for i0 in (0..m).step_by(MR) {
        // A row tail repeats its last row; the copies are never stored.
        let mr = MR.min(m - i0);
        let tile: [usize; MR] = from_fn(|r| i0 + r.min(mr - 1));
        let mut acc = [[0.0f32; NR]; MR];
        if !first {
            for (tile_row, &i) in acc.iter_mut().zip(&tile).take(mr) {
                copy_row::<NR>(&c[i * n + j0..][..nr], &mut tile_row[..nr]);
            }
        }
        microkernel::<MR, NR, A_T>(ops, &tile, k0, bp, &mut acc);
        for (tile_row, &i) in acc.iter().zip(&tile).take(mr) {
            copy_row::<NR>(&tile_row[..nr], &mut c[i * n + j0..][..nr]);
        }
    }
}

/// Runs the `MR`-row tiles of the band `rows` over the packed K-chunk
/// `bp` that starts at `k0`, accumulating. The running sums of the band's
/// row `r` are `nr` floats of `sink` from `at + r·ld`; `part` holds the
/// parked partial sums, `NR` floats per row from the band's first.
///
/// The chunk is whole segments, or one piece of a segment longer than a
/// chunk. A tile's sum of each piece starts at zero on a segment's
/// `first` piece and otherwise from `part`; it is added into the running
/// sums when the piece is its segment's `last`, and otherwise parked in
/// `part`.
#[inline(always)]
fn segment_tiles<const MR: usize, const NR: usize, const A_T: bool>(
    ops: Operands<'_>,
    ((sink, ld, at, nr), part): ((&mut [f32], usize, usize, usize), &mut [f32; PANEL]),
    bp: &[f32],
    k0: usize,
    rows: Range<usize>,
    (first, last): (bool, bool),
) {
    let kc = bp.len() / NR;
    let piece = ops.seg.min(kc);
    let pieces = kc / piece;
    for i0 in rows.clone().step_by(MR) {
        let mr = MR.min(rows.end - i0);
        let tile: [usize; MR] = from_fn(|r| i0 + r.min(mr - 1));
        let r0 = i0 - rows.start;
        for p in 0..pieces {
            let piece_bp = &bp[p * piece * NR..][..piece * NR];
            let mut acc = [[0.0f32; NR]; MR];
            if !first {
                for (r, tile_row) in acc.iter_mut().enumerate().take(mr) {
                    copy_row::<NR>(&part[(r0 + r) * NR..][..NR], tile_row);
                }
            }
            microkernel::<MR, NR, A_T>(ops, &tile, k0 + p * piece, piece_bp, &mut acc);
            for (r, tile_row) in acc.iter().enumerate().take(mr) {
                if last {
                    add_row::<NR>(&tile_row[..nr], &mut sink[at + (r0 + r) * ld..][..nr]);
                } else {
                    copy_row::<NR>(tile_row, &mut part[(r0 + r) * NR..][..NR]);
                }
            }
        }
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
    if B_T {
        // `B` is `[n, k]`: column j of the block is the contiguous run
        // `b[j, k0..k0 + kc]`, scattered down the panel four columns at a
        // time; the padding columns are runs of zeros.
        const { assert!(NR.is_multiple_of(4)) };
        let kc = bp.len() / NR;
        let run = |jj: usize| match jj < nr {
            true => &b[(j0 + jj) * k + k0..][..kc],
            false => &ZEROS[..kc],
        };
        for jj in (0..NR).step_by(4) {
            let runs = [run(jj), run(jj + 1), run(jj + 2), run(jj + 3)];
            transpose_runs4(runs, &mut bp[jj..], NR);
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

/// `dst[j·dst_stride + i] = src[i·src_stride + j]` for `i < rows` and
/// `j < cols`: the rows of `src` become columns of `dst`, four at a time.
#[inline(always)]
fn transpose_into(
    src: &[f32],
    src_stride: usize,
    (rows, cols): (usize, usize),
    dst: &mut [f32],
    dst_stride: usize,
) {
    let run = |i: usize| &src[i * src_stride..][..cols];
    let mut i = 0;
    while i + 4 <= rows {
        let runs = [run(i), run(i + 1), run(i + 2), run(i + 3)];
        transpose_runs4(runs, &mut dst[i..], dst_stride);
        i += 4;
    }
    for i in i..rows {
        for (j, &v) in run(i).iter().enumerate() {
            dst[j * dst_stride + i] = v;
        }
    }
}

/// Writes `runs[q][kk]` to `dst[kk·stride + q]`: four equal runs into four
/// adjacent columns, on x86_64 four values at a time as one SSE 4×4
/// transpose (SSE is part of every x86_64 CPU), which stores a row's four
/// values at once.
#[inline(always)]
fn transpose_runs4(runs: [&[f32]; 4], dst: &mut [f32], stride: usize) {
    let len = runs[0].len();
    let mut kk = 0;
    #[cfg(target_arch = "x86_64")]
    while kk + 4 <= len {
        use std::arch::x86_64::{
            _mm_loadu_ps, _mm_movehl_ps, _mm_movelh_ps, _mm_storeu_ps, _mm_unpackhi_ps,
            _mm_unpacklo_ps,
        };
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
        // `A` is `[k, m]`: the tile's values for one `k` share a row, and
        // gathering them all first measured faster than row by row.
        for (arow, brow) in a[k0 * m..][..kc * m]
            .chunks_exact(m)
            .zip(bp.chunks_exact(NR))
        {
            let av: [f32; MR] = from_fn(|r| arow[rows[r]]);
            tile_update(acc, |r| av[r], brow);
        }
    } else {
        let arows: [&[f32]; MR] = from_fn(|r| &a[rows[r] * k + k0..][..kc]);
        for (kk, brow) in bp.chunks_exact(NR).enumerate() {
            // SAFETY: `kk < kc`, and every run of `arows` is `kc` long.
            // (Checked indexing here costs a compare per row per `k` and
            // spills the tall tiles' accumulators.)
            tile_update(acc, |r| unsafe { *arows[r].get_unchecked(kk) }, brow);
        }
    }
}

/// One `k` step of the tile: `acc[r][j] += a(r) · brow[j]`.
///
/// A row's value of `A` is read just before that row's updates, so rows
/// of `A` read in place need not all sit in registers beside a tall tile's
/// accumulators; constant-range index loops (rather than iterator zips)
/// let the compiler keep the whole tile in registers.
#[inline(always)]
#[allow(clippy::needless_range_loop)]
fn tile_update<const MR: usize, const NR: usize>(
    acc: &mut [[f32; NR]; MR],
    a: impl Fn(usize) -> f32,
    brow: &[f32],
) {
    for r in 0..MR {
        let ar = a(r);
        for j in 0..NR {
            acc[r][j] += ar * brow[j];
        }
    }
}

/// Adds `src` into `dst` (equal lengths), with fixed-size adds for a full
/// `NR`-wide row.
#[inline(always)]
fn add_row<const NR: usize>(src: &[f32], dst: &mut [f32]) {
    match (
        <&[f32; NR]>::try_from(src),
        <&mut [f32; NR]>::try_from(&mut *dst),
    ) {
        (Ok(src), Ok(dst)) => dst.iter_mut().zip(src).for_each(|(d, &v)| *d += v),
        _ => dst.iter_mut().zip(src).for_each(|(d, &v)| *d += v),
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
    gemm::<false, false, OVERWRITE>(
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
    gemm::<true, false, OVERWRITE>(
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
    gemm::<false, true, OVERWRITE>(
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
/// It is computed as `Cᵀ += Σ_s B_s·A_sᵀ`, which packs `A` and reads `B`'s
/// rows in place, so `A` should be the operand with fewer rows (see the
/// module docs).
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
    // `Cᵀ += Σ_s B_s·A_sᵀ`: `B`'s rows are read in place and `A`'s packed.
    let (seg, a, b, m, n) = (k / segments, b, a, n, m);
    gemm::<false, true, ADD_T>(Operands { a, b, m, k, n, seg }, c);
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
    gemm::<true, false, ADD>(
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

    /// One tile table's `nn`, `tn` and `nt` instantiations in each mode:
    /// overwriting, accumulating, and accumulating into a transposed `C`.
    struct Table {
        name: &'static str,
        layouts: [Kernel; 3],
        added: [Kernel; 3],
        added_t: [Kernel; 3],
    }

    /// A tile table's three layouts in one mode, each a plain `fn`.
    macro_rules! layouts {
        ($kernel:ident, $mode:ident) => {
            [
                |ops, c| unsafe { $kernel::<false, false, $mode>(ops, c) },
                |ops, c| unsafe { $kernel::<true, false, $mode>(ops, c) },
                |ops, c| unsafe { $kernel::<false, true, $mode>(ops, c) },
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
            layouts: layouts!(gemm_portable, OVERWRITE),
            added: layouts!(gemm_portable, ADD),
            added_t: layouts!(gemm_portable, ADD_T),
        }];
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            tables.push(Table {
                name: "256-bit",
                layouts: layouts!(gemm_avx2, OVERWRITE),
                added: layouts!(gemm_avx2, ADD),
                added_t: layouts!(gemm_avx2, ADD_T),
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

    /// `C + Σ_s A_s·B_s` as naive loops, `A` `[m, k]` and `B` `[k, n]` cut
    /// into segments of `seg` values of `k`: each segment's sum of each
    /// element starts at `+0.0` and adds its terms in ascending `k`, and is
    /// then added into `C`, segment after segment.
    fn naive_segments(
        a: &[f32],
        b: &[f32],
        c: &[f32],
        (m, k, n): (usize, usize, usize),
        seg: usize,
    ) -> Vec<f32> {
        let mut c = c.to_vec();
        for s0 in (0..k).step_by(seg.max(1)) {
            for i in 0..m {
                for j in 0..n {
                    let mut acc = 0.0f32;
                    for kk in s0..s0 + seg {
                        acc += a[i * k + kk] * b[kk * n + j];
                    }
                    c[i * n + j] += acc;
                }
            }
        }
        c
    }

    /// Checks every table in every layout and mode against the naive loops
    /// for one `m×k×n` product with `k = seg·segments`: overwriting a
    /// NaN-filled `C` with the whole product, and accumulating each
    /// segment into a dirty `C` (non-finite values, `-0.0` and subnormals
    /// included), stored as it is and transposed.
    fn check_accumulating(tables: &[Table], m: usize, seg: usize, segments: usize, n: usize) {
        let k = seg * segments;
        let (a, b) = (operand(m * k, m + n + seg), operand(k * n, k + 2 * n));
        let dirty = operand(m * n, 3 * m + n);
        let product = canonical_bits(&naive(&a, &b, m, k, n));
        let want = naive_segments(&a, &b, &dirty, (m, k, n), seg);
        let want_t = canonical_bits(&transpose(&want, m, n));
        let want = canonical_bits(&want);
        let dirty_t = transpose(&dirty, m, n);
        let (at, bt) = (transpose(&a, m, k), transpose(&b, k, n));
        let garbage = vec![f32::NAN; m * n];
        let mut c = dirty.clone();
        for table in tables {
            let modes = [
                ("overwriting", table.layouts, &garbage, &product, k),
                ("accumulating", table.added, &dirty, &want, seg),
                (
                    "transposed accumulating",
                    table.added_t,
                    &dirty_t,
                    &want_t,
                    seg,
                ),
            ];
            for (mode, [nn, tn, nt], start, want, seg) in modes {
                for (layout, kernel, a, b) in
                    [("nn", nn, &a, &b), ("tn", tn, &at, &b), ("nt", nt, &a, &bt)]
                {
                    c.copy_from_slice(start);
                    kernel(Operands { a, b, m, k, n, seg }, &mut c);
                    assert!(
                        canonical_bits(&c) == *want,
                        "{} {layout} {mode} {m}x({segments}x{seg})x{n} differs from the naive loops",
                        table.name
                    );
                }
            }
        }
    }

    /// Every tile table in every layout, overwriting and accumulating
    /// (`C` stored as it is and transposed), bit for bit against the naive
    /// loops: every row count from 1 to 8 and 16 (each tall tile height,
    /// and row tails) on every column count from 1 to 33 and 150, with
    /// one segment on both sides of the K-chunk of every tile width (NR =
    /// 32, 16, 12, 8, 4) and 4, 9, 28 or 196 shorter segments; row counts
    /// past the band of running sums for each width; and the LeNet conv2
    /// and conv1 `dW` products.
    #[test]
    fn accumulating_mode_matches_a_product_per_segment_bit_for_bit() {
        let tables = tables();
        let mut cases = vec![(9, 4), (9, 9), (9, 28), (1, 196), (65, 4)];
        for nr in [32, 16, 12, 8, 4] {
            let kc = PANEL / nr;
            cases.extend([(kc - 1, 1), (kc, 1), (kc + 1, 1)]);
        }
        for n in (1..=33).chain([150]) {
            for m in (1..=8).chain([16]) {
                for &(seg, segments) in &cases {
                    check_accumulating(&tables, m, seg, segments, n);
                }
            }
        }
        // One row past a band of `BAND / NR` rows (rounded down to whole
        // tiles) opens a second band, with short segments and with
        // segments longer than a K-chunk.
        for (m, n) in [(65, 40), (129, 20), (171, 10), (257, 8), (513, 4)] {
            check_accumulating(&tables, m, 9, 4, n);
            check_accumulating(&tables, m, PANEL / 4 + 1, 2, n);
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
