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
//!   a transposing gather for `nt`; tail columns padded with zeros).
//! - An `MR×NR` tile of `C` then lives in locals while the kernel walks
//!   the panel, gathering the tile's `MR` values of `A` per `k` from rows
//!   (`nn`/`nt`) or a column run (`tn`).
//! - The partial sums of a tile go back through `C` between K-chunks
//!   (an `f32` store is exact), so the panel stays a fixed 4 KiB array
//!   and the kernel never allocates.
//!
//! # Three tile tables
//!
//! A tile's accumulators are independent add chains, and an add has a
//! latency of several cycles, so a tile needs about eight chains in
//! flight to issue one vector add per cycle (Goto & van de Geijn,
//! "Anatomy of High-Performance Matrix Multiplication", 2008). The one
//! tile walker is compiled three times, each with its own table of `MR×NR`
//! tile shapes by the number of columns left:
//!
//! - The 128-bit table: 1×32 for ≥ 32 columns, 2×16 for 13–31, 2×12 for
//!   9–12, 4×8 for 5–8 and 8×4 below. Every tile is 32 floats, eight SSE
//!   registers. It is the only path on targets other than x86_64 and on
//!   x86_64 CPUs without AVX2.
//! - The 256-bit table: 2×32 for ≥ 32 columns, 4×16 for 16–31, 8×8 for
//!   8–15 and 8×4 below. It is compiled with AVX2 enabled and chosen at
//!   run time when the CPU reports AVX2. Its tiles hold eight 8-lane
//!   accumulators (64 floats): the 1×32 tile would be only four 256-bit
//!   chains and bound by add latency. Its 8×4 tail tile is eight 4-lane
//!   chains, as in the 128-bit table.
//! - The 512-bit table: 2×64 for ≥ 64 columns and 4×32 for 32–63, each
//!   eight 16-lane accumulators (128 floats), then the 256-bit table's
//!   4×16, 8×8 and 8×4 below 32. It is compiled with AVX-512F enabled and
//!   chosen before the 256-bit table when the CPU reports AVX-512F. It has
//!   no 8×16 tile (eight one-register rows) for 16–31 columns: tried in
//!   place of the 4×16 tile, it made LeNet's 6×196×25 `nt` product about
//!   three times slower on an AVX-512 Xeon.
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
//! of additions within one element, so all three layouts and all three tables
//! agree with a naive sequential triple loop down to the last ULP (NaN
//! payloads aside, which IEEE-754 leaves unspecified).
//!
//! There is no zero-skip. With a non-finite `B`, skipping `0.0·b` would
//! mask the NaN the product must carry — a zeroed weight or activation
//! would hide e.g. an overflowing activation under stuck-at-zero faults —
//! so a skip has to be gated on a finiteness scan of `B`; with that scan
//! included, the search over post-ReLU activations (about half zeros) ran
//! slower with the skip than without it.

use std::array::from_fn;

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
/// fully overwritten, on the widest tile table the CPU runs.
fn gemm<const A_T: bool, const B_T: bool>(ops: Operands<'_>, c: &mut [f32]) {
    if ops.k == 0 {
        c.fill(0.0);
        return;
    }
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx512f") {
        // SAFETY: `is_x86_feature_detected!("avx512f")` just confirmed
        // AVX-512F, and every CPU with AVX-512F also has the AVX2 and FMA
        // that enabling it implies, so the CPU runs every instruction this
        // build uses.
        unsafe { gemm_avx512::<A_T, B_T>(ops, c) };
        return;
    }
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: `is_x86_feature_detected!("avx2")` just confirmed that
        // the running CPU supports every instruction this AVX2 build uses.
        unsafe { gemm_avx2::<A_T, B_T>(ops, c) };
        return;
    }
    gemm_portable::<A_T, B_T>(ops, c);
}

/// The 128-bit tile table (see the module docs), for any CPU.
fn gemm_portable<const A_T: bool, const B_T: bool>(ops: Operands<'_>, c: &mut [f32]) {
    walk_tiles::<128, A_T, B_T>(ops, c);
}

/// The 256-bit tile table (see the module docs).
///
/// # Safety
///
/// The running CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn gemm_avx2<const A_T: bool, const B_T: bool>(ops: Operands<'_>, c: &mut [f32]) {
    walk_tiles::<256, A_T, B_T>(ops, c);
}

/// The 512-bit tile table (see the module docs).
///
/// # Safety
///
/// The running CPU must support AVX-512F.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn gemm_avx512<const A_T: bool, const B_T: bool>(ops: Operands<'_>, c: &mut [f32]) {
    walk_tiles::<512, A_T, B_T>(ops, c);
}

/// Walks `C` in column blocks, each as wide as the table's tile for the
/// remaining columns; `BITS` (128, 256 or 512) picks the table. Inlined
/// into every entry point, so each compiles it for its own instruction
/// set.
#[inline(always)]
fn walk_tiles<const BITS: u32, const A_T: bool, const B_T: bool>(ops: Operands<'_>, c: &mut [f32]) {
    let mut panel = [0.0f32; PANEL];
    let mut j0 = 0;
    while j0 < ops.n {
        j0 += match (BITS, ops.n - j0) {
            (512, 64..) => column_block::<2, 64, A_T, B_T>(ops, c, j0, &mut panel),
            (512, 32..=63) => column_block::<4, 32, A_T, B_T>(ops, c, j0, &mut panel),
            (256, 32..) => column_block::<2, 32, A_T, B_T>(ops, c, j0, &mut panel),
            (256 | 512, 16..=31) => column_block::<4, 16, A_T, B_T>(ops, c, j0, &mut panel),
            (256 | 512, 8..=15) => column_block::<8, 8, A_T, B_T>(ops, c, j0, &mut panel),
            (128, 32..) => column_block::<1, 32, A_T, B_T>(ops, c, j0, &mut panel),
            (128, 13..=31) => column_block::<2, 16, A_T, B_T>(ops, c, j0, &mut panel),
            (128, 9..=12) => column_block::<2, 12, A_T, B_T>(ops, c, j0, &mut panel),
            (128, 5..=8) => column_block::<4, 8, A_T, B_T>(ops, c, j0, &mut panel),
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
    gemm::<false, false>(Operands { a, b, m, k, n }, c);
}

/// `C = Aᵀ·B` on raw row-major slices: `[k, m] x [k, n] -> [m, n]`.
///
/// See [`gemm_into`] for overwrite and panic behaviour.
pub fn gemm_tn_into(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    let _t = telemetry::Timer::start(telemetry::duration_histogram!("tensor_gemm_seconds"));
    assert_eq!(a.len(), k * m, "gemm_tn_into lhs length mismatch");
    assert_eq!(b.len(), k * n, "gemm_tn_into rhs length mismatch");
    assert_eq!(c.len(), m * n, "gemm_tn_into output length mismatch");
    gemm::<true, false>(Operands { a, b, m, k, n }, c);
}

/// `C = A·Bᵀ` on raw row-major slices: `[m, k] x [n, k] -> [m, n]`.
///
/// See [`gemm_into`] for overwrite and panic behaviour.
pub fn gemm_nt_into(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    let _t = telemetry::Timer::start(telemetry::duration_histogram!("tensor_gemm_seconds"));
    assert_eq!(a.len(), m * k, "gemm_nt_into lhs length mismatch");
    assert_eq!(b.len(), n * k, "gemm_nt_into rhs length mismatch");
    assert_eq!(c.len(), m * n, "gemm_nt_into output length mismatch");
    gemm::<false, true>(Operands { a, b, m, k, n }, c);
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

    /// One tile table's `nn`, `tn` and `nt` instantiations.
    struct Table {
        name: &'static str,
        layouts: [Kernel; 3],
    }

    /// The tables this CPU can run: the portable one always, the AVX2
    /// one where the CPU has AVX2 and the AVX-512F one where it has
    /// AVX-512F. The dispatcher picks only the widest, so each is called
    /// directly here.
    fn tables() -> Vec<Table> {
        #[allow(unused_mut)]
        let mut tables = vec![Table {
            name: "128-bit",
            layouts: [
                gemm_portable::<false, false>,
                gemm_portable::<true, false>,
                gemm_portable::<false, true>,
            ],
        }];
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY (all three): the CPU reported AVX2 just above.
            tables.push(Table {
                name: "256-bit",
                layouts: [
                    |ops, c| unsafe { gemm_avx2::<false, false>(ops, c) },
                    |ops, c| unsafe { gemm_avx2::<true, false>(ops, c) },
                    |ops, c| unsafe { gemm_avx2::<false, true>(ops, c) },
                ],
            });
        }
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx512f") {
            // SAFETY (all three): the CPU reported AVX-512F just above.
            tables.push(Table {
                name: "512-bit",
                layouts: [
                    |ops, c| unsafe { gemm_avx512::<false, false>(ops, c) },
                    |ops, c| unsafe { gemm_avx512::<true, false>(ops, c) },
                    |ops, c| unsafe { gemm_avx512::<false, true>(ops, c) },
                ],
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
            (len - 1, f32::NEG_INFINITY),
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
                kernel(Operands { a, b, m, k, n }, &mut c);
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
    /// the K-chunk boundary of every tile width; the 512-bit table's 2×64
    /// and 4×32 blocks followed by every 1–15-column tail; plus the LeNet
    /// and MLP products the micro bench times.
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
        // 4×32 (n 32–47), 2×64 (64–79), 2×64 then 4×32 (96–111) and
        // 2×64 twice (128–143), each then the 0–15-column tail, around
        // the K-chunks of NR = 64 (`PANEL / 64` values of k) and of
        // NR = 32 (twice that).
        let kc = PANEL / 64;
        for base in [32, 64, 96, 128] {
            for n in base..base + 16 {
                for m in [1, 2, 3, 4, 5, 7] {
                    for k in [1, kc - 1, kc, kc + 1, 2 * kc + 1, 3 * kc + 5] {
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
