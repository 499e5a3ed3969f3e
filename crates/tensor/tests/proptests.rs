//! Property-based tests for tensor invariants.

use proptest::prelude::*;
use tensor::{
    col2im_into, gemm_into, gemm_nt_into, gemm_tn_into, im2col_into, Conv2dSpec, Shape, Tensor,
};

fn small_matrix() -> impl Strategy<Value = Tensor> {
    (1usize..6, 1usize..6).prop_flat_map(|(r, c)| {
        proptest::collection::vec(-10.0f32..10.0, r * c)
            .prop_map(move |data| Tensor::from_vec(data, &[r, c]).expect("length matches"))
    })
}

proptest! {
    #[test]
    fn shape_len_is_product(dims in proptest::collection::vec(1usize..6, 1..4)) {
        let s = Shape::new(&dims);
        prop_assert_eq!(s.len(), dims.iter().product::<usize>());
        prop_assert_eq!(s.rank(), dims.len());
    }

    #[test]
    fn strides_decrease_row_major(dims in proptest::collection::vec(1usize..6, 1..4)) {
        let strides = Shape::new(&dims).strides();
        for w in strides.windows(2) {
            prop_assert!(w[0] >= w[1]);
        }
        prop_assert_eq!(*strides.last().unwrap(), 1);
    }

    #[test]
    fn add_commutes(a in small_matrix()) {
        let b = a.map(|v| v * 0.5 - 1.0);
        let mut ab = a.clone();
        ab.add_assign(&b);
        let mut ba = b.clone();
        ba.add_assign(&a);
        prop_assert_eq!(ab.as_slice(), ba.as_slice());
    }

    #[test]
    fn sub_self_is_zero(a in small_matrix()) {
        prop_assert!(a.sub(&a).as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn scale_is_linear_in_sum(a in small_matrix(), k in -4.0f32..4.0) {
        let mut scaled = a.clone();
        scaled.scale_inplace(k);
        let scaled_sum = scaled.sum();
        prop_assert!((scaled_sum - k * a.sum()).abs() < 1e-2 * (1.0 + a.sum().abs() * k.abs()));
    }

    #[test]
    fn transpose_is_involution(a in small_matrix()) {
        let tt = a.transposed().transposed();
        prop_assert_eq!(tt.as_slice(), a.as_slice());
        prop_assert_eq!(tt.dims(), a.dims());
    }

    #[test]
    fn matmul_identity_right(a in small_matrix()) {
        let (m, k) = (a.dims()[0], a.dims()[1]);
        let mut out = Tensor::zeros(&[m, k]);
        gemm_into(a.as_slice(), Tensor::eye(k).as_slice(), out.as_mut_slice(), m, k, k);
        for (x, y) in out.as_slice().iter().zip(a.as_slice()) {
            prop_assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn matmul_tn_matches_transpose(a in small_matrix(), seed in 0u64..100) {
        // b with compatible leading dim.
        let k = a.dims()[0];
        let n = 1 + (seed as usize % 4);
        let b = Tensor::from_vec(
            (0..k * n).map(|i| ((i as f32) + seed as f32).sin()).collect(),
            &[k, n],
        ).unwrap();
        let m = a.dims()[1];
        let (mut tn, mut explicit) = (vec![0.0; m * n], vec![0.0; m * n]);
        gemm_tn_into(a.as_slice(), b.as_slice(), &mut tn, m, k, n);
        gemm_into(a.transposed().as_slice(), b.as_slice(), &mut explicit, m, k, n);
        for (x, y) in tn.iter().zip(&explicit) {
            prop_assert!((x - y).abs() < 1e-4);
        }
    }

    #[test]
    fn softmax_rows_are_distributions(a in small_matrix()) {
        let s = a.softmax_rows();
        for r in 0..s.dims()[0] {
            let row = s.row(r);
            prop_assert!(row.iter().all(|&v| (0.0..=1.0).contains(&v)));
            let sum: f32 = row.iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-4);
        }
    }

    #[test]
    fn outer_rank_one_structure(u in proptest::collection::vec(-5.0f32..5.0, 1..5),
                                v in proptest::collection::vec(-5.0f32..5.0, 1..5)) {
        // A product over k = 1 is the outer product u·vᵀ.
        let mut o = vec![f32::NAN; u.len() * v.len()];
        gemm_into(&u, &v, &mut o, u.len(), 1, v.len());
        for (i, &ui) in u.iter().enumerate() {
            for (j, &vj) in v.iter().enumerate() {
                prop_assert!((o[i * v.len() + j] - ui * vj).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn im2col_preserves_energy_without_padding_stride_kernel1(
        vals in proptest::collection::vec(-3.0f32..3.0, 9)
    ) {
        // 1x1 kernel im2col is a bijection on elements.
        let spec = Conv2dSpec::new(1, 1, 1, 1, 0);
        let mut col = vec![f32::NAN; 9];
        im2col_into(&vals, &mut col, &spec, 1, 3, 3);
        prop_assert_eq!(col, vals);
    }

    #[test]
    fn argmax_rows_is_row_maximum(a in small_matrix()) {
        let idx = a.argmax_rows();
        for (r, &i) in idx.iter().enumerate() {
            let row = a.row(r);
            prop_assert!(row.iter().all(|&v| v <= row[i]));
        }
    }
}

/// `A·B` for row-major `a` (`[m, k]`) and `b` (`[k, n]`) as a naive triple
/// loop: each element starts at `+0.0` and adds its `a·b` terms in
/// ascending `k`, each as a separate multiply then add.
fn naive_gemm(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
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

/// Bit patterns with every NaN mapped to one value: the kernels promise
/// bit identity, but IEEE-754 leaves NaN payloads and signs unspecified.
fn canonical_bits(values: &[f32]) -> Vec<u32> {
    values
        .iter()
        .map(|v| if v.is_nan() { u32::MAX } else { v.to_bits() })
        .collect()
}

/// Random operands for an `m×k×n` product: about 30 % of `A` is exact
/// zeros (some negative) and, with `nonfinite`, about 6 % of `B` is NaN
/// or ±∞.
fn gemm_operands(m: usize, k: usize, n: usize, seed: u64, nonfinite: bool) -> (Vec<f32>, Vec<f32>) {
    use rand::{Rng, SeedableRng};
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
    let a = (0..m * k)
        .map(|_| match rng.gen_range(0u32..20) {
            0..=4 => 0.0,
            5 => -0.0,
            _ => rng.gen_range(-2.0f32..2.0),
        })
        .collect();
    let b = (0..k * n)
        .map(|_| match rng.gen_range(0u32..50) {
            0 if nonfinite => f32::NAN,
            1 if nonfinite => f32::INFINITY,
            2 if nonfinite => f32::NEG_INFINITY,
            _ => rng.gen_range(-2.0f32..2.0),
        })
        .collect();
    (a, b)
}

/// The old per-element `im2col`: one bounds check per output element.
fn naive_im2col(src: &[f32], spec: &Conv2dSpec, h: usize, w: usize) -> Vec<f32> {
    let (oh, ow) = spec.output_hw(h, w);
    let k = spec.kernel;
    let mut dst = vec![0.0f32; spec.patch_len() * oh * ow];
    for c in 0..spec.in_channels {
        for ky in 0..k {
            for kx in 0..k {
                let row = (c * k + ky) * k + kx;
                for oy in 0..oh {
                    for ox in 0..ow {
                        let iy = (oy * spec.stride + ky) as isize - spec.padding as isize;
                        let ix = (ox * spec.stride + kx) as isize - spec.padding as isize;
                        if (0..h as isize).contains(&iy) && (0..w as isize).contains(&ix) {
                            dst[row * oh * ow + oy * ow + ox] =
                                src[(c * h + iy as usize) * w + ix as usize];
                        }
                    }
                }
            }
        }
    }
    dst
}

/// The old per-element `col2im`: scatter-add in `(c, ky, kx, oy, ox)` order.
fn naive_col2im(src: &[f32], spec: &Conv2dSpec, h: usize, w: usize) -> Vec<f32> {
    let (oh, ow) = spec.output_hw(h, w);
    let k = spec.kernel;
    let mut dst = vec![0.0f32; spec.in_channels * h * w];
    for c in 0..spec.in_channels {
        for ky in 0..k {
            for kx in 0..k {
                let row = (c * k + ky) * k + kx;
                for oy in 0..oh {
                    for ox in 0..ow {
                        let iy = (oy * spec.stride + ky) as isize - spec.padding as isize;
                        let ix = (ox * spec.stride + kx) as isize - spec.padding as isize;
                        if (0..h as isize).contains(&iy) && (0..w as isize).contains(&ix) {
                            dst[(c * h + iy as usize) * w + ix as usize] +=
                                src[row * oh * ow + oy * ow + ox];
                        }
                    }
                }
            }
        }
    }
    dst
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every gemm layout equals the naive sequential triple loop bit for
    /// bit, across sizes that straddle every tile width and K-panel depth
    /// (k = 0 included), sparse `A` and non-finite `B`.
    #[test]
    fn gemm_variants_match_naive_triple_loop(
        m in 0usize..41,
        k in 0usize..41,
        n in 0usize..41,
        seed in 0u64..u64::MAX,
        nonfinite in 0u8..2,
    ) {
        let (a, b) = gemm_operands(m, k, n, seed, nonfinite == 1);
        // `b` read as `[k, n]`; `bt` holds the same matrix as `[n, k]`.
        let bt: Vec<f32> = (0..n * k).map(|x| b[(x % k) * n + x / k]).collect();
        // `a` read as `[m, k]`; `at` holds the same matrix as `[k, m]`.
        let at: Vec<f32> = (0..k * m).map(|x| a[(x % m) * k + x / m]).collect();
        let want = canonical_bits(&naive_gemm(&a, &b, m, k, n));

        let mut c = vec![f32::NAN; m * n]; // recycled garbage must vanish
        gemm_into(&a, &b, &mut c, m, k, n);
        prop_assert_eq!(canonical_bits(&c), want.clone());

        c.fill(7.0);
        gemm_tn_into(&at, &b, &mut c, m, k, n);
        prop_assert_eq!(canonical_bits(&c), want.clone());

        c.fill(-3.0);
        gemm_nt_into(&a, &bt, &mut c, m, k, n);
        prop_assert_eq!(canonical_bits(&c), want);
    }

    /// `im2col_into`/`col2im_into` equal the per-element loops bit for bit
    /// over random geometry, writing into dirty recycled buffers.
    #[test]
    fn im2col_col2im_match_per_element_loops(
        geometry in (1usize..4, 1usize..6, 1usize..4, 0usize..4),
        extra_h in 0usize..9,
        extra_w in 0usize..9,
        seed in 0u64..u64::MAX,
    ) {
        use rand::{Rng, SeedableRng};
        let (channels, kernel, stride, padding) = geometry;
        let spec = Conv2dSpec::new(channels, 1, kernel, stride, padding);
        // The padded input must cover the kernel.
        let min_side = kernel.saturating_sub(2 * padding).max(1);
        let (h, w) = (min_side + extra_h, min_side + extra_w);
        let (oh, ow) = spec.output_hw(h, w);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let image: Vec<f32> = (0..channels * h * w).map(|_| rng.gen_range(-2.0f32..2.0)).collect();
        let cols: Vec<f32> = (0..spec.patch_len() * oh * ow)
            .map(|_| rng.gen_range(-2.0f32..2.0))
            .collect();

        let mut col_buf = vec![f32::NAN; spec.patch_len() * oh * ow];
        im2col_into(&image, &mut col_buf, &spec, 1, h, w);
        prop_assert_eq!(canonical_bits(&col_buf), canonical_bits(&naive_im2col(&image, &spec, h, w)));

        let mut image_buf = vec![f32::NAN; channels * h * w];
        col2im_into(&cols, &mut image_buf, &spec, 1, h, w);
        prop_assert_eq!(canonical_bits(&image_buf), canonical_bits(&naive_col2im(&cols, &spec, h, w)));
    }

    /// `n` images lowered side by side equal `n` per-sample lowerings bit
    /// for bit (sample `s` in columns `s·OH·OW..` of every row), and the
    /// batched scatter equals `n` per-sample scatters, into dirty buffers.
    #[test]
    fn batched_im2col_col2im_match_per_sample_loops(
        geometry in (1usize..4, 1usize..6, 1usize..4, 0usize..4),
        n in 1usize..6,
        extra_h in 0usize..9,
        extra_w in 0usize..9,
        seed in 0u64..u64::MAX,
    ) {
        use rand::{Rng, SeedableRng};
        let (channels, kernel, stride, padding) = geometry;
        let spec = Conv2dSpec::new(channels, 1, kernel, stride, padding);
        let min_side = kernel.saturating_sub(2 * padding).max(1);
        let (h, w) = (min_side + extra_h, min_side + extra_w);
        let (oh, ow) = spec.output_hw(h, w);
        let (image_len, ncols, patch) = (channels * h * w, oh * ow, spec.patch_len());
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let images: Vec<f32> = (0..n * image_len).map(|_| rng.gen_range(-2.0f32..2.0)).collect();
        let cols: Vec<f32> = (0..patch * n * ncols)
            .map(|_| rng.gen_range(-2.0f32..2.0))
            .collect();

        let mut want_cols = vec![0.0f32; patch * n * ncols];
        let mut want_images = Vec::with_capacity(n * image_len);
        for s in 0..n {
            let one = naive_im2col(&images[s * image_len..][..image_len], &spec, h, w);
            let mut sample_cols = Vec::with_capacity(patch * ncols);
            for row in 0..patch {
                let at = row * n * ncols + s * ncols;
                want_cols[at..at + ncols].copy_from_slice(&one[row * ncols..][..ncols]);
                sample_cols.extend_from_slice(&cols[at..at + ncols]);
            }
            want_images.extend(naive_col2im(&sample_cols, &spec, h, w));
        }

        let mut col_buf = vec![f32::NAN; patch * n * ncols];
        im2col_into(&images, &mut col_buf, &spec, n, h, w);
        prop_assert_eq!(canonical_bits(&col_buf), canonical_bits(&want_cols));

        let mut image_buf = vec![f32::NAN; n * image_len];
        col2im_into(&cols, &mut image_buf, &spec, n, h, w);
        prop_assert_eq!(canonical_bits(&image_buf), canonical_bits(&want_images));
    }
}
