//! Four-lane AVX2+FMA copies of glibc's `logf`, `cosf` and `expf`, for the
//! Box–Muller normals and log-normal factors the drift models draw.
//!
//! On x86-64, glibc (2.28 and later) resolves `logf`, `cosf` and `expf`
//! through ifuncs that pick their `*_fma` builds when the CPU has both
//! AVX2 and FMA. Each build is ARM's optimized-routines code
//! (`math/logf.c`, `math/cosf.c` with `math/sincosf.h`, `math/expf.c`,
//! and their `*_data.c` tables): a fixed sequence of double-precision
//! operations over small tables, compiled with every `a·b + c` contracted
//! to one FMA. The functions below replay those sequences operation for
//! operation on four lanes, with the tables' bits as hex literals, so each
//! lane returns the bits the scalar call returns. Between the three calls
//! the lanes run the scalar expressions' own `f32` operations, each
//! rounded on its own (no `f32` FMA).
//!
//! Every uniform uses only the top 24 bits of its word, and the normal is
//! the `f32` product of a factor of the first word, `sqrt(-2·ln u1)`, and
//! a factor of the second, `cos(2π·u2)`. The tests run each factor over
//! all 2²⁴ values its word can give, against the scalar
//! `normal_from_words`, which proves the kernel's normal for every word
//! pair; an ignored test sweeps `expf` over every `f32` below 88 in
//! magnitude.
//!
//! [`normals`] and [`scale_by_exp`] run the kernel only where glibc picks
//! the builds it copies: x86-64 with the GNU C library, AVX2 and FMA.
//! Once per process a probe also checks a fixed set of inputs against the
//! scalar calls and turns the kernel off if any differs (an older glibc,
//! or a libm of another origin). Where the kernel is off, both return
//! `false` and the caller runs the scalar code.

use std::arch::x86_64::*;
use std::sync::OnceLock;

use crate::drift::normal_from_words;

/// Scalars per kernel step.
const LANES: usize = 4;

// `logf` (optimized-routines math/logf.c): x = 2^k·z with z in
// [OFF, 2·OFF) split into 16 subintervals, each with a centre c near z;
// ln x = log1p(z/c − 1) + ln c + k·ln 2, log1p by a cubic.

/// `asuint(0x1.66p-1f)`, the bottom of the reduced range.
const LOGF_OFF: i32 = 0x3f33_0000;

/// `(1/c, ln c)` of each subinterval, interleaved (`__logf_data.tab`).
static LOGF_TABLE: [u64; 32] = [
    0x3ff661ec79f8f3be,
    0xbfd57bf7808caade,
    0x3ff571ed4aaf883d,
    0xbfd2bef0a7c06ddb,
    0x3ff49539f0f010b0,
    0xbfd01eae7f513a67,
    0x3ff3c995b0b80385,
    0xbfcb31d8a68224e9,
    0x3ff30d190c8864a5,
    0xbfc6574f0ac07758,
    0x3ff25e227b0b8ea0,
    0xbfc1aa2bc79c8100,
    0x3ff1bb4a4a1a343f,
    0xbfba4e76ce8c0e5e,
    0x3ff12358f08ae5ba,
    0xbfb1973c5a611ccc,
    0x3ff0953f419900a7,
    0xbfa252f438e10c1e,
    0x3ff0000000000000,
    0x0000000000000000,
    0x3fee608cfd9a47ac,
    0x3faaa5aa5df25984,
    0x3feca4b31f026aa0,
    0x3fbc5e53aa362eb4,
    0x3feb2036576afce6,
    0x3fc526e57720db08,
    0x3fe9c2d163a1aa2d,
    0x3fcbc2860d224770,
    0x3fe886e6037841ed,
    0x3fd1058bc8a07ee1,
    0x3fe767dcf5534862,
    0x3fd4043057b6ee09,
];

/// `__logf_data.ln2`.
const LN2: f64 = f64::from_bits(0x3fe62e42fefa39ef);

/// `__logf_data.poly`: A0, A1, A2.
const LOGF_A: [f64; 3] = [
    f64::from_bits(0xbfd00ea348b88334),
    f64::from_bits(0x3fd5575b0be00b6a),
    f64::from_bits(0xbfdffffef20a4123),
];

// `cosf` (optimized-routines math/cosf.c, math/sincosf.h): below 2^-12
// the result is 1; otherwise x − n·π/2 = r with |r| ≤ π/4 (`reduce_fast`,
// exact enough below 120), and quadrant n picks ±cos r or ±sin r.

/// `__sincosf_table[0].hpi_inv`: 2/π · 2^24.
const HPI_INV: f64 = f64::from_bits(0x41645f306dc9c883);

/// `__sincosf_table[0].hpi`: π/2.
const HPI: f64 = f64::from_bits(0x3ff921fb54442d18);

/// `__sincosf_table[0]`'s cosine polynomial: c0 … c4.
const COSF_C: [f64; 5] = [
    f64::from_bits(0x3ff0000000000000),
    f64::from_bits(0xbfdffffffd0c621c),
    f64::from_bits(0x3fa55553e1068f19),
    f64::from_bits(0xbf56c087e89a359d),
    f64::from_bits(0x3ef99343027bf8c3),
];

/// `__sincosf_table[0]`'s sine polynomial: s1, s2, s3.
const COSF_S: [f64; 3] = [
    f64::from_bits(0xbfc555545995a603),
    f64::from_bits(0x3f81107605230bc4),
    f64::from_bits(0xbf2994eb3774cf24),
];

// `expf` (optimized-routines math/expf.c): x·32/ln 2 = k + r with integer
// k and |r| ≤ 1/2; e^x = 2^(k/32) · 2^(r/32), the first factor from a
// 32-entry table with k's high bits added to its exponent, the second by
// a cubic.

/// `__exp2f_data.tab`: the bits of 2^(i/32), minus `i << 47`.
static EXP2F_TABLE: [u64; 32] = [
    0x3ff0000000000000,
    0x3fefd9b0d3158574,
    0x3fefb5586cf9890f,
    0x3fef9301d0125b51,
    0x3fef72b83c7d517b,
    0x3fef54873168b9aa,
    0x3fef387a6e756238,
    0x3fef1e9df51fdee1,
    0x3fef06fe0a31b715,
    0x3feef1a7373aa9cb,
    0x3feedea64c123422,
    0x3feece086061892d,
    0x3feebfdad5362a27,
    0x3feeb42b569d4f82,
    0x3feeab07dd485429,
    0x3feea47eb03a5585,
    0x3feea09e667f3bcd,
    0x3fee9f75e8ec5f74,
    0x3feea11473eb0187,
    0x3feea589994cce13,
    0x3feeace5422aa0db,
    0x3feeb737b0cdc5e5,
    0x3feec49182a3f090,
    0x3feed503b23e255d,
    0x3feee89f995ad3ad,
    0x3feeff76f2fb5e47,
    0x3fef199bdd85529c,
    0x3fef3720dcef9069,
    0x3fef5818dcfba487,
    0x3fef7c97337b9b5f,
    0x3fefa4afa2a490da,
    0x3fefd0765b6e4540,
];

/// `__exp2f_data.invln2_scaled`: 32/ln 2.
const EXPF_INV_LN2_N: f64 = f64::from_bits(0x40471547652b82fe);

/// `__exp2f_data.shift`: 1.5·2^52, which rounds a sum to an integer.
const EXPF_SHIFT: f64 = f64::from_bits(0x4338000000000000);

/// `__exp2f_data.poly_scaled`: C0, C1, C2.
const EXPF_C: [f64; 3] = [
    f64::from_bits(0x3ebc6af84b912394),
    f64::from_bits(0x3f2ebfce50fac4f3),
    f64::from_bits(0x3f962e42ff0c52d6),
];

/// The smallest top-12 bits of `|x|` (sign, exponent and three mantissa
/// bits, sign cleared) that leave `expf`'s fast path: `|x| ≥ 88` or not
/// finite.
const EXPF_SLOW_TOP: i32 = 0x42b;

/// Fills `z[i]` with `normal_from_words` of the `i`-th 8-byte pair of
/// `words` (two little-endian `u32`s, low first). Returns `false`, with
/// `z` untouched, where the kernel is off.
///
/// # Panics
///
/// Panics if `words` is not 8 bytes per element of `z`.
pub(crate) fn normals(words: &[u8], z: &mut [f32]) -> bool {
    assert_eq!(words.len(), 8 * z.len(), "one word pair per normal");
    if !enabled() {
        return false;
    }
    // SAFETY: `enabled` returned true only after detecting AVX2 and FMA.
    unsafe { normals_avx2(words, z) };
    true
}

/// Multiplies each `values[i]` by `(sigma * z[i]).exp()`, the log-normal
/// factor. Returns `false`, with `values` untouched, where the kernel is
/// off.
///
/// # Panics
///
/// Panics if `values` and `z` differ in length.
pub(crate) fn scale_by_exp(values: &mut [f32], sigma: f32, z: &[f32]) -> bool {
    assert_eq!(values.len(), z.len(), "one normal per value");
    if !enabled() {
        return false;
    }
    // SAFETY: `enabled` returned true only after detecting AVX2 and FMA.
    unsafe { scale_by_exp_avx2(values, sigma, z) };
    true
}

/// Whether the kernel runs in this process: the CPU has AVX2 and FMA,
/// and the kernel agrees with the scalar calls on the probe set. Decided
/// on the first call.
fn enabled() -> bool {
    static ENABLED: OnceLock<bool> = OnceLock::new();
    *ENABLED.get_or_init(|| {
        is_x86_feature_detected!("avx2")
            && is_x86_feature_detected!("fma")
            // SAFETY: the CPU reported AVX2 and FMA just above.
            && unsafe { agrees_with_libm() }
    })
}

/// Whether the kernel gives the scalar calls' bits on 64 normals and on
/// their log-normal factors at two spreads, one of which sends some lanes
/// past `expf`'s fast path. The word pairs are fixed: (0, 0) and
/// (`u32::MAX`, `u32::MAX`) for the ends of both uniforms, (0, 0x100) for
/// `cosf`'s tiny path, then a 64-bit LCG stream for the rest.
///
/// # Safety
///
/// The running CPU must support AVX2 and FMA.
#[target_feature(enable = "avx2,fma")]
unsafe fn agrees_with_libm() -> bool {
    const PROBES: usize = 64;
    let mut words = [0u8; 8 * PROBES];
    let mut state = 0x853c_49e6_748f_ea9b_u64;
    for pair in words.chunks_exact_mut(8).skip(3) {
        state = state
            .wrapping_mul(0x5851_f42d_4c95_7f2d)
            .wrapping_add(0x1405_7b7e_f767_814f);
        pair.copy_from_slice(&state.to_le_bytes());
    }
    words[8..16].fill(0xff);
    words[20..24].copy_from_slice(&0x100u32.to_le_bytes());
    let mut z = [0.0f32; PROBES];
    // SAFETY: the caller guarantees AVX2 and FMA.
    unsafe { normals_avx2(&words, &mut z) };
    let word = |b: &[u8]| u32::from_le_bytes(b.try_into().expect("4-byte word"));
    let normals_agree = z.iter().zip(words.chunks_exact(8)).all(|(z, pair)| {
        z.to_bits() == normal_from_words(word(&pair[..4]), word(&pair[4..])).to_bits()
    });
    normals_agree
        && [0.7f32, 19.0].iter().all(|&sigma| {
            let mut scaled = [1.5f32; PROBES];
            // SAFETY: the caller guarantees AVX2 and FMA.
            unsafe { scale_by_exp_avx2(&mut scaled, sigma, &z) };
            scaled
                .iter()
                .zip(&z)
                .all(|(v, &z)| v.to_bits() == (1.5 * (sigma * z).exp()).to_bits())
        })
}

/// [`normals`] on the kernel.
///
/// # Safety
///
/// The running CPU must support AVX2 and FMA.
#[target_feature(enable = "avx2,fma")]
unsafe fn normals_avx2(words: &[u8], z: &mut [f32]) {
    let mut pairs = words.chunks_exact(8 * LANES);
    let mut out = z.chunks_exact_mut(LANES);
    for (pairs, z) in (&mut pairs).zip(&mut out) {
        let pairs: &[u8; 8 * LANES] = pairs.try_into().expect("four word pairs");
        z.copy_from_slice(&store(normal(pairs)));
    }
    let z = out.into_remainder();
    if !z.is_empty() {
        // The tail's missing pairs read as zero words; their lanes are
        // dropped.
        let mut padded = [0u8; 8 * LANES];
        padded[..8 * z.len()].copy_from_slice(pairs.remainder());
        z.copy_from_slice(&store(normal(&padded))[..z.len()]);
    }
}

/// [`scale_by_exp`] on the kernel.
///
/// # Safety
///
/// The running CPU must support AVX2 and FMA.
#[target_feature(enable = "avx2,fma")]
unsafe fn scale_by_exp_avx2(values: &mut [f32], sigma: f32, z: &[f32]) {
    let sigma = _mm_set1_ps(sigma);
    let mut vs = values.chunks_exact_mut(LANES);
    let mut zs = z.chunks_exact(LANES);
    for (v, z) in (&mut vs).zip(&mut zs) {
        let scaled = scale(load(v), _mm_mul_ps(sigma, load(z)));
        v.copy_from_slice(&store(scaled));
    }
    let v = vs.into_remainder();
    if !v.is_empty() {
        let (mut vp, mut zp) = ([0.0f32; LANES], [0.0f32; LANES]);
        vp[..v.len()].copy_from_slice(v);
        zp[..v.len()].copy_from_slice(zs.remainder());
        let scaled = scale(load(&vp), _mm_mul_ps(sigma, load(&zp)));
        v.copy_from_slice(&store(scaled)[..v.len()]);
    }
}

/// Four lanes from the first four floats of `v`.
#[inline]
#[target_feature(enable = "avx2,fma")]
fn load(v: &[f32]) -> __m128 {
    assert!(v.len() >= LANES, "a full lane group");
    // SAFETY: `v` holds at least four floats (checked above); an unaligned
    // load has no other requirement.
    unsafe { _mm_loadu_ps(v.as_ptr()) }
}

/// The four lanes of `v`.
#[inline]
#[target_feature(enable = "avx2,fma")]
fn store(v: __m128) -> [f32; LANES] {
    let mut out = [0.0f32; LANES];
    // SAFETY: `out` holds four floats; an unaligned store has no other
    // requirement.
    unsafe { _mm_storeu_ps(out.as_mut_ptr(), v) };
    out
}

/// `normal_from_words(w1, w2)` of four 8-byte word pairs.
#[inline]
#[target_feature(enable = "avx2,fma")]
fn normal(pairs: &[u8; 8 * LANES]) -> __m128 {
    // SAFETY: `pairs` holds 32 bytes; an unaligned load has no other
    // requirement.
    let w = unsafe { _mm256_loadu_si256(pairs.as_ptr().cast()) };
    // Each pair's first word to the low half, its second to the high one.
    let w = _mm256_permutevar8x32_epi32(w, _mm256_setr_epi32(0, 2, 4, 6, 1, 3, 5, 7));
    let (w1, w2) = (_mm256_castsi256_si128(w), _mm256_extracti128_si256::<1>(w));
    let u1 = _mm_add_ps(
        _mm_set1_ps(f32::EPSILON),
        _mm_mul_ps(unit(w1), _mm_set1_ps(1.0 - f32::EPSILON)),
    );
    let radius = _mm_sqrt_ps(_mm_mul_ps(_mm_set1_ps(-2.0), logf(u1)));
    let angle = _mm_mul_ps(_mm_set1_ps(2.0 * std::f32::consts::PI), unit(w2));
    _mm_mul_ps(radius, cosf(angle))
}

/// `(w >> 8) as f32 * 2^-24`, the uniform in [0, 1) of each word.
#[inline]
#[target_feature(enable = "avx2,fma")]
fn unit(w: __m128i) -> __m128 {
    _mm_mul_ps(
        _mm_cvtepi32_ps(_mm_srli_epi32::<8>(w)),
        _mm_set1_ps(1.0 / (1u32 << 24) as f32),
    )
}

/// `v * a.exp()` per lane: `expf`'s fast path, and scalar `f32::exp` for
/// the lanes that leave it.
#[inline]
#[target_feature(enable = "avx2,fma")]
fn scale(v: __m128, a: __m128) -> __m128 {
    let top = _mm_srli_epi32::<20>(_mm_and_si128(_mm_castps_si128(a), _mm_set1_epi32(i32::MAX)));
    let slow = _mm_movemask_ps(_mm_castsi128_ps(_mm_cmpgt_epi32(
        top,
        _mm_set1_epi32(EXPF_SLOW_TOP - 1),
    )));
    let mut e = expf(a);
    if slow != 0 {
        let (a, mut lanes) = (store(a), store(e));
        for (i, (e, a)) in lanes.iter_mut().zip(a).enumerate() {
            if slow & (1 << i) != 0 {
                *e = a.exp();
            }
        }
        e = load(&lanes);
    }
    _mm_mul_ps(v, e)
}

/// `logf` of four positive normal floats below 1 (every `u1` is one).
#[inline]
#[target_feature(enable = "avx2,fma")]
fn logf(x: __m128) -> __m128 {
    let ix = _mm_castps_si128(x);
    let tmp = _mm_sub_epi32(ix, _mm_set1_epi32(LOGF_OFF));
    let i = _mm_and_si128(_mm_srli_epi32::<19>(tmp), _mm_set1_epi32(15));
    let k = _mm_srai_epi32::<23>(tmp);
    let iz = _mm_sub_epi32(
        ix,
        _mm_and_si128(tmp, _mm_set1_epi32(0xff80_0000_u32 as i32)),
    );
    let entry = _mm_slli_epi32::<1>(i);
    let table = LOGF_TABLE.as_ptr().cast::<f64>();
    // SAFETY: `i` is masked to 0..16, so `2i` and `2i + 1` index the
    // 32-entry table.
    let (invc, logc) = unsafe {
        (
            _mm256_i32gather_pd::<8>(table, entry),
            _mm256_i32gather_pd::<8>(table.add(1), entry),
        )
    };
    let z = _mm256_cvtps_pd(_mm_castsi128_ps(iz));
    let r = _mm256_fmadd_pd(z, invc, _mm256_set1_pd(-1.0));
    let y0 = _mm256_fmadd_pd(_mm256_cvtepi32_pd(k), _mm256_set1_pd(LN2), logc);
    let r2 = _mm256_mul_pd(r, r);
    let y = _mm256_fmadd_pd(r, _mm256_set1_pd(LOGF_A[1]), _mm256_set1_pd(LOGF_A[2]));
    let y = _mm256_fmadd_pd(r2, _mm256_set1_pd(LOGF_A[0]), y);
    let y = _mm256_fmadd_pd(r2, y, _mm256_add_pd(y0, r));
    _mm256_cvtpd_ps(y)
}

/// `cosf` of four floats in [0, 120), as glibc's three paths. Below 0.75
/// (top-12 bits under `asuint(π/4)`'s) glibc runs the cosine polynomial
/// on `x` itself; `reduce_fast` gives n = 0 and r = x − 0·π/2 = x exactly
/// there, so the quadrant path covers it.
#[inline]
#[target_feature(enable = "avx2,fma")]
fn cosf(y: __m128) -> __m128 {
    let top = _mm_srli_epi32::<20>(_mm_castps_si128(y));
    let x = _mm256_cvtps_pd(y);
    // reduce_fast: n = ((i32)(x·hpi_inv) + 2^23) >> 24, r = x − n·π/2.
    let n = _mm256_cvttpd_epi32(_mm256_mul_pd(x, _mm256_set1_pd(HPI_INV)));
    let n = _mm_srai_epi32::<24>(_mm_add_epi32(n, _mm_set1_epi32(0x80_0000)));
    let r = _mm256_fnmadd_pd(_mm256_cvtepi32_pd(n), _mm256_set1_pd(HPI), x);
    let r2 = _mm256_mul_pd(r, r);
    // sinf_poly's cosine branch.
    let r4 = _mm256_mul_pd(r2, r2);
    let c1 = _mm256_fmadd_pd(r2, _mm256_set1_pd(COSF_C[1]), _mm256_set1_pd(COSF_C[0]));
    let c2 = _mm256_fmadd_pd(r2, _mm256_set1_pd(COSF_C[4]), _mm256_set1_pd(COSF_C[3]));
    let r6 = _mm256_mul_pd(r2, r4);
    let c = _mm256_fmadd_pd(r4, _mm256_set1_pd(COSF_C[2]), c1);
    let cos = _mm256_cvtpd_ps(_mm256_fmadd_pd(r6, c2, c));
    // Its sine branch.
    let s1 = _mm256_fmadd_pd(r2, _mm256_set1_pd(COSF_S[2]), _mm256_set1_pd(COSF_S[1]));
    let r3 = _mm256_mul_pd(r2, r);
    let r7 = _mm256_mul_pd(r2, r3);
    let s = _mm256_fmadd_pd(r3, _mm256_set1_pd(COSF_S[0]), r);
    let sin = _mm256_cvtpd_ps(_mm256_fmadd_pd(r7, s1, s));
    // Odd quadrants take the sine, even ones the cosine. glibc negates
    // quadrant 1's sine through the sign of r and quadrant 2's cosine
    // through the second table's negated coefficients. Every step is odd
    // in those signs, so flipping the sign bit of the rounded result gives
    // the same bits; bit 1 of n + 1 is set exactly for n ≡ 1, 2 (mod 4).
    let v = _mm_blendv_ps(cos, sin, _mm_castsi128_ps(_mm_slli_epi32::<31>(n)));
    let negative = _mm_slli_epi32::<30>(_mm_add_epi32(n, _mm_set1_epi32(1)));
    let negative = _mm_and_si128(negative, _mm_set1_epi32(i32::MIN));
    let v = _mm_xor_ps(v, _mm_castsi128_ps(negative));
    let tiny = _mm_cmplt_epi32(top, _mm_set1_epi32(0x398));
    _mm_blendv_ps(v, _mm_set1_ps(1.0), _mm_castsi128_ps(tiny))
}

/// `expf`'s fast path on four floats; lanes with `|x| ≥ 88` or not
/// finite give unspecified values.
#[inline]
#[target_feature(enable = "avx2,fma")]
fn expf(x: __m128) -> __m128 {
    let xd = _mm256_cvtps_pd(x);
    let kd = _mm256_fmadd_pd(
        _mm256_set1_pd(EXPF_INV_LN2_N),
        xd,
        _mm256_set1_pd(EXPF_SHIFT),
    );
    let ki = _mm256_castpd_si256(kd);
    let kd = _mm256_sub_pd(kd, _mm256_set1_pd(EXPF_SHIFT));
    let r = _mm256_fmsub_pd(_mm256_set1_pd(EXPF_INV_LN2_N), xd, kd);
    let index = _mm256_and_si256(ki, _mm256_set1_epi64x(31));
    // SAFETY: `index` is masked to 0..32, the table's length.
    let t = unsafe { _mm256_i64gather_epi64::<8>(EXP2F_TABLE.as_ptr().cast(), index) };
    let s = _mm256_castsi256_pd(_mm256_add_epi64(t, _mm256_slli_epi64::<47>(ki)));
    let z = _mm256_fmadd_pd(r, _mm256_set1_pd(EXPF_C[0]), _mm256_set1_pd(EXPF_C[1]));
    let r2 = _mm256_mul_pd(r, r);
    let y = _mm256_fmadd_pd(r, _mm256_set1_pd(EXPF_C[2]), _mm256_set1_pd(1.0));
    let y = _mm256_fmadd_pd(z, r2, y);
    _mm256_cvtpd_ps(_mm256_mul_pd(y, s))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A first word whose radius factor is exactly 1 (`ln u1` rounds to
    /// −0.5), so `normal_from_words(UNIT_RADIUS, w2)` is the angle factor
    /// alone.
    const UNIT_RADIUS: u32 = 0x9b45_9700;

    /// Whether the kernel runs here; the tests below prove what runs, so
    /// they have nothing to check where it does not.
    fn kernel_runs() -> bool {
        let runs = enabled();
        if !runs {
            eprintln!("AVX2+FMA kernel off on this host: nothing to check");
        }
        runs
    }

    /// Runs the kernel on the word pair `pair(k << 8)` for every 24-bit
    /// `k`, against the scalar [`normal_from_words`].
    fn sweep(pair: impl Fn(u32) -> (u32, u32)) {
        const BATCH: usize = 1 << 12;
        let mut words = vec![0u8; 8 * BATCH];
        let mut z = vec![0.0f32; BATCH];
        for start in (0..1u32 << 24).step_by(BATCH) {
            let pairs: Vec<(u32, u32)> = (start..start + BATCH as u32)
                .map(|k| pair(k << 8))
                .collect();
            for (bytes, &(w1, w2)) in words.chunks_exact_mut(8).zip(&pairs) {
                bytes[..4].copy_from_slice(&w1.to_le_bytes());
                bytes[4..].copy_from_slice(&w2.to_le_bytes());
            }
            // SAFETY: `kernel_runs` confirmed AVX2 and FMA.
            unsafe { normals_avx2(&words, &mut z) };
            for (z, &(w1, w2)) in z.iter().zip(&pairs) {
                let want = normal_from_words(w1, w2);
                assert_eq!(
                    z.to_bits(),
                    want.to_bits(),
                    "words {w1:#x}, {w2:#x}: {z} vs {want}"
                );
            }
        }
    }

    /// With the second word 0, `cos(2π·0)` is 1 and the normal is the
    /// radius factor `sqrt(-2·ln u1)`: this checks `logf` on every `u1`.
    #[test]
    fn radius_factor_matches_libm_for_every_first_word() {
        if kernel_runs() {
            sweep(|w| (w, 0));
        }
    }

    /// With a unit radius the normal is the angle factor `cos(2π·u2)`:
    /// this checks `cosf` on every `u2`, through all three of its paths.
    /// With the test above it proves the normal of every word pair, since
    /// the normal is the `f32` product of the two factors.
    #[test]
    fn angle_factor_matches_libm_for_every_second_word() {
        assert_eq!(normal_from_words(UNIT_RADIUS, 0), 1.0);
        if kernel_runs() {
            sweep(|w| (UNIT_RADIUS, w));
        }
    }

    /// `1 · e^a` through [`scale`], fast path and scalar fall-back, against
    /// `f32::exp` on every `a` in `bits`.
    fn check_exp(bits: impl Iterator<Item = u32>) {
        let mut bits = bits.peekable();
        while bits.peek().is_some() {
            let mut a = [0.0f32; LANES];
            for (a, b) in a.iter_mut().zip(&mut bits) {
                *a = f32::from_bits(b);
            }
            // SAFETY: `kernel_runs` confirmed AVX2 and FMA.
            let e = unsafe { store(scale(_mm_set1_ps(1.0), load(&a))) };
            for (e, a) in e.iter().zip(a) {
                let want = 1.0 * a.exp();
                assert_eq!(
                    e.to_bits(),
                    want.to_bits(),
                    "exp({a:e}) = {want:e}, kernel {e:e}"
                );
            }
        }
    }

    /// Every 997th bit pattern: finite values of every magnitude, both
    /// signs, ±∞ and NaNs.
    #[test]
    fn exp_matches_libm_on_a_stride_of_all_bit_patterns() {
        if kernel_runs() {
            check_exp(
                (0..=u32::MAX)
                    .step_by(997)
                    .chain([0x7f80_0000, 0xff80_0000, 0x42b0_0000]),
            );
        }
    }

    /// Every `f32` on `expf`'s fast path, |x| < 88: about 2.2·10⁹ values,
    /// about half a minute in release.
    #[test]
    #[ignore = "exhaustive: about 2.2e9 expf calls, run in release"]
    fn exp_matches_libm_on_every_fast_path_input() {
        if kernel_runs() {
            let below_88 = 0..0x42b0_0000u32;
            check_exp(below_88.clone().chain(below_88.map(|b| b | 0x8000_0000)));
        }
    }
}
