//! Random tensor fills. All randomness flows through an explicit
//! [`rand::Rng`] so experiments are reproducible from a seed.

use rand::Rng;

use crate::Tensor;

impl Tensor {
    /// Tensor with elements drawn uniformly from `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn rand_uniform(dims: &[usize], lo: f32, hi: f32, rng: &mut impl Rng) -> Tensor {
        assert!(lo < hi, "uniform bounds must satisfy lo < hi");
        let mut t = Tensor::zeros(dims);
        t.as_mut_slice()
            .iter_mut()
            .for_each(|v| *v = rng.gen_range(lo..hi));
        t
    }

    /// Tensor with standard-normal elements scaled by `std` around `mean`
    /// (Box–Muller).
    pub fn randn(dims: &[usize], mean: f32, std: f32, rng: &mut impl Rng) -> Tensor {
        let mut t = Tensor::zeros(dims);
        t.as_mut_slice()
            .iter_mut()
            .for_each(|v| *v = mean + std * standard_normal(rng));
        t
    }

    /// Xavier/Glorot uniform initialization for a weight tensor with the
    /// given fan-in and fan-out (the paper's initialization, ref. \[17\]).
    pub fn xavier_uniform(
        dims: &[usize],
        fan_in: usize,
        fan_out: usize,
        rng: &mut impl Rng,
    ) -> Tensor {
        let bound = (6.0 / (fan_in + fan_out) as f32).sqrt();
        Tensor::rand_uniform(dims, -bound, bound, rng)
    }

    /// He/Kaiming normal initialization (preferred for ReLU-family nets).
    pub fn he_normal(dims: &[usize], fan_in: usize, rng: &mut impl Rng) -> Tensor {
        let std = (2.0 / fan_in.max(1) as f32).sqrt();
        Tensor::randn(dims, 0.0, std, rng)
    }
}

/// One standard-normal sample via Box–Muller.
pub(crate) fn standard_normal(rng: &mut impl Rng) -> f32 {
    let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
    let u2: f32 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn uniform_respects_bounds() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let t = Tensor::rand_uniform(&[1000], -0.5, 0.5, &mut rng);
        assert!(t.as_slice().iter().all(|&v| (-0.5..0.5).contains(&v)));
    }

    #[test]
    fn randn_moments_are_plausible() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let t = Tensor::randn(&[20_000], 1.0, 2.0, &mut rng);
        let mean = t.mean();
        let var = t.as_slice().iter().map(|v| (v - mean).powi(2)).sum::<f32>() / t.len() as f32;
        assert!((mean - 1.0).abs() < 0.1, "mean {mean}");
        assert!((var - 4.0).abs() < 0.3, "var {var}");
    }

    #[test]
    fn xavier_bound_matches_formula() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let t = Tensor::xavier_uniform(&[64, 32], 32, 64, &mut rng);
        let bound = (6.0f32 / 96.0).sqrt();
        assert!(t.as_slice().iter().all(|&v| v.abs() <= bound));
        // Should not all be tiny — spread fills the range.
        assert!(t.max() > bound * 0.5);
    }

    #[test]
    fn seeded_fills_are_reproducible() {
        let a = Tensor::randn(&[16], 0.0, 1.0, &mut ChaCha8Rng::seed_from_u64(7));
        let b = Tensor::randn(&[16], 0.0, 1.0, &mut ChaCha8Rng::seed_from_u64(7));
        assert_eq!(a.as_slice(), b.as_slice());
    }
}
