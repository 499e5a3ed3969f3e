//! Covariance kernels for GP regression.

/// A positive-definite covariance kernel over `R^d`.
pub trait Kernel: Send + Sync {
    /// Covariance between two points.
    ///
    /// Implementations may assume `a.len() == b.len()`.
    fn eval(&self, a: &[f64], b: &[f64]) -> f64;

    /// Prior variance at a point, `k(x, x)`.
    fn diag(&self, x: &[f64]) -> f64 {
        self.eval(x, x)
    }
}

/// The paper's exponential kernel (Eq. 9):
/// `k(α₁, α₂) = k₀ · exp(−Σᵢ kᵢ (α₁ᵢ − α₂ᵢ)²)`
/// — a squared-exponential with per-dimension inverse-lengthscale weights.
///
/// # Example
///
/// ```
/// use bayesopt::{Kernel, SquaredExponential};
///
/// let k = SquaredExponential::isotropic(2.0, 0.5);
/// assert!((k.eval(&[0.1], &[0.1]) - 2.0).abs() < 1e-12);
/// assert!(k.eval(&[0.0], &[1.0]) < 2.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SquaredExponential {
    k0: f64,
    weights: Vec<f64>,
}

impl SquaredExponential {
    /// Creates the kernel with amplitude `k0` and per-dimension weights
    /// `kᵢ` (inverse squared lengthscales).
    ///
    /// # Panics
    ///
    /// Panics if `k0` is not positive or any weight is negative.
    pub fn new(k0: f64, weights: Vec<f64>) -> Self {
        assert!(k0 > 0.0, "kernel amplitude must be positive");
        assert!(
            weights.iter().all(|&w| w >= 0.0),
            "kernel weights must be non-negative"
        );
        SquaredExponential { k0, weights }
    }

    /// Creates an isotropic kernel for any dimension with lengthscale `ℓ`
    /// (weight `1/(2ℓ²)` applied to every coordinate).
    ///
    /// # Panics
    ///
    /// Panics if `k0` or `lengthscale` is not positive.
    pub fn isotropic(k0: f64, lengthscale: f64) -> Self {
        assert!(k0 > 0.0, "kernel amplitude must be positive");
        assert!(lengthscale > 0.0, "lengthscale must be positive");
        SquaredExponential {
            k0,
            weights: vec![1.0 / (2.0 * lengthscale * lengthscale)],
        }
    }

    fn weight(&self, i: usize) -> f64 {
        if self.weights.len() == 1 {
            self.weights[0]
        } else {
            self.weights[i]
        }
    }
}

impl Kernel for SquaredExponential {
    fn eval(&self, a: &[f64], b: &[f64]) -> f64 {
        debug_assert_eq!(a.len(), b.len());
        let mut s = 0.0;
        for (i, (&x, &y)) in a.iter().zip(b).enumerate() {
            let d = x - y;
            s += self.weight(i) * d * d;
        }
        self.k0 * (-s).exp()
    }
}

/// Matérn-5/2 kernel — a rougher prior than the squared exponential, used
/// in the acquisition/kernel ablation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Matern52 {
    k0: f64,
    lengthscale: f64,
}

impl Matern52 {
    /// Creates the kernel with amplitude `k0` and lengthscale `ℓ`.
    ///
    /// # Panics
    ///
    /// Panics if either argument is not positive.
    pub fn new(k0: f64, lengthscale: f64) -> Self {
        assert!(k0 > 0.0, "kernel amplitude must be positive");
        assert!(lengthscale > 0.0, "lengthscale must be positive");
        Matern52 { k0, lengthscale }
    }
}

impl Kernel for Matern52 {
    fn eval(&self, a: &[f64], b: &[f64]) -> f64 {
        debug_assert_eq!(a.len(), b.len());
        let r2: f64 = a.iter().zip(b).map(|(&x, &y)| (x - y) * (x - y)).sum();
        let r = r2.sqrt() / self.lengthscale;
        let s5 = (5.0f64).sqrt();
        self.k0 * (1.0 + s5 * r + 5.0 / 3.0 * r * r) * (-s5 * r).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn se_kernel_is_symmetric_and_peaks_at_zero_distance() {
        let k = SquaredExponential::new(1.5, vec![2.0, 0.5]);
        let a = [0.2, 0.8];
        let b = [0.6, 0.1];
        assert_eq!(k.eval(&a, &b), k.eval(&b, &a));
        assert!(k.eval(&a, &b) < k.eval(&a, &a));
        assert!((k.eval(&a, &a) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn se_kernel_matches_formula() {
        let k = SquaredExponential::new(1.0, vec![1.0]);
        // distance 1 → exp(-1)
        assert!((k.eval(&[0.0], &[1.0]) - (-1.0f64).exp()).abs() < 1e-12);
    }

    #[test]
    fn isotropic_broadcasts_weight() {
        let k = SquaredExponential::isotropic(1.0, 1.0);
        // weight = 0.5 per dim, two dims each at distance 1 → exp(-1)
        assert!((k.eval(&[0.0, 0.0], &[1.0, 1.0]) - (-1.0f64).exp()).abs() < 1e-12);
    }

    #[test]
    fn matern_is_symmetric_decreasing() {
        let k = Matern52::new(1.0, 0.5);
        assert!((k.eval(&[0.3], &[0.3]) - 1.0).abs() < 1e-12);
        let near = k.eval(&[0.0], &[0.1]);
        let far = k.eval(&[0.0], &[0.9]);
        assert!(near > far && far > 0.0);
        assert_eq!(k.eval(&[0.0], &[0.4]), k.eval(&[0.4], &[0.0]));
    }

    #[test]
    #[should_panic(expected = "amplitude must be positive")]
    fn zero_amplitude_panics() {
        let _ = SquaredExponential::new(0.0, vec![1.0]);
    }

    #[test]
    #[should_panic(expected = "amplitude must be positive")]
    fn isotropic_zero_amplitude_panics() {
        let _ = SquaredExponential::isotropic(0.0, 0.3);
    }

    #[test]
    #[should_panic(expected = "amplitude must be positive")]
    fn isotropic_negative_amplitude_panics() {
        let _ = SquaredExponential::isotropic(-1.0, 0.3);
    }
}
