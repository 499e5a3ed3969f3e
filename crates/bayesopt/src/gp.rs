//! Gaussian-process regression (the paper's Eqs. 5–8).

use std::fmt;

use crate::{Cholesky, Kernel};

/// Error from GP fitting or prediction.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum GpError {
    /// `fit` was given no observations.
    NoObservations,
    /// Observation coordinates have inconsistent dimensions.
    DimensionMismatch,
    /// The kernel matrix stayed indefinite even after jitter escalation.
    SingularKernel,
    /// Prediction was requested before any successful fit.
    NotFitted,
}

impl fmt::Display for GpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GpError::NoObservations => write!(f, "gaussian process needs at least one observation"),
            GpError::DimensionMismatch => {
                write!(f, "observation coordinates have inconsistent dimensions")
            }
            GpError::SingularKernel => {
                write!(f, "kernel matrix is not positive definite even with jitter")
            }
            GpError::NotFitted => write!(f, "gaussian process has not been fitted"),
        }
    }
}

impl std::error::Error for GpError {}

/// Posterior mean and variance at a query point (Eq. 8).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Posterior {
    /// Posterior mean `µₙ(α)`.
    pub mean: f64,
    /// Posterior variance `σₙ²(α)` (clamped to be non-negative).
    pub variance: f64,
}

impl Posterior {
    /// Posterior standard deviation.
    pub fn std(&self) -> f64 {
        self.variance.sqrt()
    }
}

/// A Gaussian-process regressor with a fixed kernel and observation noise.
///
/// The regressor owns every buffer it computes in: each [`fit`] refills
/// the training rows, the kernel matrix and its Cholesky factor in place,
/// and each [`posterior`] reuses one kernel row, so refitting and scoring
/// a search's candidates allocate nothing once the buffers have grown.
///
/// [`fit`]: GaussianProcess::fit
/// [`posterior`]: GaussianProcess::posterior
///
/// # Example
///
/// ```
/// use bayesopt::{GaussianProcess, SquaredExponential};
///
/// let kernel = SquaredExponential::isotropic(1.0, 0.3);
/// let mut gp = GaussianProcess::new(kernel, 1e-6);
/// gp.fit([([0.0], 0.0), ([1.0], 1.0)])?;
/// let p = gp.posterior(&[0.0])?;
/// assert!(p.mean.abs() < 1e-3);        // interpolates
/// assert!(p.variance < 1e-3);          // confident at data
/// let far = gp.posterior(&[10.0])?;
/// assert!(far.variance > 0.9);         // uncertain far away
/// # Ok::<(), bayesopt::GpError>(())
/// ```
pub struct GaussianProcess<K: Kernel> {
    kernel: K,
    pub(crate) noise: f64,
    /// Fitted observations (0 while unfitted).
    n: usize,
    dim: usize,
    /// Training coordinates, `n` rows of `dim`, row-major.
    x: Vec<f64>,
    /// `K⁻¹(y − ȳ)`; holds the raw targets while a fit is under way.
    alpha: Vec<f64>,
    /// The lower triangle of the noise-free kernel matrix `K`, `n·n`
    /// row-major (the Cholesky factorization reads nothing else).
    k: Vec<f64>,
    chol: Cholesky,
    /// The posterior's kernel row `k*`, forward-solved in place.
    kstar: Vec<f64>,
    y_mean: f64,
}

impl<K: Kernel> GaussianProcess<K> {
    /// Creates an unfitted GP with the given kernel and observation-noise
    /// variance (also the base jitter).
    ///
    /// # Panics
    ///
    /// Panics if `noise` is negative.
    pub fn new(kernel: K, noise: f64) -> Self {
        assert!(noise >= 0.0, "noise variance must be non-negative");
        GaussianProcess {
            kernel,
            noise,
            n: 0,
            dim: 0,
            x: Vec::new(),
            alpha: Vec::new(),
            k: Vec::new(),
            chol: Cholesky::default(),
            kstar: Vec::new(),
            y_mean: 0.0,
        }
    }

    /// Fits the GP to `(x, y)` observations, replacing any earlier fit.
    /// Targets are internally centered; predictions add the mean back.
    ///
    /// # Errors
    ///
    /// Returns [`GpError::NoObservations`] for empty input,
    /// [`GpError::DimensionMismatch`] for ragged coordinates, and
    /// [`GpError::SingularKernel`] if the kernel matrix cannot be
    /// factorized even with jitter escalation. A failed fit leaves the GP
    /// unfitted.
    pub fn fit<X: AsRef<[f64]>>(
        &mut self,
        data: impl IntoIterator<Item = (X, f64)>,
    ) -> Result<(), GpError> {
        self.n = 0;
        self.x.clear();
        self.alpha.clear();
        let mut dim = None;
        for (x, y) in data {
            let x = x.as_ref();
            if *dim.get_or_insert(x.len()) != x.len() {
                return Err(GpError::DimensionMismatch);
            }
            self.x.extend_from_slice(x);
            self.alpha.push(y);
        }
        let (n, d) = (self.alpha.len(), dim.ok_or(GpError::NoObservations)?);
        let y_mean = self.alpha.iter().sum::<f64>() / n as f64;
        for v in &mut self.alpha {
            *v -= y_mean;
        }

        self.k.clear();
        self.k.resize(n * n, 0.0);
        let row = |i: usize| &self.x[i * d..(i + 1) * d];
        for i in 0..n {
            for j in 0..=i {
                self.k[i * n + j] = self.kernel.eval(row(i), row(j));
            }
        }
        let mut jitters =
            std::iter::successors(Some(self.noise.max(1e-12)), |j| Some(j * 10.0)).take(10);
        if !jitters.any(|j| self.chol.factor(&self.k, n, j)) {
            return Err(GpError::SingularKernel);
        }
        self.chol.solve(&mut self.alpha);
        self.n = n;
        self.dim = d;
        self.y_mean = y_mean;
        Ok(())
    }

    /// Posterior mean and variance at `query` (Eq. 8).
    ///
    /// # Errors
    ///
    /// Returns [`GpError::NotFitted`] before the first successful fit, or
    /// [`GpError::DimensionMismatch`] if `query` has the wrong dimension.
    pub fn posterior(&mut self, query: &[f64]) -> Result<Posterior, GpError> {
        if self.n == 0 {
            return Err(GpError::NotFitted);
        }
        if self.dim != query.len() {
            return Err(GpError::DimensionMismatch);
        }
        let d = self.dim;
        self.kstar.clear();
        self.kstar
            .extend((0..self.n).map(|i| self.kernel.eval(&self.x[i * d..(i + 1) * d], query)));
        let k_alpha = self.kstar.iter().zip(&self.alpha).map(|(k, a)| k * a);
        let mean = k_alpha.sum::<f64>() + self.y_mean;
        self.chol.forward_solve(&mut self.kstar);
        let v = &self.kstar;
        let variance = (self.kernel.diag(query) - v.iter().map(|vi| vi * vi).sum::<f64>()).max(0.0);
        Ok(Posterior { mean, variance })
    }

    /// Number of fitted observations (0 before fitting).
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the GP has no observations.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Log marginal likelihood of the fitted data (model-selection
    /// diagnostic): `−½ yᵀα − Σ log Lᵢᵢ − n/2 log 2π`.
    ///
    /// # Errors
    ///
    /// Returns [`GpError::NotFitted`] before the first successful fit.
    pub fn log_marginal_likelihood(&self) -> Result<f64, GpError> {
        if self.n == 0 {
            return Err(GpError::NotFitted);
        }
        let chol = &self.chol;
        let n = self.n as f64;
        // yᵀα where y is centered: recover from alpha through K·alpha = y.
        // We stored only alpha; compute yᵀα = αᵀKα = ‖Lᵀα‖².
        let mut yta = 0.0;
        for i in 0..self.n {
            // (Lᵀ α)_i = Σ_{j>=i} L[j][i] α_j
            let mut v = 0.0;
            for j in i..self.n {
                v += chol.at(j, i) * self.alpha[j];
            }
            yta += v * v;
        }
        Ok(-0.5 * yta - 0.5 * chol.log_det() - 0.5 * n * (2.0 * std::f64::consts::PI).ln())
    }
}

impl<K: Kernel + fmt::Debug> fmt::Debug for GaussianProcess<K> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("GaussianProcess")
            .field("kernel", &self.kernel)
            .field("observations", &self.n)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SquaredExponential;

    fn fitted_gp() -> GaussianProcess<SquaredExponential> {
        let mut gp = GaussianProcess::new(SquaredExponential::isotropic(1.0, 0.3), 1e-8);
        gp.fit([([0.0], 1.0), ([0.5], 0.0), ([1.0], 1.0)]).unwrap();
        gp
    }

    #[test]
    fn interpolates_training_points() {
        let mut gp = fitted_gp();
        for (x, y) in [(0.0, 1.0), (0.5, 0.0), (1.0, 1.0)] {
            let p = gp.posterior(&[x]).unwrap();
            assert!((p.mean - y).abs() < 1e-3, "at {x}: {} vs {y}", p.mean);
            assert!(p.variance < 1e-4, "variance at data point: {}", p.variance);
        }
    }

    #[test]
    fn variance_grows_away_from_data() {
        let mut gp = fitted_gp();
        let near = gp.posterior(&[0.45]).unwrap().variance;
        let far = gp.posterior(&[5.0]).unwrap().variance;
        assert!(far > near);
        assert!((far - 1.0).abs() < 1e-6, "prior variance far away");
    }

    #[test]
    fn mean_reverts_to_data_mean_far_away() {
        let mut gp = fitted_gp();
        let p = gp.posterior(&[100.0]).unwrap();
        assert!((p.mean - 2.0 / 3.0).abs() < 1e-6);
    }

    #[test]
    fn single_point_posterior_matches_hand_computation() {
        let mut gp = GaussianProcess::new(SquaredExponential::new(2.0, vec![1.0]), 0.0);
        gp.fit([([0.0], 3.0)]).unwrap();
        // At the data point: mean = y, var ≈ 0.
        let p = gp.posterior(&[0.0]).unwrap();
        assert!((p.mean - 3.0).abs() < 1e-6);
        // At distance 1: k* = 2e^{-1}, K = 2 (+jitter).
        // mean = ȳ + k*·(y−ȳ)/K = 3 (single point: y−ȳ = 0 → mean = ȳ = 3).
        let p = gp.posterior(&[1.0]).unwrap();
        assert!((p.mean - 3.0).abs() < 1e-6);
        // var = k0 − k*²/K = 2 − (2e⁻¹)²/2
        let expected = 2.0 - (2.0 * (-1.0f64).exp()).powi(2) / 2.0;
        assert!((p.variance - expected).abs() < 1e-6);
    }

    #[test]
    fn errors_are_reported() {
        let mut gp = GaussianProcess::new(SquaredExponential::isotropic(1.0, 1.0), 1e-6);
        assert_eq!(gp.posterior(&[0.0]).unwrap_err(), GpError::NotFitted);
        assert_eq!(
            gp.fit(Vec::<([f64; 1], f64)>::new()).unwrap_err(),
            GpError::NoObservations
        );
        assert_eq!(
            gp.fit([(vec![0.0], 1.0), (vec![0.0, 1.0], 2.0)])
                .unwrap_err(),
            GpError::DimensionMismatch
        );
        gp.fit([([0.0], 1.0)]).unwrap();
        assert_eq!(
            gp.posterior(&[0.0, 1.0]).unwrap_err(),
            GpError::DimensionMismatch
        );
    }

    #[test]
    fn refit_matches_a_fresh_fit_and_a_failed_fit_unfits() {
        let data = [([0.2], 0.5), ([0.9], -1.0)];
        let mut gp = fitted_gp();
        gp.fit(data).unwrap();
        let mut fresh = GaussianProcess::new(SquaredExponential::isotropic(1.0, 0.3), 1e-8);
        fresh.fit(data).unwrap();
        assert_eq!(gp.len(), 2);
        for q in [0.0, 0.4, 3.0] {
            assert_eq!(gp.posterior(&[q]), fresh.posterior(&[q]), "at {q}");
        }
        assert_eq!(
            gp.fit([(vec![0.0], 1.0), (vec![0.0, 1.0], 2.0)])
                .unwrap_err(),
            GpError::DimensionMismatch
        );
        assert!(gp.is_empty());
        assert_eq!(gp.posterior(&[0.0]).unwrap_err(), GpError::NotFitted);
    }

    #[test]
    fn duplicate_points_survive_via_jitter() {
        let mut gp = GaussianProcess::new(SquaredExponential::isotropic(1.0, 0.5), 1e-10);
        gp.fit([([0.3], 1.0), ([0.3], 1.0), ([0.7], 2.0)])
            .expect("jitter escalation handles duplicates");
        let p = gp.posterior(&[0.3]).unwrap();
        assert!((p.mean - 1.0).abs() < 0.05);
    }

    #[test]
    fn log_marginal_likelihood_is_finite_and_sane() {
        let gp = fitted_gp();
        let lml = gp.log_marginal_likelihood().unwrap();
        assert!(lml.is_finite());
        // Better-fitting model should have higher LML than an absurd one.
        let mut bad = GaussianProcess::new(SquaredExponential::isotropic(1e-6, 1e-3), 1e-8);
        bad.fit([([0.0], 1.0), ([0.5], 0.0), ([1.0], 1.0)]).unwrap();
        assert!(lml > bad.log_marginal_likelihood().unwrap());
    }
}
