//! The Bayesian-optimization driver: tell observations, suggest the next
//! trial (Algorithm 1 lines 8–9).

use std::cmp::Ordering;

use rand::Rng;

use crate::{latin_hypercube, Acquisition, GaussianProcess, GpError, Kernel};

/// Total order over objective values that deterministically ranks NaN below
/// every other value (including `-∞`), and is otherwise
/// [`f64::total_cmp`].
///
/// This is the comparator every best-candidate selection in the workspace
/// uses: a NaN objective (a diverged trial, a poisoned Monte-Carlo mean)
/// can never panic a `sort`, win an argmax, or tie arbitrarily with a
/// finite incumbent.
///
/// # Example
///
/// ```
/// use bayesopt::nan_low_cmp;
///
/// let mut ys = vec![0.3, f64::NAN, f64::NEG_INFINITY, 0.7];
/// ys.sort_by(|a, b| nan_low_cmp(*a, *b));
/// assert!(ys[0].is_nan());
/// assert_eq!(ys[1..], [f64::NEG_INFINITY, 0.3, 0.7]);
/// ```
pub fn nan_low_cmp(a: f64, b: f64) -> Ordering {
    match (a.is_nan(), b.is_nan()) {
        (true, true) => Ordering::Equal,
        (true, false) => Ordering::Less,
        (false, true) => Ordering::Greater,
        (false, false) => a.total_cmp(&b),
    }
}

/// One completed trial.
#[derive(Debug, Clone, PartialEq)]
pub struct Observation {
    /// Trial coordinates in `[0, 1]^d`.
    pub x: Vec<f64>,
    /// Observed objective value (maximization convention).
    pub y: f64,
}

/// Sequential Bayesian optimizer over the unit hypercube.
///
/// The paper's usage: dimensions are per-layer dropout rates `α ∈ [0,1]^{K−1}`,
/// the objective is the Monte-Carlo drift-marginalized negative loss
/// (Eq. 4), the surrogate is a GP with the exponential kernel (Eq. 9), and
/// the next trial maximizes the posterior (Algorithm 1 line 9).
///
/// `suggest` scores a fresh batch of candidate points (Latin hypercube for
/// the first call, uniform afterwards, always including a local
/// perturbation of the incumbent) under the acquisition function. The
/// surrogate and the candidate batch live in buffers the optimizer keeps
/// and refills on every call, so a suggest past the space-filling phase
/// allocates only the point it returns.
///
/// See the crate-level example for end-to-end usage.
pub struct BayesOpt<K: Kernel> {
    dim: usize,
    acquisition: Acquisition,
    candidates_per_suggest: usize,
    observations: Vec<Observation>,
    gp: GaussianProcess<K>,
    /// The candidate batch, one row of `dim` per candidate, row-major.
    candidates: Vec<f64>,
}

impl<K: Kernel> BayesOpt<K> {
    /// Creates an optimizer over `[0, 1]^dim` with the given kernel.
    ///
    /// # Panics
    ///
    /// Panics if `dim` is zero.
    pub fn new(dim: usize, kernel: K) -> Self {
        assert!(dim > 0, "search space must have at least one dimension");
        BayesOpt {
            dim,
            acquisition: Acquisition::default(),
            candidates_per_suggest: 256,
            observations: Vec::new(),
            gp: GaussianProcess::new(kernel, 1e-6),
            candidates: Vec::new(),
        }
    }

    /// Sets the acquisition function (default: the paper's posterior mean).
    pub fn acquisition(mut self, acq: Acquisition) -> Self {
        self.acquisition = acq;
        self
    }

    /// Sets the GP observation-noise variance.
    ///
    /// # Panics
    ///
    /// Panics if `noise` is negative.
    pub fn noise(mut self, noise: f64) -> Self {
        assert!(noise >= 0.0, "noise variance must be non-negative");
        self.gp.noise = noise;
        self
    }

    /// Sets how many candidates each `suggest` call scores.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn candidates(mut self, n: usize) -> Self {
        assert!(n > 0, "need at least one candidate");
        self.candidates_per_suggest = n;
        self
    }

    /// Records a completed trial.
    ///
    /// Non-finite objective values (a diverged trial reporting NaN or
    /// `-∞`) are accepted and recorded, but they are excluded from the GP
    /// surrogate fit and rank below every finite observation in
    /// [`BayesOpt::best_observed`] — a NaN trial can never become the
    /// incumbent while a finite one exists.
    ///
    /// # Panics
    ///
    /// Panics if `x` has the wrong dimension.
    pub fn tell(&mut self, x: Vec<f64>, y: f64) {
        assert_eq!(x.len(), self.dim, "observation dimension mismatch");
        self.observations.push(Observation { x, y });
    }

    /// Suggests the next trial point.
    ///
    /// With no observations this returns a random point; with fewer than two
    /// it space-fills via Latin hypercube; afterwards it fits the GP and
    /// maximizes the acquisition over sampled candidates. Non-finite
    /// observations are excluded from the surrogate (they would poison
    /// every posterior), so a history of NaN trials keeps space-filling
    /// until two finite observations exist.
    ///
    /// # Errors
    ///
    /// Returns [`GpError::SingularKernel`] if the surrogate cannot be
    /// fitted even with jitter (duplicate-heavy degenerate histories).
    pub fn suggest(&mut self, rng: &mut impl Rng) -> Result<Vec<f64>, GpError> {
        let finite = || self.observations.iter().filter(|o| o.y.is_finite());
        let n_finite = finite().count();
        if n_finite < 2 {
            let mut lhs = latin_hypercube(2, self.dim, rng);
            return Ok(lhs.swap_remove(n_finite % 2));
        }
        {
            let _s = telemetry::Span::enter(
                "bayesopt.gp_fit",
                telemetry::duration_histogram!("bayesopt_gp_fit_seconds"),
            );
            self.gp.fit(finite().map(|o| (&o.x, o.y)))?;
        }
        // NaN incumbents rank below every finite observation, so the
        // incumbent is finite-backed whenever any finite trial exists.
        let incumbent = incumbent(&self.observations);
        let best = incumbent
            .map(|o| o.y)
            .filter(|y| y.is_finite())
            .unwrap_or(f64::NEG_INFINITY);

        let d = self.dim;
        self.candidates.clear();
        self.candidates
            .extend((0..self.candidates_per_suggest * d).map(|_| rng.gen::<f64>()));
        // Local refinement candidates around the incumbent.
        if let Some(o) = incumbent {
            for scale in [0.05, 0.15] {
                for &v in &o.x {
                    let c = (v + scale * (rng.gen::<f64>() * 2.0 - 1.0)).clamp(0.0, 1.0);
                    self.candidates.push(c);
                }
            }
        }

        let _s = telemetry::Span::enter(
            "bayesopt.acquisition",
            telemetry::duration_histogram!("bayesopt_acquisition_seconds"),
        );
        let mut best_score = f64::NEG_INFINITY;
        let mut best_row = 0;
        for (row, c) in self.candidates.chunks_exact(d).enumerate() {
            let s = self.acquisition.score(&self.gp.posterior(c)?, best);
            if s > best_score {
                best_score = s;
                best_row = row;
            }
        }
        Ok(self.candidates[best_row * d..(best_row + 1) * d].to_vec())
    }

    /// The best observation so far, if any, ranked with [`nan_low_cmp`]:
    /// NaN and `-∞` objectives sort below every finite value, so the
    /// incumbent is finite whenever any finite observation exists (ties
    /// keep the latest observation, matching the historical `max_by`
    /// behavior).
    pub fn best_observed(&self) -> Option<(Vec<f64>, f64)> {
        incumbent(&self.observations).map(|o| (o.x.clone(), o.y))
    }

    /// All recorded observations, in insertion order.
    pub fn observations(&self) -> &[Observation] {
        &self.observations
    }

    /// Search-space dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }
}

/// The observation [`BayesOpt::best_observed`] reports, borrowed.
fn incumbent(observations: &[Observation]) -> Option<&Observation> {
    observations.iter().max_by(|a, b| nan_low_cmp(a.y, b.y))
}

impl<K: Kernel> std::fmt::Debug for BayesOpt<K> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BayesOpt")
            .field("dim", &self.dim)
            .field("acquisition", &self.acquisition)
            .field("observations", &self.observations.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SquaredExponential;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn run_bo(acq: Acquisition, trials: usize, target: &[f64]) -> f64 {
        let dim = target.len();
        let mut bo = BayesOpt::new(dim, SquaredExponential::isotropic(1.0, 0.25))
            .acquisition(acq)
            .candidates(128);
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        for _ in 0..trials {
            let x = bo.suggest(&mut rng).unwrap();
            let y = -x
                .iter()
                .zip(target)
                .map(|(a, b)| (a - b) * (a - b))
                .sum::<f64>();
            bo.tell(x, y);
        }
        bo.best_observed().unwrap().1
    }

    #[test]
    fn finds_1d_optimum() {
        let best = run_bo(Acquisition::ExpectedImprovement { xi: 0.01 }, 20, &[0.7]);
        assert!(best > -0.01, "best objective {best}");
    }

    #[test]
    fn posterior_mean_rule_also_converges() {
        // The paper's own acquisition: posterior-mean maximization.
        let best = run_bo(Acquisition::PosteriorMean, 25, &[0.4]);
        assert!(best > -0.02, "best objective {best}");
    }

    #[test]
    fn works_in_higher_dimensions() {
        let best = run_bo(
            Acquisition::UpperConfidenceBound { kappa: 1.5 },
            30,
            &[0.3, 0.6, 0.9],
        );
        assert!(best > -0.1, "best objective {best}");
    }

    #[test]
    fn bo_beats_pure_random_search_on_budget() {
        let target = [0.25, 0.75];
        let objective = |x: &[f64]| {
            -x.iter()
                .zip(&target)
                .map(|(a, b)| (a - b) * (a - b))
                .sum::<f64>()
        };
        let bo_best = run_bo(Acquisition::ExpectedImprovement { xi: 0.01 }, 25, &target);
        // Random search with the same budget, averaged over seeds.
        let mut rand_best_sum = 0.0;
        for seed in 0..5 {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let best = (0..25)
                .map(|_| {
                    let x: Vec<f64> = (0..2).map(|_| rng.gen::<f64>()).collect();
                    objective(&x)
                })
                // lint:allow(R2, reason = "test objective is a finite polynomial; maxNum fold is fine")
                .fold(f64::NEG_INFINITY, f64::max);
            rand_best_sum += best;
        }
        assert!(
            bo_best >= rand_best_sum / 5.0 - 1e-3,
            "BO {bo_best} vs random avg {}",
            rand_best_sum / 5.0
        );
    }

    #[test]
    fn suggestions_stay_in_unit_cube() {
        let mut bo = BayesOpt::new(4, SquaredExponential::isotropic(1.0, 0.3));
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        for i in 0..10 {
            let x = bo.suggest(&mut rng).unwrap();
            assert!(x.iter().all(|&v| (0.0..=1.0).contains(&v)), "trial {i}");
            bo.tell(x, (i as f64).sin());
        }
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn tell_rejects_wrong_dimension() {
        let mut bo = BayesOpt::new(2, SquaredExponential::isotropic(1.0, 0.3));
        bo.tell(vec![0.5], 1.0);
    }

    #[test]
    fn nan_observation_never_beats_a_finite_incumbent() {
        // Regression: the old partial_cmp(..).unwrap_or(Equal) ranking let
        // a NaN observation win or tie arbitrarily depending on insertion
        // order. NaN must lose to every finite value, wherever it lands.
        for nan_at in 0..3 {
            let mut bo = BayesOpt::new(1, SquaredExponential::isotropic(1.0, 0.3));
            let mut ys = vec![0.2, 0.9];
            ys.insert(nan_at, f64::NAN);
            for (i, y) in ys.into_iter().enumerate() {
                bo.tell(vec![0.1 * (i + 1) as f64], y);
            }
            let (x, y) = bo.best_observed().unwrap();
            assert_eq!(y, 0.9, "NaN at index {nan_at} displaced the incumbent");
            assert!(!x[0].is_nan());
        }
    }

    #[test]
    fn neg_infinity_ranks_below_finite_but_above_nan() {
        let mut bo = BayesOpt::new(1, SquaredExponential::isotropic(1.0, 0.3));
        bo.tell(vec![0.1], f64::NEG_INFINITY);
        bo.tell(vec![0.2], f64::NAN);
        bo.tell(vec![0.3], -1e300);
        let (x, y) = bo.best_observed().unwrap();
        assert_eq!(y, -1e300);
        assert_eq!(x, vec![0.3]);
        // All-NaN history: a deterministic NaN incumbent, no panic.
        let mut all_nan = BayesOpt::new(1, SquaredExponential::isotropic(1.0, 0.3));
        all_nan.tell(vec![0.4], f64::NAN);
        all_nan.tell(vec![0.6], f64::NAN);
        assert!(all_nan.best_observed().unwrap().1.is_nan());
    }

    #[test]
    fn suggest_survives_nan_history_and_stays_in_cube() {
        // NaN observations are excluded from the GP fit; suggestions keep
        // flowing and stay inside the unit cube.
        let mut bo = BayesOpt::new(2, SquaredExponential::isotropic(1.0, 0.3));
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        for i in 0..8 {
            let x = bo.suggest(&mut rng).unwrap();
            assert!(x.iter().all(|&v| (0.0..=1.0).contains(&v)), "trial {i}");
            let y = if i % 2 == 0 { f64::NAN } else { i as f64 };
            bo.tell(x, y);
        }
        assert_eq!(bo.observations().len(), 8);
        assert_eq!(bo.best_observed().unwrap().1, 7.0);
    }

    #[test]
    fn nan_low_cmp_is_a_total_order_with_nan_at_the_bottom() {
        use std::cmp::Ordering;
        let vals = [
            f64::NAN,
            f64::NEG_INFINITY,
            -1.0,
            -0.0,
            0.0,
            1.0,
            f64::INFINITY,
        ];
        // Strictly non-decreasing as listed; NaN equal to itself.
        for w in vals.windows(2) {
            assert_ne!(nan_low_cmp(w[0], w[1]), Ordering::Greater, "{w:?}");
            assert_ne!(nan_low_cmp(w[1], w[0]), Ordering::Less, "{w:?}");
        }
        assert_eq!(nan_low_cmp(f64::NAN, f64::NAN), Ordering::Equal);
        assert_eq!(nan_low_cmp(f64::NAN, f64::NEG_INFINITY), Ordering::Less);
    }

    #[test]
    fn best_observed_tracks_maximum() {
        let mut bo = BayesOpt::new(1, SquaredExponential::isotropic(1.0, 0.3));
        bo.tell(vec![0.1], 1.0);
        bo.tell(vec![0.9], 3.0);
        bo.tell(vec![0.5], 2.0);
        let (x, y) = bo.best_observed().unwrap();
        assert_eq!(y, 3.0);
        assert_eq!(x, vec![0.9]);
    }
}
