//! Dense `f64` Cholesky factorization for the small, ill-conditioned kernel
//! matrices of GP regression.

/// Lower-triangular Cholesky factor `L` with `A = L·Lᵀ`, stored row-major.
///
/// The factor owns its storage: [`Cholesky::factor`] refills it in place,
/// so a GP refitted every trial reuses one buffer.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Cholesky {
    l: Vec<f64>,
    n: usize,
}

impl Cholesky {
    /// The matrix dimension.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Entry `L[i][j]` (zero above the diagonal).
    pub fn at(&self, i: usize, j: usize) -> f64 {
        if j > i {
            0.0
        } else {
            self.l[i * self.n + j]
        }
    }

    /// Factors `A + jitter·I` for a symmetric `n·n` matrix `A` given
    /// row-major (only its lower triangle is read), overwriting this
    /// factor and reusing its storage.
    ///
    /// Returns `false`, leaving the factor unusable, if a non-positive
    /// pivot is encountered; callers typically retry with more jitter.
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != n·n`.
    pub fn factor(&mut self, a: &[f64], n: usize, jitter: f64) -> bool {
        assert_eq!(a.len(), n * n, "matrix must be n·n");
        self.n = n;
        self.l.clear();
        self.l.resize(n * n, 0.0);
        let l = &mut self.l;
        for i in 0..n {
            for j in 0..=i {
                let mut acc = a[i * n + j];
                if i == j {
                    acc += jitter;
                }
                for k in 0..j {
                    acc -= l[i * n + k] * l[j * n + k];
                }
                if i == j {
                    if acc <= 0.0 || !acc.is_finite() {
                        return false;
                    }
                    l[i * n + j] = acc.sqrt();
                } else {
                    l[i * n + j] = acc / l[j * n + j];
                }
            }
        }
        true
    }

    /// Solves `A·x = b` in place via forward + backward substitution:
    /// `b` holds `x` on return.
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != dim()`.
    // Triangular indexing: numeric loops mirror the textbook algorithm.
    #[allow(clippy::needless_range_loop)]
    pub fn solve(&self, b: &mut [f64]) {
        self.forward_solve(b);
        // Backward: Lᵀ·x = y
        let n = self.n;
        for i in (0..n).rev() {
            let mut acc = b[i];
            for j in (i + 1)..n {
                acc -= self.l[j * n + i] * b[j];
            }
            b[i] = acc / self.l[i * n + i];
        }
    }

    /// Solves only the forward system `L·y = b` in place, `b` holding `y`
    /// on return (used for posterior variance: `σ² = k** − ‖L⁻¹k*‖²`).
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != dim()`.
    #[allow(clippy::needless_range_loop)]
    pub fn forward_solve(&self, b: &mut [f64]) {
        assert_eq!(b.len(), self.n, "rhs length mismatch");
        let n = self.n;
        for i in 0..n {
            let mut acc = b[i];
            for j in 0..i {
                acc -= self.l[i * n + j] * b[j];
            }
            b[i] = acc / self.l[i * n + i];
        }
    }

    /// Log-determinant of `A`: `2·Σ log L[i][i]`.
    pub fn log_det(&self) -> f64 {
        (0..self.n)
            .map(|i| self.l[i * self.n + i].ln())
            .sum::<f64>()
            * 2.0
    }
}

/// Factorizes a symmetric positive-definite matrix given row-major into a
/// new [`Cholesky`] (see [`Cholesky::factor`]).
///
/// Returns `None` if the matrix is not positive definite (a non-positive
/// pivot is encountered).
///
/// # Panics
///
/// Panics if `a.len() != n·n`.
///
/// # Example
///
/// ```
/// use bayesopt::cholesky;
///
/// let a = [4.0, 2.0, 2.0, 3.0];
/// let chol = cholesky(&a, 2).expect("SPD");
/// assert!((chol.at(0, 0) - 2.0).abs() < 1e-12);
/// ```
pub fn cholesky(a: &[f64], n: usize) -> Option<Cholesky> {
    let mut chol = Cholesky::default();
    chol.factor(a, n, 0.0).then_some(chol)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factors_known_matrix() {
        // A = [[4, 12, -16], [12, 37, -43], [-16, -43, 98]]
        // L = [[2, 0, 0], [6, 1, 0], [-8, 5, 3]]
        let a = [4.0, 12.0, -16.0, 12.0, 37.0, -43.0, -16.0, -43.0, 98.0];
        let c = cholesky(&a, 3).expect("SPD");
        let expected = [2.0, 0.0, 0.0, 6.0, 1.0, 0.0, -8.0, 5.0, 3.0];
        for i in 0..3 {
            for j in 0..3 {
                assert!((c.at(i, j) - expected[i * 3 + j]).abs() < 1e-10);
            }
        }
        assert!((c.log_det() - (36.0f64).ln()).abs() < 1e-10);
    }

    #[test]
    fn solve_recovers_solution() {
        let a = [4.0, 2.0, 2.0, 3.0];
        let c = cholesky(&a, 2).unwrap();
        // x = [1, 2] → b = A·x = [8, 8]
        let mut x = [8.0, 8.0];
        c.solve(&mut x);
        assert!((x[0] - 1.0).abs() < 1e-12);
        assert!((x[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn forward_solve_norm_gives_quadratic_form() {
        // ‖L⁻¹b‖² = bᵀA⁻¹b
        let a = [4.0, 2.0, 2.0, 3.0];
        let c = cholesky(&a, 2).unwrap();
        let b = [1.0, -1.0];
        let (mut y, mut x) = (b, b);
        c.forward_solve(&mut y);
        let quad: f64 = y.iter().map(|v| v * v).sum();
        c.solve(&mut x);
        let direct: f64 = b.iter().zip(&x).map(|(bi, xi)| bi * xi).sum();
        assert!((quad - direct).abs() < 1e-12);
    }

    #[test]
    fn indefinite_matrix_returns_none() {
        let a = [1.0, 2.0, 2.0, 1.0]; // eigenvalues 3, -1
        assert!(cholesky(&a, 2).is_none());
    }

    #[test]
    fn jittered_solve_handles_singular() {
        // Rank-1 matrix: plain Cholesky fails, jitter rescues.
        let a = [1.0, 1.0, 1.0, 1.0];
        let mut c = Cholesky::default();
        assert!(!c.factor(&a, 2, 0.0));
        assert!(c.factor(&a, 2, 1e-10), "jitter rescues");
        let mut x = [2.0, 2.0];
        c.solve(&mut x);
        // Solution of (A + εI)x = b is ≈ [1, 1].
        assert!((x[0] - 1.0).abs() < 0.1 && (x[1] - 1.0).abs() < 0.1);
    }

    #[test]
    fn identity_solve_is_identity() {
        let a = [1.0, 0.0, 0.0, 1.0];
        let mut x = [3.0, -4.0];
        cholesky(&a, 2).unwrap().solve(&mut x);
        assert_eq!(x, [3.0, -4.0]);
    }

    #[test]
    fn refactoring_a_smaller_matrix_matches_a_fresh_factor() {
        let big = [4.0, 12.0, -16.0, 12.0, 37.0, -43.0, -16.0, -43.0, 98.0];
        let small = [4.0, 2.0, 2.0, 3.0];
        let mut reused = cholesky(&big, 3).unwrap();
        assert!(reused.factor(&small, 2, 0.0));
        assert_eq!(reused, cholesky(&small, 2).unwrap());
    }
}
