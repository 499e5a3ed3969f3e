//! Finite-difference gradient checking used throughout the test suite,
//! plus the workspace-reuse check: a train step through a reused,
//! stale-content [`Workspace`] must be bit-identical to one on fresh
//! workspaces.

use tensor::Tensor;

use crate::{Layer, Mode, Workspace};

/// Configurable finite-difference gradient checker.
///
/// Checks the layer's input gradient (and optionally parameter gradients)
/// against central differences of the scalar loss `L(x) = Σ forward(x)`.
///
/// Only meaningful for layers that are deterministic in the chosen mode.
/// Since eval-mode forwards skip the activation-cache refresh `backward`
/// depends on, checks should run in `Train` mode (the default); stochastic
/// layers (dropout) need a frozen mask.
///
/// # Example
///
/// ```
/// use nn::{Activation, GradCheck, Mode};
/// use tensor::Tensor;
///
/// let mut relu = Activation::Relu.build();
/// let x = Tensor::from_slice(&[-1.0, 0.5, 2.0]);
/// let err = GradCheck::new()
///     .mode(Mode::Train)
///     .max_input_error(relu.as_mut(), &x);
/// assert!(err < 1e-2);
/// ```
#[derive(Debug, Clone)]
pub struct GradCheck {
    eps: f32,
    mode: Mode,
}

impl GradCheck {
    /// Creates a checker with step `1e-3` in `Train` mode.
    pub fn new() -> Self {
        GradCheck {
            eps: 1e-3,
            mode: Mode::Train,
        }
    }

    /// Sets the finite-difference step.
    pub fn eps(mut self, eps: f32) -> Self {
        self.eps = eps;
        self
    }

    /// Sets the forward mode.
    pub fn mode(mut self, mode: Mode) -> Self {
        self.mode = mode;
        self
    }

    /// Maximum absolute error between the analytic and numeric input
    /// gradient of `Σ forward(x)`.
    pub fn max_input_error(&self, layer: &mut dyn Layer, x: &Tensor) -> f32 {
        let out = layer.forward(x, self.mode);
        let analytic = layer.backward(&Tensor::ones(out.dims()));
        let mut max_err = 0.0f32;
        let mut xp = x.clone();
        for i in 0..x.len() {
            let orig = xp.as_slice()[i];
            xp.as_mut_slice()[i] = orig + self.eps;
            let hi = layer.forward(&xp, self.mode).sum();
            xp.as_mut_slice()[i] = orig - self.eps;
            let lo = layer.forward(&xp, self.mode).sum();
            xp.as_mut_slice()[i] = orig;
            let numeric = (hi - lo) / (2.0 * self.eps);
            max_err = max_err.max((numeric - analytic.as_slice()[i]).abs());
        }
        max_err
    }

    /// Maximum absolute error between analytic and numeric gradients of every
    /// trainable parameter of the layer under the loss `Σ forward(x)`.
    pub fn max_param_error(&self, layer: &mut dyn Layer, x: &Tensor) -> f32 {
        layer.zero_grads();
        let out = layer.forward(x, self.mode);
        let _ = layer.backward(&Tensor::ones(out.dims()));
        // Snapshot analytic gradients.
        let mut analytic: Vec<Tensor> = Vec::new();
        layer.visit_params(&mut |p| analytic.push(p.grad.clone()));

        let mut max_err = 0.0f32;
        let n_params = analytic.len();
        #[allow(clippy::needless_range_loop)] // pi also addresses the layer's params
        for pi in 0..n_params {
            let plen = analytic[pi].len();
            for ei in 0..plen {
                let mut orig = 0.0;
                perturb(layer, pi, ei, self.eps, &mut orig);
                let hi = layer.forward(x, self.mode).sum();
                set(layer, pi, ei, orig - self.eps);
                let lo = layer.forward(x, self.mode).sum();
                set(layer, pi, ei, orig);
                let numeric = (hi - lo) / (2.0 * self.eps);
                max_err = max_err.max((numeric - analytic[pi].as_slice()[ei]).abs());
            }
        }
        max_err
    }
}

impl Default for GradCheck {
    fn default() -> Self {
        GradCheck::new()
    }
}

fn perturb(layer: &mut dyn Layer, pi: usize, ei: usize, eps: f32, orig: &mut f32) {
    let mut idx = 0;
    layer.visit_params(&mut |p| {
        if idx == pi {
            *orig = p.value.as_slice()[ei];
            p.value.as_mut_slice()[ei] = *orig + eps;
        }
        idx += 1;
    });
}

fn set(layer: &mut dyn Layer, pi: usize, ei: usize, value: f32) {
    let mut idx = 0;
    layer.visit_params(&mut |p| {
        if idx == pi {
            p.value.as_mut_slice()[ei] = value;
        }
        idx += 1;
    });
}

/// Convenience wrapper: maximum input-gradient error with step `eps` in
/// `Train` mode. See [`GradCheck`].
pub fn numeric_gradient(layer: &mut dyn Layer, x: &Tensor, eps: f32) -> f32 {
    GradCheck::new().eps(eps).max_input_error(layer, x)
}

/// Counts the scalars where a train step through a reused [`Workspace`]
/// diverges bitwise from one on fresh workspaces: two replicas of `layer`
/// (cloned via [`Layer::clone_box`], so RNG states match) run
/// `forward`/`backward` (a fresh workspace per call) and
/// `forward_ws`/`backward_ws` (one shared workspace) on the same input,
/// and the forward outputs, input gradients, and accumulated parameter
/// gradients are compared bit for bit. Returns the number of differing
/// scalars — `0` is the invariant every layer must uphold.
///
/// Two passes run through the shared workspace, so the second pass
/// exercises recycled (stale-content) buffers.
pub fn backward_ws_divergence(layer: &dyn Layer, x: &Tensor, mode: Mode) -> usize {
    let mut reference = layer.clone_box();
    let mut candidate = layer.clone_box();
    let mut ws = Workspace::new();
    let mut diverged = 0usize;
    for _ in 0..2 {
        let y_ref = reference.forward(x, mode);
        let g_ref = reference.backward(&Tensor::ones(y_ref.dims()));
        let y_ws = candidate.forward_ws(x, mode, &mut ws);
        let seed = Tensor::ones(y_ws.dims());
        let g_ws = candidate.backward_ws(&seed, &mut ws);
        diverged += mismatches(&y_ref, &y_ws) + mismatches(&g_ref, &g_ws);
        let mut ref_grads: Vec<Tensor> = Vec::new();
        reference.visit_params(&mut |p| ref_grads.push(p.grad.clone()));
        let mut i = 0;
        candidate.visit_params(&mut |p| {
            diverged += mismatches(&ref_grads[i], &p.grad);
            i += 1;
        });
        ws.recycle(y_ws);
        ws.recycle(g_ws);
    }
    diverged
}

/// Number of positions where two tensors differ bitwise (shape mismatch
/// counts every element).
fn mismatches(a: &Tensor, b: &Tensor) -> usize {
    if a.dims() != b.dims() {
        return a.len().max(b.len()).max(1);
    }
    a.as_slice()
        .iter()
        .zip(b.as_slice())
        .filter(|(x, y)| x.to_bits() != y.to_bits())
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Dense, Identity};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn identity_has_exact_gradient() {
        let mut id = Identity::new();
        let x = Tensor::from_slice(&[1.0, -2.0, 3.0]);
        assert!(numeric_gradient(&mut id, &x, 1e-3) < 1e-3);
    }

    #[test]
    fn dense_input_and_param_gradients_check_out() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let mut fc = Dense::new(3, 4, &mut rng);
        let x = Tensor::randn(&[2, 3], 0.0, 1.0, &mut rng);
        let gc = GradCheck::new();
        assert!(gc.max_input_error(&mut fc, &x) < 1e-2);
        assert!(gc.max_param_error(&mut fc, &x) < 1e-2);
    }
}
