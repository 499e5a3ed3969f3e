//! Optimizers: plain/momentum SGD (Algorithm 1 line 6) and Adam.

use tensor::Tensor;

use crate::{Layer, Param};

/// A gradient-descent update rule applied to a network's parameters.
///
/// Optimizers carry per-parameter state (momentum buffers, Adam moments)
/// keyed by visit order, which is stable for a fixed network.
pub trait Optimizer {
    /// Applies one update step using the gradients currently accumulated in
    /// the network's parameters, then zeroes the gradients.
    fn step(&mut self, network: &mut dyn Layer);
}

/// Stochastic gradient descent with optional momentum and global-norm
/// gradient clipping.
///
/// # Example
///
/// ```
/// use nn::{Dense, Layer, Mode, Optimizer, Sgd};
/// use rand::SeedableRng;
/// use rand_chacha::ChaCha8Rng;
/// use tensor::Tensor;
///
/// let mut rng = ChaCha8Rng::seed_from_u64(0);
/// let mut net = Dense::new(2, 1, &mut rng);
/// let mut opt = Sgd::new(0.1).momentum(0.9);
/// let _ = net.forward(&Tensor::ones(&[1, 2]), Mode::Train);
/// let _ = net.backward(&Tensor::ones(&[1, 1]));
/// opt.step(&mut net); // weights moved against the gradient
/// ```
#[derive(Debug, Clone)]
pub struct Sgd {
    lr: f32,
    momentum: f32,
    clip_norm: Option<f32>,
    velocity: Vec<Tensor>,
}

impl Sgd {
    /// Creates plain SGD with learning rate `lr`.
    ///
    /// # Panics
    ///
    /// Panics if `lr` is not positive and finite.
    pub fn new(lr: f32) -> Self {
        assert!(lr > 0.0 && lr.is_finite(), "learning rate must be positive");
        Sgd {
            lr,
            momentum: 0.0,
            clip_norm: None,
            velocity: Vec::new(),
        }
    }

    /// Enables classical momentum.
    pub fn momentum(mut self, beta: f32) -> Self {
        self.momentum = beta;
        self
    }

    /// Enables global-norm gradient clipping: if the concatenated gradient
    /// norm exceeds `max_norm`, every gradient is scaled down to meet it.
    /// Stabilizes training when Bayesian-optimization trials visit extreme
    /// dropout rates.
    ///
    /// # Panics
    ///
    /// Panics if `max_norm` is not positive.
    pub fn clip_norm(mut self, max_norm: f32) -> Self {
        assert!(max_norm > 0.0, "clip norm must be positive");
        self.clip_norm = Some(max_norm);
        self
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, network: &mut dyn Layer) {
        if let Some(max_norm) = self.clip_norm {
            let mut norm_sq = 0.0f32;
            network.visit_params(&mut |p| norm_sq += p.grad.norm_sq());
            let norm = norm_sq.sqrt();
            if norm > max_norm && norm.is_finite() {
                let scale = max_norm / norm;
                network.visit_params(&mut |p| p.grad.scale_inplace(scale));
            } else if !norm.is_finite() {
                // A NaN/inf gradient would permanently poison the weights:
                // drop the update entirely.
                network.visit_params(&mut |p| p.zero_grad());
            }
        }
        let lr = self.lr;
        let beta = self.momentum;
        let velocity = &mut self.velocity;
        let mut idx = 0usize;
        // Strictly in place: the update reads the gradient directly (split
        // field borrows, no temporaries), and `zero_grad` reuses the
        // gradient buffer — the only allocations are the one-time velocity
        // buffers.
        network.visit_params(&mut |p: &mut Param| {
            let Param { value, grad } = p;
            if beta > 0.0 {
                if velocity.len() <= idx {
                    velocity.push(Tensor::zeros(value.dims()));
                }
                let v = &mut velocity[idx];
                v.scale_inplace(beta);
                v.add_assign(grad);
                value.add_scaled(v, -lr);
            } else {
                value.add_scaled(grad, -lr);
            }
            p.zero_grad();
            idx += 1;
        });
    }
}

/// Adam (Kingma & Ba) with bias correction.
#[derive(Debug, Clone)]
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    t: u64,
    moments: Vec<(Tensor, Tensor)>,
}

impl Adam {
    /// Creates Adam with learning rate `lr` and the standard
    /// `β₁ = 0.9, β₂ = 0.999`.
    ///
    /// # Panics
    ///
    /// Panics if `lr` is not positive and finite.
    pub fn new(lr: f32) -> Self {
        assert!(lr > 0.0 && lr.is_finite(), "learning rate must be positive");
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            moments: Vec::new(),
        }
    }
}

impl Optimizer for Adam {
    fn step(&mut self, network: &mut dyn Layer) {
        self.t += 1;
        let (b1, b2) = (self.beta1, self.beta2);
        let bc1 = 1.0 - b1.powi(self.t as i32);
        let bc2 = 1.0 - b2.powi(self.t as i32);
        let lr = self.lr;
        let eps = self.eps;
        let moments = &mut self.moments;
        let mut idx = 0usize;
        network.visit_params(&mut |p: &mut Param| {
            if moments.len() <= idx {
                moments.push((Tensor::zeros(p.value.dims()), Tensor::zeros(p.value.dims())));
            }
            let (m, v) = &mut moments[idx];
            for ((mv, vv), (&g, w)) in m
                .as_mut_slice()
                .iter_mut()
                .zip(v.as_mut_slice())
                .zip(p.grad.as_slice().iter().zip(p.value.as_mut_slice()))
            {
                *mv = b1 * *mv + (1.0 - b1) * g;
                *vv = b2 * *vv + (1.0 - b2) * g * g;
                let mhat = *mv / bc1;
                let vhat = *vv / bc2;
                *w -= lr * mhat / (vhat.sqrt() + eps);
            }
            p.zero_grad();
            idx += 1;
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Dense, Mode};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use tensor::Tensor;

    /// Trains y = 2x with a 1-unit dense layer under squared error; the
    /// loss must shrink.
    fn converges(opt: &mut dyn Optimizer) -> bool {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let mut net = Dense::new(1, 1, &mut rng);
        let x = Tensor::from_vec(vec![0.5, 1.0, -1.0, 2.0], &[4, 1]).unwrap();
        let y = x.map(|v| 2.0 * v);
        let mut first = None;
        let mut last = 0.0;
        for _ in 0..200 {
            let mut grad = net.forward(&x, Mode::Train).sub(&y);
            let n = grad.len() as f32;
            last = grad.norm_sq() / n;
            first.get_or_insert(last);
            grad.scale_inplace(2.0 / n);
            let _ = net.backward(&grad);
            opt.step(&mut net);
        }
        last < 0.01 * first.unwrap().max(1e-6) || last < 1e-4
    }

    #[test]
    fn sgd_converges_on_linear_problem() {
        assert!(converges(&mut Sgd::new(0.1)));
    }

    #[test]
    fn momentum_sgd_converges() {
        assert!(converges(&mut Sgd::new(0.05).momentum(0.9)));
    }

    #[test]
    fn adam_converges() {
        assert!(converges(&mut Adam::new(0.05)));
    }

    #[test]
    fn step_zeroes_gradients() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let mut net = Dense::new(2, 2, &mut rng);
        let _ = net.forward(&Tensor::ones(&[1, 2]), Mode::Train);
        let _ = net.backward(&Tensor::ones(&[1, 2]));
        let mut opt = Sgd::new(0.01);
        opt.step(&mut net);
        let mut all_zero = true;
        net.visit_params(&mut |p| all_zero &= p.grad.as_slice().iter().all(|&g| g == 0.0));
        assert!(all_zero);
    }

    #[test]
    #[should_panic(expected = "learning rate must be positive")]
    fn invalid_lr_panics() {
        let _ = Sgd::new(-0.1);
    }
}
