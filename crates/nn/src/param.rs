//! Trainable parameters and the train/eval mode flag.

use serde::{Deserialize, Serialize};
use tensor::Tensor;

/// Whether a forward pass is part of training (stochastic layers active,
/// batch statistics collected) or evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Mode {
    /// Training: dropout masks are sampled, batch norm uses batch statistics.
    Train,
    /// Inference: stochastic layers are identity, batch norm uses running
    /// statistics.
    Eval,
}

/// A trainable tensor together with its accumulated gradient.
///
/// # Example
///
/// ```
/// use nn::Param;
/// use tensor::Tensor;
///
/// let mut p = Param::new(Tensor::ones(&[2, 2]));
/// p.grad.add_scaled(&Tensor::ones(&[2, 2]), 0.5);
/// p.zero_grad();
/// assert_eq!(p.grad.sum(), 0.0);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Param {
    /// Current value.
    pub value: Tensor,
    /// Gradient accumulated by the most recent backward pass(es).
    pub grad: Tensor,
}

impl Param {
    /// Wraps a value tensor with a zeroed gradient of the same shape.
    pub fn new(value: Tensor) -> Self {
        let grad = Tensor::zeros(value.dims());
        Param { value, grad }
    }

    /// Resets the gradient to zero.
    pub fn zero_grad(&mut self) {
        self.grad.as_mut_slice().iter_mut().for_each(|v| *v = 0.0);
    }

    /// Number of scalar elements.
    pub fn len(&self) -> usize {
        self.value.len()
    }

    /// Whether the parameter is empty.
    pub fn is_empty(&self) -> bool {
        self.value.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_param_has_zero_grad_same_shape() {
        let p = Param::new(Tensor::ones(&[3, 4]));
        assert_eq!(p.grad.dims(), &[3, 4]);
        assert_eq!(p.grad.sum(), 0.0);
        assert_eq!(p.len(), 12);
    }

    #[test]
    fn zero_grad_clears() {
        let mut p = Param::new(Tensor::ones(&[2]));
        p.grad = Tensor::from_slice(&[1.0, -2.0]);
        p.zero_grad();
        assert_eq!(p.grad.as_slice(), &[0.0, 0.0]);
    }

    #[test]
    fn mode_is_copy_eq() {
        let m = Mode::Train;
        let n = m;
        assert_eq!(m, n);
        assert_ne!(Mode::Train, Mode::Eval);
    }
}
