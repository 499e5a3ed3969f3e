//! The four activation functions ablated in Fig. 2(d): ReLU, leaky ReLU,
//! ELU, and GELU.

use serde::{Deserialize, Serialize};
use tensor::Tensor;

use crate::{
    layer::{cache_into, invalidate_cache},
    Layer, Mode, Workspace,
};

/// Leaky ReLU's slope for negative inputs.
const LEAKY_SLOPE: f32 = 0.01;
/// ELU's scale `α` for negative inputs.
const ELU_ALPHA: f32 = 1.0;
const GELU_C: f32 = 0.797_884_6; // sqrt(2/π)
const GELU_K: f32 = 0.044_715;

/// Selects one of the paper's four activation functions when building
/// parameterized models (Fig. 2(d) ablation).
///
/// # Example
///
/// ```
/// use nn::{Activation, Mode};
/// use tensor::Tensor;
///
/// let mut relu = Activation::Relu.build();
/// let y = relu.forward(&Tensor::from_slice(&[-1.0, 2.0]), Mode::Eval);
/// assert_eq!(y.as_slice(), &[0.0, 2.0]);
/// assert_eq!(relu.name(), "relu");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum Activation {
    /// Rectified linear unit: `max(0, x)`.
    #[default]
    Relu,
    /// Leaky ReLU: `x` for positive inputs, `0.01·x` otherwise.
    LeakyRelu,
    /// Exponential linear unit: `x` for positive inputs, `α(eˣ−1)` with
    /// `α = 1` otherwise.
    Elu,
    /// Gaussian error linear unit (tanh approximation of Hendrycks &
    /// Gimpel).
    Gelu,
}

impl Activation {
    /// Instantiates the corresponding layer.
    pub fn build(self) -> Box<dyn Layer> {
        Box::new(ActivationLayer {
            kind: self,
            input: None,
        })
    }

    /// All four variants, in the order plotted in Fig. 2(d).
    pub fn all() -> [Activation; 4] {
        [
            Activation::Relu,
            Activation::LeakyRelu,
            Activation::Elu,
            Activation::Gelu,
        ]
    }

    /// The printed name, which is also the built layer's [`Layer::name`].
    const fn name(self) -> &'static str {
        match self {
            Activation::Relu => "relu",
            Activation::LeakyRelu => "leaky_relu",
            Activation::Elu => "elu",
            Activation::Gelu => "gelu",
        }
    }
}

impl std::fmt::Display for Activation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

fn relu(x: f32) -> f32 {
    x.max(0.0)
}

fn relu_grad(x: f32) -> f32 {
    if x > 0.0 {
        1.0
    } else {
        0.0
    }
}

fn leaky_relu(x: f32) -> f32 {
    if x > 0.0 {
        x
    } else {
        LEAKY_SLOPE * x
    }
}

fn leaky_relu_grad(x: f32) -> f32 {
    if x > 0.0 {
        1.0
    } else {
        LEAKY_SLOPE
    }
}

fn elu(x: f32) -> f32 {
    if x > 0.0 {
        x
    } else {
        ELU_ALPHA * (x.exp() - 1.0)
    }
}

fn elu_grad(x: f32) -> f32 {
    if x > 0.0 {
        1.0
    } else {
        ELU_ALPHA * x.exp()
    }
}

fn gelu(x: f32) -> f32 {
    0.5 * x * (1.0 + (GELU_C * (x + GELU_K * x * x * x)).tanh())
}

fn gelu_grad(x: f32) -> f32 {
    let inner = GELU_C * (x + GELU_K * x * x * x);
    let t = inner.tanh();
    let sech2 = 1.0 - t * t;
    0.5 * (1.0 + t) + 0.5 * x * sech2 * GELU_C * (1.0 + 3.0 * GELU_K * x * x)
}

/// Writes `f(x)` into `out` element by element; one instantiation per
/// activation keeps each loop free of the kind dispatch.
fn map_into(out: &mut [f32], x: &[f32], f: impl Fn(f32) -> f32) {
    for (o, &x) in out.iter_mut().zip(x) {
        *o = f(x);
    }
}

/// Writes `g · df(x)` into `out` element by element.
fn grad_into(out: &mut [f32], x: &[f32], g: &[f32], df: impl Fn(f32) -> f32) {
    for ((o, &x), &g) in out.iter_mut().zip(x).zip(g) {
        *o = g * df(x);
    }
}

/// The layer every [`Activation`] builds; caches its training input.
#[derive(Clone)]
struct ActivationLayer {
    kind: Activation,
    input: Option<Tensor>,
}

impl Layer for ActivationLayer {
    fn forward_ws(&mut self, input: &Tensor, mode: Mode, ws: &mut Workspace) -> Tensor {
        if mode == Mode::Train {
            cache_into(&mut self.input, input.as_slice(), input.dims());
        } else {
            invalidate_cache(&mut self.input);
        }
        let mut out = ws.take_tensor(input.dims());
        let (o, x) = (out.as_mut_slice(), input.as_slice());
        match self.kind {
            Activation::Relu => map_into(o, x, relu),
            Activation::LeakyRelu => map_into(o, x, leaky_relu),
            Activation::Elu => map_into(o, x, elu),
            Activation::Gelu => map_into(o, x, gelu),
        }
        out
    }

    fn backward_ws(&mut self, grad_out: &Tensor, ws: &mut Workspace) -> Tensor {
        let name = self.kind.name();
        let input = self
            .input
            .as_ref()
            .unwrap_or_else(|| panic!("backward called before forward on {name}"));
        assert!(
            !input.is_empty(),
            "backward called after an eval-mode forward on {name}"
        );
        assert_eq!(input.dims(), grad_out.dims(), "{name} gradient shape");
        let mut out = ws.take_tensor(input.dims());
        let (o, x, g) = (out.as_mut_slice(), input.as_slice(), grad_out.as_slice());
        match self.kind {
            Activation::Relu => grad_into(o, x, g, relu_grad),
            Activation::LeakyRelu => grad_into(o, x, g, leaky_relu_grad),
            Activation::Elu => grad_into(o, x, g, elu_grad),
            Activation::Gelu => grad_into(o, x, g, gelu_grad),
        }
        out
    }

    fn name(&self) -> &'static str {
        self.kind.name()
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::numeric_gradient;

    fn eval(act: Activation, x: &[f32]) -> Vec<f32> {
        act.build()
            .forward(&Tensor::from_slice(x), Mode::Eval)
            .as_slice()
            .to_vec()
    }

    #[test]
    fn relu_clamps_negatives() {
        assert_eq!(eval(Activation::Relu, &[-2.0, 0.0, 3.0]), [0.0, 0.0, 3.0]);
    }

    #[test]
    fn leaky_relu_passes_scaled_negatives() {
        assert_eq!(
            eval(Activation::LeakyRelu, &[-10.0, 10.0]),
            [-10.0 * LEAKY_SLOPE, 10.0]
        );
    }

    #[test]
    fn elu_is_smooth_at_negative() {
        let y = eval(Activation::Elu, &[-1.0, 1.0]);
        assert!((y[0] - ((-1.0f32).exp() - 1.0)).abs() < 1e-6);
        assert_eq!(y[1], 1.0);
    }

    #[test]
    fn gelu_matches_reference_values() {
        // Reference values from the tanh approximation.
        assert!((gelu(0.0)).abs() < 1e-7);
        assert!((gelu(1.0) - 0.8412).abs() < 1e-3);
        assert!((gelu(-1.0) + 0.1588).abs() < 1e-3);
    }

    #[test]
    fn all_activation_gradients_match_finite_differences() {
        for act in Activation::all() {
            let mut layer = act.build();
            let x = Tensor::from_slice(&[-1.5, -0.3, 0.2, 0.9, 2.0]);
            let max_err = numeric_gradient(layer.as_mut(), &x, 1e-3);
            assert!(
                max_err < 2e-2,
                "{act}: finite-difference mismatch {max_err}"
            );
        }
    }

    #[test]
    fn activation_display_names() {
        assert_eq!(Activation::Relu.to_string(), "relu");
        assert_eq!(Activation::Gelu.to_string(), "gelu");
        for act in Activation::all() {
            assert_eq!(act.build().name(), act.to_string());
        }
    }
}
