//! The four activation functions ablated in Fig. 2(d): ReLU, leaky ReLU,
//! ELU, and GELU.

use serde::{Deserialize, Serialize};
use tensor::Tensor;

use crate::{
    layer::{cache_into, invalidate_cache},
    Layer, Mode, Workspace,
};

/// Selects one of the paper's four activation functions when building
/// parameterized models (Fig. 2(d) ablation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum Activation {
    /// Rectified linear unit.
    #[default]
    Relu,
    /// Leaky ReLU with slope 0.01.
    LeakyRelu,
    /// Exponential linear unit with `α = 1`.
    Elu,
    /// Gaussian error linear unit (tanh approximation).
    Gelu,
}

impl Activation {
    /// Instantiates the corresponding layer.
    pub fn build(self) -> Box<dyn Layer> {
        match self {
            Activation::Relu => Box::new(Relu::new()),
            Activation::LeakyRelu => Box::new(LeakyRelu::new(0.01)),
            Activation::Elu => Box::new(Elu::new(1.0)),
            Activation::Gelu => Box::new(Gelu::new()),
        }
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
}

impl std::fmt::Display for Activation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            Activation::Relu => "relu",
            Activation::LeakyRelu => "leaky_relu",
            Activation::Elu => "elu",
            Activation::Gelu => "gelu",
        };
        write!(f, "{name}")
    }
}

macro_rules! elementwise_activation {
    ($(#[$doc:meta])* $name:ident, $tag:literal, $fwd:expr, $bwd:expr) => {
        $(#[$doc])*
        #[derive(Debug, Clone)]
        pub struct $name {
            input: Option<Tensor>,
            alpha: f32,
        }

        impl Layer for $name {
            fn forward_ws(&mut self, input: &Tensor, mode: Mode, ws: &mut Workspace) -> Tensor {
                if mode == Mode::Train {
                    cache_into(&mut self.input, input.as_slice(), input.dims());
                } else {
                    invalidate_cache(&mut self.input);
                }
                let a = self.alpha;
                let mut out = ws.take_tensor(input.dims());
                for (o, &x) in out.as_mut_slice().iter_mut().zip(input.as_slice()) {
                    *o = ($fwd)(x, a);
                }
                out
            }

            fn backward_ws(&mut self, grad_out: &Tensor, ws: &mut Workspace) -> Tensor {
                let input = self
                    .input
                    .as_ref()
                    .expect(concat!("backward called before forward on ", $tag));
                assert!(
                    !input.is_empty(),
                    concat!("backward called after an eval-mode forward on ", $tag)
                );
                assert_eq!(input.dims(), grad_out.dims(), concat!($tag, " gradient shape"));
                let a = self.alpha;
                let mut out = ws.take_tensor(input.dims());
                for ((o, &x), &g) in out
                    .as_mut_slice()
                    .iter_mut()
                    .zip(input.as_slice())
                    .zip(grad_out.as_slice())
                {
                    *o = g * ($bwd)(x, a);
                }
                out
            }

            fn name(&self) -> &'static str {
                $tag
            }

            fn clone_box(&self) -> Box<dyn Layer> {
                Box::new(self.clone())
            }
        }
    };
}

elementwise_activation!(
    /// Rectified linear unit: `max(0, x)`.
    ///
    /// # Example
    ///
    /// ```
    /// use nn::{Layer, Mode, Relu};
    /// use tensor::Tensor;
    ///
    /// let mut relu = Relu::new();
    /// let y = relu.forward(&Tensor::from_slice(&[-1.0, 2.0]), Mode::Eval);
    /// assert_eq!(y.as_slice(), &[0.0, 2.0]);
    /// ```
    Relu,
    "relu",
    |x: f32, _a: f32| x.max(0.0),
    |x: f32, _a: f32| if x > 0.0 { 1.0 } else { 0.0 }
);

impl Relu {
    /// Creates a ReLU layer.
    pub fn new() -> Self {
        Relu {
            input: None,
            alpha: 0.0,
        }
    }
}

impl Default for Relu {
    fn default() -> Self {
        Relu::new()
    }
}

elementwise_activation!(
    /// Leaky ReLU: `x` for positive inputs, `αx` otherwise.
    LeakyRelu,
    "leaky_relu",
    |x: f32, a: f32| if x > 0.0 { x } else { a * x },
    |x: f32, a: f32| if x > 0.0 { 1.0 } else { a }
);

impl LeakyRelu {
    /// Creates a leaky ReLU with negative-side slope `alpha`.
    pub fn new(alpha: f32) -> Self {
        LeakyRelu { input: None, alpha }
    }
}

elementwise_activation!(
    /// Exponential linear unit: `x` for positive inputs, `α(eˣ−1)` otherwise.
    Elu,
    "elu",
    |x: f32, a: f32| if x > 0.0 { x } else { a * (x.exp() - 1.0) },
    |x: f32, a: f32| if x > 0.0 { 1.0 } else { a * x.exp() }
);

impl Elu {
    /// Creates an ELU with scale `alpha`.
    pub fn new(alpha: f32) -> Self {
        Elu { input: None, alpha }
    }
}

const GELU_C: f32 = 0.797_884_6; // sqrt(2/π)
const GELU_K: f32 = 0.044_715;

fn gelu_fwd(x: f32) -> f32 {
    0.5 * x * (1.0 + (GELU_C * (x + GELU_K * x * x * x)).tanh())
}

fn gelu_bwd(x: f32) -> f32 {
    let inner = GELU_C * (x + GELU_K * x * x * x);
    let t = inner.tanh();
    let sech2 = 1.0 - t * t;
    0.5 * (1.0 + t) + 0.5 * x * sech2 * GELU_C * (1.0 + 3.0 * GELU_K * x * x)
}

elementwise_activation!(
    /// Gaussian error linear unit (tanh approximation of Hendrycks & Gimpel).
    Gelu,
    "gelu",
    |x: f32, _a: f32| gelu_fwd(x),
    |x: f32, _a: f32| gelu_bwd(x)
);

impl Gelu {
    /// Creates a GELU layer.
    pub fn new() -> Self {
        Gelu {
            input: None,
            alpha: 0.0,
        }
    }
}

impl Default for Gelu {
    fn default() -> Self {
        Gelu::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::numeric_gradient;

    #[test]
    fn relu_clamps_negatives() {
        let mut relu = Relu::new();
        let y = relu.forward(&Tensor::from_slice(&[-2.0, 0.0, 3.0]), Mode::Eval);
        assert_eq!(y.as_slice(), &[0.0, 0.0, 3.0]);
    }

    #[test]
    fn leaky_relu_passes_scaled_negatives() {
        let mut l = LeakyRelu::new(0.1);
        let y = l.forward(&Tensor::from_slice(&[-10.0, 10.0]), Mode::Eval);
        assert_eq!(y.as_slice(), &[-1.0, 10.0]);
    }

    #[test]
    fn elu_is_smooth_at_negative() {
        let mut e = Elu::new(1.0);
        let y = e.forward(&Tensor::from_slice(&[-1.0, 1.0]), Mode::Eval);
        assert!((y.as_slice()[0] - ((-1.0f32).exp() - 1.0)).abs() < 1e-6);
        assert_eq!(y.as_slice()[1], 1.0);
    }

    #[test]
    fn gelu_matches_reference_values() {
        // Reference values from the tanh approximation.
        assert!((gelu_fwd(0.0)).abs() < 1e-7);
        assert!((gelu_fwd(1.0) - 0.8412).abs() < 1e-3);
        assert!((gelu_fwd(-1.0) + 0.1588).abs() < 1e-3);
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
    }
}
