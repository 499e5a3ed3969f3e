//! Model zoo for the BayesFT reproduction — every architecture evaluated in
//! the paper's Figs. 2–4, scaled to the synthetic datasets and CPU
//! training:
//!
//! | paper model | here | used in |
//! |---|---|---|
//! | 3/6/9-layer MLP | [`Mlp`] | Fig. 2 ablations, Fig. 3(a) |
//! | LeNet-5 | [`LeNet5`] | Fig. 3(b) |
//! | AlexNet | [`AlexNetS`] | Fig. 3(c) |
//! | ResNet-18 | [`ResNet18S`] | Fig. 3(d) |
//! | VGG-11 | [`Vgg11S`] | Fig. 3(e) |
//! | PreAct ResNet-18/50/152 | [`PreActResNetS`] | Fig. 3(f–h) |
//! | spatial transformer net | [`StnClassifier`] | Fig. 3(i) |
//! | Mask R-CNN | [`TinyDetector`] | Fig. 3(j), Fig. 4 |
//!
//! Every model follows the paper's search-space convention: a mutable-rate
//! [`nn::Dropout`] layer sits after each weighted layer (except the output
//! layer), initialized to rate 0 so the same skeleton serves as the ERM
//! baseline. BayesFT re-targets the rates through
//! [`nn::Layer::visit_dropout`] / [`set_dropout_rates`].
//!
//! The `-S` suffix marks width/depth-scaled variants: block structure and
//! family ordering (18 < 50 < 152) match the originals, absolute parameter
//! counts do not (see DESIGN.md for the substitution rationale).
//!
//! # Example
//!
//! ```
//! use models::{dropout_count, set_dropout_rates, Mlp, MlpConfig};
//! use nn::{Layer, Mode};
//! use rand::SeedableRng;
//! use rand_chacha::ChaCha8Rng;
//! use tensor::Tensor;
//!
//! let mut rng = ChaCha8Rng::seed_from_u64(0);
//! let mut mlp = Mlp::new(&MlpConfig::new(4, 10), &mut rng);
//! assert_eq!(dropout_count(&mut mlp), 2); // 3 layers → 2 dropout slots
//! set_dropout_rates(&mut mlp, &[0.1, 0.3]);
//! let logits = mlp.forward(&Tensor::ones(&[2, 4]), Mode::Eval);
//! assert_eq!(logits.dims(), &[2, 10]);
//! ```

mod convnets;
mod detector;
mod kind;
mod lenet;
mod mlp;
mod resnet;
mod stn;

pub use convnets::{AlexNetS, Vgg11S};
pub use detector::{DetectionLoss, TinyDetector, GRID};
pub use kind::ModelKind;
pub use lenet::LeNet5;
pub use mlp::{DropoutKind, Mlp, MlpConfig};
pub use resnet::{PreActDepth, PreActResNetS, ResNet18S};
pub use stn::{SpatialTransformer, StnClassifier};

use nn::Layer;

/// Number of dropout layers (BayesFT search-space dimensions) in a network.
pub fn dropout_count(network: &mut dyn Layer) -> usize {
    let mut n = 0;
    network.visit_dropout(&mut |_| n += 1);
    n
}

/// Sets per-layer dropout rates in visit order, clamping each to
/// `[0, 0.95]`. Extra rates are ignored; missing rates leave later layers
/// unchanged.
pub fn set_dropout_rates(network: &mut dyn Layer, rates: &[f32]) {
    let mut i = 0;
    network.visit_dropout(&mut |d| {
        if let Some(&r) = rates.get(i) {
            d.set_rate(r);
        }
        i += 1;
    });
}

/// Reads the current per-layer dropout rates in visit order.
pub fn dropout_rates(network: &mut dyn Layer) -> Vec<f32> {
    let mut rates = Vec::new();
    network.visit_dropout(&mut |d| rates.push(d.rate()));
    rates
}

/// Implements [`nn::Layer`] by delegating to a `net: Sequential` field —
/// the pattern shared by every model wrapper in this crate.
macro_rules! delegate_layer {
    ($ty:ident, $tag:literal) => {
        impl nn::Layer for $ty {
            fn forward_ws(
                &mut self,
                input: &tensor::Tensor,
                mode: nn::Mode,
                ws: &mut nn::Workspace,
            ) -> tensor::Tensor {
                self.net.forward_ws(input, mode, ws)
            }

            fn backward_ws(
                &mut self,
                grad_out: &tensor::Tensor,
                ws: &mut nn::Workspace,
            ) -> tensor::Tensor {
                self.net.backward_ws(grad_out, ws)
            }

            fn backward_params_ws(&mut self, grad_out: &tensor::Tensor, ws: &mut nn::Workspace) {
                self.net.backward_params_ws(grad_out, ws);
            }

            fn visit_params(&mut self, f: &mut dyn FnMut(&mut nn::Param)) {
                self.net.visit_params(f);
            }

            fn visit_dropout(&mut self, f: &mut dyn FnMut(&mut nn::Dropout)) {
                self.net.visit_dropout(f);
            }

            fn name(&self) -> &'static str {
                $tag
            }

            fn clone_box(&self) -> Box<dyn nn::Layer> {
                Box::new(self.clone())
            }
        }

        impl std::fmt::Debug for $ty {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                f.debug_struct(stringify!($ty)).finish()
            }
        }
    };
}
pub(crate) use delegate_layer;

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn rate_helpers_round_trip() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let mut mlp = Mlp::new(&MlpConfig::new(4, 3).depth(4), &mut rng);
        assert_eq!(dropout_count(&mut mlp), 3);
        set_dropout_rates(&mut mlp, &[0.1, 0.2, 0.3]);
        let rates = dropout_rates(&mut mlp);
        assert!((rates[0] - 0.1).abs() < 1e-6);
        assert!((rates[2] - 0.3).abs() < 1e-6);
    }

    #[test]
    fn set_rates_clamps_and_tolerates_short_vectors() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let mut mlp = Mlp::new(&MlpConfig::new(4, 3), &mut rng);
        set_dropout_rates(&mut mlp, &[2.0]); // clamped, second left alone
        let rates = dropout_rates(&mut mlp);
        assert!((rates[0] - 0.95).abs() < 1e-6);
        assert_eq!(rates[1], 0.0);
    }
}
