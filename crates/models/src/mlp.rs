//! The configurable multi-layer perceptron behind every Fig. 2 ablation and
//! the MLP rows of Fig. 3.

use nn::{Activation, AlphaDropout, Dense, Dropout, NormKind, Sequential};
use rand::Rng;

use crate::delegate_layer;

/// Which dropout flavour the ablation inserts (Fig. 2(a)).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum DropoutKind {
    /// Mutable-rate standard dropout at the given initial rate — the
    /// BayesFT search space (rate 0 ⇒ ERM skeleton).
    #[default]
    Standard,
    /// Alpha dropout at a fixed rate.
    Alpha(f32),
    /// No dropout layers at all (pure "Original Model" ablation arm).
    None,
}

/// Configuration for [`Mlp`].
///
/// Defaults: 3 layers of 64 hidden units, ReLU, no normalization, standard
/// zero-rate dropout slots after every hidden layer.
#[derive(Debug, Clone, PartialEq)]
pub struct MlpConfig {
    /// Input feature count.
    pub input_dim: usize,
    /// Output class count.
    pub classes: usize,
    /// Total number of weighted layers (≥ 2): `depth − 1` hidden + 1 output.
    pub depth: usize,
    /// Hidden width.
    pub hidden: usize,
    /// Normalization after each hidden layer (Fig. 2(b)).
    pub norm: NormKind,
    /// Activation function (Fig. 2(d)).
    pub activation: Activation,
    /// Dropout flavour (Fig. 2(a)).
    pub dropout: DropoutKind,
    /// Initial rate for `DropoutKind::Standard` slots.
    pub initial_rate: f32,
    /// RNG seed for the dropout masks.
    pub dropout_seed: u64,
}

impl MlpConfig {
    /// A 3-layer ReLU MLP with no normalization and zero-rate dropout slots.
    pub fn new(input_dim: usize, classes: usize) -> Self {
        MlpConfig {
            input_dim,
            classes,
            depth: 3,
            hidden: 64,
            norm: NormKind::None,
            activation: Activation::Relu,
            dropout: DropoutKind::Standard,
            initial_rate: 0.0,
            dropout_seed: 0x5eed,
        }
    }

    /// Sets the number of weighted layers (Fig. 2(c): 3, 6, 9).
    ///
    /// # Panics
    ///
    /// Panics if `depth < 2`.
    pub fn depth(mut self, depth: usize) -> Self {
        assert!(depth >= 2, "an MLP needs at least input and output layers");
        self.depth = depth;
        self
    }

    /// Sets the hidden width.
    pub fn hidden(mut self, hidden: usize) -> Self {
        self.hidden = hidden;
        self
    }

    /// Sets the normalization scheme.
    pub fn norm(mut self, norm: NormKind) -> Self {
        self.norm = norm;
        self
    }

    /// Sets the activation function.
    pub fn activation(mut self, activation: Activation) -> Self {
        self.activation = activation;
        self
    }

    /// Sets the dropout flavour.
    pub fn dropout(mut self, dropout: DropoutKind) -> Self {
        self.dropout = dropout;
        self
    }

    /// Sets the initial standard-dropout rate.
    pub fn initial_rate(mut self, rate: f32) -> Self {
        self.initial_rate = rate;
        self
    }
}

/// A multi-layer perceptron: `depth` dense layers with configurable
/// normalization, activation and dropout, ending in raw class logits.
///
/// See the crate-level example for usage.
#[derive(Clone)]
pub struct Mlp {
    net: Sequential,
}

impl Mlp {
    /// Builds the MLP described by `config` with Xavier-initialized weights.
    pub fn new(config: &MlpConfig, rng: &mut impl Rng) -> Self {
        let mut layers: Vec<Box<dyn nn::Layer>> = Vec::new();
        let mut in_dim = config.input_dim;
        for layer_idx in 0..config.depth - 1 {
            layers.push(Box::new(Dense::new(in_dim, config.hidden, rng)));
            if config.norm != NormKind::None {
                layers.push(config.norm.build(config.hidden));
            }
            layers.push(config.activation.build());
            match config.dropout {
                DropoutKind::Standard => layers.push(Box::new(Dropout::new(
                    config.initial_rate,
                    config.dropout_seed.wrapping_add(layer_idx as u64),
                ))),
                DropoutKind::Alpha(rate) => layers.push(Box::new(AlphaDropout::new(
                    rate,
                    config.dropout_seed.wrapping_add(layer_idx as u64),
                ))),
                DropoutKind::None => {}
            }
            in_dim = config.hidden;
        }
        layers.push(Box::new(Dense::new(in_dim, config.classes, rng)));
        Mlp {
            net: Sequential::new(layers),
        }
    }
}

delegate_layer!(Mlp, "mlp");

#[cfg(test)]
mod tests {
    use super::*;
    use nn::{Layer, Mode};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use tensor::Tensor;

    #[test]
    fn output_shape_matches_classes() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let mut mlp = Mlp::new(&MlpConfig::new(8, 5), &mut rng);
        let y = mlp.forward(&Tensor::ones(&[3, 8]), Mode::Eval);
        assert_eq!(y.dims(), &[3, 5]);
    }

    #[test]
    fn depth_controls_dense_count() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        for depth in [2, 3, 6, 9] {
            let mut mlp = Mlp::new(&MlpConfig::new(4, 2).depth(depth), &mut rng);
            // Only dense weights are matrices; biases are vectors.
            let mut dense = 0;
            mlp.visit_params(&mut |p| {
                if p.value.rank() == 2 {
                    dense += 1;
                }
            });
            assert_eq!(dense, depth, "depth {depth}");
        }
    }

    #[test]
    fn norm_variant_adds_norm_params() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let mut tensors = |cfg: &MlpConfig| {
            let mut count = 0;
            Mlp::new(cfg, &mut rng).visit_params(&mut |_| count += 1);
            count
        };
        let plain = tensors(&MlpConfig::new(4, 2));
        let with_norm = tensors(&MlpConfig::new(4, 2).norm(NormKind::Batch));
        assert_eq!(with_norm - plain, 4); // 2 hidden layers × (γ, β)
    }

    #[test]
    fn alpha_dropout_variant_has_no_search_dimensions() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mut mlp = Mlp::new(
            &MlpConfig::new(4, 2).dropout(DropoutKind::Alpha(0.2)),
            &mut rng,
        );
        assert_eq!(crate::dropout_count(&mut mlp), 0);
    }

    #[test]
    fn overfits_tiny_problem() {
        // Sanity: the MLP can drive training loss down on 8 separable points.
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let mut mlp = Mlp::new(&MlpConfig::new(2, 2).hidden(16), &mut rng);
        let x = Tensor::from_vec(
            vec![
                0.0, 0.0, 0.1, 0.2, 0.9, 1.0, 1.0, 0.8, 0.0, 1.0, 0.2, 0.9, 1.0, 0.0, 0.8, 0.1,
            ],
            &[8, 2],
        )
        .unwrap();
        let labels = [0usize, 0, 1, 1, 0, 0, 1, 1];
        let mut opt = nn::Sgd::new(0.5).momentum(0.9);
        let mut first = None;
        let mut last = 0.0;
        for _ in 0..150 {
            let logits = mlp.forward(&x, Mode::Train);
            let out = nn::softmax_cross_entropy(&logits, &labels);
            first.get_or_insert(out.loss);
            last = out.loss;
            let _ = mlp.backward(&out.grad);
            nn::Optimizer::step(&mut opt, &mut mlp);
        }
        assert!(
            last < 0.1 * first.unwrap(),
            "loss {last} did not shrink from {}",
            first.unwrap()
        );
    }
}
