//! Trained-model bundle: a network plus the decoder mapping raw outputs to
//! class predictions.

use datasets::ClassificationDataset;
use metrics::accuracy;
use nn::{Layer, Mode};
use tensor::Tensor;

use crate::Codebook;

/// Shared training hyper-parameters for all baseline methods.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainConfig {
    /// Number of passes over the training set.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// SGD learning rate.
    pub lr: f32,
    /// SGD momentum.
    pub momentum: f32,
    /// Shuffling seed.
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 20,
            batch_size: 32,
            lr: 0.05,
            momentum: 0.9,
            seed: 0,
        }
    }
}

impl TrainConfig {
    /// A deliberately tiny budget for unit tests.
    pub fn fast_test() -> Self {
        TrainConfig {
            epochs: 5,
            batch_size: 16,
            lr: 0.1,
            momentum: 0.9,
            seed: 0,
        }
    }
}

/// How raw network outputs become class predictions.
#[derive(Debug, Clone)]
pub enum OutputDecoder {
    /// Row-wise argmax over class logits (the usual softmax head).
    Softmax,
    /// FTNA decoding: binarize the output bits and pick the codebook row
    /// with minimum Hamming distance.
    Codebook(Codebook),
}

/// A trained network together with its output decoder.
pub struct TrainedModel {
    /// The trained network.
    pub net: Box<dyn Layer>,
    /// Output decoding rule.
    pub decoder: OutputDecoder,
    /// Method label for reports (e.g. `"erm"`, `"awp"`).
    pub method: &'static str,
}

impl TrainedModel {
    /// Predicts class indices for a batch (images or flat rows, matching
    /// what the network was trained on).
    pub fn predict(&mut self, x: &Tensor) -> Vec<usize> {
        let out = self.net.forward(x, Mode::Eval);
        match &self.decoder {
            OutputDecoder::Softmax => out.argmax_rows(),
            OutputDecoder::Codebook(cb) => cb.decode_batch(&out),
        }
    }

    /// Top-1 accuracy on a dataset (evaluated in batches of 64).
    pub fn accuracy(&mut self, data: &ClassificationDataset) -> f32 {
        let mut preds = Vec::with_capacity(data.len());
        let mut labels = Vec::with_capacity(data.len());
        for (x, y) in data.batches(64) {
            let x = reshape_for(self.net.as_mut(), &x);
            preds.extend(self.predict(x.as_ref()));
            labels.extend(y);
        }
        accuracy(&preds, &labels)
    }
}

impl std::fmt::Debug for TrainedModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TrainedModel")
            .field("method", &self.method)
            .finish()
    }
}

/// Flattens image batches for MLP-style networks; borrows the input
/// untouched otherwise, so the common no-reshape case costs nothing per
/// batch.
pub fn reshape_for<'a>(net: &mut dyn Layer, x: &'a Tensor) -> std::borrow::Cow<'a, Tensor> {
    if net.name() == "mlp" && x.rank() > 2 {
        let n = x.dims()[0];
        let rest: usize = x.dims()[1..].iter().product();
        std::borrow::Cow::Owned(x.reshaped(&[n, rest]).expect("element count preserved"))
    } else {
        std::borrow::Cow::Borrowed(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use models::{Mlp, MlpConfig};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn softmax_decoder_is_argmax() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let mut model = TrainedModel {
            net: Box::new(Mlp::new(&MlpConfig::new(2, 3), &mut rng)),
            decoder: OutputDecoder::Softmax,
            method: "erm",
        };
        let preds = model.predict(&Tensor::ones(&[4, 2]));
        assert_eq!(preds.len(), 4);
        assert!(preds.iter().all(|&p| p < 3));
    }

    #[test]
    fn reshape_for_flattens_only_for_mlp() {
        use std::borrow::Cow;
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let mut mlp = Mlp::new(&MlpConfig::new(4, 2), &mut rng);
        // Image batch into an MLP: reshaped copy.
        let img = Tensor::ones(&[2, 1, 2, 2]);
        let reshaped = reshape_for(&mut mlp, &img);
        assert!(matches!(reshaped, Cow::Owned(_)));
        assert_eq!(reshaped.dims(), &[2, 4]);
        // Already flat: the eval loop must not pay a clone per batch.
        let flat = Tensor::ones(&[2, 4]);
        assert!(matches!(reshape_for(&mut mlp, &flat), Cow::Borrowed(_)));
        // Non-MLP networks keep image batches borrowed, any rank.
        let mut lenet = models::LeNet5::new(1, 14, 2, &mut rng);
        let img14 = Tensor::ones(&[2, 1, 14, 14]);
        let kept = reshape_for(&mut lenet, &img14);
        assert!(matches!(kept, Cow::Borrowed(_)));
        assert_eq!(kept.dims(), &[2, 1, 14, 14]);
    }

    #[test]
    fn default_config_is_sane() {
        let cfg = TrainConfig::default();
        assert!(cfg.epochs > 0 && cfg.batch_size > 0 && cfg.lr > 0.0);
    }
}
