//! Trained-model bundle: a network plus the decoder mapping raw outputs to
//! class predictions.

use datasets::ClassificationDataset;
use nn::{Layer, Workspace};

use crate::{eval_batches, Codebook};

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

impl OutputDecoder {
    /// The class predicted by one output row.
    pub(crate) fn decode(&self, row: &[f32]) -> usize {
        match self {
            OutputDecoder::Softmax => tensor::argmax_row(row),
            OutputDecoder::Codebook(cb) => cb.decode(row),
        }
    }

    /// Top-1 accuracy of `net` on `data` under this decoder, scored row
    /// by row through the shared eval loop ([`eval_batches`]) on `ws`.
    ///
    /// # Panics
    /// If `data` is empty: the accuracy of an empty set is undefined.
    pub fn accuracy(
        &self,
        net: &mut dyn Layer,
        data: &ClassificationDataset,
        ws: &mut Workspace,
    ) -> f32 {
        assert!(!data.is_empty(), "accuracy of an empty set is undefined");
        let mut correct = 0usize;
        eval_batches(net, data, ws, |out, labels, _| {
            correct += (0..labels.len())
                .filter(|&r| self.decode(out.row(r)) == labels[r])
                .count();
        });
        correct as f32 / data.len() as f32
    }
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
    /// Top-1 accuracy on a dataset (evaluated in batches of 64).
    pub fn accuracy(&mut self, data: &ClassificationDataset) -> f32 {
        self.decoder
            .accuracy(self.net.as_mut(), data, &mut Workspace::new())
    }
}

impl std::fmt::Debug for TrainedModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TrainedModel")
            .field("method", &self.method)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use models::{Mlp, MlpConfig};
    use nn::Mode;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn decoders_map_rows_to_classes() {
        assert_eq!(OutputDecoder::Softmax.decode(&[0.1, f32::NAN, 0.7]), 2);
        let cb = Codebook::hadamard(3);
        let row: Vec<f32> = cb.code(1).iter().map(|&b| f32::from(b) - 0.5).collect();
        assert_eq!(OutputDecoder::Codebook(cb).decode(&row), 1);
    }

    /// 70 digit images make one batch of 64 plus a remainder, flattened
    /// for the MLP: the eval loop must score every sample exactly as one
    /// whole-set forward does.
    #[test]
    fn accuracy_matches_one_whole_set_forward() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let data = datasets::digits(7, &mut rng);
        let mut model = TrainedModel {
            net: Box::new(Mlp::new(&MlpConfig::new(196, 10), &mut rng)),
            decoder: OutputDecoder::Softmax,
            method: "erm",
        };
        let flat = data.images().reshaped(&[70, 196]).unwrap();
        let preds = model.net.forward(&flat, Mode::Eval).argmax_rows();
        let correct = preds.iter().zip(data.labels()).filter(|(p, l)| p == l);
        assert_eq!(model.accuracy(&data), correct.count() as f32 / 70.0);
    }

    #[test]
    #[should_panic(expected = "empty set")]
    fn accuracy_of_an_empty_set_panics() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let empty = datasets::moons(8, 0.1, &mut rng).subset(&[]);
        let mut model = TrainedModel {
            net: Box::new(Mlp::new(&MlpConfig::new(2, 2), &mut rng)),
            decoder: OutputDecoder::Softmax,
            method: "erm",
        };
        model.accuracy(&empty);
    }

    #[test]
    fn default_config_is_sane() {
        let cfg = TrainConfig::default();
        assert!(cfg.epochs > 0 && cfg.batch_size > 0 && cfg.lr > 0.0);
    }
}
