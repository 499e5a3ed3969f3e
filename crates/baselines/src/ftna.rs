//! FTNA: fault-tolerant neural architecture via error-correction-code
//! outputs (Liu et al., ref. [6]).
//!
//! Instead of class logits, the network emits a binary codeword; each class
//! owns a row of a Hadamard codebook, and prediction picks the row with the
//! smallest Hamming distance to the thresholded output. Code redundancy
//! absorbs some output-layer drift, but — as the paper argues — errors from
//! drifted *earlier* layers still entangle in the code bits.

use datasets::ClassificationDataset;
use nn::{Layer, LossOutput, Workspace};
use tensor::Tensor;

use crate::train::{backprop, run_epochs};
use crate::{OutputDecoder, TrainConfig, TrainedModel};

/// A binary class codebook with guaranteed pairwise Hamming distance
/// (Sylvester–Hadamard construction: distance = bits/2).
#[derive(Debug, Clone)]
pub struct Codebook {
    codes: Vec<Vec<u8>>,
    bits: usize,
}

impl Codebook {
    /// Builds a Hadamard codebook for `classes` classes.
    ///
    /// The codeword length is the smallest power of two `≥ classes + 1`
    /// (row 0 of a Hadamard matrix is constant and therefore skipped), and
    /// at least 16.
    ///
    /// # Panics
    ///
    /// Panics if `classes == 0`.
    pub fn hadamard(classes: usize) -> Self {
        assert!(classes > 0, "codebook needs at least one class");
        let mut bits = 16usize;
        while bits < classes + 1 {
            bits *= 2;
        }
        // Sylvester construction over {0,1} with XOR.
        // H[i][j] = parity of popcount(i & j).
        let codes = (1..=classes)
            .map(|row| {
                (0..bits)
                    .map(|col| ((row & col).count_ones() % 2) as u8)
                    .collect()
            })
            .collect();
        Codebook { codes, bits }
    }

    /// Codeword length in bits.
    pub fn bits(&self) -> usize {
        self.bits
    }

    /// Number of classes.
    pub fn classes(&self) -> usize {
        self.codes.len()
    }

    /// The codeword of a class.
    ///
    /// # Panics
    ///
    /// Panics if `class` is out of range.
    pub fn code(&self, class: usize) -> &[u8] {
        &self.codes[class]
    }

    /// Minimum pairwise Hamming distance of the codebook.
    pub fn min_distance(&self) -> usize {
        let mut best = self.bits;
        for a in 0..self.codes.len() {
            for b in (a + 1)..self.codes.len() {
                let d = self.codes[a]
                    .iter()
                    .zip(&self.codes[b])
                    .filter(|(x, y)| x != y)
                    .count();
                best = best.min(d);
            }
        }
        best
    }

    /// Decodes one output row (logits) to the nearest class: the first
    /// codeword at minimum Hamming distance from the thresholded row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the codeword length.
    pub fn decode(&self, logits: &[f32]) -> usize {
        assert_eq!(logits.len(), self.bits, "output width != codeword length");
        self.codes
            .iter()
            .enumerate()
            .min_by_key(|(_, code)| {
                code.iter()
                    .zip(logits)
                    .filter(|&(&bit, &v)| bit != u8::from(v > 0.0))
                    .count()
            })
            .map_or(0, |(class, _)| class)
    }

    /// Binary cross-entropy (with logits) against the class codewords, plus
    /// its gradient: `σ(z) − target`, summed over bits and averaged over the
    /// batch (so gradient magnitudes match softmax cross-entropy and the
    /// same learning rates work for both heads). The gradient buffer comes
    /// from `ws`, so the loss is allocation-free in the steady state once
    /// the gradient is recycled after `backward`.
    ///
    /// # Panics
    ///
    /// Panics if shapes are inconsistent.
    pub fn bce_loss_ws(&self, logits: &Tensor, labels: &[usize], ws: &mut Workspace) -> LossOutput {
        let (n, b) = (logits.dims()[0], logits.dims()[1]);
        assert_eq!(b, self.bits, "logit width != codeword length");
        assert_eq!(n, labels.len(), "batch/label mismatch");
        let mut grad = ws.take_copy(logits, logits.dims());
        let mut loss = 0.0f32;
        let count = n as f32;
        for (r, &label) in labels.iter().enumerate() {
            let code = self.code(label);
            let row = grad.row_mut(r);
            for (v, &bit) in row.iter_mut().zip(code) {
                let t = bit as f32;
                let p = 1.0 / (1.0 + (-*v).exp());
                loss -= (t * p.max(1e-7).ln() + (1.0 - t) * (1.0 - p).max(1e-7).ln()) / count;
                *v = (p - t) / count;
            }
        }
        LossOutput { loss, grad }
    }
}

/// Trains an FTNA model: `net` must output `codebook.bits()` values; the
/// loss is bitwise BCE against the class codewords.
pub fn train_ftna(
    mut net: Box<dyn Layer>,
    data: &ClassificationDataset,
    cfg: &TrainConfig,
    codebook: Codebook,
) -> TrainedModel {
    let mut ws = Workspace::new();
    let _ = run_epochs(net.as_mut(), data, cfg, &mut ws, |net, x, labels, ws| {
        backprop(net, x, ws, |logits, ws| {
            codebook.bce_loss_ws(logits, labels, ws)
        })
    });
    TrainedModel {
        net,
        decoder: OutputDecoder::Codebook(codebook),
        method: "ftna",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datasets::moons;
    use models::{Mlp, MlpConfig};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn hadamard_codebook_has_half_distance() {
        for classes in [2usize, 10, 43] {
            let cb = Codebook::hadamard(classes);
            assert!(cb.bits() > classes);
            assert_eq!(
                cb.min_distance(),
                cb.bits() / 2,
                "{classes}-class codebook distance"
            );
        }
    }

    #[test]
    fn codebook_sizes() {
        assert_eq!(Codebook::hadamard(10).bits(), 16);
        assert_eq!(Codebook::hadamard(43).bits(), 64);
    }

    #[test]
    fn decode_recovers_exact_codewords() {
        let cb = Codebook::hadamard(10);
        for class in 0..10 {
            let logits: Vec<f32> = cb
                .code(class)
                .iter()
                .map(|&b| if b == 1 { 3.0 } else { -3.0 })
                .collect();
            assert_eq!(cb.decode(&logits), class);
        }
    }

    #[test]
    fn decode_tolerates_bit_flips_below_half_distance() {
        let cb = Codebook::hadamard(10);
        let class = 7;
        let mut logits: Vec<f32> = cb
            .code(class)
            .iter()
            .map(|&b| if b == 1 { 3.0 } else { -3.0 })
            .collect();
        // Flip 3 of 16 bits (< d/2 = 4): still decodable.
        for bit in [0, 5, 11] {
            logits[bit] = -logits[bit];
        }
        assert_eq!(cb.decode(&logits), class);
    }

    #[test]
    fn bce_gradient_matches_finite_difference() {
        let cb = Codebook::hadamard(3);
        let logits = Tensor::from_vec(
            (0..2 * cb.bits())
                .map(|i| (i as f32 * 0.37).sin())
                .collect(),
            &[2, cb.bits()],
        )
        .unwrap();
        let labels = [0usize, 2];
        let bce = |logits: &Tensor| cb.bce_loss_ws(logits, &labels, &mut Workspace::new());
        let out = bce(&logits);
        let eps = 1e-3;
        for i in (0..logits.len()).step_by(5) {
            let mut hi = logits.clone();
            hi.as_mut_slice()[i] += eps;
            let mut lo = logits.clone();
            lo.as_mut_slice()[i] -= eps;
            let num = (bce(&hi).loss - bce(&lo).loss) / (2.0 * eps);
            assert!(
                (num - out.grad.as_slice()[i]).abs() < 1e-3,
                "bit {i}: {num} vs {}",
                out.grad.as_slice()[i]
            );
        }
    }

    #[test]
    fn ftna_learns_moons() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let data = moons(300, 0.1, &mut rng);
        let cb = Codebook::hadamard(2);
        let net = Box::new(Mlp::new(&MlpConfig::new(2, cb.bits()).hidden(24), &mut rng));
        let cfg = TrainConfig {
            epochs: 40,
            lr: 0.1,
            ..TrainConfig::fast_test()
        };
        let mut model = train_ftna(net, &data, &cfg, cb);
        let acc = model.accuracy(&data);
        assert!(acc > 0.85, "FTNA accuracy on moons: {acc}");
    }
}
