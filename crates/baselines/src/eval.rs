//! The shared eval loop, and Monte-Carlo drift evaluation of trained
//! models (shared by all methods except ReRAM-V, which has its own
//! calibration protocol).

use datasets::ClassificationDataset;
use nn::{Layer, Mode, Workspace};
use reram::{monte_carlo, DriftModel, McState, McStats};
use tensor::Tensor;

use crate::train::flattens;
use crate::TrainedModel;

/// Samples per eval batch.
const EVAL_BATCH: usize = 64;

/// The one eval loop: runs `data` through `net` in dataset order, in
/// batches of 64, and hands each batch's eval-mode output and labels to
/// `score`.
///
/// Each batch is gathered into a buffer taken from `ws` (flattened for
/// MLPs on images) and its output is recycled after `score` returns, so
/// once `ws` is warm a pass allocates nothing.
pub fn eval_batches(
    net: &mut dyn Layer,
    data: &ClassificationDataset,
    ws: &mut Workspace,
    mut score: impl FnMut(&Tensor, &[usize], &mut Workspace),
) {
    let flatten = flattens(net, data);
    let mut labels = [0; EVAL_BATCH];
    for start in (0..data.len()).step_by(EVAL_BATCH) {
        let rows = start..(start + EVAL_BATCH).min(data.len());
        let labels = &mut labels[..rows.len()];
        let mut x = ws.take_tensor(&[rows.len() * data.feature_len()]);
        data.gather_into(rows, flatten, &mut x, labels);
        let out = net.forward_ws(&x, Mode::Eval, ws);
        ws.recycle(x);
        score(&out, labels, ws);
        ws.recycle(out);
    }
}

/// Monte-Carlo accuracy of a trained model under a drift model: the
/// estimator of the paper's Eq. (4) with the metric set to test accuracy.
///
/// Trial `t` drifts the pristine weights with an RNG seeded
/// `reram::mix_seed(seed, t)`; the model is unchanged afterwards.
///
/// # Panics
///
/// Panics if `trials == 0`.
///
/// # Example
///
/// ```
/// use baselines::{drift_accuracy, train_erm, TrainConfig};
/// use datasets::moons;
/// use models::{Mlp, MlpConfig};
/// use rand::SeedableRng;
/// use rand_chacha::ChaCha8Rng;
/// use reram::LogNormalDrift;
///
/// let mut rng = ChaCha8Rng::seed_from_u64(0);
/// let data = moons(100, 0.1, &mut rng);
/// let net = Box::new(Mlp::new(&MlpConfig::new(2, 2), &mut rng));
/// let mut model = train_erm(net, &data, &TrainConfig::fast_test());
/// let stats = drift_accuracy(&mut model, &data, &LogNormalDrift::new(0.5), 4, 7);
/// assert_eq!(stats.values.len(), 4);
/// ```
pub fn drift_accuracy(
    model: &mut TrainedModel,
    data: &ClassificationDataset,
    drift: &dyn DriftModel,
    trials: usize,
    seed: u64,
) -> McStats {
    let decoder = &model.decoder;
    monte_carlo(
        model.net.as_mut(),
        &[(drift, seed)],
        trials,
        1,
        &mut McState::default(),
        |net, ws| decoder.accuracy(net, data, ws),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{train_erm, TrainConfig};
    use datasets::moons;
    use models::{Mlp, MlpConfig};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use reram::LogNormalDrift;

    #[test]
    fn accuracy_degrades_with_sigma() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let data = moons(300, 0.1, &mut rng);
        let net = Box::new(Mlp::new(&MlpConfig::new(2, 2).hidden(24), &mut rng));
        let cfg = TrainConfig {
            epochs: 30,
            ..TrainConfig::fast_test()
        };
        let mut model = train_erm(net, &data, &cfg);
        let low = drift_accuracy(&mut model, &data, &LogNormalDrift::new(0.1), 8, 1);
        let high = drift_accuracy(&mut model, &data, &LogNormalDrift::new(2.5), 8, 1);
        assert!(
            low.mean > high.mean,
            "drift must hurt: σ=0.1 → {}, σ=2.5 → {}",
            low.mean,
            high.mean
        );
    }

    #[test]
    fn sigma_zero_matches_clean_accuracy() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let data = moons(200, 0.1, &mut rng);
        let net = Box::new(Mlp::new(&MlpConfig::new(2, 2), &mut rng));
        let mut model = train_erm(net, &data, &TrainConfig::fast_test());
        let clean = model.accuracy(&data);
        let stats = drift_accuracy(&mut model, &data, &LogNormalDrift::new(0.0), 3, 2);
        assert!((stats.mean - clean).abs() < 1e-6);
        assert!(stats.std < 1e-9);
    }
}
