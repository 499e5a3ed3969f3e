//! Mini-batch SGD training: the one epoch loop every trainer runs, and ERM
//! (plain empirical-risk minimization, the paper's primary baseline) on it.

use datasets::{shuffle_order, ClassificationDataset};
use nn::{softmax_cross_entropy_ws, Layer, LossOutput, Mode, Optimizer, Sgd, Workspace};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use tensor::Tensor;

use crate::{OutputDecoder, TrainConfig, TrainedModel};

/// Runs `cfg.epochs` epochs of momentum SGD and returns each epoch's mean
/// batch loss. Every epoch redraws a permutation of the samples, gathers
/// each batch of it (the last may be partial) into buffers reused across
/// the run, lets `step` leave that batch's gradients on the parameters, and
/// applies the update; once the first epoch has warmed them, epochs
/// allocate nothing.
pub(crate) fn run_epochs(
    net: &mut dyn Layer,
    data: &ClassificationDataset,
    cfg: &TrainConfig,
    mut step: impl FnMut(&mut dyn Layer, &Tensor, &[usize], &mut Workspace) -> f32,
) -> Vec<f32> {
    let mut opt = Sgd::new(cfg.lr).momentum(cfg.momentum).clip_norm(5.0);
    let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
    let mut ws = Workspace::new();
    let flatten = flattens(net, data);
    let mut order = vec![0; data.len()];
    let (mut x, mut labels) = (Tensor::default(), vec![0; cfg.batch_size]);
    let mut epoch_losses = Vec::with_capacity(cfg.epochs);
    for _ in 0..cfg.epochs {
        shuffle_order(&mut order, &mut rng);
        let mut loss_sum = 0.0;
        for batch in order.chunks(cfg.batch_size) {
            let labels = &mut labels[..batch.len()];
            data.gather_into(batch.iter().copied(), flatten, &mut x, labels);
            loss_sum += step(net, &x, labels, &mut ws);
            opt.step(net);
        }
        let batches = order.len().div_ceil(cfg.batch_size);
        epoch_losses.push(loss_sum / batches.max(1) as f32);
    }
    epoch_losses
}

/// Forward, `loss` and backward on the workspace train path: leaves the
/// batch gradients on the parameters and returns the loss.
pub(crate) fn backprop(
    net: &mut dyn Layer,
    x: &Tensor,
    ws: &mut Workspace,
    loss: impl FnOnce(&Tensor, &mut Workspace) -> LossOutput,
) -> f32 {
    let logits = net.forward_ws(x, Mode::Train, ws);
    let out = loss(&logits, ws);
    ws.recycle(logits);
    let grad_in = net.backward_ws(&out.grad, ws);
    ws.recycle(out.grad);
    ws.recycle(grad_in);
    out.loss
}

/// Whether batches of `data` are flattened to `[n, features]` for `net`:
/// MLPs take flat rows, so image datasets are flattened for them.
pub(crate) fn flattens(net: &dyn Layer, data: &ClassificationDataset) -> bool {
    net.name() == "mlp" && data.images().rank() > 2
}

/// Runs standard mini-batch SGD cross-entropy training in place and returns
/// the mean training loss of each epoch.
///
/// Each step runs on the workspace train path — `forward_ws`, a pooled loss
/// gradient, `backward_ws`, and an in-place optimizer — and batches are
/// gathered into reused buffers, so after the first epoch warms them,
/// further epochs perform zero heap allocations.
pub fn train_epochs(
    net: &mut dyn Layer,
    data: &ClassificationDataset,
    cfg: &TrainConfig,
) -> Vec<f32> {
    run_epochs(net, data, cfg, softmax_grads)
}

/// One allocation-free SGD step on a prepared batch: workspace forward,
/// pooled softmax cross-entropy gradient, workspace backward, in-place
/// optimizer update. Returns the batch loss.
///
/// Exposed so custom training loops (benches, the zero-allocation test
/// harness) share the exact step `train_epochs` runs.
pub fn train_step(
    net: &mut dyn Layer,
    x: &Tensor,
    labels: &[usize],
    opt: &mut dyn Optimizer,
    ws: &mut Workspace,
) -> f32 {
    let loss = softmax_grads(net, x, labels, ws);
    opt.step(net);
    loss
}

/// The ERM gradient step: softmax cross-entropy gradients of one batch.
pub(crate) fn softmax_grads(
    net: &mut dyn Layer,
    x: &Tensor,
    labels: &[usize],
    ws: &mut Workspace,
) -> f32 {
    backprop(net, x, ws, |logits, ws| {
        softmax_cross_entropy_ws(logits, labels, ws)
    })
}

/// Trains `net` with plain ERM and bundles it with a softmax decoder.
///
/// See the crate-level example.
pub fn train_erm(
    mut net: Box<dyn Layer>,
    data: &ClassificationDataset,
    cfg: &TrainConfig,
) -> TrainedModel {
    let _ = train_epochs(net.as_mut(), data, cfg);
    TrainedModel {
        net,
        decoder: OutputDecoder::Softmax,
        method: "erm",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datasets::moons;
    use models::{Mlp, MlpConfig};

    #[test]
    fn erm_learns_moons() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let data = moons(300, 0.1, &mut rng);
        let net = Box::new(Mlp::new(&MlpConfig::new(2, 2).hidden(24), &mut rng));
        let cfg = TrainConfig {
            epochs: 30,
            ..TrainConfig::fast_test()
        };
        let mut model = train_erm(net, &data, &cfg);
        let acc = model.accuracy(&data);
        assert!(acc > 0.9, "ERM accuracy on moons: {acc}");
    }

    #[test]
    fn epoch_losses_decrease() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let data = moons(200, 0.1, &mut rng);
        let mut net = Mlp::new(&MlpConfig::new(2, 2).hidden(16), &mut rng);
        let losses = train_epochs(&mut net, &data, &TrainConfig::fast_test());
        assert_eq!(losses.len(), 5);
        assert!(
            losses.last().unwrap() < losses.first().unwrap(),
            "losses {losses:?}"
        );
    }
}
