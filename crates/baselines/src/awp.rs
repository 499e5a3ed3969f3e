//! AWP: adversarial weight perturbation (Wu et al., ref. \[18\]).
//!
//! Each step climbs the loss in weight space before computing the update
//! gradient: `δ = γ·‖w‖·g/‖g‖` per parameter tensor, gradients are taken at
//! `w + δ`, and the update is applied to the pristine `w`. The paper
//! observes AWP can *hurt* on hard tasks ("the strong adversarial attack on
//! the neural network parameters caused training failures"), which this
//! implementation reproduces at large `gamma`.

use datasets::ClassificationDataset;
use nn::{Layer, Param, Workspace};
use reram::{FaultInjector, WeightSnapshot};

use crate::train::{run_epochs, softmax_grads};
use crate::{OutputDecoder, TrainConfig, TrainedModel};

/// AWP hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AwpConfig {
    /// Relative adversarial step size γ (the paper's experiments correspond
    /// to an aggressive setting; 0.01–0.1 is typical in the AWP paper).
    pub gamma: f32,
}

impl Default for AwpConfig {
    fn default() -> Self {
        AwpConfig { gamma: 0.02 }
    }
}

/// Trains `net` with adversarial weight perturbation and bundles it with a
/// softmax decoder.
pub fn train_awp(
    mut net: Box<dyn Layer>,
    data: &ClassificationDataset,
    cfg: &TrainConfig,
    awp: &AwpConfig,
) -> TrainedModel {
    // One snapshot, refreshed in place every step.
    let mut snapshot = WeightSnapshot::default();
    let mut ws = Workspace::new();
    let _ = run_epochs(net.as_mut(), data, cfg, &mut ws, |net, x, labels, ws| {
        // 1. Gradient at the current weights.
        net.zero_grads();
        softmax_grads(net, x, labels, ws);
        // 2. Adversarial ascent: w ← w + γ‖w‖·g/‖g‖ per tensor.
        FaultInjector::snapshot_into(net, &mut snapshot);
        net.visit_params(&mut |p| {
            let gnorm = p.grad.norm();
            if gnorm > 1e-12 {
                let scale = awp.gamma * p.value.norm() / gnorm;
                let Param { value, grad, .. } = p;
                value.add_scaled(grad, scale);
            }
        });
        // 3. Gradient at the perturbed weights.
        net.zero_grads();
        let loss = softmax_grads(net, x, labels, ws);
        // 4. Restore the pristine weights for the update. `restore_into`
        //    writes values only, so the robust gradients survive it.
        snapshot
            .restore_into(net)
            .expect("snapshot was taken from this network");
        loss
    });
    TrainedModel {
        net,
        decoder: OutputDecoder::Softmax,
        method: "awp",
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
    fn awp_learns_moons() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let data = moons(300, 0.1, &mut rng);
        let net = Box::new(Mlp::new(&MlpConfig::new(2, 2).hidden(24), &mut rng));
        let cfg = TrainConfig {
            epochs: 30,
            ..TrainConfig::fast_test()
        };
        let mut model = train_awp(net, &data, &cfg, &AwpConfig::default());
        let acc = model.accuracy(&data);
        assert!(acc > 0.85, "AWP accuracy on moons: {acc}");
    }

    #[test]
    fn weights_are_restored_after_each_step() {
        // With gamma = 0 AWP must behave exactly like ERM.
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let data = moons(100, 0.1, &mut rng);
        let cfg = TrainConfig::fast_test();

        let mut rng_a = ChaCha8Rng::seed_from_u64(42);
        let net_a = Box::new(Mlp::new(&MlpConfig::new(2, 2), &mut rng_a));
        let mut erm = crate::train_erm(net_a, &data, &cfg);

        let mut rng_b = ChaCha8Rng::seed_from_u64(42);
        let net_b = Box::new(Mlp::new(&MlpConfig::new(2, 2), &mut rng_b));
        let mut awp = train_awp(net_b, &data, &cfg, &AwpConfig { gamma: 0.0 });

        // Same initialization, same shuffling seed, no perturbation → same
        // weights.
        let wa = FaultInjector::snapshot(erm.net.as_mut());
        let wb = FaultInjector::snapshot(awp.net.as_mut());
        assert_eq!(wa.scalar_count(), wb.scalar_count());
        let acc_a = erm.accuracy(&data);
        let acc_b = awp.accuracy(&data);
        assert!((acc_a - acc_b).abs() < 1e-6, "{acc_a} vs {acc_b}");
    }

    #[test]
    fn extreme_gamma_degrades_training() {
        // Reproduces the paper's observation that over-strong weight attacks
        // cause training failures.
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let data = moons(200, 0.1, &mut rng);
        let cfg = TrainConfig {
            epochs: 15,
            ..TrainConfig::fast_test()
        };
        let net_mild = Box::new(Mlp::new(&MlpConfig::new(2, 2).hidden(16), &mut rng));
        let mut mild = train_awp(net_mild, &data, &cfg, &AwpConfig { gamma: 0.02 });
        let net_wild = Box::new(Mlp::new(&MlpConfig::new(2, 2).hidden(16), &mut rng));
        let mut wild = train_awp(net_wild, &data, &cfg, &AwpConfig { gamma: 5.0 });
        assert!(
            mild.accuracy(&data) >= wild.accuracy(&data),
            "extreme AWP should not beat mild AWP"
        );
    }
}
