//! ReRAM-V: per-device diagnosis and iterative weight re-programming
//! (Chen et al., ref. \[5\]).
//!
//! The method assumes each deployed crossbar can be read back, compared
//! against reference weights, and re-programmed. Compensation is imperfect
//! for two reasons the paper highlights: (a) each re-programming pass adds
//! device programming noise (modeled by [`reram::Crossbar`]), and (b)
//! drift *continues after the last calibration* — modeled as a residual
//! log-normal drift with `σ_residual = residual_fraction · σ`. This is why
//! the paper observes "unsatisfactory performance" for ReRAM-V under usage
//! drift: calibration can only roll the device back to the last service
//! visit.

use datasets::ClassificationDataset;
use nn::Workspace;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use reram::{mix_seed, Crossbar, CrossbarConfig, FaultInjector, LogNormalDrift, McStats};

use crate::TrainedModel;

/// ReRAM-V evaluation parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReRamVConfig {
    /// Crossbar device model used for re-programming passes.
    pub device: CrossbarConfig,
    /// Number of re-program/read-back passes per calibration.
    pub iterations: usize,
    /// Fraction of the drift magnitude that re-accumulates after the last
    /// calibration (0 = calibration happens at inference time, 1 = never).
    pub residual_fraction: f32,
}

impl Default for ReRamVConfig {
    fn default() -> Self {
        ReRamVConfig {
            device: CrossbarConfig::default(),
            iterations: 3,
            residual_fraction: 0.9,
        }
    }
}

/// Monte-Carlo accuracy of a trained model under ReRAM-V compensated
/// deployment at resistance variation `sigma`.
///
/// Per trial: (1) weights drift with `LogNormal(σ)`; (2) ReRAM-V
/// re-programs every parameter tensor through a [`Crossbar`] for
/// `iterations` passes and keeps the read-back closest to the reference
/// (each pass limited by programming noise and quantization); (3) residual
/// drift `LogNormal(residual_fraction·σ)` accumulates before evaluation.
/// Trial `t` is seeded `mix_seed(seed, t)`.
///
/// # Panics
///
/// Panics if `trials == 0`.
pub fn reram_v_accuracy(
    model: &mut TrainedModel,
    data: &ClassificationDataset,
    sigma: f32,
    trials: usize,
    seed: u64,
    cfg: &ReRamVConfig,
) -> McStats {
    assert!(trials > 0, "need at least one trial");
    let reference = FaultInjector::snapshot(model.net.as_mut());
    let mut values = Vec::with_capacity(trials);
    let mut ws = Workspace::new();
    for t in 0..trials {
        let mut rng = ChaCha8Rng::seed_from_u64(mix_seed(seed, t as u64));
        // 1. Field drift.
        FaultInjector::inject(model.net.as_mut(), &LogNormalDrift::new(sigma), &mut rng);
        // 2. Calibration: re-program each tensor toward its reference value.
        //    Iterating keeps the best read-back (later passes may be luckier
        //    with programming noise).
        let mut ref_idx = 0;
        let targets = reference.tensors();
        model.net.visit_params(&mut |p| {
            let target = &targets[ref_idx];
            let mut best = p.value.clone();
            let mut best_err = diff_norm(&best, target);
            for _ in 0..cfg.iterations {
                let xbar = Crossbar::program(target, cfg.device, &mut rng);
                let read = xbar.read(&mut rng);
                let err = diff_norm(&read, target);
                if err < best_err {
                    best_err = err;
                    best = read;
                }
            }
            p.value = best;
            ref_idx += 1;
        });
        // 3. Post-calibration drift.
        FaultInjector::inject(
            model.net.as_mut(),
            &LogNormalDrift::new(sigma * cfg.residual_fraction),
            &mut rng,
        );
        values.push(model.decoder.accuracy(model.net.as_mut(), data, &mut ws));
        reference
            .restore_into(model.net.as_mut())
            .expect("snapshot was taken from this network");
    }
    McStats::from_values(values)
}

fn diff_norm(a: &tensor::Tensor, b: &tensor::Tensor) -> f32 {
    a.sub(b).norm()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{train_erm, TrainConfig};
    use datasets::moons;
    use models::{Mlp, MlpConfig};

    fn trained_moons_model() -> (TrainedModel, ClassificationDataset) {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let data = moons(300, 0.1, &mut rng);
        let net = Box::new(Mlp::new(&MlpConfig::new(2, 2).hidden(24), &mut rng));
        let cfg = TrainConfig {
            epochs: 30,
            ..TrainConfig::fast_test()
        };
        (train_erm(net, &data, &cfg), data)
    }

    #[test]
    fn calibration_beats_raw_drift_at_high_sigma() {
        let (mut model, data) = trained_moons_model();
        let sigma = 1.2f32;
        let raw = crate::drift_accuracy(&mut model, &data, &LogNormalDrift::new(sigma), 6, 9);
        let comp = reram_v_accuracy(&mut model, &data, sigma, 6, 9, &ReRamVConfig::default());
        // Compensation sees only residual drift (0.9σ) → should not be worse
        // on average by a wide margin.
        assert!(
            comp.mean >= raw.mean - 0.1,
            "ReRAM-V {} vs raw {}",
            comp.mean,
            raw.mean
        );
    }

    #[test]
    fn weights_are_restored_between_trials() {
        let (mut model, data) = trained_moons_model();
        let before = model.accuracy(&data);
        let _ = reram_v_accuracy(&mut model, &data, 1.0, 3, 1, &ReRamVConfig::default());
        let after = model.accuracy(&data);
        assert!((before - after).abs() < 1e-6, "weights leaked drift");
    }

    /// Regression: trial `t` used to draw from `seed ^ t·0x9E37_79B9`, so
    /// the 2-trial runs at `s` and `s ^ 0x9E37_79B9` drew the same two
    /// trials in swapped order.
    #[test]
    fn trial_streams_do_not_collide_across_seeds() {
        let (mut model, data) = trained_moons_model();
        let cfg = ReRamVConfig::default();
        let s = 5u64;
        let a = reram_v_accuracy(&mut model, &data, 1.5, 2, s, &cfg).values;
        let b = reram_v_accuracy(&mut model, &data, 1.5, 2, s ^ 0x9E37_79B9, &cfg).values;
        assert_ne!((a[0], a[1]), (b[1], b[0]), "{a:?} vs {b:?}");
    }

    #[test]
    fn zero_sigma_calibration_still_pays_programming_noise() {
        let (mut model, data) = trained_moons_model();
        let clean = model.accuracy(&data);
        let comp = reram_v_accuracy(&mut model, &data, 0.0, 3, 2, &ReRamVConfig::default());
        // Device noise alone should cost little on this easy task.
        assert!(comp.mean > clean - 0.2, "{} vs clean {clean}", comp.mean);
    }
}
