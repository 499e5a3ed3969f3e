//! End-to-end integration tests spanning the whole workspace: data →
//! model → training → drift injection → evaluation → BayesFT search.

use baselines::{
    drift_accuracy, reram_v_accuracy, train_awp, train_erm, train_ftna, AwpConfig, Codebook,
    ReRamVConfig, TrainConfig,
};
use bayesft::{accuracy_vs_sigma, Engine, SIGMA_GRID};
use bayesopt::Acquisition;
use datasets::{digits, moons};
use models::{LeNet5, Mlp, MlpConfig};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use reram::LogNormalDrift;

fn quick_cfg() -> TrainConfig {
    TrainConfig {
        epochs: 8,
        batch_size: 32,
        lr: 0.1,
        momentum: 0.9,
        seed: 0,
    }
}

#[test]
fn every_baseline_trains_and_evaluates_on_digits() {
    let mut rng = ChaCha8Rng::seed_from_u64(0);
    let data = digits(12, &mut rng);
    let (train, test) = data.split(0.8, &mut rng);
    let cfg = quick_cfg();
    let chance = 0.1f32;

    let erm_net = Box::new(Mlp::new(&MlpConfig::new(196, 10).hidden(48), &mut rng));
    let mut erm = train_erm(erm_net, &train, &cfg);
    assert!(
        erm.accuracy(&test) > chance + 0.2,
        "ERM barely above chance"
    );

    // Mild adversarial step: the paper notes aggressive AWP "caused
    // training failures", which a sibling test asserts; here we check the
    // benign regime trains.
    let awp_net = Box::new(Mlp::new(&MlpConfig::new(196, 10).hidden(48), &mut rng));
    let awp_cfg = TrainConfig {
        epochs: 12,
        lr: 0.05,
        ..cfg.clone()
    };
    let mut awp = train_awp(awp_net, &train, &awp_cfg, &AwpConfig { gamma: 0.01 });
    assert!(
        awp.accuracy(&test) > chance + 0.1,
        "AWP barely above chance"
    );

    let cb = Codebook::hadamard(10);
    let ftna_net = Box::new(Mlp::new(
        &MlpConfig::new(196, cb.bits()).hidden(48),
        &mut rng,
    ));
    let mut ftna = train_ftna(ftna_net, &train, &cfg, cb);
    assert!(
        ftna.accuracy(&test) > chance + 0.1,
        "FTNA barely above chance"
    );

    // ReRAM-V runs on the ERM model.
    let stats = reram_v_accuracy(&mut erm, &test, 0.5, 3, 1, &ReRamVConfig::default());
    assert!(stats.mean > 0.0 && stats.mean <= 1.0);
}

#[test]
fn lenet_trains_on_digit_images() {
    let mut rng = ChaCha8Rng::seed_from_u64(1);
    let data = digits(10, &mut rng);
    let (train, test) = data.split(0.8, &mut rng);
    let net = Box::new(LeNet5::new(1, 14, 10, &mut rng));
    // A few extra epochs over quick_cfg: conv nets occasionally need them
    // to escape a slow-starting init, and this test is about learnability,
    // not speed.
    let cfg = TrainConfig {
        epochs: 14,
        ..quick_cfg()
    };
    let mut model = train_erm(net, &train, &cfg);
    assert!(
        model.accuracy(&test) > 0.3,
        "LeNet should clear 3x chance on easy synthetic digits"
    );
}

#[test]
fn bayesft_search_improves_drift_robustness_on_moons() {
    let mut rng = ChaCha8Rng::seed_from_u64(2);
    let data = moons(400, 0.1, &mut rng);
    let (train, test) = data.split(0.8, &mut rng);

    let erm_net = Box::new(Mlp::new(&MlpConfig::new(2, 2).hidden(24), &mut rng));
    let mut erm = train_erm(
        erm_net,
        &train,
        &TrainConfig {
            epochs: 24,
            ..quick_cfg()
        },
    );

    let bft_net = Box::new(Mlp::new(&MlpConfig::new(2, 2).hidden(24), &mut rng));
    let result = Engine::builder()
        .trials(8)
        .epochs_per_trial(3)
        .mc_samples(6)
        .sigma(0.8)
        .acquisition(Acquisition::PosteriorMean)
        .lengthscale(0.3)
        .train(quick_cfg())
        .seed(0)
        .max_rate(0.8)
        .final_epochs(10)
        .parallelism(1)
        .run(bft_net, &train, &test)
        .unwrap();
    let mut bft = result.model;

    // Clean accuracy must stay competitive...
    let clean_erm = erm.accuracy(&test);
    let clean_bft = bft.accuracy(&test);
    assert!(
        clean_bft > clean_erm - 0.1,
        "search must not ruin clean accuracy: {clean_bft} vs {clean_erm}"
    );
    // ...and drifted accuracy should not collapse below ERM.
    let drift = LogNormalDrift::new(1.0);
    let e = drift_accuracy(&mut erm, &test, &drift, 10, 5).mean;
    let b = drift_accuracy(&mut bft, &test, &drift, 10, 5).mean;
    assert!(
        b >= e - 0.05,
        "BayesFT under drift ({b}) should not lose to ERM ({e})"
    );
}

#[test]
fn sweep_covers_paper_grid_and_decays() {
    let mut rng = ChaCha8Rng::seed_from_u64(3);
    let data = digits(10, &mut rng);
    let (train, test) = data.split(0.8, &mut rng);
    let net = Box::new(Mlp::new(&MlpConfig::new(196, 10).hidden(32), &mut rng));
    let mut model = train_erm(net, &train, &quick_cfg());
    let sweep = accuracy_vs_sigma(&mut model, &test, &SIGMA_GRID, 4, 1);
    assert_eq!(sweep.len(), 6);
    // σ=0 beats σ=1.5 — the universal shape of every curve in the paper.
    assert!(
        sweep[0].1.mean > sweep[5].1.mean,
        "no degradation from σ=0 ({}) to σ=1.5 ({})",
        sweep[0].1.mean,
        sweep[5].1.mean
    );
}

#[test]
fn dropout_architecture_is_more_drift_robust_than_plain() {
    // Fig. 2(a)'s claim as an integration test: same training budget, the
    // dropout MLP holds up better at substantial drift.
    let mut rng = ChaCha8Rng::seed_from_u64(4);
    let data = digits(15, &mut rng);
    let (train, test) = data.split(0.8, &mut rng);
    let cfg = TrainConfig {
        epochs: 12,
        ..quick_cfg()
    };

    let plain_net = Box::new(Mlp::new(
        &MlpConfig::new(196, 10)
            .hidden(48)
            .dropout(models::DropoutKind::None),
        &mut rng,
    ));
    let mut plain = train_erm(plain_net, &train, &cfg);

    let drop_net = Box::new(Mlp::new(
        &MlpConfig::new(196, 10).hidden(48).initial_rate(0.3),
        &mut rng,
    ));
    let mut dropped = train_erm(drop_net, &train, &cfg);

    let drift = LogNormalDrift::new(0.9);
    let p = drift_accuracy(&mut plain, &test, &drift, 10, 11).mean;
    let d = drift_accuracy(&mut dropped, &test, &drift, 10, 11).mean;
    assert!(
        d > p - 0.05,
        "dropout net ({d}) should be at least as robust as plain ({p}) at σ=0.9"
    );
}
