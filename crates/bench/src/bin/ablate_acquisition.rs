//! Ablation (beyond the paper): acquisition-function choice in the BayesFT
//! search — the paper's posterior-mean rule vs expected improvement, UCB,
//! and pure random search, on the same trial budget.
//!
//! Run: `cargo run --release -p bench --bin ablate_acquisition`

use baselines::TrainConfig;
use bayesft::{Engine, SearchSpace};
use bayesopt::Acquisition;
use bench::{drift_point, make_task, Scale};
use models::{Mlp, MlpConfig};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

fn main() {
    let scale = Scale::from_env();
    let task = make_task("digits", scale, 21);
    let input_dim = task.in_channels * task.hw * task.hw;
    let eval_sigma = 0.9f32;
    let trials = scale.mc_trials().max(4);

    println!("Acquisition ablation — MLP on digits, drift accuracy at σ = {eval_sigma}");
    println!("{:<20}{:>12}{:>14}", "acquisition", "acc@σ=0", "acc@σ=0.9");

    let variants: [(&str, Option<Acquisition>); 4] = [
        ("posterior_mean", Some(Acquisition::PosteriorMean)),
        (
            "expected_improv",
            Some(Acquisition::ExpectedImprovement { xi: 0.01 }),
        ),
        (
            "ucb_k2",
            Some(Acquisition::UpperConfidenceBound { kappa: 2.0 }),
        ),
        ("random_search", None),
    ];

    for (label, acq) in variants {
        let mut rng = ChaCha8Rng::seed_from_u64(31);
        let net = Box::new(Mlp::new(
            &MlpConfig::new(input_dim, task.classes).hidden(48),
            &mut rng,
        ));
        let mut model = match acq {
            Some(acquisition) => {
                Engine::builder()
                    .trials(scale.bo_trials())
                    .epochs_per_trial((scale.epochs() / 3).max(1))
                    .mc_samples(trials)
                    .sigma(0.6)
                    .acquisition(acquisition)
                    .train(bench::train_config(scale, 31))
                    .seed(31)
                    .parallelism(0) // one MC worker per core; results match serial
                    .run(net, &task.train, &task.test)
                    .expect("engine run")
                    .model
            }
            None => random_search(net, &task, scale, trials),
        };
        let clean = drift_point(&mut model, &task.test, 0.0, trials);
        let drifted = drift_point(&mut model, &task.test, eval_sigma, trials);
        println!(
            "{label:<20}{:>11.1}%{:>13.1}%",
            clean * 100.0,
            drifted * 100.0
        );
    }
    println!(
        "expected shape: all BO rules ≥ random search; posterior-mean competitive (paper's choice)"
    );
}

/// Random-search control: same alternation as Algorithm 1 but α is sampled
/// uniformly instead of via the GP posterior.
fn random_search(
    mut net: Box<dyn nn::Layer>,
    task: &bench::Task,
    scale: Scale,
    mc: usize,
) -> baselines::TrainedModel {
    let space = bayesft::DropoutSearchSpace::probe(net.as_mut());
    let objective = bayesft::DriftObjective::new(0.6, mc);
    let cfg = TrainConfig {
        epochs: (scale.epochs() / 3).max(1),
        ..bench::train_config(scale, 31)
    };
    let mut rng = ChaCha8Rng::seed_from_u64(77);
    let mut best = (Vec::new(), f32::NEG_INFINITY);
    let mut ws = nn::Workspace::new();
    for t in 0..scale.bo_trials() {
        let alpha: Vec<f64> = (0..space.dim()).map(|_| rng.gen::<f64>()).collect();
        space
            .apply(net.as_mut(), &alpha)
            .expect("alpha matches probed dimension");
        let _ = baselines::train_epochs(net.as_mut(), &task.train, &cfg, &mut ws);
        let score = objective.evaluate(net.as_mut(), &task.test, t as u64).mean;
        if score > best.1 {
            best = (alpha, score);
        }
    }
    space
        .apply(net.as_mut(), &best.0)
        .expect("alpha matches probed dimension");
    let _ = baselines::train_epochs(net.as_mut(), &task.train, &cfg, &mut ws);
    baselines::TrainedModel {
        net,
        decoder: baselines::OutputDecoder::Softmax,
        method: "random_search",
    }
}
