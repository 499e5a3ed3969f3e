//! Ablation (beyond the paper): Monte-Carlo sample count `T` in the Eq. (4)
//! objective estimator — estimator noise vs search quality.
//!
//! Run: `cargo run --release -p bench --bin ablate_mc_samples`

use baselines::train_erm;
use bayesft::{DriftObjective, Engine};
use bayesopt::Acquisition;
use bench::{drift_point, make_task, Scale};
use models::{Mlp, MlpConfig};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn main() {
    let scale = Scale::from_env();
    let task = make_task("digits", scale, 13);
    let input_dim = task.in_channels * task.hw * task.hw;

    // Part 1: estimator standard deviation vs T on a fixed trained model.
    let mut rng = ChaCha8Rng::seed_from_u64(3);
    let net = Box::new(Mlp::new(
        &MlpConfig::new(input_dim, task.classes).hidden(48),
        &mut rng,
    ));
    let mut model = train_erm(net, &task.train, &bench::train_config(scale, 3));
    println!("Objective-estimator noise vs Monte-Carlo samples T (σ = 0.6)");
    println!("{:<8}{:>12}{:>12}", "T", "mean", "std");
    for t in [1usize, 2, 4, 8, 16] {
        let stats = DriftObjective::new(0.6, t).evaluate(model.net.as_mut(), &task.test, 5);
        println!("{t:<8}{:>11.1}%{:>11.3}", stats.mean * 100.0, stats.std);
    }

    // Part 2: end-to-end search quality vs T.
    println!("\nSearch quality vs T (drift accuracy of the found architecture at σ = 0.9)");
    println!("{:<8}{:>14}", "T", "acc@σ=0.9");
    for t in [1usize, 4, 8] {
        let mut rng = ChaCha8Rng::seed_from_u64(17);
        let net = Box::new(Mlp::new(
            &MlpConfig::new(input_dim, task.classes).hidden(48),
            &mut rng,
        ));
        let mut model = Engine::builder()
            .trials(scale.bo_trials())
            .epochs_per_trial((scale.epochs() / 3).max(1))
            .mc_samples(t)
            .sigma(0.6)
            .acquisition(Acquisition::PosteriorMean)
            .lengthscale(0.3)
            .train(bench::train_config(scale, 17))
            .seed(17)
            .max_rate(0.8)
            .final_epochs(10)
            .parallelism(1)
            .run(net, &task.train, &task.test)
            .expect("GP fit")
            .model;
        let acc = drift_point(&mut model, &task.test, 0.9, scale.mc_trials().max(4));
        println!("{t:<8}{:>13.1}%", acc * 100.0);
    }
    println!("expected shape: std shrinks ~1/√T; search quality saturates after moderate T");
}
