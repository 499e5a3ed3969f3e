//! Fig. 3(j): object-detection mAP vs resistance variation, ERM vs BayesFT
//! (the paper finds no direct way to apply ReRAM-V/AWP/FTNA here and
//! compares only these two).
//!
//! Run: `cargo run --release -p bench --bin fig3_detection`

use bayesft::DropoutSearchSpace;
use bayesopt::{Acquisition, BayesOpt, SquaredExponential};
use bench::detection::{drift_map, train_detector};
use bench::Scale;
use datasets::ped_scenes;
use models::TinyDetector;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn main() {
    let scale = Scale::from_env();
    let (n_scenes, epochs, bo_trials, mc) = match scale {
        Scale::Full => (40, 60, 6, 4),
        Scale::Medium => (20, 30, 4, 3),
        Scale::Quick => (8, 10, 2, 2),
    };
    let mut rng = ChaCha8Rng::seed_from_u64(5);
    let data = ped_scenes(n_scenes, 24, 2, &mut rng);
    let (train, test) = data.split(0.8);

    // ERM detector.
    let mut erm = TinyDetector::new(24, &mut rng);
    train_detector(&mut erm, &train, epochs, 0.01);
    eprintln!("  [done] ERM detector");

    // BayesFT detector: the Algorithm-1 alternation with the drift-mAP
    // objective.
    let mut bft = TinyDetector::new(24, &mut rng);
    let space = DropoutSearchSpace::probe(&mut bft);
    let epochs_per_trial = (epochs / bo_trials).max(1);
    let mut bo = BayesOpt::new(space.dim(), SquaredExponential::isotropic(1.0, 0.3))
        .acquisition(Acquisition::PosteriorMean);
    let mut bo_rng = ChaCha8Rng::seed_from_u64(6);
    for t in 0..bo_trials {
        let alpha = bo.suggest(&mut bo_rng).expect("GP fit");
        space
            .apply(&mut bft, &alpha)
            .expect("alpha matches probed dimension");
        train_detector(&mut bft, &train, epochs_per_trial, 0.01);
        let objective = drift_map(&mut bft, &test, 0.3, mc, 60 + t as u64).mean;
        bo.tell(alpha, objective as f64);
    }
    let (alpha_star, _) = bo.best_observed().expect("trials ran");
    space
        .apply(&mut bft, &alpha_star)
        .expect("alpha matches probed dimension");
    train_detector(&mut bft, &train, epochs_per_trial, 0.01);
    eprintln!("  [done] BayesFT detector (alpha = {alpha_star:?})");

    // Sweep: mAP vs σ on the paper's 0–0.8 axis.
    println!("Fig. 3(j) — detection mAP vs resistance variation (PennFudan-like scenes)");
    println!(
        "{:<10}{:>8}{:>8}{:>8}{:>8}{:>8}",
        "method", 0.0, 0.2, 0.4, 0.6, 0.8
    );
    for (label, det) in [("ERM", &mut erm), ("BayesFT", &mut bft)] {
        print!("{label:<10}");
        for sigma in [0.0f32, 0.2, 0.4, 0.6, 0.8] {
            let stats = drift_map(det, &test, sigma, mc, 99);
            print!("{:>8.1}", stats.mean * 100.0);
        }
        println!();
    }
    println!("expected shape: both fall with σ; BayesFT dominates ERM increasingly");
}
