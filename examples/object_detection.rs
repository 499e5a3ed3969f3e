//! Pedestrian detection under weight drift (the paper's Fig. 3(j)/Fig. 4
//! scenario): train the grid detector, drift its weights, and watch boxes
//! degrade — then recover robustness with dropout architecture search.
//!
//! Run: `cargo run --release --example object_detection`

use datasets::ped_scenes;
use metrics::{mean_average_precision, Detection};
use models::{DetectionLoss, TinyDetector};
use nn::{Layer, Mode, Optimizer};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use reram::{FaultInjector, LogNormalDrift};
use tensor::Tensor;

fn stack(data: &datasets::DetectionDataset) -> Tensor {
    let size = data.image_size();
    let mut buf = Vec::new();
    for scene in data.scenes() {
        buf.extend_from_slice(scene.image.as_slice());
    }
    Tensor::from_vec(buf, &[data.len(), 3, size, size]).expect("uniform scenes")
}

fn train(det: &mut TinyDetector, data: &datasets::DetectionDataset, epochs: usize) {
    let images = stack(data);
    let loss_fn = DetectionLoss::default();
    let mut opt = nn::Adam::new(0.01);
    let mut ws = nn::Workspace::new();
    for e in 0..epochs {
        let raw = det.forward(&images, Mode::Train);
        let (loss, grad) =
            loss_fn.loss_and_grad_ws(&raw, data.scenes(), data.image_size(), &mut ws);
        let _ = det.backward(&grad);
        ws.recycle(grad);
        opt.step(det);
        if e % 20 == 0 {
            println!("  epoch {e:>3}: loss {loss:.4}");
        }
    }
}

fn map_at(det: &mut TinyDetector, data: &datasets::DetectionDataset) -> f32 {
    let dets = det.detect(&stack(data), 0.5);
    let mut flat = Vec::new();
    for (image, per_image) in dets.into_iter().enumerate() {
        for (bbox, score) in per_image {
            flat.push(Detection { image, bbox, score });
        }
    }
    let gt: Vec<_> = data.scenes().iter().map(|s| s.boxes.clone()).collect();
    mean_average_precision(&flat, &gt)
}

fn main() {
    let mut rng = ChaCha8Rng::seed_from_u64(0);
    let data = ped_scenes(24, 24, 2, &mut rng);
    let (train_set, test_set) = data.split(0.75);

    println!(
        "training grid detector on {} synthetic street scenes…",
        train_set.len()
    );
    let mut det = TinyDetector::new(24, &mut rng);
    // A drift-robust dropout setting (found by the fig3_detection search).
    models::set_dropout_rates(&mut det, &[0.15, 0.15]);
    train(&mut det, &train_set, 60);

    println!("\nmAP@0.5 under log-normal weight drift:");
    println!("{:<8}{:>8}", "sigma", "mAP");
    for sigma in [0.0f32, 0.2, 0.4, 0.6] {
        let snapshot = FaultInjector::snapshot(&mut det);
        let mut sum = 0.0;
        let trials = 5;
        for t in 0..trials {
            let mut drift_rng = ChaCha8Rng::seed_from_u64(100 + t);
            FaultInjector::inject(&mut det, &LogNormalDrift::new(sigma), &mut drift_rng);
            sum += map_at(&mut det, &test_set);
            snapshot
                .restore_into(&mut det)
                .expect("snapshot was taken from this network");
        }
        println!("{sigma:<8}{:>7.1}%", sum / trials as f32 * 100.0);
    }
}
