//! Fig. 1: decision-boundary shift on a 2-D binary dataset as memristance
//! drift grows.
//!
//! Trains an MLP on two-moons, then renders the decision regions (ASCII)
//! and accuracy for one drift sample at each σ — the paper's three panels.
//!
//! Run: `cargo run --release -p bench --bin fig1_decision_boundary`

use baselines::{train_erm, OutputDecoder, TrainConfig};
use bench::Scale;
use datasets::moons;
use models::{Mlp, MlpConfig};
use nn::{Layer, Mode, Workspace};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use reram::{FaultInjector, LogNormalDrift};
use tensor::Tensor;

const GRID_W: usize = 48;
const GRID_H: usize = 20;

fn render_boundary(net: &mut dyn Layer, data: &datasets::ClassificationDataset) -> (String, f32) {
    let (x_min, x_max, y_min, y_max) = (-1.8f32, 2.8, -1.5, 2.0);
    let mut canvas = String::new();
    for gy in 0..GRID_H {
        for gx in 0..GRID_W {
            let x = x_min + (x_max - x_min) * gx as f32 / (GRID_W - 1) as f32;
            let y = y_max - (y_max - y_min) * gy as f32 / (GRID_H - 1) as f32;
            let logits = net.forward(
                &Tensor::from_vec(vec![x, y], &[1, 2]).expect("2 features"),
                Mode::Eval,
            );
            canvas.push(if logits.at(&[0, 0]) > logits.at(&[0, 1]) {
                '.'
            } else {
                '#'
            });
        }
        canvas.push('\n');
    }
    // Accuracy on the dataset under the same (drifted) weights.
    let acc = OutputDecoder::Softmax.accuracy(net, data, &mut Workspace::new());
    (canvas, acc)
}

fn main() {
    let scale = Scale::from_env();
    let mut rng = ChaCha8Rng::seed_from_u64(1);
    let n = if scale == Scale::Quick { 120 } else { 400 };
    let data = moons(n, 0.12, &mut rng);

    let net = Box::new(Mlp::new(&MlpConfig::new(2, 2).hidden(32), &mut rng));
    let cfg = TrainConfig {
        epochs: if scale == Scale::Quick { 10 } else { 40 },
        lr: 0.1,
        ..TrainConfig::default()
    };
    let mut model = train_erm(net, &data, &cfg);

    println!("Fig. 1 — decision boundary shift under memristance drift (two-moons)");
    println!("legend: '.' = class 0 region, '#' = class 1 region\n");
    for sigma in [0.0f32, 0.5, 1.0] {
        let snapshot = FaultInjector::snapshot(model.net.as_mut());
        let mut drift_rng = ChaCha8Rng::seed_from_u64(17);
        FaultInjector::inject(
            model.net.as_mut(),
            &LogNormalDrift::new(sigma),
            &mut drift_rng,
        );
        let (canvas, acc) = render_boundary(model.net.as_mut(), &data);
        snapshot
            .restore_into(model.net.as_mut())
            .expect("snapshot was taken from this network");
        println!("--- σ = {sigma} (accuracy {:.1}%) ---", acc * 100.0);
        println!("{canvas}");
    }
}
