//! Synthetic datasets for the BayesFT reproduction.
//!
//! The paper evaluates on MNIST, CIFAR-10, GTSRB and PennFudanPed. Those
//! datasets are not redistributable inside this offline workspace, so this
//! crate procedurally generates stand-ins with matching *structure* — class
//! counts, channel counts, and enough intra-class variation that the
//! networks must genuinely learn:
//!
//! | paper dataset | stand-in | structure |
//! |---|---|---|
//! | scikit-learn binary toy (Fig. 1) | [`moons()`] | 2-D two-class interleaved half-moons |
//! | MNIST | [`digits()`] | 10 glyph classes, 1×14×14, jittered bitmap font |
//! | CIFAR-10 | [`shapes()`] | 10 textured-shape classes, 3×16×16 |
//! | GTSRB | [`signs()`] | 43 sign classes (shape × color × glyph), 3×16×16 |
//! | PennFudanPed | [`ped_scenes`] | detection scenes with boxed "pedestrians" |
//!
//! Every generator takes an explicit RNG, so datasets are reproducible from
//! a seed.
//! Training and eval loops read batches through
//! [`ClassificationDataset::gather_into`] into caller-owned buffers.
//!
//! # Example
//!
//! ```
//! use datasets::digits;
//! use rand::SeedableRng;
//! use rand_chacha::ChaCha8Rng;
//!
//! let mut rng = ChaCha8Rng::seed_from_u64(0);
//! let data = digits(20, &mut rng); // 20 per class
//! assert_eq!(data.len(), 200);
//! assert_eq!(data.classes(), 10);
//! assert_eq!(data.images().dims(), &[200, 1, 14, 14]);
//! ```

mod data;
mod detect;
mod digits;
mod moons;
mod shapes;
mod signs;

pub use data::{shuffle_order, ClassificationDataset};
pub use detect::{ped_scenes, BBox, DetectionDataset, Scene};
pub use digits::{digits, glyph_bitmap};
pub use moons::moons;
pub use shapes::shapes;
pub use signs::signs;
