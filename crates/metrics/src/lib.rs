//! Evaluation metrics for the BayesFT reproduction: IoU-based average
//! precision for the object-detection experiment (Fig. 3(j)).
//! Classification accuracy lives with the output decoders in `baselines`.

mod map;

pub use map::{average_precision, mean_average_precision, Detection};
