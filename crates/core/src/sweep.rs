//! Robustness sweeps: the accuracy-vs-σ curves of Figs. 2–3.

use baselines::TrainedModel;
use datasets::ClassificationDataset;
use reram::{LogNormalDrift, McStats};

/// The σ grid every figure in the paper sweeps: 0 to 1.5 in steps of 0.3.
pub const SIGMA_GRID: [f32; 6] = [0.0, 0.3, 0.6, 0.9, 1.2, 1.5];

/// Accuracy of a trained model at each σ of a grid (Monte-Carlo averaged).
///
/// # Panics
///
/// Panics if `trials == 0`.
pub fn accuracy_vs_sigma(
    model: &mut TrainedModel,
    data: &ClassificationDataset,
    sigmas: &[f32],
    trials: usize,
    seed: u64,
) -> Vec<(f32, McStats)> {
    sigmas
        .iter()
        .map(|&sigma| {
            let stats = baselines::drift_accuracy(
                model,
                data,
                &LogNormalDrift::new(sigma),
                trials,
                sigma_seed(seed, sigma),
            );
            (sigma, stats)
        })
        .collect()
}

/// The Monte-Carlo seed of one σ of a sweep, distinct for every
/// `(seed, σ)` pair.
fn sigma_seed(seed: u64, sigma: f32) -> u64 {
    reram::mix_seed(seed, u64::from(sigma.to_bits()))
}

/// One method's accuracy curve over the σ grid.
#[derive(Debug, Clone, PartialEq)]
pub struct MethodCurve {
    /// Method label (`"erm"`, `"bayesft"`, …).
    pub method: String,
    /// `(σ, mean accuracy, std)` triples.
    pub points: Vec<(f32, f32, f32)>,
}

impl MethodCurve {
    /// Builds a curve from sweep output.
    pub fn from_sweep(method: impl Into<String>, sweep: &[(f32, McStats)]) -> Self {
        MethodCurve {
            method: method.into(),
            points: sweep
                .iter()
                .map(|(s, stats)| (*s, stats.mean, stats.std))
                .collect(),
        }
    }
}

/// A printable figure: several method curves over one σ grid.
///
/// `Display` renders the table the way the paper's figures tabulate —
/// σ across the columns, one row per method — so every `fig*` bench binary
/// reproduces a readable artifact.
#[derive(Debug, Clone, Default)]
pub struct SweepTable {
    curves: Vec<MethodCurve>,
    title: String,
}

impl SweepTable {
    /// Creates an empty table with a figure title.
    pub fn new(title: impl Into<String>) -> Self {
        SweepTable {
            curves: Vec::new(),
            title: title.into(),
        }
    }

    /// Adds a method curve.
    pub fn push(&mut self, curve: MethodCurve) {
        self.curves.push(curve);
    }
}

impl std::fmt::Display for SweepTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "=== {} ===", self.title)?;
        if self.curves.is_empty() {
            return writeln!(f, "(no data)");
        }
        write!(f, "{:<12}", "sigma")?;
        for (s, _, _) in &self.curves[0].points {
            write!(f, "{s:>8.2}")?;
        }
        writeln!(f)?;
        for curve in &self.curves {
            write!(f, "{:<12}", curve.method)?;
            for (_, mean, _) in &curve.points {
                write!(f, "{:>8.1}", mean * 100.0)?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use baselines::{train_erm, TrainConfig};
    use datasets::moons;
    use models::{Mlp, MlpConfig};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn fake_curve(method: &str, accs: &[f32]) -> MethodCurve {
        MethodCurve {
            method: method.into(),
            points: accs
                .iter()
                .enumerate()
                .map(|(i, &a)| (i as f32 * 0.3, a, 0.01))
                .collect(),
        }
    }

    #[test]
    fn sweep_covers_grid_and_is_monotonic_in_spirit() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let data = moons(200, 0.1, &mut rng);
        let net = Box::new(Mlp::new(&MlpConfig::new(2, 2).hidden(16), &mut rng));
        let mut model = train_erm(
            net,
            &data,
            &TrainConfig {
                epochs: 20,
                ..TrainConfig::fast_test()
            },
        );
        let sweep = accuracy_vs_sigma(&mut model, &data, &[0.0, 1.5], 6, 3);
        assert_eq!(sweep.len(), 2);
        assert!(
            sweep[0].1.mean >= sweep[1].1.mean,
            "σ=0 ({}) should beat σ=1.5 ({})",
            sweep[0].1.mean,
            sweep[1].1.mean
        );
    }

    /// Every `(seed, σ)` pair of a sweep draws its own stream: seed 300
    /// at σ = 0 and seed 0 at σ = 0.3 must not share one, as they did
    /// when a σ's seed was `seed ^ (σ·1000)`.
    #[test]
    fn sweep_seeds_are_distinct_across_seeds_and_sigmas() {
        assert_ne!(sigma_seed(300, 0.0), sigma_seed(0, 0.3));
        let mut seen = std::collections::HashSet::new();
        for seed in 0..1000 {
            for &sigma in &SIGMA_GRID {
                assert!(
                    seen.insert(sigma_seed(seed, sigma)),
                    "seed {seed} at σ = {sigma} reuses another pair's stream"
                );
            }
        }
    }

    #[test]
    fn table_renders_all_methods() {
        let mut table = SweepTable::new("Fig. test");
        table.push(fake_curve("erm", &[0.9, 0.5, 0.2]));
        table.push(fake_curve("bayesft", &[0.9, 0.85, 0.7]));
        let text = table.to_string();
        assert!(text.contains("erm") && text.contains("bayesft"));
        assert!(text.contains("90.0"));
    }

    #[test]
    fn sigma_grid_matches_paper() {
        assert_eq!(SIGMA_GRID.len(), 6);
        assert_eq!(SIGMA_GRID[0], 0.0);
        assert_eq!(SIGMA_GRID[5], 1.5);
    }
}
