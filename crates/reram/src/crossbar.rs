//! Device-level ReRAM crossbar model.
//!
//! A weight matrix is stored as *differential conductance pairs*
//! `w = s·(G⁺ − G⁻)`: positive weights program `G⁺`, negative weights
//! program `G⁻`, and both cells sit in a bounded conductance range
//! `[g_min, g_max]` with a finite number of programmable levels. Programming
//! adds level-quantization error; reading adds Gaussian read noise.
//!
//! The [`ReRAM-V` baseline](https://doi.org/10.5555/3130379.3130385) (paper
//! ref. \[5\]) re-programs each drifted tensor with [`Crossbar::program`] and
//! reads it back with [`Crossbar::read`], keeping the closest of several
//! passes.

use rand::RngCore;
use tensor::Tensor;

/// Physical configuration of a crossbar array.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CrossbarConfig {
    /// Minimum programmable conductance (µS).
    pub g_min: f32,
    /// Maximum programmable conductance (µS).
    pub g_max: f32,
    /// Number of discrete programmable levels between `g_min` and `g_max`
    /// (0 = continuous analog programming).
    pub levels: usize,
    /// Standard deviation of programming error, as a fraction of the
    /// conductance range.
    pub program_noise: f32,
    /// Standard deviation of per-read Gaussian noise, as a fraction of the
    /// conductance range.
    pub read_noise: f32,
}

impl Default for CrossbarConfig {
    /// A mildly non-ideal device: 64 levels, 0.5% programming noise, 0.2%
    /// read noise over a 1–100 µS range.
    fn default() -> Self {
        CrossbarConfig {
            g_min: 1.0,
            g_max: 100.0,
            levels: 64,
            program_noise: 0.005,
            read_noise: 0.002,
        }
    }
}

impl CrossbarConfig {
    /// An ideal device: continuous levels, no noise. Useful in tests.
    pub fn ideal() -> Self {
        CrossbarConfig {
            g_min: 0.0,
            g_max: 100.0,
            levels: 0,
            program_noise: 0.0,
            read_noise: 0.0,
        }
    }
}

/// A programmed crossbar holding one weight matrix as differential
/// conductance pairs.
///
/// # Example
///
/// ```
/// use rand::SeedableRng;
/// use rand_chacha::ChaCha8Rng;
/// use reram::{Crossbar, CrossbarConfig};
/// use tensor::Tensor;
///
/// let w = Tensor::from_vec(vec![0.5, -0.25, 0.0, 1.0], &[2, 2])?;
/// let mut rng = ChaCha8Rng::seed_from_u64(0);
/// let xbar = Crossbar::program(&w, CrossbarConfig::ideal(), &mut rng);
/// let read = xbar.read(&mut rng);
/// assert!((read.at(&[0, 0]) - 0.5).abs() < 1e-4);
/// # Ok::<(), tensor::TensorError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Crossbar {
    config: CrossbarConfig,
    g_pos: Tensor,
    g_neg: Tensor,
    /// Weight scale: `w = scale · (g⁺ − g⁻)`.
    scale: f32,
    dims: Vec<usize>,
}

impl Crossbar {
    /// Programs `weights` onto a crossbar with the given device config.
    ///
    /// The scale is chosen so the largest |weight| maps to the full
    /// conductance range.
    pub fn program(weights: &Tensor, config: CrossbarConfig, rng: &mut dyn RngCore) -> Self {
        let w_max = weights
            .as_slice()
            .iter()
            .fold(0.0f32, |m, v| m.max(v.abs()));
        let range = config.g_max - config.g_min;
        let scale = if w_max > 0.0 { w_max / range } else { 1.0 };
        let mut g_pos = Tensor::zeros(weights.dims());
        let mut g_neg = Tensor::zeros(weights.dims());
        for ((gp, gn), &w) in g_pos
            .as_mut_slice()
            .iter_mut()
            .zip(g_neg.as_mut_slice())
            .zip(weights.as_slice())
        {
            let target = (w / scale).abs().min(range);
            let (pos_t, neg_t) = if w >= 0.0 {
                (target, 0.0)
            } else {
                (0.0, target)
            };
            *gp = config.g_min + Self::quantize_and_noise(pos_t, &config, rng);
            *gn = config.g_min + Self::quantize_and_noise(neg_t, &config, rng);
        }
        Crossbar {
            config,
            g_pos,
            g_neg,
            scale,
            dims: weights.dims().to_vec(),
        }
    }

    fn quantize_and_noise(target: f32, config: &CrossbarConfig, rng: &mut dyn RngCore) -> f32 {
        let range = config.g_max - config.g_min;
        let mut g = if config.levels > 1 {
            let step = range / (config.levels - 1) as f32;
            (target / step).round() * step
        } else {
            target
        };
        if config.program_noise > 0.0 {
            g += range * config.program_noise * super::drift::standard_normal(rng);
        }
        g.clamp(0.0, range)
    }

    /// Reads back the effective weight matrix, including read noise.
    pub fn read(&self, rng: &mut dyn RngCore) -> Tensor {
        let range = self.config.g_max - self.config.g_min;
        let mut out = Tensor::zeros(&self.dims);
        for (o, (gp, gn)) in out
            .as_mut_slice()
            .iter_mut()
            .zip(self.g_pos.as_slice().iter().zip(self.g_neg.as_slice()))
        {
            let mut diff = gp - gn;
            if self.config.read_noise > 0.0 {
                diff += range * self.config.read_noise * super::drift::standard_normal(rng);
            }
            *o = self.scale * diff;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn weights() -> Tensor {
        Tensor::from_vec(vec![0.8, -0.4, 0.1, 0.0, -1.2, 0.6], &[2, 3]).unwrap()
    }

    #[test]
    fn ideal_crossbar_round_trips_weights() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let xbar = Crossbar::program(&weights(), CrossbarConfig::ideal(), &mut rng);
        let read = xbar.read(&mut rng);
        for (r, w) in read.as_slice().iter().zip(weights().as_slice()) {
            assert!((r - w).abs() < 1e-4, "read {r} vs weight {w}");
        }
    }

    #[test]
    fn quantization_bounds_error_by_half_step() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let config = CrossbarConfig {
            levels: 16,
            program_noise: 0.0,
            read_noise: 0.0,
            ..CrossbarConfig::default()
        };
        let w = weights();
        let xbar = Crossbar::program(&w, config, &mut rng);
        let read = xbar.read(&mut rng);
        let w_max = 1.2f32;
        let step = w_max / 15.0;
        for (r, t) in read.as_slice().iter().zip(w.as_slice()) {
            assert!(
                (r - t).abs() <= step,
                "error {} above half-step bound",
                (r - t).abs()
            );
        }
    }
}
