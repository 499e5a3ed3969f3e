//! Dropout and alpha dropout — the architectural component the paper finds
//! to dominate weight-drift robustness (Fig. 2(a)) and the sole knob of the
//! BayesFT search space.
//!
//! Both draw one ChaCha8 `f32` per activation, in element order, and
//! write the mask and the output in the same pass. The keep test feeds
//! arithmetic or a select, never a branch: the draws are random, so a
//! branch mispredicts at every rate (dropout1 of a batch-32 LeNet step
//! took 521–608 µs with the branch and 288–338 µs without, at rate 0.3).
//! Each mask is a layer-owned buffer that grows once to the largest
//! batch; an eval forward retires it without freeing it.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use tensor::Tensor;

use crate::{Layer, Mode, Workspace};

/// Backward of both dropouts: `grad · mask` after a train-mode forward,
/// identity otherwise (eval mode and rate 0 pass activations through).
fn masked_backward(mask: Option<&Tensor>, grad_out: &Tensor, ws: &mut Workspace) -> Tensor {
    let Some(mask) = mask else {
        return ws.take_copy(grad_out, grad_out.dims());
    };
    assert_eq!(grad_out.dims(), mask.dims(), "dropout gradient shape");
    let mut out = ws.take_tensor(grad_out.dims());
    for ((o, &g), &m) in out
        .as_mut_slice()
        .iter_mut()
        .zip(grad_out.as_slice())
        .zip(mask.as_slice())
    {
        *o = g * m;
    }
    out
}

/// Inverted dropout: during training each element is zeroed with probability
/// `rate` and survivors are scaled by `1/(1−rate)`; evaluation is identity.
///
/// The dropout **rate is mutable at run time** ([`Dropout::set_rate`]) —
/// BayesFT re-uses one trained-architecture skeleton and lets the Bayesian
/// optimizer move the per-layer rates between trials.
///
/// # Example
///
/// ```
/// use nn::{Dropout, Layer, Mode};
/// use tensor::Tensor;
///
/// let mut drop = Dropout::new(0.5, 42);
/// let x = Tensor::ones(&[4, 4]);
/// // Identity at evaluation time:
/// assert_eq!(drop.forward(&x, Mode::Eval).as_slice(), x.as_slice());
/// ```
#[derive(Debug, Clone)]
pub struct Dropout {
    rate: f32,
    rng: ChaCha8Rng,
    /// `1/(1−rate)` where kept, `0` where dropped.
    mask: Tensor,
    /// Whether `mask` belongs to the last forward (a train-mode one).
    live: bool,
}

impl Dropout {
    /// Creates a dropout layer with the given rate and RNG seed.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is outside `[0, 1)`.
    pub fn new(rate: f32, seed: u64) -> Self {
        assert!(
            (0.0..1.0).contains(&rate),
            "dropout rate must be in [0, 1), got {rate}"
        );
        Dropout {
            rate,
            rng: ChaCha8Rng::seed_from_u64(seed),
            mask: Tensor::zeros(&[0]),
            live: false,
        }
    }

    /// Current dropout rate.
    pub fn rate(&self) -> f32 {
        self.rate
    }

    /// Updates the dropout rate (clamped to `[0, 0.95]` for stability — a
    /// rate of 1 would zero the whole layer).
    pub fn set_rate(&mut self, rate: f32) {
        self.rate = rate.clamp(0.0, 0.95);
    }

    /// The mask sampled by the last training-mode forward (testing hook).
    pub fn last_mask(&self) -> Option<&Tensor> {
        self.live.then_some(&self.mask)
    }
}

impl Layer for Dropout {
    fn forward_ws(&mut self, input: &Tensor, mode: Mode, ws: &mut Workspace) -> Tensor {
        self.live = mode == Mode::Train && self.rate > 0.0;
        if !self.live {
            return ws.take_copy(input, input.dims());
        }
        let keep = 1.0 - self.rate;
        let scale = 1.0 / keep;
        self.mask.reuse_as(input.dims());
        let mut out = ws.take_tensor(input.dims());
        for ((o, &x), m) in out
            .as_mut_slice()
            .iter_mut()
            .zip(input.as_slice())
            .zip(self.mask.as_mut_slice())
        {
            *m = scale * ((self.rng.gen::<f32>() < keep) as u32 as f32);
            *o = x * *m;
        }
        out
    }

    fn backward_ws(&mut self, grad_out: &Tensor, ws: &mut Workspace) -> Tensor {
        masked_backward(self.last_mask(), grad_out, ws)
    }

    fn visit_dropout(&mut self, f: &mut dyn FnMut(&mut Dropout)) {
        f(self);
    }

    fn name(&self) -> &'static str {
        "dropout"
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

/// Alpha dropout (Klambauer et al., ref. [9]): drops to the SELU saturation
/// value `α′` and rescales affinely so the input mean and variance are
/// preserved.
///
/// The paper finds its robustness benefit matches plain dropout at higher
/// compute cost (Fig. 2(a)), which is why BayesFT searches plain dropout.
#[derive(Debug, Clone)]
pub struct AlphaDropout {
    rate: f32,
    rng: ChaCha8Rng,
    /// Per-element multiplier of the last train forward: `a` where kept,
    /// `0` where dropped (the additive part has zero derivative).
    mask: Tensor,
    /// Whether `mask` belongs to the last forward (a train-mode one).
    live: bool,
}

/// SELU saturation constant `α′ = −λα`.
const ALPHA_PRIME: f32 = -1.758_099_3;

impl AlphaDropout {
    /// Creates an alpha-dropout layer with the given rate and RNG seed.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is outside `[0, 1)`.
    pub fn new(rate: f32, seed: u64) -> Self {
        assert!(
            (0.0..1.0).contains(&rate),
            "alpha dropout rate must be in [0, 1), got {rate}"
        );
        AlphaDropout {
            rate,
            rng: ChaCha8Rng::seed_from_u64(seed),
            mask: Tensor::zeros(&[0]),
            live: false,
        }
    }

    /// Current dropout rate.
    pub fn rate(&self) -> f32 {
        self.rate
    }

    /// Updates the dropout rate (clamped to `[0, 0.95]`).
    pub fn set_rate(&mut self, rate: f32) {
        self.rate = rate.clamp(0.0, 0.95);
    }

    /// Affine correction `(a, b)` such that `a·(x·I + α′·(1−I)) + b`
    /// preserves zero mean / unit variance.
    fn affine(&self) -> (f32, f32) {
        let p = self.rate;
        let q = 1.0 - p;
        let a = (q + ALPHA_PRIME * ALPHA_PRIME * q * p).powf(-0.5);
        let b = -a * p * ALPHA_PRIME;
        (a, b)
    }
}

impl Layer for AlphaDropout {
    fn forward_ws(&mut self, input: &Tensor, mode: Mode, ws: &mut Workspace) -> Tensor {
        self.live = mode == Mode::Train && self.rate > 0.0;
        if !self.live {
            return ws.take_copy(input, input.dims());
        }
        let keep = 1.0 - self.rate;
        let (a, b) = self.affine();
        let dropped = a * ALPHA_PRIME + b;
        self.mask.reuse_as(input.dims());
        let mut out = ws.take_tensor(input.dims());
        for ((o, &x), m) in out
            .as_mut_slice()
            .iter_mut()
            .zip(input.as_slice())
            .zip(self.mask.as_mut_slice())
        {
            let kept = self.rng.gen::<f32>() < keep;
            *m = if kept { a } else { 0.0 };
            *o = if kept { a * x + b } else { dropped };
        }
        out
    }

    fn backward_ws(&mut self, grad_out: &Tensor, ws: &mut Workspace) -> Tensor {
        masked_backward(self.live.then_some(&self.mask), grad_out, ws)
    }

    fn name(&self) -> &'static str {
        "alpha_dropout"
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_mode_is_identity() {
        let mut d = Dropout::new(0.7, 0);
        let x = Tensor::from_slice(&[1.0, 2.0, 3.0]);
        assert_eq!(d.forward(&x, Mode::Eval).as_slice(), x.as_slice());
        let mut ad = AlphaDropout::new(0.7, 0);
        assert_eq!(ad.forward(&x, Mode::Eval).as_slice(), x.as_slice());
    }

    #[test]
    fn train_mode_preserves_expectation() {
        let mut d = Dropout::new(0.5, 123);
        let x = Tensor::ones(&[10_000]);
        let y = d.forward(&x, Mode::Train);
        // E[y] = 1: half survive with scale 2.
        assert!((y.mean() - 1.0).abs() < 0.1, "mean {}", y.mean());
    }

    #[test]
    fn zero_rate_is_identity_even_in_train() {
        let mut d = Dropout::new(0.0, 7);
        let x = Tensor::from_slice(&[5.0, -5.0]);
        assert_eq!(d.forward(&x, Mode::Train).as_slice(), x.as_slice());
    }

    #[test]
    fn backward_uses_same_mask_as_forward() {
        let mut d = Dropout::new(0.5, 9);
        let x = Tensor::ones(&[64]);
        let y = d.forward(&x, Mode::Train);
        let g = d.backward(&Tensor::ones(&[64]));
        // Gradient flows exactly where activations survived.
        for (yv, gv) in y.as_slice().iter().zip(g.as_slice()) {
            assert_eq!(yv, gv);
        }
    }

    #[test]
    fn set_rate_clamps() {
        let mut d = Dropout::new(0.1, 0);
        d.set_rate(2.0);
        assert!((d.rate() - 0.95).abs() < 1e-6);
        d.set_rate(-1.0);
        assert_eq!(d.rate(), 0.0);
    }

    #[test]
    #[should_panic(expected = "dropout rate must be in [0, 1)")]
    fn invalid_rate_panics() {
        let _ = Dropout::new(1.0, 0);
    }

    #[test]
    fn alpha_dropout_preserves_moments_approximately() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let x = Tensor::randn(&[50_000], 0.0, 1.0, &mut rng);
        let mut ad = AlphaDropout::new(0.3, 17);
        let y = ad.forward(&x, Mode::Train);
        let mean = y.mean();
        let var = y.as_slice().iter().map(|v| (v - mean).powi(2)).sum::<f32>() / y.len() as f32;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }

    /// The one-pass, branch-free mask fills draw the same words in the
    /// same order as the branchy per-element formulas they replaced and
    /// write the same mask and output bits, step after step.
    #[test]
    fn masks_and_outputs_match_the_branchy_formulas() {
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let mut data_rng = ChaCha8Rng::seed_from_u64(1);
        for rate in [0.05f32, 0.3, 0.5, 0.95] {
            let mut drop = Dropout::new(rate, 21);
            let mut alpha = AlphaDropout::new(rate, 22);
            let (mut drop_rng, mut alpha_rng) =
                (ChaCha8Rng::seed_from_u64(21), ChaCha8Rng::seed_from_u64(22));
            let (keep, (a, b)) = (1.0 - rate, alpha.affine());
            for step in 0..3 {
                let mut x = Tensor::randn(&[3, 50 + step], 0.0, 1.0, &mut data_rng);
                x.as_mut_slice()[0] = 0.0;
                x.as_mut_slice()[1] = -0.0;

                let (mut mask, mut out) = (Vec::new(), Vec::new());
                for &v in x.as_slice() {
                    let m = if drop_rng.gen::<f32>() < keep {
                        1.0 / keep
                    } else {
                        0.0
                    };
                    mask.push(m);
                    out.push(v * m);
                }
                let y = drop.forward(&x, Mode::Train);
                assert_eq!(bits(y.as_slice()), bits(&out), "dropout {rate} step {step}");
                let got = drop.last_mask().expect("train forward keeps its mask");
                assert_eq!(bits(got.as_slice()), bits(&mask), "mask {rate} step {step}");

                let (mut mask, mut out) = (Vec::new(), Vec::new());
                for &v in x.as_slice() {
                    if alpha_rng.gen::<f32>() < keep {
                        mask.push(a);
                        out.push(a * v + b);
                    } else {
                        mask.push(0.0);
                        out.push(a * ALPHA_PRIME + b);
                    }
                }
                let y = alpha.forward(&x, Mode::Train);
                assert_eq!(bits(y.as_slice()), bits(&out), "alpha {rate} step {step}");
                let got = &alpha.mask;
                assert_eq!(
                    bits(got.as_slice()),
                    bits(&mask),
                    "alpha mask {rate} step {step}"
                );
            }
        }
    }

    #[test]
    fn alpha_dropout_dropped_elements_get_constant() {
        let mut ad = AlphaDropout::new(0.5, 11);
        let (a, b) = ad.affine();
        let x = Tensor::ones(&[256]);
        let y = ad.forward(&x, Mode::Train);
        let dropped = a * ALPHA_PRIME + b;
        let kept = a + b;
        for &v in y.as_slice() {
            assert!(
                (v - dropped).abs() < 1e-5 || (v - kept).abs() < 1e-5,
                "unexpected value {v}"
            );
        }
    }
}
