//! Dropout and alpha dropout — the architectural component the paper finds
//! to dominate weight-drift robustness (Fig. 2(a)) and the sole knob of the
//! BayesFT search space.
//!
//! Both draw one ChaCha8 `f32` per activation, in element order, and
//! write the mask and the output in the same pass ([`fill_masked`]). The
//! words of up to [`CHUNK`] elements come from one `fill_bytes` call, not
//! one `next_u32` call per element: dropout1 of a batch-32 LeNet step
//! took about 5.6 ns per element with per-element calls and 2.5 ns with
//! batched words (2-vCPU Xeon). The keep test feeds arithmetic or a select, never a
//! branch: the draws are random, so a branch mispredicts at every rate
//! (the same layer took 521–608 µs with the branch and 288–338 µs
//! without, at rate 0.3). Each mask is a layer-owned buffer that grows
//! once to the largest batch; an eval forward retires it without freeing
//! it.

use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;
use tensor::Tensor;

use crate::{Layer, Mode, Workspace};

/// Elements whose mask words one `fill_bytes` call draws.
const CHUNK: usize = 64;

/// The mask pass of both dropouts: for each element `x` of `input`, in
/// order, `(mask, out) = f(x, u)`, where `u` is the `f32` that
/// `rng.gen::<f32>()` would draw next ([`rand::unit_f32`] of the next word).
///
/// The words of up to [`CHUNK`] elements come from one `fill_bytes` call
/// into a stack buffer: every 8 bytes are one little-endian `next_u64`,
/// which is two `next_u32` words, low first. `fill_bytes` draws whole
/// `next_u64`s, so a chunk with an odd element count takes its last word
/// from `next_u32`; the generator ends where per-element draws leave it.
fn fill_masked(
    rng: &mut ChaCha8Rng,
    input: &[f32],
    mask: &mut [f32],
    out: &mut [f32],
    f: impl Fn(f32, f32) -> (f32, f32),
) {
    let mut bytes = [0u8; 4 * CHUNK];
    for ((x, m), o) in input
        .chunks(CHUNK)
        .zip(mask.chunks_mut(CHUNK))
        .zip(out.chunks_mut(CHUNK))
    {
        let pairs = 8 * (x.len() / 2);
        rng.fill_bytes(&mut bytes[..pairs]);
        if x.len() % 2 == 1 {
            bytes[pairs..pairs + 4].copy_from_slice(&rng.next_u32().to_le_bytes());
        }
        for (((&x, m), o), w) in x.iter().zip(m).zip(o).zip(bytes.chunks_exact(4)) {
            let u = rand::unit_f32(u32::from_le_bytes(w.try_into().expect("4-byte word")));
            (*m, *o) = f(x, u);
        }
    }
}

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
    ///
    /// # Panics
    ///
    /// Panics if `rate` is NaN.
    pub fn set_rate(&mut self, rate: f32) {
        assert!(!rate.is_nan(), "dropout rate must be in [0, 1), got {rate}");
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
        fill_masked(
            &mut self.rng,
            input.as_slice(),
            self.mask.as_mut_slice(),
            out.as_mut_slice(),
            |x, u| {
                let m = scale * ((u < keep) as u32 as f32);
                (m, x * m)
            },
        );
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

/// Alpha dropout (Klambauer et al., ref. \[9\]): drops to the SELU saturation
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
    ///
    /// # Panics
    ///
    /// Panics if `rate` is NaN.
    pub fn set_rate(&mut self, rate: f32) {
        assert!(
            !rate.is_nan(),
            "alpha dropout rate must be in [0, 1), got {rate}"
        );
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
        fill_masked(
            &mut self.rng,
            input.as_slice(),
            self.mask.as_mut_slice(),
            out.as_mut_slice(),
            |x, u| {
                let kept = u < keep;
                (
                    if kept { a } else { 0.0 },
                    if kept { a * x + b } else { dropped },
                )
            },
        );
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
    use rand::Rng;

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

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
    #[should_panic(expected = "dropout rate must be in [0, 1), got NaN")]
    fn set_rate_rejects_nan() {
        Dropout::new(0.1, 0).set_rate(f32::NAN);
    }

    #[test]
    #[should_panic(expected = "alpha dropout rate must be in [0, 1), got NaN")]
    fn alpha_set_rate_rejects_nan() {
        AlphaDropout::new(0.1, 0).set_rate(f32::NAN);
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

    /// The one-pass, branch-free mask fills, which draw the words of 64
    /// elements per `fill_bytes` call, draw the same words in the same order
    /// as the branchy per-element `gen::<f32>()` formulas they replaced,
    /// write the same mask and output bits and leave the generator at the
    /// same position, step after step: lengths around the chunk (odd tails
    /// included) and LeNet's dropout1 batch, from even and odd stream
    /// offsets, at rates from 0 (draws nothing) to 0.95.
    #[test]
    fn masks_and_outputs_match_the_branchy_formulas() {
        let mut data_rng = ChaCha8Rng::seed_from_u64(1);
        for rate in [0.0f32, 0.05, 0.3, 0.5, 0.95] {
            for skip in 0..2 {
                let mut drop = Dropout::new(rate, 21);
                let mut alpha = AlphaDropout::new(rate, 22);
                for _ in 0..skip {
                    let _ = (drop.rng.next_u32(), alpha.rng.next_u32());
                }
                let (mut drop_rng, mut alpha_rng) = (drop.rng.clone(), alpha.rng.clone());
                let (keep, (a, b)) = (1.0 - rate, alpha.affine());
                for len in [0, 1, 2, 63, 64, 65, 127, 129, 37_632] {
                    let label = format!("rate {rate}, skip {skip}, len {len}");
                    let mut x = Tensor::randn(&[len], 0.0, 1.0, &mut data_rng);
                    if len >= 2 {
                        x.as_mut_slice()[0] = 0.0;
                        x.as_mut_slice()[1] = -0.0;
                    }

                    // At rate 0 the reference draws nothing either.
                    let (mut mask, mut out) = (Vec::new(), x.as_slice().to_vec());
                    if rate > 0.0 {
                        out.clear();
                        for &v in x.as_slice() {
                            let m = if drop_rng.gen::<f32>() < keep {
                                1.0 / keep
                            } else {
                                0.0
                            };
                            mask.push(m);
                            out.push(v * m);
                        }
                    }
                    let y = drop.forward(&x, Mode::Train);
                    assert_eq!(bits(y.as_slice()), bits(&out), "dropout, {label}");
                    let got = drop.last_mask().map(|m| bits(m.as_slice()));
                    assert_eq!(got, (rate > 0.0).then(|| bits(&mask)), "mask, {label}");
                    assert_eq!(drop.rng.get_word_pos(), drop_rng.get_word_pos(), "{label}");

                    let (mut mask, mut out) = (Vec::new(), x.as_slice().to_vec());
                    if rate > 0.0 {
                        out.clear();
                        for &v in x.as_slice() {
                            if alpha_rng.gen::<f32>() < keep {
                                mask.push(a);
                                out.push(a * v + b);
                            } else {
                                mask.push(0.0);
                                out.push(a * ALPHA_PRIME + b);
                            }
                        }
                    }
                    let y = alpha.forward(&x, Mode::Train);
                    assert_eq!(bits(y.as_slice()), bits(&out), "alpha, {label}");
                    if rate > 0.0 {
                        assert_eq!(
                            bits(alpha.mask.as_slice()),
                            bits(&mask),
                            "alpha mask, {label}"
                        );
                    }
                    assert_eq!(
                        alpha.rng.get_word_pos(),
                        alpha_rng.get_word_pos(),
                        "{label}"
                    );
                }
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
