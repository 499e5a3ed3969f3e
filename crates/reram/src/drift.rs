//! Weight-drift and device-fault distributions.

use rand::Rng;

use crate::FaultError;

/// A memristance-drift distribution applied independently to each stored
/// weight.
///
/// Object-safe so experiments can mix models at run time; the RNG is passed
/// as a dynamic trait object for the same reason.
pub trait DriftModel: Send + Sync {
    /// Returns the drifted version of `value`.
    ///
    /// The output must depend only on `value` and the words drawn from
    /// `rng` (no interior state, no other entropy). A call that draws no
    /// words is then deterministic in `value`, and [`monte_carlo`] relies
    /// on that: a fault level whose injection drew nothing is scored once
    /// per worker instead of once per sample.
    ///
    /// [`monte_carlo`]: crate::monte_carlo
    fn perturb(&self, value: f32, rng: &mut dyn rand::RngCore) -> f32;

    /// Replaces every element of `values` by its [`perturb`] result.
    ///
    /// An override must give the same bits and draw the same words from
    /// `rng`, in element order, as calling [`perturb`] on each element.
    /// The default does exactly that. The Gaussian models override it:
    /// they draw the words of 32 scalars per `fill_bytes` call and, on
    /// x86-64 with the GNU C library, AVX2 and FMA, turn them into normals
    /// (and [`LogNormalDrift`] into its `e^λ` factors) four lanes at a
    /// time. That kernel replays, operation for operation, the `*_fma`
    /// builds of `logf`, `cosf` and `expf` that glibc itself picks on such
    /// a CPU, so every lane has the scalar call's bits. Tests check the
    /// normal for every value either of its two 24-bit uniforms can take
    /// and `expf` for every input on its fast path; a probe against the C
    /// library, once per process, turns the kernel off if it disagrees.
    ///
    /// [`perturb`]: DriftModel::perturb
    fn perturb_all(&self, values: &mut [f32], rng: &mut dyn rand::RngCore) {
        for v in values {
            *v = self.perturb(*v, rng);
        }
    }

    /// Short name for reports.
    fn name(&self) -> &'static str;
}

/// Scalars whose words a batched [`DriftModel::perturb_all`] draws per
/// `fill_bytes` call.
const CHUNK: usize = 32;

/// One standard-normal sample via Box–Muller (object-safe RNG variant).
pub(crate) fn standard_normal(rng: &mut dyn rand::RngCore) -> f32 {
    let w1 = rng.next_u32();
    normal_from_words(w1, rng.next_u32())
}

/// The one Box–Muller transform, of the words `w1`, `w2` in stream order.
/// Each word maps to a uniform exactly as `gen_range(f32::EPSILON..1.0)`
/// and `gen_range(0.0..1.0)` map it; neither can round up to 1.
pub(crate) fn normal_from_words(w1: u32, w2: u32) -> f32 {
    let unit = |w: u32| (w >> 8) as f32 * (1.0 / (1u32 << 24) as f32);
    let u1 = f32::EPSILON + unit(w1) * (1.0 - f32::EPSILON);
    let u2 = unit(w2);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
}

/// Calls `f(values, z)` on each chunk of up to [`CHUNK`] elements of
/// `values`, where `z[i]` is the standard normal [`standard_normal`]
/// would draw next. The words of a chunk come from one `fill_bytes` call:
/// every 8 bytes are one little-endian `next_u64`, which is two
/// `next_u32` words, low first, for `ChaCha8Rng` and any generator built
/// the same way.
///
/// On x86-64 with the GNU C library, AVX2 and FMA (the CPUs on which
/// glibc picks its `*_fma` builds of `logf` and `cosf`), the normals come
/// from a four-lane copy of those builds, with the scalar expression's own
/// `f32` steps in between, so every normal has [`normal_from_words`]'s
/// bits. The normal is the `f32` product of a factor of `w1` alone and a
/// factor of `w2` alone, each a function of 24 bits, so tests that check
/// both factors on all 2²⁴ inputs check every word pair. A probe against
/// the C library, once per process, turns the copy off if it disagrees
/// (an older glibc); elsewhere, or then, the scalar transform runs.
fn map_normals(
    values: &mut [f32],
    rng: &mut dyn rand::RngCore,
    mut f: impl FnMut(&mut [f32], &[f32]),
) {
    let mut bytes = [0u8; 8 * CHUNK];
    let mut z = [0.0f32; CHUNK];
    for chunk in values.chunks_mut(CHUNK) {
        let (bytes, z) = (&mut bytes[..8 * chunk.len()], &mut z[..chunk.len()]);
        rng.fill_bytes(bytes);
        fill_normals(bytes, z);
        f(chunk, z);
    }
}

/// Fills `z[i]` with [`normal_from_words`] of the `i`-th 8-byte word pair
/// of `bytes`.
fn fill_normals(bytes: &[u8], z: &mut [f32]) {
    #[cfg(all(target_arch = "x86_64", target_env = "gnu"))]
    if crate::vmath::normals(bytes, z) {
        return;
    }
    for (z, w) in z.iter_mut().zip(bytes.chunks_exact(8)) {
        let (w1, w2) = w.split_at(4);
        let word = |b: &[u8]| u32::from_le_bytes(b.try_into().expect("4-byte word"));
        *z = normal_from_words(word(w1), word(w2));
    }
}

/// Replaces each `values[i]` by `f(values[i], z[i])`.
fn apply_each(values: &mut [f32], z: &[f32], f: impl Fn(f32, f32) -> f32) {
    for (v, &z) in values.iter_mut().zip(z) {
        *v = f(*v, z);
    }
}

/// Checks that a spread-style parameter is finite and non-negative.
fn check_spread(model: &'static str, name: &str, v: f32) -> Result<(), FaultError> {
    if !(v >= 0.0 && v.is_finite()) {
        return Err(FaultError::InvalidParam {
            model,
            reason: format!("{name} must be >= 0 and finite, got {v}"),
        });
    }
    Ok(())
}

/// Checks that a probability lies in `[0, 1]`.
fn check_prob(model: &'static str, name: &str, p: f32) -> Result<(), FaultError> {
    if !(0.0..=1.0).contains(&p) {
        return Err(FaultError::InvalidParam {
            model,
            reason: format!("{name} must be in [0, 1], got {p}"),
        });
    }
    Ok(())
}

/// The paper's memristance-drift model (Eq. 1): `θ′ = θ·e^λ, λ ~ N(0, σ²)`,
/// i.e. multiplicative log-normal drift. `σ` is the "resistance variation"
/// swept on every x-axis of Figs. 2–3.
///
/// # Example
///
/// ```
/// use rand::SeedableRng;
/// use rand_chacha::ChaCha8Rng;
/// use reram::{DriftModel, LogNormalDrift};
///
/// let drift = LogNormalDrift::new(0.0); // σ = 0 → identity
/// let mut rng = ChaCha8Rng::seed_from_u64(0);
/// assert_eq!(drift.perturb(1.5, &mut rng), 1.5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogNormalDrift {
    sigma: f32,
}

impl LogNormalDrift {
    /// Creates log-normal drift with resistance variation `sigma`.
    ///
    /// # Panics
    ///
    /// Panics if `sigma` is negative or non-finite; use
    /// [`LogNormalDrift::try_new`] for a recoverable error.
    pub fn new(sigma: f32) -> Self {
        Self::try_new(sigma).expect("sigma must be >= 0")
    }

    /// Fallible [`LogNormalDrift::new`].
    ///
    /// # Errors
    ///
    /// Returns [`FaultError::InvalidParam`] if `sigma` is negative or
    /// non-finite.
    pub fn try_new(sigma: f32) -> Result<Self, FaultError> {
        check_spread("log_normal", "sigma", sigma)?;
        Ok(LogNormalDrift { sigma })
    }

    /// The resistance-variation parameter σ.
    pub fn sigma(&self) -> f32 {
        self.sigma
    }

    /// `value` drifted by the standard normal `z`.
    fn apply(&self, value: f32, z: f32) -> f32 {
        value * (self.sigma * z).exp()
    }

    /// [`LogNormalDrift::apply`] on each value and its normal. Where
    /// `map_normals` runs its four-lane `logf` and `cosf`, a copy of
    /// glibc's `expf` runs beside them, with scalar `f32::exp` for the
    /// lanes outside its fast path (`|σz| ≥ 88`).
    fn apply_all(&self, values: &mut [f32], z: &[f32]) {
        #[cfg(all(target_arch = "x86_64", target_env = "gnu"))]
        if crate::vmath::scale_by_exp(values, self.sigma, z) {
            return;
        }
        apply_each(values, z, |v, z| self.apply(v, z));
    }
}

impl DriftModel for LogNormalDrift {
    fn perturb(&self, value: f32, rng: &mut dyn rand::RngCore) -> f32 {
        if self.sigma == 0.0 {
            return value;
        }
        self.apply(value, standard_normal(rng))
    }

    fn perturb_all(&self, values: &mut [f32], rng: &mut dyn rand::RngCore) {
        if self.sigma != 0.0 {
            map_normals(values, rng, |values, z| self.apply_all(values, z));
        }
    }

    fn name(&self) -> &'static str {
        "log_normal"
    }
}

/// Additive Gaussian noise: `θ′ = θ + ε, ε ~ N(0, σ²)` (models electrical
/// read noise at the sense amplifier rather than memristance drift).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GaussianAdditive {
    sigma: f32,
}

impl GaussianAdditive {
    /// Creates additive Gaussian noise with standard deviation `sigma`.
    ///
    /// # Panics
    ///
    /// Panics if `sigma` is negative or non-finite; use
    /// [`GaussianAdditive::try_new`] for a recoverable error.
    pub fn new(sigma: f32) -> Self {
        Self::try_new(sigma).expect("sigma must be >= 0")
    }

    /// Fallible [`GaussianAdditive::new`].
    ///
    /// # Errors
    ///
    /// Returns [`FaultError::InvalidParam`] if `sigma` is negative or
    /// non-finite.
    pub fn try_new(sigma: f32) -> Result<Self, FaultError> {
        check_spread("gaussian_additive", "sigma", sigma)?;
        Ok(GaussianAdditive { sigma })
    }

    /// `value` offset by the standard normal `z`.
    fn apply(&self, value: f32, z: f32) -> f32 {
        value + self.sigma * z
    }
}

impl DriftModel for GaussianAdditive {
    /// Draws two words even at σ = 0.
    fn perturb(&self, value: f32, rng: &mut dyn rand::RngCore) -> f32 {
        self.apply(value, standard_normal(rng))
    }

    fn perturb_all(&self, values: &mut [f32], rng: &mut dyn rand::RngCore) {
        map_normals(values, rng, |values, z| {
            apply_each(values, z, |v, z| self.apply(v, z));
        });
    }

    fn name(&self) -> &'static str {
        "gaussian_additive"
    }
}

/// Uniform multiplicative drift: `θ′ = θ·(1 + U(−δ, δ))` (bounded process
/// variation).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UniformDrift {
    delta: f32,
}

impl UniformDrift {
    /// Creates uniform drift with half-width `delta`.
    ///
    /// # Panics
    ///
    /// Panics if `delta` is negative or non-finite; use
    /// [`UniformDrift::try_new`] for a recoverable error.
    pub fn new(delta: f32) -> Self {
        Self::try_new(delta).expect("delta must be >= 0")
    }

    /// Fallible [`UniformDrift::new`].
    ///
    /// # Errors
    ///
    /// Returns [`FaultError::InvalidParam`] if `delta` is negative or
    /// non-finite.
    pub fn try_new(delta: f32) -> Result<Self, FaultError> {
        check_spread("uniform", "delta", delta)?;
        Ok(UniformDrift { delta })
    }
}

impl DriftModel for UniformDrift {
    fn perturb(&self, value: f32, rng: &mut dyn rand::RngCore) -> f32 {
        if self.delta == 0.0 {
            return value;
        }
        value * (1.0 + rng.gen_range(-self.delta..self.delta))
    }

    fn name(&self) -> &'static str {
        "uniform"
    }
}

/// Additive uniform read noise: `θ′ = θ + U(−δ, δ)`.
///
/// Unlike [`UniformDrift`] the disturbance is independent of the stored
/// magnitude — the signature of bounded quantization/readout error on the
/// bit lines, which hits small weights proportionally hardest.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UniformAdditive {
    delta: f32,
}

impl UniformAdditive {
    /// Creates additive uniform read noise with half-width `delta`.
    ///
    /// # Panics
    ///
    /// Panics if `delta` is negative or non-finite; use
    /// [`UniformAdditive::try_new`] for a recoverable error.
    pub fn new(delta: f32) -> Self {
        Self::try_new(delta).expect("delta must be >= 0")
    }

    /// Fallible [`UniformAdditive::new`].
    ///
    /// # Errors
    ///
    /// Returns [`FaultError::InvalidParam`] if `delta` is negative or
    /// non-finite.
    pub fn try_new(delta: f32) -> Result<Self, FaultError> {
        check_spread("uniform_additive", "delta", delta)?;
        Ok(UniformAdditive { delta })
    }
}

impl DriftModel for UniformAdditive {
    fn perturb(&self, value: f32, rng: &mut dyn rand::RngCore) -> f32 {
        if self.delta == 0.0 {
            return value;
        }
        value + rng.gen_range(-self.delta..self.delta)
    }

    fn name(&self) -> &'static str {
        "uniform_additive"
    }
}

/// Device-to-device variation: `θ′ = θ·(1 + ε), ε ~ N(0, σ²)`.
///
/// Each conductance cell gets its own Gaussian gain, modeling the static
/// fabrication mismatch between devices (as opposed to the temporal drift
/// of [`LogNormalDrift`]). Gains below −100 % are clamped so a cell can
/// attenuate to zero but never invert the stored sign.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceVariation {
    sigma: f32,
}

impl DeviceVariation {
    /// Creates device-to-device variation with relative spread `sigma`.
    ///
    /// # Panics
    ///
    /// Panics if `sigma` is negative or non-finite; use
    /// [`DeviceVariation::try_new`] for a recoverable error.
    pub fn new(sigma: f32) -> Self {
        Self::try_new(sigma).expect("sigma must be >= 0")
    }

    /// Fallible [`DeviceVariation::new`].
    ///
    /// # Errors
    ///
    /// Returns [`FaultError::InvalidParam`] if `sigma` is negative or
    /// non-finite.
    pub fn try_new(sigma: f32) -> Result<Self, FaultError> {
        check_spread("device_variation", "sigma", sigma)?;
        Ok(DeviceVariation { sigma })
    }

    /// `value` scaled by the clamped gain of the standard normal `z`.
    fn apply(&self, value: f32, z: f32) -> f32 {
        value * (1.0 + self.sigma * z).max(0.0)
    }
}

impl DriftModel for DeviceVariation {
    fn perturb(&self, value: f32, rng: &mut dyn rand::RngCore) -> f32 {
        if self.sigma == 0.0 {
            return value;
        }
        self.apply(value, standard_normal(rng))
    }

    fn perturb_all(&self, values: &mut [f32], rng: &mut dyn rand::RngCore) {
        if self.sigma != 0.0 {
            map_normals(values, rng, |values, z| {
                apply_each(values, z, |v, z| self.apply(v, z));
            });
        }
    }

    fn name(&self) -> &'static str {
        "device_variation"
    }
}

/// Stuck-at faults: with probability `p_zero` a cell reads as `0`
/// (stuck-off), with probability `p_max` it saturates to ±`max_value`
/// keeping the original sign (stuck-on). Models hard device defects.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StuckAtFault {
    p_zero: f32,
    p_max: f32,
    max_value: f32,
}

impl StuckAtFault {
    /// Creates a stuck-at model.
    ///
    /// # Panics
    ///
    /// Panics if the probabilities are outside `[0, 1]` or sum above 1; use
    /// [`StuckAtFault::try_new`] for a recoverable error.
    pub fn new(p_zero: f32, p_max: f32, max_value: f32) -> Self {
        // Guard order mirrors try_new's checks so each legacy panic prefix
        // matches the error it wraps.
        match Self::try_new(p_zero, p_max, max_value) {
            Ok(model) => model,
            Err(e) if !(0.0..=1.0).contains(&p_zero) || !(0.0..=1.0).contains(&p_max) => {
                panic!("probability must be in [0, 1]: {e}")
            }
            Err(e) if p_zero + p_max > 1.0 => panic!("fault probabilities exceed 1: {e}"),
            Err(e) => panic!("invalid stuck-at parameter: {e}"),
        }
    }

    /// Fallible [`StuckAtFault::new`].
    ///
    /// # Errors
    ///
    /// Returns [`FaultError::InvalidParam`] if a probability is outside
    /// `[0, 1]`, the probabilities sum above 1, or `max_value` is not
    /// finite.
    pub fn try_new(p_zero: f32, p_max: f32, max_value: f32) -> Result<Self, FaultError> {
        check_prob("stuck_at", "p_zero", p_zero)?;
        check_prob("stuck_at", "p_max", p_max)?;
        if p_zero + p_max > 1.0 {
            return Err(FaultError::InvalidParam {
                model: "stuck_at",
                reason: format!("p_zero + p_max must be <= 1, got {}", p_zero + p_max),
            });
        }
        if !max_value.is_finite() {
            return Err(FaultError::InvalidParam {
                model: "stuck_at",
                reason: format!("max_value must be finite, got {max_value}"),
            });
        }
        Ok(StuckAtFault {
            p_zero,
            p_max,
            max_value,
        })
    }
}

impl DriftModel for StuckAtFault {
    fn perturb(&self, value: f32, rng: &mut dyn rand::RngCore) -> f32 {
        let u: f32 = rng.gen();
        if u < self.p_zero {
            0.0
        } else if u < self.p_zero + self.p_max {
            self.max_value.copysign(value)
        } else {
            value
        }
    }

    fn name(&self) -> &'static str {
        "stuck_at"
    }
}

/// Bit flips in a quantized weight representation: the value is quantized
/// to a signed fixed-point code of `bits` bits over `[-range, range]`, each
/// bit flips independently with probability `p_flip`, and the code is
/// dequantized. Models digital storage corruption (e.g. SLC/MLC read
/// upsets) as opposed to analog conductance drift.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BitFlipFault {
    p_flip: f32,
    bits: u32,
    range: f32,
}

impl BitFlipFault {
    /// Creates a bit-flip model over a `bits`-bit signed code spanning
    /// `[-range, range]`.
    ///
    /// # Panics
    ///
    /// Panics if `p_flip` is outside `[0, 1]`, `bits` is not in `2..=16`,
    /// or `range` is not positive; use [`BitFlipFault::try_new`] for a
    /// recoverable error.
    pub fn new(p_flip: f32, bits: u32, range: f32) -> Self {
        match Self::try_new(p_flip, bits, range) {
            Ok(model) => model,
            Err(e) if !(0.0..=1.0).contains(&p_flip) => panic!("p_flip must be in [0, 1]: {e}"),
            Err(e) if !(2..=16).contains(&bits) => panic!("bits must be in 2..=16: {e}"),
            Err(e) => panic!("range must be positive: {e}"),
        }
    }

    /// Fallible [`BitFlipFault::new`].
    ///
    /// # Errors
    ///
    /// Returns [`FaultError::InvalidParam`] if `p_flip` is outside
    /// `[0, 1]`, `bits` is not in `2..=16`, or `range` is not positive.
    pub fn try_new(p_flip: f32, bits: u32, range: f32) -> Result<Self, FaultError> {
        check_prob("bit_flip", "p_flip", p_flip)?;
        if !(2..=16).contains(&bits) {
            return Err(FaultError::InvalidParam {
                model: "bit_flip",
                reason: format!("bits must be in 2..=16, got {bits}"),
            });
        }
        if !(range > 0.0 && range.is_finite()) {
            return Err(FaultError::InvalidParam {
                model: "bit_flip",
                reason: format!("range must be positive and finite, got {range}"),
            });
        }
        Ok(BitFlipFault {
            p_flip,
            bits,
            range,
        })
    }
}

impl DriftModel for BitFlipFault {
    fn perturb(&self, value: f32, rng: &mut dyn rand::RngCore) -> f32 {
        let levels = (1u32 << self.bits) - 1;
        let step = 2.0 * self.range / levels as f32;
        // Quantize to an unsigned code centered at range.
        let mut code =
            (((value + self.range) / step).round() as i64).clamp(0, levels as i64) as u32;
        for bit in 0..self.bits {
            if rng.gen::<f32>() < self.p_flip {
                code ^= 1 << bit;
            }
        }
        (code.min(levels) as f32) * step - self.range
    }

    fn name(&self) -> &'static str {
        "bit_flip"
    }
}

/// Discrete conductance-level quantization: the value is clamped to
/// `[-range, range]` and rounded to the nearest of `levels` evenly spaced
/// conductance levels. Deterministic — the RNG is unused — so it composes
/// cleanly with stochastic models in a [`CompositeFault`] (e.g. quantize
/// the programmed level, then drift it).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LevelQuantization {
    levels: u32,
    range: f32,
}

impl LevelQuantization {
    /// Creates a quantizer with `levels` conductance levels over
    /// `[-range, range]`.
    ///
    /// # Panics
    ///
    /// Panics if `levels < 2` or `range` is not positive; use
    /// [`LevelQuantization::try_new`] for a recoverable error.
    pub fn new(levels: u32, range: f32) -> Self {
        Self::try_new(levels, range).expect("levels must be >= 2 and range positive")
    }

    /// Fallible [`LevelQuantization::new`].
    ///
    /// # Errors
    ///
    /// Returns [`FaultError::InvalidParam`] if `levels < 2` or `range` is
    /// not positive and finite.
    pub fn try_new(levels: u32, range: f32) -> Result<Self, FaultError> {
        if levels < 2 {
            return Err(FaultError::InvalidParam {
                model: "quantize",
                reason: format!("need at least 2 conductance levels, got {levels}"),
            });
        }
        if !(range > 0.0 && range.is_finite()) {
            return Err(FaultError::InvalidParam {
                model: "quantize",
                reason: format!("range must be positive and finite, got {range}"),
            });
        }
        Ok(LevelQuantization { levels, range })
    }
}

impl DriftModel for LevelQuantization {
    fn perturb(&self, value: f32, _rng: &mut dyn rand::RngCore) -> f32 {
        let step = 2.0 * self.range / (self.levels - 1) as f32;
        let clamped = value.clamp(-self.range, self.range);
        let code = ((clamped + self.range) / step).round();
        code * step - self.range
    }

    fn name(&self) -> &'static str {
        "quantize"
    }
}

/// Applies several fault models in sequence (e.g. conductance quantization,
/// then log-normal drift, then stuck-at defects).
///
/// The chain is deterministic in `(input, RNG state)`: models are applied
/// in construction order against the single RNG stream passed to
/// [`DriftModel::perturb`], so the same seed always reproduces the same
/// composite perturbation.
pub struct CompositeFault {
    models: Vec<Box<dyn DriftModel>>,
}

impl CompositeFault {
    /// Chains the given models; they are applied in order.
    pub fn new(models: Vec<Box<dyn DriftModel>>) -> Self {
        CompositeFault { models }
    }

    /// The chained models, in application order.
    pub fn models(&self) -> &[Box<dyn DriftModel>] {
        &self.models
    }
}

impl DriftModel for CompositeFault {
    fn perturb(&self, value: f32, rng: &mut dyn rand::RngCore) -> f32 {
        self.models.iter().fold(value, |v, m| m.perturb(v, rng))
    }

    fn name(&self) -> &'static str {
        "composite"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{RngCore, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn samples(model: &dyn DriftModel, value: f32, n: usize) -> Vec<f32> {
        let mut rng = ChaCha8Rng::seed_from_u64(99);
        (0..n).map(|_| model.perturb(value, &mut rng)).collect()
    }

    /// Median via a NaN-total sort: if a drift model ever emits NaN, the
    /// sort must not panic mid-test — total_cmp ranks NaN above +∞, so a
    /// poisoned sample set skews the median and fails the *assertion*
    /// instead of aborting in the comparator.
    fn median(mut s: Vec<f32>) -> f32 {
        s.sort_by(|a, b| a.total_cmp(b));
        s[s.len() / 2]
    }

    #[test]
    fn zero_sigma_is_identity() {
        assert_eq!(
            LogNormalDrift::new(0.0).perturb(2.5, &mut ChaCha8Rng::seed_from_u64(0)),
            2.5
        );
        assert_eq!(
            UniformDrift::new(0.0).perturb(2.5, &mut ChaCha8Rng::seed_from_u64(0)),
            2.5
        );
        assert_eq!(
            UniformAdditive::new(0.0).perturb(2.5, &mut ChaCha8Rng::seed_from_u64(0)),
            2.5
        );
        assert_eq!(
            DeviceVariation::new(0.0).perturb(2.5, &mut ChaCha8Rng::seed_from_u64(0)),
            2.5
        );
    }

    #[test]
    fn log_normal_preserves_sign_and_median() {
        let model = LogNormalDrift::new(0.8);
        let s = samples(&model, 2.0, 20_000);
        assert!(
            s.iter().all(|&v| v > 0.0),
            "multiplicative drift keeps sign"
        );
        // Median of θ·e^λ is θ (λ symmetric around 0).
        let median = median(s.clone());
        assert!((median - 2.0).abs() < 0.1, "median {median}");
        // Mean is θ·e^{σ²/2} ≈ 2·1.377 = 2.754.
        let mean: f32 = s.iter().sum::<f32>() / s.len() as f32;
        assert!((mean - 2.0 * (0.32f32).exp()).abs() < 0.15, "mean {mean}");
    }

    #[test]
    fn median_helper_survives_nan_samples() {
        // Regression: the old comparator was partial_cmp(..).unwrap(),
        // which aborts the test process the moment one sample is NaN.
        let m = median(vec![1.0, f32::NAN, 3.0, 2.0, f32::NAN]);
        assert_eq!(m, 3.0, "NaN sorts above +inf, shifting the median up");
    }

    #[test]
    fn log_normal_negative_weights_stay_negative() {
        let model = LogNormalDrift::new(1.0);
        assert!(samples(&model, -1.0, 1000).iter().all(|&v| v < 0.0));
    }

    #[test]
    fn gaussian_additive_moments() {
        let model = GaussianAdditive::new(0.5);
        let s = samples(&model, 1.0, 20_000);
        let mean: f32 = s.iter().sum::<f32>() / s.len() as f32;
        let var: f32 = s.iter().map(|v| (v - mean).powi(2)).sum::<f32>() / s.len() as f32;
        assert!((mean - 1.0).abs() < 0.02);
        assert!((var - 0.25).abs() < 0.02);
    }

    #[test]
    fn uniform_drift_is_bounded() {
        let model = UniformDrift::new(0.2);
        assert!(samples(&model, 10.0, 5000)
            .iter()
            .all(|&v| (8.0..12.0).contains(&v)));
    }

    #[test]
    fn uniform_additive_is_magnitude_independent() {
        let model = UniformAdditive::new(0.1);
        // Disturbance bounds do not scale with the stored value.
        assert!(samples(&model, 10.0, 2000)
            .iter()
            .all(|&v| (9.9..10.1).contains(&v)));
        assert!(samples(&model, 0.0, 2000)
            .iter()
            .all(|&v| (-0.1..0.1).contains(&v)));
    }

    #[test]
    fn device_variation_keeps_sign_and_centers_on_value() {
        let model = DeviceVariation::new(0.1);
        let s = samples(&model, -2.0, 20_000);
        assert!(s.iter().all(|&v| v <= 0.0), "gain clamp must preserve sign");
        let mean: f32 = s.iter().sum::<f32>() / s.len() as f32;
        assert!((mean + 2.0).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn device_variation_large_sigma_clamps_at_zero() {
        let model = DeviceVariation::new(5.0);
        let s = samples(&model, 1.0, 5_000);
        assert!(s.contains(&0.0), "some gains must clamp to 0");
        assert!(s.iter().all(|&v| v >= 0.0));
    }

    /// Asserts that `hits` successes in `trials` Bernoulli(`p`) draws lie
    /// within five standard deviations of the binomial mean `trials·p`
    /// (a false alarm has probability below 10⁻⁶).
    fn assert_binomial(hits: usize, trials: usize, p: f64, what: &str) {
        let mean = trials as f64 * p;
        let sigma = (trials as f64 * p * (1.0 - p)).sqrt();
        let z = (hits as f64 - mean) / sigma;
        assert!(
            z.abs() <= 5.0,
            "{what}: {hits} of {trials} (expected {mean:.0} ± {sigma:.1}, z = {z:.2})"
        );
    }

    #[test]
    fn stuck_at_rates_are_respected() {
        let model = StuckAtFault::new(0.1, 0.05, 3.0);
        let s = samples(&model, -1.0, 50_000);
        let zeros = s.iter().filter(|&&v| v == 0.0).count();
        let maxed = s.iter().filter(|&&v| v == -3.0).count();
        assert_binomial(zeros, s.len(), 0.1, "stuck-at-zero");
        assert_binomial(maxed, s.len(), 0.05, "stuck-at-max");
        // Every other cell keeps its value, and stuck-on keeps the sign.
        assert_eq!(
            s.iter().filter(|&&v| v == -1.0).count(),
            s.len() - zeros - maxed
        );
    }

    #[test]
    fn composite_applies_in_sequence() {
        let comp = CompositeFault::new(vec![
            Box::new(StuckAtFault::new(1.0, 0.0, 0.0)), // everything sticks to zero
            Box::new(GaussianAdditive::new(0.0)),
        ]);
        assert_eq!(comp.perturb(5.0, &mut ChaCha8Rng::seed_from_u64(1)), 0.0);
        assert_eq!(comp.name(), "composite");
        assert_eq!(comp.models().len(), 2);
    }

    #[test]
    fn composite_is_deterministic_in_the_seed() {
        let comp = CompositeFault::new(vec![
            Box::new(LevelQuantization::new(16, 2.0)),
            Box::new(LogNormalDrift::new(0.4)),
            Box::new(StuckAtFault::new(0.1, 0.05, 2.0)),
        ]);
        for seed in [0u64, 1, 99] {
            let a: Vec<f32> = {
                let mut rng = ChaCha8Rng::seed_from_u64(seed);
                (0..64)
                    .map(|i| comp.perturb(i as f32 / 32.0, &mut rng))
                    .collect()
            };
            let b: Vec<f32> = {
                let mut rng = ChaCha8Rng::seed_from_u64(seed);
                (0..64)
                    .map(|i| comp.perturb(i as f32 / 32.0, &mut rng))
                    .collect()
            };
            assert_eq!(a, b, "seed {seed} not reproducible");
        }
    }

    #[test]
    fn quantization_is_deterministic_and_snaps_to_levels() {
        let model = LevelQuantization::new(5, 1.0); // levels at -1, -0.5, 0, 0.5, 1
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        assert_eq!(model.perturb(0.3, &mut rng), 0.5);
        assert_eq!(model.perturb(0.2, &mut rng), 0.0);
        assert_eq!(model.perturb(-0.8, &mut rng), -1.0);
        // Out-of-range values clamp to the extreme levels.
        assert_eq!(model.perturb(7.0, &mut rng), 1.0);
        assert_eq!(model.perturb(-7.0, &mut rng), -1.0);
    }

    #[test]
    fn quantization_error_is_bounded_by_half_a_step() {
        let model = LevelQuantization::new(33, 1.0);
        let step = 2.0 / 32.0;
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        for i in 0..200 {
            let w = -1.0 + 2.0 * (i as f32 / 199.0);
            let out = model.perturb(w, &mut rng);
            assert!((out - w).abs() <= step / 2.0 + 1e-6, "{w} -> {out}");
        }
    }

    #[test]
    fn quantization_is_idempotent_bit_for_bit() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        for (levels, range) in [(2, 1.0f32), (5, 1.0), (16, 2.0), (33, 0.7), (256, 3.5)] {
            let model = LevelQuantization::new(levels, range);
            // A grid over ±2.5·range: in-range values and values to clamp.
            for i in 0..=1000 {
                let w = range * (-2.5 + 5.0 * i as f32 / 1000.0);
                let once = model.perturb(w, &mut rng);
                let twice = model.perturb(once, &mut rng);
                assert_eq!(
                    once.to_bits(),
                    twice.to_bits(),
                    "{levels} levels over ±{range}: {w} -> {once} -> {twice}"
                );
            }
        }
    }

    #[test]
    fn bit_flip_zero_probability_is_quantization_only() {
        let model = BitFlipFault::new(0.0, 8, 1.0);
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        // Error bounded by half a quantization step.
        let step = 2.0 / 255.0;
        for &w in &[0.0f32, 0.5, -0.73, 0.99, -1.0] {
            let out = model.perturb(w, &mut rng);
            assert!((out - w).abs() <= step / 2.0 + 1e-6, "{w} -> {out}");
        }
    }

    #[test]
    fn bit_flip_rate_matches_probability() {
        let (bits, range, p) = (8u32, 1.0f32, 0.1);
        let model = BitFlipFault::new(p, bits, range);
        let step = 2.0 * range / ((1u32 << bits) - 1) as f32;
        let code_of = |v: f32| ((v + range) / step).round() as u32;
        let original = code_of(0.25);
        let s = samples(&model, 0.25, 20_000);
        // Outputs stay within the code range.
        assert!(s.iter().all(|&v| (-range..=range).contains(&v)));
        // Each bit of the stored code flips independently with rate p.
        for bit in 0..bits {
            let flips = s
                .iter()
                .filter(|&&v| (code_of(v) ^ original) & (1 << bit) != 0)
                .count();
            assert_binomial(flips, s.len(), f64::from(p), &format!("bit {bit} flips"));
        }
    }

    #[test]
    fn bit_flip_high_bits_cause_large_errors() {
        // Flipping the MSB moves the value by ~range — the failure mode that
        // makes digital storage brittle without ECC.
        let model = BitFlipFault::new(0.2, 4, 1.0);
        let s = samples(&model, 0.8, 5_000);
        // lint:allow(R2, reason = "absolute errors of finite bit-flipped codes are never NaN")
        let max_err = s.iter().map(|v| (v - 0.8f32).abs()).fold(0.0f32, f32::max);
        assert!(
            max_err > 0.5,
            "expected MSB-flip scale errors, got {max_err}"
        );
    }

    /// The Box–Muller expression as it read before the word-level
    /// helper, drawing through `gen_range`.
    fn gen_range_normal(rng: &mut ChaCha8Rng) -> f32 {
        let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
        let u2: f32 = rng.gen_range(0.0..1.0);
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
    }

    #[test]
    fn normal_from_words_matches_the_gen_range_expression() {
        let mut rng = ChaCha8Rng::seed_from_u64(21);
        for _ in 0..20_000 {
            let mut words = rng.clone();
            let w1 = words.next_u32();
            let z = normal_from_words(w1, words.next_u32());
            assert_eq!(z.to_bits(), gen_range_normal(&mut rng).to_bits());
        }
        // The extreme words: u1 stays below 1, so ln(u1) < 0.
        for (w1, w2) in [(0, 0), (u32::MAX, u32::MAX), (u32::MAX, 0), (0, u32::MAX)] {
            let z = normal_from_words(w1, w2);
            assert!(z.is_finite() && z != 0.0, "{w1:#x}, {w2:#x} -> {z}");
        }
    }

    /// Forwards only `perturb`, so its `perturb_all` is the trait's
    /// default.
    struct PerScalar(Box<dyn DriftModel>);

    impl DriftModel for PerScalar {
        fn perturb(&self, value: f32, rng: &mut dyn RngCore) -> f32 {
            self.0.perturb(value, rng)
        }

        fn name(&self) -> &'static str {
            "per_scalar"
        }
    }

    /// Every model in this file at spread `s`, a chain of them, and a
    /// model that relies on the default `perturb_all`. Probabilities are
    /// `s` capped at 0.5.
    fn every_model(s: f32) -> Vec<Box<dyn DriftModel>> {
        let p = s.min(0.5);
        vec![
            Box::new(LogNormalDrift::new(s)),
            Box::new(GaussianAdditive::new(s)),
            Box::new(UniformDrift::new(s)),
            Box::new(UniformAdditive::new(s)),
            Box::new(DeviceVariation::new(s)),
            Box::new(StuckAtFault::new(p, p / 2.0, 1.5)),
            Box::new(BitFlipFault::new(p, 8, 2.0)),
            Box::new(LevelQuantization::new(16, 2.0)),
            Box::new(CompositeFault::new(vec![
                Box::new(LevelQuantization::new(16, 2.0)),
                Box::new(LogNormalDrift::new(s)),
                Box::new(GaussianAdditive::new(s)),
                Box::new(StuckAtFault::new(p / 3.0, 0.0, 1.5)),
            ])),
            Box::new(PerScalar(Box::new(DeviceVariation::new(s)))),
        ]
    }

    /// `perturb_all` gives per-scalar `perturb`'s bits and draws the same
    /// words: for lengths around the four-lane kernel step and the
    /// 32-scalar chunk, from even and odd stream positions, at a spread
    /// (σ = 40) where some log-normal factors overflow to ∞ or underflow
    /// to 0, and with ±0, subnormal, ±∞ and NaN weights among the values.
    #[test]
    fn perturb_all_matches_per_scalar_perturb_bit_for_bit() {
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let special = [
            0.0,
            -0.0,
            1.0e-40,
            -3.0e-39,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
        ];
        let lens = (0usize..=9).chain([31, 32, 33, 35, 257, 258]);
        let (mut overflowed, mut underflowed) = (false, false);
        for s in [0.0f32, 0.3, 40.0] {
            for model in every_model(s) {
                for len in lens.clone() {
                    for drawn in [0, 1] {
                        let values: Vec<f32> = (0..len)
                            .map(|i| match i % 5 {
                                3 => special[(i / 5) % special.len()],
                                _ => (i as f32 - 100.0) / 37.0,
                            })
                            .collect();
                        let mut rng_all = ChaCha8Rng::seed_from_u64(len as u64 + 5);
                        for _ in 0..drawn {
                            let _ = rng_all.next_u32();
                        }
                        let mut rng_one = rng_all.clone();
                        let mut all = values.clone();
                        model.perturb_all(&mut all, &mut rng_all);
                        let one: Vec<f32> = values
                            .iter()
                            .map(|&v| model.perturb(v, &mut rng_one))
                            .collect();
                        let what = format!("{} at {s}, len {len}, {drawn} drawn", model.name());
                        assert_eq!(bits(&all), bits(&one), "{what}");
                        assert_eq!(rng_all.get_word_pos(), rng_one.get_word_pos(), "{what}");
                        if model.name() == "log_normal" {
                            for (v, d) in values.iter().zip(&all) {
                                if v.is_normal() {
                                    overflowed |= d.is_infinite();
                                    underflowed |= *d == 0.0;
                                }
                            }
                        }
                        // The Monte-Carlo zero-draw shortcut relies on these
                        // counts.
                        let words = match model.name() {
                            "log_normal" | "device_variation" if s == 0.0 => 0,
                            "log_normal" | "device_variation" | "gaussian_additive" => 2 * len,
                            _ => continue,
                        };
                        assert_eq!(rng_all.get_word_pos(), (drawn + words) as u128, "{what}");
                    }
                }
            }
        }
        assert!(
            overflowed && underflowed,
            "σ = 40 must push some e^λ past the f32 range"
        );
    }

    #[test]
    #[should_panic(expected = "sigma must be >= 0")]
    fn negative_sigma_panics() {
        let _ = LogNormalDrift::new(-0.1);
    }

    #[test]
    #[should_panic(expected = "fault probabilities exceed 1")]
    fn stuck_at_rejects_excess_probability() {
        let _ = StuckAtFault::new(0.7, 0.6, 1.0);
    }

    #[test]
    fn try_new_rejects_bad_params_recoverably() {
        assert!(LogNormalDrift::try_new(f32::NAN).is_err());
        assert!(GaussianAdditive::try_new(-0.1).is_err());
        assert!(UniformAdditive::try_new(f32::INFINITY).is_err());
        assert!(DeviceVariation::try_new(-1.0).is_err());
        assert!(StuckAtFault::try_new(0.7, 0.6, 1.0).is_err());
        assert!(StuckAtFault::try_new(0.1, 0.1, f32::NAN).is_err());
        assert!(BitFlipFault::try_new(0.1, 1, 1.0).is_err());
        assert!(BitFlipFault::try_new(0.1, 8, 0.0).is_err());
        assert!(LevelQuantization::try_new(1, 1.0).is_err());
        assert!(LevelQuantization::try_new(8, -1.0).is_err());
        assert!(LogNormalDrift::try_new(0.3).is_ok());
    }
}
