//! The four feature-normalization schemes ablated in Fig. 2(b): batch,
//! layer, instance, and group normalization.
//!
//! All four share one normalization core: elements are partitioned into
//! statistics groups, normalized to zero mean / unit variance within each
//! group, then transformed by a per-channel affine `γ·x̂ + β` (the paper's
//! Eq. 2). What differs is only the grouping:
//!
//! | norm     | rank-2 `[N, D]` group      | rank-4 `[N, C, H, W]` group |
//! |----------|----------------------------|------------------------------|
//! | batch    | column `d` over all `n`    | channel `c` over `n, h, w`   |
//! | layer    | row `n` over all `d`       | sample `n` over `c, h, w`    |
//! | instance | row `n`                    | `(n, c)` over `h, w`         |
//! | group    | `(n, g)` over `D/G` feats  | `(n, g)` over `C/G · H · W`  |
//!
//! The affine parameters are ordinary [`Param`]s, so ReRAM drift injection
//! perturbs them — which is exactly the mechanism behind the paper's
//! "Achilles heel" finding that normalization *hurts* drift robustness.

use serde::{Deserialize, Serialize};
use tensor::Tensor;

use crate::{Layer, Mode, Param, ParamKind, Workspace};

const EPS: f32 = 1e-5;

/// Selects a normalization scheme when building parameterized models
/// (Fig. 2(b) ablation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum NormKind {
    /// No normalization.
    #[default]
    None,
    /// Batch normalization (Ioffe & Szegedy).
    Batch,
    /// Layer normalization (Ba et al.).
    Layer,
    /// Instance normalization (Ulyanov et al.).
    Instance,
    /// Group normalization (Wu & He) with 4 groups.
    Group,
}

impl NormKind {
    /// Instantiates the corresponding layer for `num_features` channels.
    pub fn build(self, num_features: usize) -> Box<dyn Layer> {
        match self {
            NormKind::None => Box::new(crate::Identity::new()),
            NormKind::Batch => Box::new(BatchNorm::new(num_features)),
            NormKind::Layer => Box::new(LayerNorm::new(num_features)),
            NormKind::Instance => Box::new(InstanceNorm::new(num_features)),
            NormKind::Group => Box::new(GroupNorm::new(num_features, 4.min(num_features))),
        }
    }

    /// All variants in the order plotted in Fig. 2(b).
    pub fn all() -> [NormKind; 5] {
        [
            NormKind::None,
            NormKind::Instance,
            NormKind::Batch,
            NormKind::Group,
            NormKind::Layer,
        ]
    }
}

impl std::fmt::Display for NormKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            NormKind::None => "none",
            NormKind::Batch => "batch_norm",
            NormKind::Layer => "layer_norm",
            NormKind::Instance => "instance_norm",
            NormKind::Group => "group_norm",
        };
        write!(f, "{name}")
    }
}

/// Layout information extracted from an input tensor.
#[derive(Debug, Clone, Copy, Default)]
struct NormLayout {
    n: usize,
    c: usize,
    /// Spatial extent per channel (1 for rank-2 inputs).
    s: usize,
}

fn layout(x: &Tensor, num_features: usize) -> NormLayout {
    match x.rank() {
        2 => {
            assert_eq!(
                x.dims()[1],
                num_features,
                "norm feature mismatch: input {} vs {num_features} features",
                x.shape()
            );
            NormLayout {
                n: x.dims()[0],
                c: num_features,
                s: 1,
            }
        }
        4 => {
            assert_eq!(
                x.dims()[1],
                num_features,
                "norm channel mismatch: input {} vs {num_features} channels",
                x.shape()
            );
            NormLayout {
                n: x.dims()[0],
                c: num_features,
                s: x.dims()[2] * x.dims()[3],
            }
        }
        r => panic!("normalization expects rank 2 or 4 input, got rank {r}"),
    }
}

/// Flat index decomposition: `(sample, channel)` of element `i`.
#[inline]
fn coords(i: usize, lay: &NormLayout) -> (usize, usize) {
    let per_sample = lay.c * lay.s;
    let n = i / per_sample;
    let c = (i % per_sample) / lay.s;
    (n, c)
}

/// Shared normalization state cached between forward and backward,
/// refreshed in place by every caching forward (grown once, reused across
/// steps). An empty `xhat` means no forward has filled it yet, or an
/// eval-mode forward invalidated it.
#[derive(Debug, Clone, Default)]
struct NormCache {
    xhat: Tensor,
    inv_std: Vec<f32>,
    group_size: f32,
    lay: NormLayout,
}

/// Persistent per-layer scratch for the group statistics of both passes
/// (grown once, reused across steps — part of the allocation-free path).
#[derive(Debug, Clone, Default)]
struct NormScratch {
    sum: Vec<f64>,
    sum_sq: Vec<f64>,
    count: Vec<usize>,
    mean: Vec<f32>,
    mean_g: Vec<f64>,
    mean_gx: Vec<f64>,
}

/// Clears `v` to `n` default values, reusing its capacity.
fn reset<T: Clone + Default>(v: &mut Vec<T>, n: usize) {
    v.clear();
    v.resize(n, T::default());
}

/// Normalizes `x` within groups given by `group_of` into `cache` (x̂ and
/// the per-group inverse std), accumulating group statistics in `scratch`.
fn normalize(
    x: &Tensor,
    lay: &NormLayout,
    n_groups: usize,
    group_of: impl Fn(usize, usize) -> usize,
    cache: &mut NormCache,
    scratch: &mut NormScratch,
) {
    reset(&mut scratch.sum, n_groups);
    reset(&mut scratch.sum_sq, n_groups);
    reset(&mut scratch.count, n_groups);
    reset(&mut scratch.mean, n_groups);
    reset(&mut cache.inv_std, n_groups);
    for (i, &v) in x.as_slice().iter().enumerate() {
        let (n, c) = coords(i, lay);
        let g = group_of(n, c);
        scratch.sum[g] += v as f64;
        scratch.sum_sq[g] += (v as f64) * (v as f64);
        scratch.count[g] += 1;
    }
    for g in 0..n_groups {
        let count = scratch.count[g].max(1) as f64;
        let m = scratch.sum[g] / count;
        let var = (scratch.sum_sq[g] / count - m * m).max(0.0);
        scratch.mean[g] = m as f32;
        cache.inv_std[g] = 1.0 / ((var as f32) + EPS).sqrt();
    }
    cache.xhat.reuse_as(x.dims());
    for (i, (h, &v)) in cache
        .xhat
        .as_mut_slice()
        .iter_mut()
        .zip(x.as_slice())
        .enumerate()
    {
        let (n, c) = coords(i, lay);
        let g = group_of(n, c);
        *h = (v - scratch.mean[g]) * cache.inv_std[g];
    }
    cache.group_size = scratch.count.first().copied().unwrap_or(1) as f32;
    cache.lay = *lay;
}

/// Backward pass of group-wise normalization and its per-channel affine:
/// accumulates `dγ`/`dβ`, then turns `ghat` (arriving as the output
/// gradient) into the input gradient in place — with `ĝ = g·γ`, each
/// element becomes `inv_std_g · (ĝ_i − mean_G(ĝ) − x̂_i · mean_G(ĝ·x̂))`.
fn normalize_backward(
    ghat: &mut Tensor,
    cache: &NormCache,
    gamma: &mut Param,
    beta: &mut Param,
    n_groups: usize,
    group_of: impl Fn(usize, usize) -> usize,
    scratch: &mut NormScratch,
) {
    let lay = &cache.lay;
    for (i, v) in ghat.as_mut_slice().iter_mut().enumerate() {
        let (_, c) = coords(i, lay);
        gamma.grad.as_mut_slice()[c] += *v * cache.xhat.as_slice()[i];
        beta.grad.as_mut_slice()[c] += *v;
        *v *= gamma.value.as_slice()[c];
    }
    reset(&mut scratch.mean_g, n_groups);
    reset(&mut scratch.mean_gx, n_groups);
    for (i, (&g, &xh)) in ghat
        .as_slice()
        .iter()
        .zip(cache.xhat.as_slice())
        .enumerate()
    {
        let (n, c) = coords(i, lay);
        let grp = group_of(n, c);
        scratch.mean_g[grp] += g as f64;
        scratch.mean_gx[grp] += (g * xh) as f64;
    }
    let m = cache.group_size as f64;
    for grp in 0..n_groups {
        scratch.mean_g[grp] /= m;
        scratch.mean_gx[grp] /= m;
    }
    for (i, v) in ghat.as_mut_slice().iter_mut().enumerate() {
        let (n, c) = coords(i, lay);
        let grp = group_of(n, c);
        *v = cache.inv_std[grp]
            * (*v
                - scratch.mean_g[grp] as f32
                - cache.xhat.as_slice()[i] * scratch.mean_gx[grp] as f32);
    }
}

/// Writes the per-channel affine `γ·x̂ + β` into `out`.
fn apply_affine(xhat: &Tensor, lay: &NormLayout, gamma: &Tensor, beta: &Tensor, out: &mut Tensor) {
    for (i, (o, &h)) in out
        .as_mut_slice()
        .iter_mut()
        .zip(xhat.as_slice())
        .enumerate()
    {
        let (_, c) = coords(i, lay);
        *o = gamma.as_slice()[c] * h + beta.as_slice()[c];
    }
}

macro_rules! norm_common_impl {
    ($ty:ident) => {
        impl $ty {
            /// Number of channels/features this layer normalizes.
            pub fn num_features(&self) -> usize {
                self.num_features
            }
        }
    };
}

/// Batch normalization: statistics per channel across the batch (and spatial
/// dims); running estimates are kept for evaluation mode.
///
/// # Example
///
/// ```
/// use nn::{BatchNorm, Layer, Mode};
/// use tensor::Tensor;
///
/// let mut bn = BatchNorm::new(3);
/// let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 5.0, 6.0, 7.0], &[2, 3])?;
/// let y = bn.forward(&x, Mode::Train);
/// // Each column is normalized to zero mean.
/// assert!((y.at(&[0, 0]) + y.at(&[1, 0])).abs() < 1e-4);
/// # Ok::<(), tensor::TensorError>(())
/// ```
#[derive(Clone)]
pub struct BatchNorm {
    num_features: usize,
    gamma: Param,
    beta: Param,
    running_mean: Vec<f32>,
    running_var: Vec<f32>,
    momentum: f32,
    cache: NormCache,
    scratch: NormScratch,
}

impl BatchNorm {
    /// Creates batch normalization over `num_features` channels.
    pub fn new(num_features: usize) -> Self {
        BatchNorm {
            num_features,
            gamma: Param::new(Tensor::ones(&[num_features]), ParamKind::NormGain),
            beta: Param::new(Tensor::zeros(&[num_features]), ParamKind::NormBias),
            running_mean: vec![0.0; num_features],
            running_var: vec![1.0; num_features],
            momentum: 0.1,
            cache: NormCache::default(),
            scratch: NormScratch::default(),
        }
    }

    /// Running mean estimates (testing/inspection hook).
    pub fn running_mean(&self) -> &[f32] {
        &self.running_mean
    }
}

norm_common_impl!(BatchNorm);

impl Layer for BatchNorm {
    fn forward_ws(&mut self, input: &Tensor, mode: Mode, ws: &mut Workspace) -> Tensor {
        let lay = layout(input, self.num_features);
        let mut out = ws.take_tensor(input.dims());
        match mode {
            Mode::Train => {
                normalize(
                    input,
                    &lay,
                    lay.c,
                    |_, c| c,
                    &mut self.cache,
                    &mut self.scratch,
                );
                // Recover the batch variances from the inverse stds to
                // refresh the running estimates.
                for c in 0..lay.c {
                    let inv = self.cache.inv_std[c];
                    let var = 1.0 / (inv * inv) - EPS;
                    self.running_var[c] =
                        (1.0 - self.momentum) * self.running_var[c] + self.momentum * var;
                }
                // Batch means via a direct f32 pass (`normalize` keeps f64
                // means); its per-channel element counts are reused.
                let mean = &mut self.scratch.mean;
                reset(mean, lay.c);
                for (i, &v) in input.as_slice().iter().enumerate() {
                    let (_, c) = coords(i, &lay);
                    mean[c] += v;
                }
                for (c, m) in mean.iter_mut().enumerate() {
                    *m /= self.scratch.count[c].max(1) as f32;
                    self.running_mean[c] =
                        (1.0 - self.momentum) * self.running_mean[c] + self.momentum * *m;
                }
                apply_affine(
                    &self.cache.xhat,
                    &lay,
                    &self.gamma.value,
                    &self.beta.value,
                    &mut out,
                );
            }
            Mode::Eval => {
                for (i, (o, &x)) in out
                    .as_mut_slice()
                    .iter_mut()
                    .zip(input.as_slice())
                    .enumerate()
                {
                    let (_, c) = coords(i, &lay);
                    let xh = (x - self.running_mean[c]) / (self.running_var[c] + EPS).sqrt();
                    *o = self.gamma.value.as_slice()[c] * xh + self.beta.value.as_slice()[c];
                }
                // Eval invalidates the tape (capacity retained).
                self.cache.xhat.reuse_as(&[0]);
            }
        }
        out
    }

    fn backward_ws(&mut self, grad_out: &Tensor, ws: &mut Workspace) -> Tensor {
        assert!(
            !self.cache.xhat.is_empty(),
            "backward called before training-mode forward on batch_norm"
        );
        let mut ghat = ws.take_copy(grad_out, grad_out.dims());
        normalize_backward(
            &mut ghat,
            &self.cache,
            &mut self.gamma,
            &mut self.beta,
            self.cache.lay.c,
            |_, c| c,
            &mut self.scratch,
        );
        ghat
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.gamma);
        f(&mut self.beta);
    }

    fn name(&self) -> &'static str {
        "batch_norm"
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

impl std::fmt::Debug for BatchNorm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BatchNorm")
            .field("num_features", &self.num_features)
            .finish()
    }
}

macro_rules! sample_group_norm {
    ($(#[$doc:meta])* $ty:ident, $tag:literal, $n_groups:expr, $group_of:expr) => {
        $(#[$doc])*
        #[derive(Clone)]
        pub struct $ty {
            num_features: usize,
            groups: usize,
            gamma: Param,
            beta: Param,
            cache: NormCache,
            scratch: NormScratch,
        }

        norm_common_impl!($ty);

        impl Layer for $ty {
            fn forward_ws(&mut self, input: &Tensor, _mode: Mode, ws: &mut Workspace) -> Tensor {
                let lay = layout(input, self.num_features);
                let n_groups = ($n_groups)(&lay, self.groups);
                let gof = ($group_of)(lay, self.groups);
                normalize(input, &lay, n_groups, &gof, &mut self.cache, &mut self.scratch);
                let mut out = ws.take_tensor(input.dims());
                apply_affine(&self.cache.xhat, &lay, &self.gamma.value, &self.beta.value, &mut out);
                out
            }

            fn backward_ws(&mut self, grad_out: &Tensor, ws: &mut Workspace) -> Tensor {
                assert!(
                    !self.cache.xhat.is_empty(),
                    concat!("backward called before forward on ", $tag)
                );
                let lay = self.cache.lay;
                let n_groups = ($n_groups)(&lay, self.groups);
                let gof = ($group_of)(lay, self.groups);
                let mut ghat = ws.take_copy(grad_out, grad_out.dims());
                normalize_backward(
                    &mut ghat,
                    &self.cache,
                    &mut self.gamma,
                    &mut self.beta,
                    n_groups,
                    &gof,
                    &mut self.scratch,
                );
                ghat
            }

            fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
                f(&mut self.gamma);
                f(&mut self.beta);
            }

            fn name(&self) -> &'static str {
                $tag
            }

            fn clone_box(&self) -> Box<dyn Layer> {
                Box::new(self.clone())
            }
        }

        impl std::fmt::Debug for $ty {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                f.debug_struct(stringify!($ty))
                    .field("num_features", &self.num_features)
                    .finish()
            }
        }
    };
}

sample_group_norm!(
    /// Layer normalization: statistics per sample across all features.
    LayerNorm,
    "layer_norm",
    |lay: &NormLayout, _g: usize| lay.n,
    |_lay: NormLayout, _g: usize| move |n: usize, _c: usize| n
);

impl LayerNorm {
    /// Creates layer normalization with per-channel affine parameters.
    pub fn new(num_features: usize) -> Self {
        LayerNorm {
            num_features,
            groups: 1,
            gamma: Param::new(Tensor::ones(&[num_features]), ParamKind::NormGain),
            beta: Param::new(Tensor::zeros(&[num_features]), ParamKind::NormBias),
            cache: NormCache::default(),
            scratch: NormScratch::default(),
        }
    }
}

sample_group_norm!(
    /// Instance normalization: statistics per sample *and* channel (over the
    /// spatial extent; equivalent to layer norm for rank-2 inputs).
    InstanceNorm,
    "instance_norm",
    |lay: &NormLayout, _g: usize| if lay.s == 1 { lay.n } else { lay.n * lay.c },
    |lay: NormLayout, _g: usize| move |n: usize, c: usize| {
        if lay.s == 1 {
            n
        } else {
            n * lay.c + c
        }
    }
);

impl InstanceNorm {
    /// Creates instance normalization with per-channel affine parameters.
    pub fn new(num_features: usize) -> Self {
        InstanceNorm {
            num_features,
            groups: 1,
            gamma: Param::new(Tensor::ones(&[num_features]), ParamKind::NormGain),
            beta: Param::new(Tensor::zeros(&[num_features]), ParamKind::NormBias),
            cache: NormCache::default(),
            scratch: NormScratch::default(),
        }
    }
}

sample_group_norm!(
    /// Group normalization: channels are split into groups; statistics per
    /// sample and group.
    GroupNorm,
    "group_norm",
    |lay: &NormLayout, g: usize| lay.n * g,
    |lay: NormLayout, g: usize| move |n: usize, c: usize| {
        let per_group = lay.c.div_ceil(g);
        n * g + c / per_group
    }
);

impl GroupNorm {
    /// Creates group normalization with `groups` channel groups.
    ///
    /// # Panics
    ///
    /// Panics if `groups` is zero or exceeds `num_features`.
    pub fn new(num_features: usize, groups: usize) -> Self {
        assert!(
            groups > 0 && groups <= num_features,
            "groups must be in 1..={num_features}, got {groups}"
        );
        GroupNorm {
            num_features,
            groups,
            gamma: Param::new(Tensor::ones(&[num_features]), ParamKind::NormGain),
            beta: Param::new(Tensor::zeros(&[num_features]), ParamKind::NormBias),
            cache: NormCache::default(),
            scratch: NormScratch::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GradCheck;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn sample_input() -> Tensor {
        let mut rng = ChaCha8Rng::seed_from_u64(42);
        Tensor::randn(&[4, 6], 1.0, 2.0, &mut rng)
    }

    #[test]
    fn batch_norm_normalizes_columns_in_train() {
        let mut bn = BatchNorm::new(6);
        let y = bn.forward(&sample_input(), Mode::Train);
        for c in 0..6 {
            let col: Vec<f32> = (0..4).map(|n| y.at(&[n, c])).collect();
            let mean: f32 = col.iter().sum::<f32>() / 4.0;
            let var: f32 = col.iter().map(|v| (v - mean).powi(2)).sum::<f32>() / 4.0;
            assert!(mean.abs() < 1e-4, "col {c} mean {mean}");
            assert!((var - 1.0).abs() < 1e-2, "col {c} var {var}");
        }
    }

    #[test]
    fn batch_norm_eval_uses_running_stats() {
        let mut bn = BatchNorm::new(2);
        let x = Tensor::from_vec(vec![0.0, 10.0, 2.0, 20.0], &[2, 2]).unwrap();
        for _ in 0..200 {
            let _ = bn.forward(&x, Mode::Train);
        }
        // Running mean converges to the batch mean [1, 15].
        assert!((bn.running_mean()[0] - 1.0).abs() < 0.05);
        assert!((bn.running_mean()[1] - 15.0).abs() < 0.5);
        let y = bn.forward(&x, Mode::Eval);
        // Eval output is deterministic and finite.
        assert!(y.as_slice().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn layer_norm_normalizes_rows() {
        let mut ln = LayerNorm::new(6);
        let y = ln.forward(&sample_input(), Mode::Train);
        for n in 0..4 {
            let row = y.row(n);
            let mean: f32 = row.iter().sum::<f32>() / 6.0;
            assert!(mean.abs() < 1e-4, "row {n} mean {mean}");
        }
    }

    #[test]
    fn group_norm_rank4_groups_channels() {
        let mut gn = GroupNorm::new(4, 2);
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let x = Tensor::randn(&[2, 4, 3, 3], 5.0, 3.0, &mut rng);
        let y = gn.forward(&x, Mode::Train);
        // Each (sample, group) block has ~zero mean.
        for n in 0..2 {
            for g in 0..2 {
                let mut sum = 0.0;
                for c in (g * 2)..(g * 2 + 2) {
                    for h in 0..3 {
                        for w in 0..3 {
                            sum += y.at(&[n, c, h, w]);
                        }
                    }
                }
                assert!(
                    sum.abs() / 18.0 < 1e-3,
                    "block ({n},{g}) mean {}",
                    sum / 18.0
                );
            }
        }
    }

    #[test]
    fn instance_norm_rank4_normalizes_each_channel_map() {
        let mut inorm = InstanceNorm::new(3);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let x = Tensor::randn(&[2, 3, 4, 4], -2.0, 1.5, &mut rng);
        let y = inorm.forward(&x, Mode::Train);
        for n in 0..2 {
            for c in 0..3 {
                let mut sum = 0.0;
                for h in 0..4 {
                    for w in 0..4 {
                        sum += y.at(&[n, c, h, w]);
                    }
                }
                assert!(sum.abs() / 16.0 < 1e-3);
            }
        }
    }

    #[test]
    fn norm_gradients_match_finite_differences() {
        let gc = GradCheck::new().eps(1e-2);
        let x = sample_input();
        let mut layers: Vec<Box<dyn Layer>> = vec![
            Box::new(BatchNorm::new(6)),
            Box::new(LayerNorm::new(6)),
            Box::new(InstanceNorm::new(6)),
            Box::new(GroupNorm::new(6, 3)),
        ];
        for layer in &mut layers {
            let err = gc.max_input_error(layer.as_mut(), &x);
            assert!(err < 5e-2, "{}: input grad error {err}", layer.name());
            let perr = gc.max_param_error(layer.as_mut(), &x);
            assert!(perr < 5e-2, "{}: param grad error {perr}", layer.name());
        }
    }

    #[test]
    fn norm_kind_builds_expected_layers() {
        assert_eq!(NormKind::None.build(4).name(), "identity");
        assert_eq!(NormKind::Batch.build(4).name(), "batch_norm");
        assert_eq!(NormKind::Group.build(4).name(), "group_norm");
        assert_eq!(NormKind::all().len(), 5);
    }

    #[test]
    #[should_panic(expected = "groups must be in")]
    fn group_norm_rejects_bad_groups() {
        let _ = GroupNorm::new(4, 8);
    }
}
