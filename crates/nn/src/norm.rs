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
//! | group    | `(n, g)` over `⌈D/G⌉` feats | `(n, g)` over `⌈C/G⌉ · H · W` |
//!
//! Group norm uses `G = min(4, C)` groups; when `G` does not divide `C`,
//! the last group of each sample is smaller. Only batch norm keeps running
//! statistics, and only it normalizes differently in evaluation mode.
//!
//! The affine parameters are ordinary [`Param`]s, so ReRAM drift injection
//! perturbs them — which is exactly the mechanism behind the paper's
//! "Achilles heel" finding that normalization *hurts* drift robustness.

use serde::{Deserialize, Serialize};
use tensor::Tensor;

use crate::{Layer, Mode, Param, Workspace};

const EPS: f32 = 1e-5;
/// Weight of the newest batch in batch norm's running statistics.
const MOMENTUM: f32 = 0.1;
/// Group norm's channel groups per sample (fewer for fewer channels).
const GROUPS: usize = 4;

/// Selects a normalization scheme when building parameterized models
/// (Fig. 2(b) ablation).
///
/// # Example
///
/// ```
/// use nn::{Mode, NormKind};
/// use tensor::Tensor;
///
/// let mut bn = NormKind::Batch.build(3);
/// let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 5.0, 6.0, 7.0], &[2, 3])?;
/// let y = bn.forward(&x, Mode::Train);
/// // Each column is normalized to zero mean.
/// assert!((y.at(&[0, 0]) + y.at(&[1, 0])).abs() < 1e-4);
/// assert_eq!(bn.name(), "batch_norm");
/// # Ok::<(), tensor::TensorError>(())
/// ```
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
    /// Group normalization (Wu & He) with `min(4, C)` groups.
    Group,
}

impl NormKind {
    /// Instantiates the corresponding layer for `num_features` channels.
    pub fn build(self, num_features: usize) -> Box<dyn Layer> {
        match self {
            NormKind::None => Box::new(crate::Identity::new()),
            kind => Box::new(Norm::new(kind, num_features)),
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

    /// The printed name, which is also the built layer's [`Layer::name`].
    const fn name(self) -> &'static str {
        match self {
            NormKind::None => "none",
            NormKind::Batch => "batch_norm",
            NormKind::Layer => "layer_norm",
            NormKind::Instance => "instance_norm",
            NormKind::Group => "group_norm",
        }
    }
}

impl std::fmt::Display for NormKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
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
    /// Elements per group, which differ when groups split unevenly.
    count: Vec<usize>,
    lay: NormLayout,
}

/// Persistent per-layer scratch for the group statistics of both passes
/// (grown once, reused across steps — part of the allocation-free path).
#[derive(Debug, Clone, Default)]
struct NormScratch {
    sum: Vec<f64>,
    sum_sq: Vec<f64>,
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
    reset(&mut cache.count, n_groups);
    reset(&mut scratch.mean, n_groups);
    reset(&mut cache.inv_std, n_groups);
    for (i, &v) in x.as_slice().iter().enumerate() {
        let (n, c) = coords(i, lay);
        let g = group_of(n, c);
        scratch.sum[g] += v as f64;
        scratch.sum_sq[g] += (v as f64) * (v as f64);
        cache.count[g] += 1;
    }
    for g in 0..n_groups {
        let count = cache.count[g].max(1) as f64;
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
    for grp in 0..n_groups {
        let m = cache.count[grp].max(1) as f64;
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

/// Group count and group-of-element map for `kind` on `lay`: element
/// `(n, c)` falls in group `n · per_sample + c / per_group` (batch norm's
/// groups span the batch, so it has no per-sample stride).
fn grouping(kind: NormKind, lay: &NormLayout) -> (usize, impl Fn(usize, usize) -> usize) {
    let (n_groups, per_sample, per_group) = match kind {
        NormKind::Batch => (lay.c, 0, 1),
        NormKind::Instance if lay.s > 1 => (lay.n * lay.c, lay.c, 1),
        NormKind::Layer | NormKind::Instance => (lay.n, 1, lay.c),
        NormKind::Group => {
            let g = GROUPS.min(lay.c);
            (lay.n * g, g, lay.c.div_ceil(g))
        }
        NormKind::None => unreachable!("NormKind::None builds an identity layer"),
    };
    (n_groups, move |n: usize, c: usize| {
        n * per_sample + c / per_group
    })
}

/// The layer every [`NormKind`] but `None` builds.
#[derive(Clone)]
struct Norm {
    kind: NormKind,
    num_features: usize,
    gamma: Param,
    beta: Param,
    /// Per-channel running estimates; empty unless `kind` is `Batch`.
    running_mean: Vec<f32>,
    running_var: Vec<f32>,
    cache: NormCache,
    scratch: NormScratch,
}

impl Norm {
    fn new(kind: NormKind, num_features: usize) -> Self {
        let running = |init: f32| match kind {
            NormKind::Batch => vec![init; num_features],
            _ => Vec::new(),
        };
        Norm {
            kind,
            num_features,
            gamma: Param::new(Tensor::ones(&[num_features])),
            beta: Param::new(Tensor::zeros(&[num_features])),
            running_mean: running(0.0),
            running_var: running(1.0),
            cache: NormCache::default(),
            scratch: NormScratch::default(),
        }
    }

    /// Folds the batch statistics of the last `normalize` over `input`
    /// into the running estimates.
    fn update_running_stats(&mut self, input: &Tensor, lay: &NormLayout) {
        // Recover the batch variances from the inverse stds.
        for c in 0..lay.c {
            let inv = self.cache.inv_std[c];
            let var = 1.0 / (inv * inv) - EPS;
            self.running_var[c] = (1.0 - MOMENTUM) * self.running_var[c] + MOMENTUM * var;
        }
        // Batch means via a direct f32 pass (`normalize` keeps f64 means);
        // its per-channel element counts are reused.
        let mean = &mut self.scratch.mean;
        reset(mean, lay.c);
        for (i, &v) in input.as_slice().iter().enumerate() {
            let (_, c) = coords(i, lay);
            mean[c] += v;
        }
        for (c, m) in mean.iter_mut().enumerate() {
            *m /= self.cache.count[c].max(1) as f32;
            self.running_mean[c] = (1.0 - MOMENTUM) * self.running_mean[c] + MOMENTUM * *m;
        }
    }
}

impl Layer for Norm {
    fn forward_ws(&mut self, input: &Tensor, mode: Mode, ws: &mut Workspace) -> Tensor {
        let lay = layout(input, self.num_features);
        let mut out = ws.take_tensor(input.dims());
        if self.kind == NormKind::Batch && mode == Mode::Eval {
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
            return out;
        }
        let (n_groups, group_of) = grouping(self.kind, &lay);
        normalize(
            input,
            &lay,
            n_groups,
            group_of,
            &mut self.cache,
            &mut self.scratch,
        );
        if self.kind == NormKind::Batch {
            self.update_running_stats(input, &lay);
        }
        apply_affine(
            &self.cache.xhat,
            &lay,
            &self.gamma.value,
            &self.beta.value,
            &mut out,
        );
        out
    }

    fn backward_ws(&mut self, grad_out: &Tensor, ws: &mut Workspace) -> Tensor {
        assert!(
            !self.cache.xhat.is_empty(),
            "backward called before a training-mode forward on {}",
            self.kind
        );
        let (n_groups, group_of) = grouping(self.kind, &self.cache.lay);
        let mut ghat = ws.take_copy(grad_out, grad_out.dims());
        normalize_backward(
            &mut ghat,
            &self.cache,
            &mut self.gamma,
            &mut self.beta,
            n_groups,
            group_of,
            &mut self.scratch,
        );
        ghat
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.gamma);
        f(&mut self.beta);
    }

    fn name(&self) -> &'static str {
        self.kind.name()
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
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
        let mut bn = NormKind::Batch.build(6);
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
        let mut bn = NormKind::Batch.build(2);
        let x = Tensor::from_vec(vec![0.0, 10.0, 2.0, 20.0], &[2, 2]).unwrap();
        for _ in 0..200 {
            let _ = bn.forward(&x, Mode::Train);
        }
        // The running statistics converge to the batch's mean [1, 15] and
        // variance [1, 25], so a lone eval row is scaled by them (batch
        // statistics of one row would map it to zero).
        let row = Tensor::from_vec(vec![0.0, 10.0], &[1, 2]).unwrap();
        let y = bn.forward(&row, Mode::Eval);
        for (v, want) in y.as_slice().iter().zip([-1.0, -1.0]) {
            assert!((v - want).abs() < 1e-3, "eval output {v}, want {want}");
        }
    }

    #[test]
    fn layer_norm_normalizes_rows() {
        let mut ln = NormKind::Layer.build(6);
        let y = ln.forward(&sample_input(), Mode::Train);
        for n in 0..4 {
            let row = y.row(n);
            let mean: f32 = row.iter().sum::<f32>() / 6.0;
            assert!(mean.abs() < 1e-4, "row {n} mean {mean}");
        }
    }

    #[test]
    fn group_norm_rank4_groups_channels() {
        let mut gn = NormKind::Group.build(8);
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let x = Tensor::randn(&[2, 8, 3, 3], 5.0, 3.0, &mut rng);
        let y = gn.forward(&x, Mode::Train);
        // Four groups of two channels; each (sample, group) block has
        // ~zero mean.
        for n in 0..2 {
            for g in 0..4 {
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
        let mut inorm = NormKind::Instance.build(3);
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

    fn assert_gradients_match(mut layer: Box<dyn Layer>, x: &Tensor) {
        let gc = GradCheck::new().eps(1e-2);
        let err = gc.max_input_error(layer.as_mut(), x);
        assert!(err < 5e-2, "{}: input grad error {err}", layer.name());
        let perr = gc.max_param_error(layer.as_mut(), x);
        assert!(perr < 5e-2, "{}: param grad error {perr}", layer.name());
    }

    #[test]
    fn norm_gradients_match_finite_differences() {
        for kind in NormKind::all() {
            assert_gradients_match(kind.build(6), &sample_input());
        }
    }

    /// Five channels split 2 + 2 + 1 and ten split 3 + 3 + 3 + 1, so each
    /// group's gradient must be averaged over its own element count.
    #[test]
    fn group_norm_gradients_match_finite_differences_for_uneven_groups() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        for n in [5, 10] {
            let x = Tensor::randn(&[4, n], 1.0, 2.0, &mut rng);
            assert_gradients_match(NormKind::Group.build(n), &x);
        }
    }

    #[test]
    fn norm_kind_builds_expected_layers() {
        assert_eq!(NormKind::None.build(4).name(), "identity");
        for kind in NormKind::all().into_iter().skip(1) {
            assert_eq!(kind.build(4).name(), kind.to_string());
        }
        assert_eq!(NormKind::Batch.to_string(), "batch_norm");
        assert_eq!(NormKind::Group.to_string(), "group_norm");
        assert_eq!(NormKind::all().len(), 5);
    }
}
