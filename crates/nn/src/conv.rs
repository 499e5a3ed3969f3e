//! Convolution, pooling and flattening layers over `[N, C, H, W]` tensors.

use rand::Rng;
use tensor::{
    col2im_into, gemm_into, gemm_nt_acc_into, gemm_tn_into, im2col_into, Conv2dSpec, Pool2dSpec,
    Tensor,
};

use crate::{Layer, Mode, Param, Workspace};

/// Refreshes `dims` in place, avoiding the `to_vec` allocation when the
/// cached extents are already current (the steady-state training case).
fn cache_dims(slot: &mut Vec<usize>, dims: &[usize]) {
    if slot.as_slice() != dims {
        slot.clear();
        slot.extend_from_slice(dims);
    }
}

/// Output columns one chunk of a convolution lowers and multiplies at a
/// time: `g = max(1, ⌊CHUNK_COLUMNS / (OH·OW)⌋)` samples.
const CHUNK_COLUMNS: usize = 256;

/// Samples per chunk for an `ohw`-output map (see [`CHUNK_COLUMNS`]).
fn samples_per_chunk(ohw: usize) -> usize {
    (CHUNK_COLUMNS / ohw).max(1)
}

/// Grows `buf` to at least `len` elements; it never shrinks, so a layer
/// buffer reaches its high-water mark once and is reused in place.
fn grow(buf: &mut Vec<f32>, len: usize) {
    if buf.len() < len {
        buf.resize(len, 0.0);
    }
}

/// 2-D convolution lowered to `im2col` + matmul.
///
/// Input `[N, C, H, W]`, output `[N, OC, OH, OW]`. Weights are stored as a
/// `[OC, C·k·k]` matrix, He-normal initialized.
///
/// # Chunks
///
/// The batch is processed `g = max(1, ⌊256 / (OH·OW)⌋)` samples at a
/// time: a chunk's images lower side by side into `[C·k·k, g·OH·OW]`,
/// and the forward product `W·cols` and the backward `Wᵀ·G` are one gemm
/// per chunk. The gemm kernel adds every output element's terms in
/// ascending `k` whatever the column count, so a chunked step computes
/// the same bits as a per-sample one. `dW` is one accumulating product
/// per chunk, `dW += Σ_s G_s·col_sᵀ` with one segment per sample: each
/// sample's product is rounded on its own and added into `dW` in sample
/// order, as a `grad·colᵀ` product per sample would be.
///
/// The chunks' patch matrices form the layer's `backward` tape. It and
/// the chunk's gemm output (reused as the gathered output gradient `G`)
/// are layer-owned buffers that grow to the largest batch once and are
/// reused in place after that. `backward`
/// writes each chunk's `Wᵀ·G` over its spent patch matrices, so it
/// consumes the tape. [`Layer::backward_params_ws`] skips `Wᵀ·G` and
/// `col2im` but consumes the tape all the same. An eval forward lowers
/// each chunk into the start of the same tape and then invalidates it. A
/// `backward` needs a fresh train-mode forward and panics otherwise.
///
/// # Example
///
/// ```
/// use nn::{Conv2d, Layer, Mode};
/// use rand::SeedableRng;
/// use rand_chacha::ChaCha8Rng;
/// use tensor::Tensor;
///
/// let mut rng = ChaCha8Rng::seed_from_u64(0);
/// let mut conv = Conv2d::new(3, 8, 3, 1, 1, &mut rng);
/// let y = conv.forward(&Tensor::ones(&[2, 3, 8, 8]), Mode::Eval);
/// assert_eq!(y.dims(), &[2, 8, 8, 8]);
/// ```
#[derive(Clone)]
pub struct Conv2d {
    spec: Conv2dSpec,
    weight: Param,
    bias: Param,
    /// Patch matrices, chunk after chunk: `[patch, g·OH·OW]` each.
    tape: Vec<f32>,
    /// One chunk's `W·cols` (forward) or gathered output gradient `G`
    /// (backward): `[OC, g·OH·OW]`.
    mix: Vec<f32>,
    input_hw: (usize, usize),
    batch: usize,
}

impl Conv2d {
    /// Creates a convolution layer with a square `kernel`, given `stride`
    /// and `padding`.
    ///
    /// # Panics
    ///
    /// Panics if `kernel` or `stride` is zero.
    pub fn new(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
        rng: &mut impl Rng,
    ) -> Self {
        let spec = Conv2dSpec::new(in_channels, out_channels, kernel, stride, padding);
        let fan_in = spec.patch_len();
        let weight = Tensor::he_normal(&[out_channels, fan_in], fan_in, rng);
        Conv2d {
            spec,
            weight: Param::new(weight),
            bias: Param::new(Tensor::zeros(&[out_channels])),
            tape: Vec::new(),
            mix: Vec::new(),
            input_hw: (0, 0),
            batch: 0,
        }
    }

    /// The convolution geometry.
    pub fn spec(&self) -> &Conv2dSpec {
        &self.spec
    }
}

impl Layer for Conv2d {
    fn forward_ws(&mut self, input: &Tensor, mode: Mode, ws: &mut Workspace) -> Tensor {
        assert_eq!(input.rank(), 4, "conv2d expects [N, C, H, W] input");
        let (n, c, h, w) = (
            input.dims()[0],
            input.dims()[1],
            input.dims()[2],
            input.dims()[3],
        );
        assert_eq!(c, self.spec.in_channels, "conv2d channel mismatch");
        let (oh, ow) = self.spec.output_hw(h, w);
        let (oc, patch, ohw) = (self.spec.out_channels, self.spec.patch_len(), oh * ow);
        let g = samples_per_chunk(ohw).min(n).max(1);
        let train = mode == Mode::Train;
        // Train keeps every chunk for backward; eval reuses the first slot.
        grow(&mut self.tape, patch * ohw * if train { n } else { g });
        grow(&mut self.mix, oc * g * ohw);
        let mut out = ws.take_tensor(&[n, oc, oh, ow]);
        let in_len = c * h * w;
        for s0 in (0..n).step_by(g) {
            let gc = g.min(n - s0);
            let cols = gc * ohw;
            let at = if train { s0 * patch * ohw } else { 0 };
            let chunk = &mut self.tape[at..][..patch * cols];
            let images = &input.as_slice()[s0 * in_len..][..gc * in_len];
            im2col_into(images, chunk, &self.spec, gc, h, w);
            let mix = &mut self.mix[..oc * cols];
            gemm_into(self.weight.value.as_slice(), chunk, mix, oc, patch, cols);
            // Sample s's map `och` is columns `s·ohw..` of row `och`.
            let dst = &mut out.as_mut_slice()[s0 * oc * ohw..][..gc * oc * ohw];
            for (och, (row, &b)) in mix
                .chunks_exact(cols)
                .zip(self.bias.value.as_slice())
                .enumerate()
            {
                for (s, src) in row.chunks_exact(ohw).enumerate() {
                    for (d, &v) in dst[(s * oc + och) * ohw..][..ohw].iter_mut().zip(src) {
                        *d = v + b;
                    }
                }
            }
        }
        self.input_hw = (h, w);
        self.batch = if train { n } else { 0 };
        out
    }

    fn backward_ws(&mut self, grad_out: &Tensor, ws: &mut Workspace) -> Tensor {
        self.backward_pass(grad_out, ws, true)
            .expect("input gradient requested")
    }

    fn backward_params_ws(&mut self, grad_out: &Tensor, ws: &mut Workspace) {
        self.backward_pass(grad_out, ws, false);
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.weight);
        f(&mut self.bias);
    }

    fn name(&self) -> &'static str {
        "conv2d"
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

impl Conv2d {
    /// The one backward body: accumulates `dW` and `db` and consumes the
    /// tape; with `need_input_grad` it also computes and returns the input
    /// gradient, chunk by chunk, as `Wᵀ·G` scattered by `col2im`.
    fn backward_pass(
        &mut self,
        grad_out: &Tensor,
        ws: &mut Workspace,
        need_input_grad: bool,
    ) -> Option<Tensor> {
        assert!(
            self.batch > 0,
            "conv2d backward without a fresh train forward (eval invalidates the tape, backward consumes it)"
        );
        let (h, w) = self.input_hw;
        let (oh, ow) = self.spec.output_hw(h, w);
        let (oc, c, n) = (self.spec.out_channels, self.spec.in_channels, self.batch);
        let (patch, ohw) = (self.spec.patch_len(), oh * ow);
        assert_eq!(grad_out.dims(), &[n, oc, oh, ow], "conv2d gradient shape");
        let g = samples_per_chunk(ohw).min(n);
        let mut grad_in = need_input_grad.then(|| ws.take_tensor(&[n, c, h, w]));
        let in_len = c * h * w;
        for s0 in (0..n).step_by(g) {
            let gc = g.min(n - s0);
            let cols = gc * ohw;
            let chunk = &mut self.tape[s0 * patch * ohw..][..patch * cols];
            let mix = &mut self.mix[..oc * cols];
            // Gather the chunk's G (sample s's map `och` into columns
            // `s·ohw..` of row `och`) and add db += row sums of g in
            // sample order.
            let grads = &grad_out.as_slice()[s0 * oc * ohw..][..gc * oc * ohw];
            for (s, gs) in grads.chunks_exact(oc * ohw).enumerate() {
                let biases = self.bias.grad.as_mut_slice().iter_mut();
                for (och, (gb, row)) in biases.zip(gs.chunks_exact(ohw)).enumerate() {
                    *gb += row.iter().sum::<f32>();
                    mix[och * cols + s * ohw..][..ohw].copy_from_slice(row);
                }
            }
            // dW += G_s · col_sᵀ for each sample s of the chunk in turn.
            let dw = self.weight.grad.as_mut_slice();
            gemm_nt_acc_into(mix, chunk, dw, oc, cols, patch, gc);
            let Some(grad_in) = grad_in.as_mut() else {
                continue;
            };
            // The chunk's patch matrices are spent: dcol = Wᵀ · G over the
            // whole chunk overwrites them, then scatters back per image.
            gemm_tn_into(self.weight.value.as_slice(), mix, chunk, patch, oc, cols);
            let images = &mut grad_in.as_mut_slice()[s0 * in_len..][..gc * in_len];
            col2im_into(chunk, images, &self.spec, gc, h, w);
        }
        self.batch = 0;
        grad_in
    }
}

impl std::fmt::Debug for Conv2d {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Conv2d").field("spec", &self.spec).finish()
    }
}

/// Max pooling over `[N, C, H, W]`.
#[derive(Debug, Clone)]
pub struct MaxPool2d {
    spec: Pool2dSpec,
    /// Sample-local argmax index of every train-mode output, `n·C·OH·OW`.
    argmax: Vec<usize>,
    input_dims: Vec<usize>,
}

impl MaxPool2d {
    /// Creates a max-pool layer with a square `window` and `stride`.
    ///
    /// # Panics
    ///
    /// Panics if `window` or `stride` is zero.
    pub fn new(window: usize, stride: usize) -> Self {
        MaxPool2d {
            spec: Pool2dSpec::new(window, stride),
            argmax: Vec::new(),
            input_dims: Vec::new(),
        }
    }
}

impl MaxPool2d {
    /// The shared window scan: pools every sample into `out`, recording
    /// argmax indices into the persistent tape (grown once, reused across
    /// steps) when training.
    fn pool_into(&mut self, input: &Tensor, out: &mut Tensor, mode: Mode) {
        assert_eq!(input.rank(), 4, "max_pool2d expects [N, C, H, W] input");
        let (n, c, h, w) = (
            input.dims()[0],
            input.dims()[1],
            input.dims()[2],
            input.dims()[3],
        );
        let (oh, ow) = self.spec.output_hw(h, w);
        let per_sample = c * h * w;
        let out_per_sample = c * oh * ow;
        if mode == Mode::Train {
            cache_dims(&mut self.input_dims, input.dims());
            self.argmax.resize(n * out_per_sample, 0);
        } else {
            // Eval invalidates the tape (capacity retained): a stray
            // backward fails loudly instead of using stale state.
            self.input_dims.clear();
        }
        let src = input.as_slice();
        let dst = out.as_mut_slice();
        for i in 0..n {
            let src_seg = &src[i * per_sample..(i + 1) * per_sample];
            let dst_seg = &mut dst[i * out_per_sample..(i + 1) * out_per_sample];
            // Eval never backpropagates: skip the argmax bookkeeping.
            let argmax = (mode == Mode::Train)
                .then(|| &mut self.argmax[i * out_per_sample..(i + 1) * out_per_sample]);
            tensor::max_pool2d_into(src_seg, dst_seg, &self.spec, c, h, w, argmax);
        }
    }

    fn output_dims(&self, input: &Tensor) -> [usize; 4] {
        let (oh, ow) = self.spec.output_hw(input.dims()[2], input.dims()[3]);
        [input.dims()[0], input.dims()[1], oh, ow]
    }
}

impl Layer for MaxPool2d {
    fn forward_ws(&mut self, input: &Tensor, mode: Mode, ws: &mut Workspace) -> Tensor {
        assert_eq!(input.rank(), 4, "max_pool2d expects [N, C, H, W] input");
        let mut out = ws.take_tensor(&self.output_dims(input));
        self.pool_into(input, &mut out, mode);
        out
    }

    fn backward_ws(&mut self, grad_out: &Tensor, ws: &mut Workspace) -> Tensor {
        assert!(
            !self.input_dims.is_empty(),
            "backward called before a training-mode forward on max_pool2d (eval invalidates the tape)"
        );
        let n = self.input_dims[0];
        let per_sample: usize = self.input_dims[1..].iter().product();
        let out_per_sample = grad_out.len() / n;
        let mut grad_in = ws.take_tensor(&self.input_dims);
        grad_in.as_mut_slice().fill(0.0);
        for i in 0..n {
            let g = &grad_out.as_slice()[i * out_per_sample..(i + 1) * out_per_sample];
            let gi = &mut grad_in.as_mut_slice()[i * per_sample..(i + 1) * per_sample];
            let argmax = &self.argmax[i * out_per_sample..(i + 1) * out_per_sample];
            for (&gv, &idx) in g.iter().zip(argmax) {
                gi[idx] += gv;
            }
        }
        grad_in
    }

    fn name(&self) -> &'static str {
        "max_pool2d"
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

/// Global average pooling: `[N, C, H, W] -> [N, C]`.
#[derive(Debug, Clone, Default)]
pub struct GlobalAvgPool {
    input_dims: Vec<usize>,
}

impl GlobalAvgPool {
    /// Creates a global average pooling layer.
    pub fn new() -> Self {
        GlobalAvgPool {
            input_dims: Vec::new(),
        }
    }
}

impl GlobalAvgPool {
    /// The channel-mean scan: averages every map into `out`.
    fn pool_into(&mut self, input: &Tensor, out: &mut Tensor, mode: Mode) {
        assert_eq!(input.rank(), 4, "global_avg_pool expects [N, C, H, W]");
        let (n, c, h, w) = (
            input.dims()[0],
            input.dims()[1],
            input.dims()[2],
            input.dims()[3],
        );
        if mode == Mode::Train {
            cache_dims(&mut self.input_dims, input.dims());
        } else {
            self.input_dims.clear(); // eval invalidates the tape
        }
        let s = (h * w) as f32;
        for i in 0..n {
            for ch in 0..c {
                let start = (i * c + ch) * h * w;
                let sum: f32 = input.as_slice()[start..start + h * w].iter().sum();
                out.as_mut_slice()[i * c + ch] = sum / s;
            }
        }
    }
}

impl Layer for GlobalAvgPool {
    fn forward_ws(&mut self, input: &Tensor, mode: Mode, ws: &mut Workspace) -> Tensor {
        assert_eq!(input.rank(), 4, "global_avg_pool expects [N, C, H, W]");
        let mut out = ws.take_tensor(&[input.dims()[0], input.dims()[1]]);
        self.pool_into(input, &mut out, mode);
        out
    }

    fn backward_ws(&mut self, grad_out: &Tensor, ws: &mut Workspace) -> Tensor {
        assert!(
            !self.input_dims.is_empty(),
            "backward called before forward on global_avg_pool"
        );
        let (n, c, h, w) = (
            self.input_dims[0],
            self.input_dims[1],
            self.input_dims[2],
            self.input_dims[3],
        );
        // Every element is written (`*v = g`), so the recycled buffer needs
        // no zero-fill.
        let mut grad_in = ws.take_tensor(&self.input_dims);
        let inv = 1.0 / (h * w) as f32;
        for i in 0..n {
            for ch in 0..c {
                let g = grad_out.as_slice()[i * c + ch] * inv;
                let start = (i * c + ch) * h * w;
                for v in &mut grad_in.as_mut_slice()[start..start + h * w] {
                    *v = g;
                }
            }
        }
        grad_in
    }

    fn name(&self) -> &'static str {
        "global_avg_pool"
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

/// Flattens `[N, ...]` to `[N, prod(...)]`.
#[derive(Debug, Clone, Default)]
pub struct Flatten {
    input_dims: Vec<usize>,
}

impl Flatten {
    /// Creates a flatten layer.
    pub fn new() -> Self {
        Flatten {
            input_dims: Vec::new(),
        }
    }
}

impl Layer for Flatten {
    fn forward_ws(&mut self, input: &Tensor, mode: Mode, ws: &mut Workspace) -> Tensor {
        if mode == Mode::Train {
            cache_dims(&mut self.input_dims, input.dims());
        } else {
            self.input_dims.clear(); // eval invalidates the tape
        }
        let n = input.dims()[0];
        let rest: usize = input.dims()[1..].iter().product();
        ws.take_copy(input, &[n, rest])
    }

    fn backward_ws(&mut self, grad_out: &Tensor, ws: &mut Workspace) -> Tensor {
        assert!(
            !self.input_dims.is_empty(),
            "backward called before forward on flatten"
        );
        ws.take_copy(grad_out, &self.input_dims)
    }

    fn name(&self) -> &'static str {
        "flatten"
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
    use tensor::gemm_nt_into;

    #[test]
    fn conv_output_shape() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let mut conv = Conv2d::new(1, 4, 3, 1, 0, &mut rng);
        let y = conv.forward(&Tensor::ones(&[2, 1, 5, 5]), Mode::Eval);
        assert_eq!(y.dims(), &[2, 4, 3, 3]);
    }

    #[test]
    fn conv_identity_kernel_reproduces_input() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let mut conv = Conv2d::new(1, 1, 1, 1, 0, &mut rng);
        // The [1, 1] kernel matrix becomes 1, the length-1 bias 0.
        conv.visit_params(&mut |p| match p.value.rank() {
            2 => p.value = Tensor::ones(&[1, 1]),
            _ => p.value = Tensor::zeros(&[1]),
        });
        let x = Tensor::from_vec((0..9).map(|v| v as f32).collect(), &[1, 1, 3, 3]).unwrap();
        let y = conv.forward(&x, Mode::Eval);
        assert_eq!(y.as_slice(), x.as_slice());
    }

    #[test]
    fn conv_gradients_match_finite_differences() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mut conv = Conv2d::new(2, 3, 3, 1, 1, &mut rng);
        let x = Tensor::randn(&[2, 2, 4, 4], 0.0, 1.0, &mut rng);
        let gc = GradCheck::new().eps(1e-2);
        let ierr = gc.max_input_error(&mut conv, &x);
        assert!(ierr < 5e-2, "input grad error {ierr}");
        let perr = gc.max_param_error(&mut conv, &x);
        assert!(perr < 5e-2, "param grad error {perr}");
    }

    #[test]
    fn strided_conv_gradients() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let mut conv = Conv2d::new(1, 2, 3, 2, 1, &mut rng);
        let x = Tensor::randn(&[1, 1, 5, 5], 0.0, 1.0, &mut rng);
        let gc = GradCheck::new().eps(1e-2);
        assert!(gc.max_input_error(&mut conv, &x) < 5e-2);
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// The per-sample step the chunked layer replaces: one im2col, one
    /// `W·col`, one `g·colᵀ`, one `Wᵀ·g` and one col2im per sample.
    /// Returns `(output, dW, db, dx)`.
    fn per_sample_reference(
        conv: &Conv2d,
        x: &Tensor,
        grad_out: &Tensor,
    ) -> (Vec<f32>, Vec<f32>, Vec<f32>, Vec<f32>) {
        let spec = *conv.spec();
        let (weight, bias) = (conv.weight.value.as_slice(), conv.bias.value.as_slice());
        let (n, h, w) = (x.dims()[0], x.dims()[2], x.dims()[3]);
        let (oh, ow) = spec.output_hw(h, w);
        let (oc, patch, ohw) = (spec.out_channels, spec.patch_len(), oh * ow);
        let in_len = spec.in_channels * h * w;
        let (mut out, mut dx) = (vec![0.0; n * oc * ohw], vec![0.0; n * in_len]);
        let (mut dw, mut db) = (vec![0.0f32; oc * patch], vec![0.0f32; oc]);
        let (mut col, mut y) = (vec![0.0; patch * ohw], vec![0.0; oc * ohw]);
        let (mut dw_i, mut dcol) = (vec![0.0; oc * patch], vec![0.0; patch * ohw]);
        for i in 0..n {
            im2col_into(
                &x.as_slice()[i * in_len..][..in_len],
                &mut col,
                &spec,
                1,
                h,
                w,
            );
            gemm_into(weight, &col, &mut y, oc, patch, ohw);
            for (j, v) in y.iter().enumerate() {
                out[i * oc * ohw + j] = v + bias[j / ohw];
            }
            let g = &grad_out.as_slice()[i * oc * ohw..][..oc * ohw];
            gemm_nt_into(g, &col, &mut dw_i, oc, ohw, patch);
            for (a, &d) in dw.iter_mut().zip(&dw_i) {
                *a += d;
            }
            for (och, b) in db.iter_mut().enumerate() {
                *b += g[och * ohw..][..ohw].iter().sum::<f32>();
            }
            gemm_tn_into(weight, g, &mut dcol, patch, oc, ohw);
            col2im_into(&dcol, &mut dx[i * in_len..][..in_len], &spec, 1, h, w);
        }
        (out, dw, db, dx)
    }

    /// Chunked train and eval forwards, weight/bias/input gradients all
    /// equal the per-sample step bit for bit, at batch sizes around the
    /// chunk size `g` for a 9-output (`g = 28`), a 196-output (`g = 1`)
    /// and three 64-output (`g = 4`) geometries, with the tape shrinking
    /// and regrowing between batches; so do the weight/bias gradients of
    /// `backward_params_ws`.
    #[test]
    fn chunked_conv_matches_per_sample_reference_bit_for_bit() {
        // (in, out, kernel, stride, padding, side): LeNet's conv2 on 7×7
        // maps (3×3 outputs) and conv1 on 14×14 digits (14×14 outputs);
        // then the Fig. 3 ResNets' downsampling 3×3 conv and 1×1 shortcut
        // (stride 2, 16×16 → 8×8) and a padded 3×3 conv on 8×8 maps.
        for (c, oc, k, stride, pad, side) in [
            (6, 16, 5, 1, 0, 7),
            (1, 6, 5, 1, 2, 14),
            (8, 16, 3, 2, 1, 16),
            (8, 16, 1, 2, 0, 16),
            (16, 16, 3, 1, 1, 8),
        ] {
            let mut rng = ChaCha8Rng::seed_from_u64(11);
            let mut conv = Conv2d::new(c, oc, k, stride, pad, &mut rng);
            conv.bias.value = Tensor::randn(&[oc], 0.0, 1.0, &mut rng);
            let (oh, ow) = conv.spec().output_hw(side, side);
            let g = samples_per_chunk(oh * ow);
            for n in [1, g - 1, g, g + 1, 2 * g + 3]
                .into_iter()
                .filter(|&n| n > 0)
            {
                let x = Tensor::randn(&[n, c, side, side], 0.0, 1.0, &mut rng);
                let grad_out = Tensor::randn(&[n, oc, oh, ow], 0.0, 1.0, &mut rng);
                let (out, dw, db, dx) = per_sample_reference(&conv, &x, &grad_out);
                let label = format!("{oh}x{ow} outputs, n = {n}");

                let eval = conv.forward(&x, Mode::Eval);
                assert_eq!(bits(eval.as_slice()), bits(&out), "eval output, {label}");
                conv.zero_grads();
                let train = conv.forward(&x, Mode::Train);
                assert_eq!(bits(train.as_slice()), bits(&out), "train output, {label}");
                let grad_in = conv.backward(&grad_out);
                assert_eq!(bits(grad_in.as_slice()), bits(&dx), "input grad, {label}");
                assert_eq!(bits(conv.weight.grad.as_slice()), bits(&dw), "dW, {label}");
                assert_eq!(bits(conv.bias.grad.as_slice()), bits(&db), "db, {label}");

                // The training step's backward leaves the same gradients.
                conv.zero_grads();
                let _ = conv.forward(&x, Mode::Train);
                conv.backward_params_ws(&grad_out, &mut Workspace::new());
                assert_eq!(
                    bits(conv.weight.grad.as_slice()),
                    bits(&dw),
                    "params dW, {label}"
                );
                assert_eq!(
                    bits(conv.bias.grad.as_slice()),
                    bits(&db),
                    "params db, {label}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "backward consumes it")]
    fn conv_backward_after_params_only_backward_panics() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let mut conv = Conv2d::new(6, 16, 5, 1, 0, &mut rng);
        let y = conv.forward(&Tensor::ones(&[30, 6, 7, 7]), Mode::Train);
        conv.backward_params_ws(&Tensor::ones(y.dims()), &mut Workspace::new());
        let _ = conv.backward(&Tensor::ones(y.dims()));
    }

    #[test]
    #[should_panic(expected = "eval invalidates the tape")]
    fn conv_backward_after_eval_forward_panics() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let mut conv = Conv2d::new(6, 16, 5, 1, 0, &mut rng);
        let x = Tensor::randn(&[4, 6, 7, 7], 0.0, 1.0, &mut rng);
        let _ = conv.forward(&x, Mode::Train);
        let y = conv.forward(&x, Mode::Eval);
        let _ = conv.backward(&Tensor::ones(y.dims()));
    }

    #[test]
    #[should_panic(expected = "backward consumes it")]
    fn conv_second_backward_panics() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let mut conv = Conv2d::new(1, 6, 5, 1, 2, &mut rng);
        let y = conv.forward(&Tensor::ones(&[2, 1, 14, 14]), Mode::Train);
        let _ = conv.backward(&Tensor::ones(y.dims()));
        let _ = conv.backward(&Tensor::ones(y.dims()));
    }

    #[test]
    fn max_pool_forward_and_backward() {
        let mut pool = MaxPool2d::new(2, 2);
        let x =
            Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 8.0, 7.0, 6.0, 5.0], &[2, 1, 2, 2]).unwrap();
        // Train mode: backward needs the argmax tape (eval skips it).
        let y = pool.forward(&x, Mode::Train);
        assert_eq!(y.as_slice(), &[4.0, 8.0]);
        let g = pool.backward(&Tensor::from_vec(vec![1.0, 1.0], &[2, 1, 1, 1]).unwrap());
        assert_eq!(g.as_slice(), &[0.0, 0.0, 0.0, 1.0, 1.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn global_avg_pool_averages_maps() {
        let mut gap = GlobalAvgPool::new();
        let x = Tensor::from_vec(vec![1.0, 3.0, 5.0, 7.0], &[1, 1, 2, 2]).unwrap();
        let y = gap.forward(&x, Mode::Train); // train: backward needs dims

        assert_eq!(y.dims(), &[1, 1]);
        assert_eq!(y.as_slice(), &[4.0]);
        let g = gap.backward(&Tensor::from_vec(vec![4.0], &[1, 1]).unwrap());
        assert_eq!(g.as_slice(), &[1.0, 1.0, 1.0, 1.0]);
    }

    #[test]
    fn flatten_round_trips() {
        let mut fl = Flatten::new();
        let x = Tensor::ones(&[2, 3, 4, 5]);
        let y = fl.forward(&x, Mode::Train); // train: backward needs dims
        assert_eq!(y.dims(), &[2, 60]);
        let g = fl.backward(&y);
        assert_eq!(g.dims(), &[2, 3, 4, 5]);
    }
}
