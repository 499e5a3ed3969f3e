//! Convolution, pooling and flattening layers over `[N, C, H, W]` tensors.

use rand::Rng;
use tensor::{
    col2im_into, gemm_into, gemm_nt_into, gemm_tn_into, im2col_into, Conv2dSpec, Pool2dSpec, Tensor,
};

use crate::{Layer, Mode, Param, ParamKind, Workspace};

/// Refreshes `dims` in place, avoiding the `to_vec` allocation when the
/// cached extents are already current (the steady-state training case).
fn cache_dims(slot: &mut Vec<usize>, dims: &[usize]) {
    if slot.as_slice() != dims {
        slot.clear();
        slot.extend_from_slice(dims);
    }
}

/// 2-D convolution lowered to `im2col` + matmul.
///
/// Input `[N, C, H, W]`, output `[N, OC, OH, OW]`. Weights are stored as a
/// `[OC, C·k·k]` matrix, He-normal initialized.
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
    cols: Vec<Tensor>,
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
            weight: Param::new(weight, ParamKind::Weight),
            bias: Param::new(Tensor::zeros(&[out_channels]), ParamKind::Bias),
            cols: Vec::new(),
            input_hw: (0, 0),
            batch: 0,
        }
    }

    /// The convolution geometry.
    pub fn spec(&self) -> &Conv2dSpec {
        &self.spec
    }

    /// Validates the input layout and returns `(n, c, h, w)`.
    fn check_input(&self, input: &Tensor) -> (usize, usize, usize, usize) {
        assert_eq!(input.rank(), 4, "conv2d expects [N, C, H, W] input");
        let (n, c, h, w) = (
            input.dims()[0],
            input.dims()[1],
            input.dims()[2],
            input.dims()[3],
        );
        assert_eq!(c, self.spec.in_channels, "conv2d channel mismatch");
        (n, c, h, w)
    }

    /// Lowers sample `i` into its persistent patch-matrix cache (grown
    /// once, reused across steps — the `backward` tape).
    fn refresh_col(&mut self, i: usize, src: &[f32], h: usize, w: usize) {
        let (oh, ow) = self.spec.output_hw(h, w);
        let dims = [self.spec.patch_len(), oh * ow];
        if self.cols.len() <= i {
            // lint:allow(R1, reason = "tape grows to the batch high-water mark once; steady-state steps take the reuse_as arm in place")
            self.cols.push(Tensor::zeros(&dims));
        } else {
            self.cols[i].reuse_as(&dims);
        }
        im2col_into(src, self.cols[i].as_mut_slice(), &self.spec, h, w);
    }

    /// Train-mode forward kernel: refreshes the per-sample im2col tapes and
    /// mixes outputs into `out`.
    fn train_forward_into(&mut self, input: &Tensor, out: &mut Tensor, y: &mut [f32]) {
        let (n, c, h, w) = self.check_input(input);
        let (oh, ow) = self.spec.output_hw(h, w);
        let per_sample = c * h * w;
        let out_per_sample = self.spec.out_channels * oh * ow;
        self.input_hw = (h, w);
        self.batch = n;
        for i in 0..n {
            self.refresh_col(
                i,
                &input.as_slice()[i * per_sample..(i + 1) * per_sample],
                h,
                w,
            );
            conv_mix_output(
                &self.weight.value,
                &self.bias.value,
                self.cols[i].as_slice(),
                y,
                &mut out.as_mut_slice()[i * out_per_sample..(i + 1) * out_per_sample],
                &self.spec,
                oh * ow,
            );
        }
    }

    /// Eval-mode forward kernel: lowers into caller-provided scratch and
    /// invalidates the training tape, so a stray `backward` fails loudly
    /// instead of using stale patch matrices from an earlier step.
    fn eval_forward_into(
        &mut self,
        input: &Tensor,
        out: &mut Tensor,
        y: &mut [f32],
        col: &mut [f32],
    ) {
        let (n, c, h, w) = self.check_input(input);
        let (oh, ow) = self.spec.output_hw(h, w);
        let per_sample = c * h * w;
        let out_per_sample = self.spec.out_channels * oh * ow;
        self.batch = 0;
        for i in 0..n {
            im2col_into(
                &input.as_slice()[i * per_sample..(i + 1) * per_sample],
                col,
                &self.spec,
                h,
                w,
            );
            conv_mix_output(
                &self.weight.value,
                &self.bias.value,
                col,
                y,
                &mut out.as_mut_slice()[i * out_per_sample..(i + 1) * out_per_sample],
                &self.spec,
                oh * ow,
            );
        }
    }
}

/// `y = W·col`, then `dst = y + bias` per output channel — the per-sample
/// mixing step shared by the train and eval forward kernels.
fn conv_mix_output(
    weight: &Tensor,
    bias: &Tensor,
    col: &[f32],
    y: &mut [f32],
    dst: &mut [f32],
    spec: &Conv2dSpec,
    ohw: usize,
) {
    let (oc, patch) = (spec.out_channels, spec.patch_len());
    gemm_into(weight.as_slice(), col, y, oc, patch, ohw);
    for och in 0..oc {
        let b = bias.as_slice()[och];
        let src = &y[och * ohw..(och + 1) * ohw];
        for (d, &s) in dst[och * ohw..(och + 1) * ohw].iter_mut().zip(src) {
            *d = s + b;
        }
    }
}

impl Layer for Conv2d {
    fn forward_ws(&mut self, input: &Tensor, mode: Mode, ws: &mut Workspace) -> Tensor {
        let (n, _, h, w) = self.check_input(input);
        let (oh, ow) = self.spec.output_hw(h, w);
        let (oc, patch) = (self.spec.out_channels, self.spec.patch_len());
        let mut out = ws.take_tensor(&[n, oc, oh, ow]);
        let mut y = ws.take(oc * oh * ow);
        match mode {
            Mode::Train => self.train_forward_into(input, &mut out, &mut y),
            Mode::Eval => {
                let mut col = ws.take(patch * oh * ow);
                self.eval_forward_into(input, &mut out, &mut y, &mut col);
                ws.recycle_vec(col);
            }
        }
        ws.recycle_vec(y);
        out
    }

    fn backward_ws(&mut self, grad_out: &Tensor, ws: &mut Workspace) -> Tensor {
        assert!(
            self.batch > 0 && !self.cols.is_empty(),
            "backward called before a training-mode forward on conv2d (eval invalidates the tape)"
        );
        let (h, w) = self.input_hw;
        let (oh, ow) = self.spec.output_hw(h, w);
        let oc = self.spec.out_channels;
        let c = self.spec.in_channels;
        let n = self.batch;
        let patch = self.spec.patch_len();
        assert_eq!(grad_out.dims(), &[n, oc, oh, ow], "conv2d gradient shape");
        let mut grad_in = ws.take_tensor(&[n, c, h, w]);
        let mut dw = ws.take(oc * patch);
        let mut dcol = ws.take(patch * oh * ow);
        let out_per_sample = oc * oh * ow;
        let in_per_sample = c * h * w;
        for i in 0..n {
            let g = &grad_out.as_slice()[i * out_per_sample..(i + 1) * out_per_sample];
            // dW += g · colᵀ ; db += row sums of g ; dcol = Wᵀ · g — each
            // partial product lands in workspace scratch first, then
            // accumulates (the same two-step arithmetic as the old
            // `add_assign(matmul_*)` form).
            gemm_nt_into(g, self.cols[i].as_slice(), &mut dw, oc, oh * ow, patch);
            for (gw, &d) in self.weight.grad.as_mut_slice().iter_mut().zip(&dw) {
                *gw += d;
            }
            for och in 0..oc {
                let row_sum: f32 = g[och * oh * ow..(och + 1) * oh * ow].iter().sum();
                self.bias.grad.as_mut_slice()[och] += row_sum;
            }
            gemm_tn_into(
                self.weight.value.as_slice(),
                g,
                &mut dcol,
                patch,
                oc,
                oh * ow,
            );
            col2im_into(
                &dcol,
                &mut grad_in.as_mut_slice()[i * in_per_sample..(i + 1) * in_per_sample],
                &self.spec,
                h,
                w,
            );
        }
        ws.recycle_vec(dw);
        ws.recycle_vec(dcol);
        grad_in
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

impl std::fmt::Debug for Conv2d {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Conv2d").field("spec", &self.spec).finish()
    }
}

/// Max pooling over `[N, C, H, W]`.
#[derive(Debug, Clone)]
pub struct MaxPool2d {
    spec: Pool2dSpec,
    argmax: Vec<Vec<usize>>,
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
    /// argmax indices into the persistent per-sample buffers (grown once,
    /// reused across steps) when training.
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
            if mode == Mode::Train {
                if self.argmax.len() <= i {
                    // lint:allow(R1, reason = "argmax tape grows to the batch high-water mark once; steady state resizes in place")
                    self.argmax.push(vec![0; out_per_sample]);
                } else {
                    self.argmax[i].resize(out_per_sample, 0);
                }
                tensor::max_pool2d_into(
                    src_seg,
                    dst_seg,
                    &self.spec,
                    c,
                    h,
                    w,
                    Some(&mut self.argmax[i]),
                );
            } else {
                // Eval never backpropagates: skip the argmax bookkeeping.
                tensor::max_pool2d_into(src_seg, dst_seg, &self.spec, c, h, w, None);
            }
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
            !self.argmax.is_empty() && !self.input_dims.is_empty(),
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
            for (&gv, &idx) in g.iter().zip(&self.argmax[i]) {
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

/// Average pooling over `[N, C, H, W]`.
#[derive(Debug, Clone)]
pub struct AvgPool2d {
    spec: Pool2dSpec,
    input_dims: Vec<usize>,
}

impl AvgPool2d {
    /// Creates an average-pool layer with a square `window` and `stride`.
    ///
    /// # Panics
    ///
    /// Panics if `window` or `stride` is zero.
    pub fn new(window: usize, stride: usize) -> Self {
        AvgPool2d {
            spec: Pool2dSpec::new(window, stride),
            input_dims: Vec::new(),
        }
    }
}

impl AvgPool2d {
    /// The window scan: pools every sample into `out`.
    fn pool_into(&mut self, input: &Tensor, out: &mut Tensor, mode: Mode) {
        assert_eq!(input.rank(), 4, "avg_pool2d expects [N, C, H, W] input");
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
        let per_sample = c * h * w;
        let out_per_sample = out.len() / n;
        let src = input.as_slice();
        let dst = out.as_mut_slice();
        for i in 0..n {
            tensor::avg_pool2d_into(
                &src[i * per_sample..(i + 1) * per_sample],
                &mut dst[i * out_per_sample..(i + 1) * out_per_sample],
                &self.spec,
                c,
                h,
                w,
            );
        }
    }

    fn output_dims(&self, input: &Tensor) -> [usize; 4] {
        let (oh, ow) = self.spec.output_hw(input.dims()[2], input.dims()[3]);
        [input.dims()[0], input.dims()[1], oh, ow]
    }
}

impl Layer for AvgPool2d {
    fn forward_ws(&mut self, input: &Tensor, mode: Mode, ws: &mut Workspace) -> Tensor {
        assert_eq!(input.rank(), 4, "avg_pool2d expects [N, C, H, W] input");
        let mut out = ws.take_tensor(&self.output_dims(input));
        self.pool_into(input, &mut out, mode);
        out
    }

    fn backward_ws(&mut self, grad_out: &Tensor, ws: &mut Workspace) -> Tensor {
        assert!(
            !self.input_dims.is_empty(),
            "backward called before forward on avg_pool2d"
        );
        let n = self.input_dims[0];
        let (c, h, w) = (self.input_dims[1], self.input_dims[2], self.input_dims[3]);
        let (oh, ow) = self.spec.output_hw(h, w);
        let per_sample = c * h * w;
        let out_per_sample = c * oh * ow;
        let mut grad_in = ws.take_tensor(&self.input_dims);
        for i in 0..n {
            tensor::avg_pool2d_backward_into(
                &grad_out.as_slice()[i * out_per_sample..(i + 1) * out_per_sample],
                &mut grad_in.as_mut_slice()[i * per_sample..(i + 1) * per_sample],
                &self.spec,
                c,
                h,
                w,
            );
        }
        grad_in
    }

    fn name(&self) -> &'static str {
        "avg_pool2d"
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
        conv.visit_params(&mut |p| match p.kind {
            ParamKind::Weight => p.value = Tensor::ones(&[1, 1]),
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
    fn avg_pool_gradcheck() {
        let mut pool = AvgPool2d::new(2, 2);
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let x = Tensor::randn(&[2, 2, 4, 4], 0.0, 1.0, &mut rng);
        assert!(GradCheck::new().max_input_error(&mut pool, &x) < 1e-2);
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
