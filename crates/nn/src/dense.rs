//! Fully connected layer.

use rand::Rng;
use tensor::{gemm_into, gemm_nt_into, gemm_tn_acc_into, Tensor};

use crate::{
    layer::{cache_into, invalidate_cache},
    Layer, Mode, Param, Workspace,
};

/// A fully connected layer: `y = x·W + b` with `x: [N, in]`, `W: [in, out]`.
///
/// Weights use Xavier-uniform initialization as in the paper (Algorithm 1,
/// initialization step, ref. \[17\]).
///
/// # Example
///
/// ```
/// use nn::{Dense, Layer, Mode};
/// use rand::SeedableRng;
/// use rand_chacha::ChaCha8Rng;
/// use tensor::Tensor;
///
/// let mut rng = ChaCha8Rng::seed_from_u64(0);
/// let mut fc = Dense::new(3, 5, &mut rng);
/// let y = fc.forward(&Tensor::ones(&[2, 3]), Mode::Eval);
/// assert_eq!(y.dims(), &[2, 5]);
/// ```
#[derive(Clone)]
pub struct Dense {
    weight: Param,
    bias: Param,
    input: Option<Tensor>,
    in_features: usize,
    out_features: usize,
}

impl Dense {
    /// Creates a dense layer with Xavier-uniform weights and zero bias.
    pub fn new(in_features: usize, out_features: usize, rng: &mut impl Rng) -> Self {
        let weight =
            Tensor::xavier_uniform(&[in_features, out_features], in_features, out_features, rng);
        Dense {
            weight: Param::new(weight),
            bias: Param::new(Tensor::zeros(&[out_features])),
            input: None,
            in_features,
            out_features,
        }
    }

    /// Folds `[N, ...]` input to `[N', in]` (a pure length computation —
    /// the raw gemm runs over slices, no reshape copy).
    fn fold_batch(&self, input: &Tensor) -> usize {
        assert_eq!(
            input.dims().last().copied(),
            Some(self.in_features),
            "dense input feature mismatch: got {}, expected {}",
            input.shape(),
            self.in_features
        );
        input.len() / self.in_features
    }

    /// `out = input·W + b` into a caller-provided `[m, out]` buffer.
    fn output_into(&self, input: &Tensor, m: usize, out: &mut Tensor) {
        gemm_into(
            input.as_slice(),
            self.weight.value.as_slice(),
            out.as_mut_slice(),
            m,
            self.in_features,
            self.out_features,
        );
        let bias = self.bias.value.as_slice();
        for r in 0..m {
            for (v, &b) in out.row_mut(r).iter_mut().zip(bias) {
                *v += b;
            }
        }
    }
}

impl Layer for Dense {
    fn forward_ws(&mut self, input: &Tensor, mode: Mode, ws: &mut Workspace) -> Tensor {
        let m = self.fold_batch(input);
        if mode == Mode::Train {
            cache_into(&mut self.input, input.as_slice(), &[m, self.in_features]);
        } else {
            invalidate_cache(&mut self.input);
        }
        let mut out = ws.take_tensor(&[m, self.out_features]);
        self.output_into(input, m, &mut out);
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
        "dense"
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

impl Dense {
    /// The one backward body: accumulates `dW` and `db`; with
    /// `need_input_grad` it also returns `dx = g·Wᵀ`.
    fn backward_pass(
        &mut self,
        grad_out: &Tensor,
        ws: &mut Workspace,
        need_input_grad: bool,
    ) -> Option<Tensor> {
        let x = self
            .input
            .as_ref()
            .expect("backward called before forward on dense layer");
        assert!(
            !x.is_empty(),
            "backward called after an eval-mode forward on dense layer (eval invalidates the tape)"
        );
        let (m, k, n) = (x.dims()[0], self.in_features, self.out_features);
        assert_eq!(grad_out.dims(), &[m, n], "dense gradient shape");
        // dW += xᵀ·g (rounded on its own, then added), db += Σ_rows g
        // (summed in scratch, then added), dx = g·Wᵀ.
        let dw = self.weight.grad.as_mut_slice();
        gemm_tn_acc_into(x.as_slice(), grad_out.as_slice(), dw, k, m, n);
        let mut db = ws.take_tensor(&[n]);
        db.as_mut_slice().fill(0.0);
        for r in 0..m {
            let row = &grad_out.as_slice()[r * n..(r + 1) * n];
            for (o, &v) in db.as_mut_slice().iter_mut().zip(row) {
                *o += v;
            }
        }
        for (gb, &d) in self.bias.grad.as_mut_slice().iter_mut().zip(db.as_slice()) {
            *gb += d;
        }
        ws.recycle(db);
        if !need_input_grad {
            return None;
        }
        let mut dx = ws.take_tensor(&[m, k]);
        gemm_nt_into(
            grad_out.as_slice(),
            self.weight.value.as_slice(),
            dx.as_mut_slice(),
            m,
            n,
            k,
        );
        Some(dx)
    }
}

impl std::fmt::Debug for Dense {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Dense")
            .field("in_features", &self.in_features)
            .field("out_features", &self.out_features)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn forward_shape_and_bias() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let mut fc = Dense::new(2, 3, &mut rng);
        // Zero the weights so output equals the bias.
        fc.weight.value.map_inplace(|_| 0.0);
        fc.bias.value = Tensor::from_slice(&[1.0, 2.0, 3.0]);
        let y = fc.forward(&Tensor::ones(&[4, 2]), Mode::Eval);
        assert_eq!(y.dims(), &[4, 3]);
        assert_eq!(y.row(2), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn param_count_matches() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let mut fc = Dense::new(4, 7, &mut rng);
        assert_eq!(fc.param_count(), 4 * 7 + 7);
    }

    #[test]
    fn backward_accumulates_gradients() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let mut fc = Dense::new(2, 2, &mut rng);
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        let _ = fc.forward(&x, Mode::Train);
        let g = Tensor::ones(&[2, 2]);
        let gx = fc.backward(&g);
        assert_eq!(gx.dims(), &[2, 2]);
        // db = column sums of g = [2, 2]
        assert_eq!(fc.bias.grad.as_slice(), &[2.0, 2.0]);
        // dW = xᵀ g = [[4,4],[6,6]]
        assert_eq!(fc.weight.grad.as_slice(), &[4.0, 4.0, 6.0, 6.0]);
        // The training step's backward accumulates the same gradients.
        let _ = fc.forward(&x, Mode::Train);
        fc.backward_params_ws(&g, &mut Workspace::new());
        assert_eq!(fc.bias.grad.as_slice(), &[4.0, 4.0]);
        assert_eq!(fc.weight.grad.as_slice(), &[8.0, 8.0, 12.0, 12.0]);
    }

    #[test]
    #[should_panic(expected = "backward called before forward")]
    fn backward_without_forward_panics() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let mut fc = Dense::new(2, 2, &mut rng);
        let _ = fc.backward(&Tensor::ones(&[1, 2]));
    }

    #[test]
    fn rank4_input_is_flattened() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let mut fc = Dense::new(4, 2, &mut rng);
        let x = Tensor::ones(&[3, 1, 2, 2]);
        // 3 samples, 4 features each — trailing dims are folded.
        let x = x.reshaped(&[3, 4]).unwrap();
        let y = fc.forward(&x, Mode::Eval);
        assert_eq!(y.dims(), &[3, 2]);
    }
}
