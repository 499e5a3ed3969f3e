//! Softmax cross-entropy, the loss of every softmax-head trainer.

use tensor::Tensor;

use crate::Workspace;

/// Value and input gradient of a loss evaluation.
#[derive(Debug, Clone)]
pub struct LossOutput {
    /// Mean loss over the batch.
    pub loss: f32,
    /// Gradient of the mean loss with respect to the input logits.
    pub grad: Tensor,
}

/// Softmax + cross-entropy, fused for numerical stability.
///
/// `logits: [N, C]`, `labels: [N]` with class indices `< C`. Returns the mean
/// cross-entropy and its gradient `softmax(logits) − onehot(labels)` scaled
/// by `1/N`.
///
/// # Panics
///
/// Panics if `logits` is not rank 2, label count differs from the batch
/// size, or any label is out of range.
///
/// # Example
///
/// ```
/// use nn::softmax_cross_entropy;
/// use tensor::Tensor;
///
/// let logits = Tensor::from_vec(vec![10.0, 0.0, 0.0, 10.0], &[2, 2])?;
/// let out = softmax_cross_entropy(&logits, &[0, 1]);
/// assert!(out.loss < 1e-3); // confidently correct
/// # Ok::<(), tensor::TensorError>(())
/// ```
pub fn softmax_cross_entropy(logits: &Tensor, labels: &[usize]) -> LossOutput {
    let grad = logits.clone();
    softmax_cross_entropy_impl(grad, labels)
}

/// [`softmax_cross_entropy`] drawing the gradient buffer from a reusable
/// [`Workspace`] instead of the allocator.
///
/// Loss and gradient are **bit-identical** to the allocating variant (one
/// shared kernel); only the buffer provenance differs. Callers hand the
/// gradient back via [`Workspace::recycle`] once `backward` has consumed
/// it, making the whole training step allocation-free in the steady state.
///
/// # Panics
///
/// Panics like [`softmax_cross_entropy`].
pub fn softmax_cross_entropy_ws(
    logits: &Tensor,
    labels: &[usize],
    ws: &mut Workspace,
) -> LossOutput {
    let grad = ws.take_copy(logits, logits.dims());
    softmax_cross_entropy_impl(grad, labels)
}

/// Shared kernel: `grad` arrives holding a copy of the logits and is
/// transformed in place into `(softmax(logits) − onehot(labels))/N`.
fn softmax_cross_entropy_impl(mut grad: Tensor, labels: &[usize]) -> LossOutput {
    assert_eq!(
        grad.rank(),
        2,
        "softmax_cross_entropy expects [N, C] logits"
    );
    let (n, c) = (grad.dims()[0], grad.dims()[1]);
    assert_eq!(labels.len(), n, "label count must equal batch size");
    // Row-wise softmax in place — the same per-row arithmetic as
    // `Tensor::softmax_rows` (max-shift, exp, normalize).
    for r in 0..n {
        let row = grad.row_mut(r);
        // lint:allow(R2, reason = "stability shift only: a NaN logit still poisons the row through exp(NaN), matching Tensor::softmax_rows bit-for-bit")
        let m = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut z = 0.0;
        for v in row.iter_mut() {
            *v = (*v - m).exp();
            z += *v;
        }
        if z > 0.0 {
            for v in row.iter_mut() {
                *v /= z;
            }
        }
    }
    let mut loss = 0.0f32;
    let inv_n = 1.0 / n as f32;
    for (i, &label) in labels.iter().enumerate() {
        assert!(label < c, "label {label} out of range for {c} classes");
        let p = grad.at(&[i, label]).max(1e-12);
        loss -= p.ln();
        *grad.at_mut(&[i, label]) -= 1.0;
    }
    grad.scale_inplace(inv_n);
    LossOutput {
        loss: loss * inv_n,
        grad,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_logits_give_log_c() {
        let logits = Tensor::zeros(&[4, 10]);
        let out = softmax_cross_entropy(&logits, &[0, 3, 5, 9]);
        assert!((out.loss - (10.0f32).ln()).abs() < 1e-5);
    }

    #[test]
    fn gradient_sums_to_zero_per_row() {
        let logits = Tensor::from_vec(vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0], &[2, 3]).unwrap();
        let out = softmax_cross_entropy(&logits, &[2, 0]);
        for r in 0..2 {
            let s: f32 = out.grad.row(r).iter().sum();
            assert!(s.abs() < 1e-6);
        }
    }

    #[test]
    fn gradient_matches_finite_difference() {
        let logits = Tensor::from_vec(vec![0.5, -0.2, 0.1, 0.9, -0.7, 0.3], &[2, 3]).unwrap();
        let labels = [1usize, 2];
        let out = softmax_cross_entropy(&logits, &labels);
        let eps = 1e-3;
        for i in 0..logits.len() {
            let mut hi = logits.clone();
            hi.as_mut_slice()[i] += eps;
            let mut lo = logits.clone();
            lo.as_mut_slice()[i] -= eps;
            let num = (softmax_cross_entropy(&hi, &labels).loss
                - softmax_cross_entropy(&lo, &labels).loss)
                / (2.0 * eps);
            assert!(
                (num - out.grad.as_slice()[i]).abs() < 1e-3,
                "element {i}: {num} vs {}",
                out.grad.as_slice()[i]
            );
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_label_panics() {
        let _ = softmax_cross_entropy(&Tensor::zeros(&[1, 2]), &[5]);
    }

    #[test]
    fn ws_variant_is_bit_identical_and_recyclable() {
        let logits = Tensor::from_vec(vec![0.5, -0.2, 0.1, 0.9, -0.7, 0.3], &[2, 3]).unwrap();
        let labels = [1usize, 2];
        let reference = softmax_cross_entropy(&logits, &labels);
        let mut ws = Workspace::new();
        for _ in 0..2 {
            // Second pass runs on a recycled (stale-content) buffer.
            let out = softmax_cross_entropy_ws(&logits, &labels, &mut ws);
            assert_eq!(out.loss.to_bits(), reference.loss.to_bits());
            let same = out
                .grad
                .as_slice()
                .iter()
                .zip(reference.grad.as_slice())
                .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same, "workspace gradient diverged");
            ws.recycle(out.grad);
        }
        assert_eq!(ws.pooled_buffers(), 1);
    }
}
