//! A reusable scratch arena for allocation-free evaluation passes.

use tensor::Tensor;

/// A pool of recyclable `f32` buffers backing eval-mode forward passes.
///
/// The Monte-Carlo estimator of the paper's Eq. (4) runs thousands of
/// `inject → forward → restore` trials per Bayesian-optimization candidate.
/// Without reuse, every `Dense`/`Conv2d`/activation output is a fresh heap
/// allocation, making the hot path allocator-bound instead of FLOP-bound.
/// A `Workspace` breaks that: layers obtain output buffers from the pool
/// via [`Layer::forward_ws`](crate::Layer::forward_ws) and callers return
/// them with [`Workspace::recycle`], so after a warm-up trial the steady
/// state performs **zero** heap allocations in the forward pass.
///
/// A pooled buffer keeps every value it was ever written with: a tensor
/// taken from a longer buffer is a shorter view of it
/// ([`Tensor::from_buffer`]), and [`Workspace::recycle`] puts the whole
/// buffer back. So a buffer is zero-filled once, when it is allocated, and
/// never again. Buffers are handed out best-fit (smallest capacity that
/// holds the request); because an evaluation pass requests the same sizes
/// in the same order every trial, the pool stabilizes after the first
/// pass.
///
/// Each Monte-Carlo worker thread owns its own `Workspace` ("per replica"),
/// so no synchronization is involved.
///
/// # Example
///
/// ```
/// use nn::{Dense, Layer, Mode, Workspace};
/// use rand::SeedableRng;
/// use rand_chacha::ChaCha8Rng;
/// use tensor::Tensor;
///
/// let mut rng = ChaCha8Rng::seed_from_u64(0);
/// let mut net = Dense::new(3, 2, &mut rng);
/// let x = Tensor::ones(&[4, 3]);
/// let mut ws = Workspace::new();
/// let y = net.forward_ws(&x, Mode::Eval, &mut ws);
/// assert_eq!(y.as_slice(), net.forward(&x, Mode::Eval).as_slice());
/// ws.recycle(y); // return the buffer for the next trial
/// ```
#[derive(Debug, Default)]
pub struct Workspace {
    pool: Vec<Vec<f32>>,
}

impl Workspace {
    /// Creates an empty workspace; buffers are allocated on first use and
    /// recycled thereafter.
    pub fn new() -> Self {
        Workspace { pool: Vec::new() }
    }

    /// Takes a buffer of exactly `len` elements with **unspecified
    /// contents** (stale data from a previous use, or zeros when freshly
    /// allocated) — callers must fully overwrite it. Skipping the
    /// zero-fill matters: every consumer on the eval hot path overwrites
    /// the whole buffer anyway (`gemm_*_into`/`im2col_into` zero
    /// internally, elementwise kernels write every slot), and a
    /// per-trial `O(len)` clear would double the memory traffic this
    /// pool exists to avoid.
    ///
    /// Reuses the pooled buffer with the smallest sufficient capacity, and
    /// allocates only when no pooled buffer fits. A raw `Vec` cannot carry
    /// a shorter view, so the returned buffer is truncated to `len`; when
    /// it comes back, the pool knows only those `len` values, and a later
    /// longer take from it zero-fills the rest once. Tensors
    /// ([`Workspace::take_tensor`]) keep the whole buffer.
    pub fn take(&mut self, len: usize) -> Vec<f32> {
        let mut v = self.take_buffer(len);
        v.truncate(len);
        v
    }

    /// The pooled buffer with the smallest capacity that holds `len`
    /// values, or a fresh zeroed one, at least `len` long with every value
    /// written: a pooled buffer shorter than `len` is zero-filled up to it,
    /// the one fill it ever gets (a tensor view keeps it whole).
    fn take_buffer(&mut self, len: usize) -> Vec<f32> {
        let best = (0..self.pool.len())
            .filter(|&i| self.pool[i].capacity() >= len)
            .min_by_key(|&i| self.pool[i].capacity());
        let Some(i) = best else {
            return vec![0.0; len];
        };
        let mut v = self.pool.swap_remove(i);
        if v.len() < len {
            v.resize(len, 0.0);
        }
        v
    }

    /// Takes a tensor of the given shape with unspecified contents (see
    /// [`Workspace::take`]) — callers must fully overwrite it.
    pub fn take_tensor(&mut self, dims: &[usize]) -> Tensor {
        let len = dims.iter().product();
        Tensor::from_buffer(self.take_buffer(len), dims)
    }

    /// Takes a tensor of the given shape holding a copy of `src`'s data.
    ///
    /// # Panics
    ///
    /// Panics if `src.len()` differs from the element count of `dims`.
    pub fn take_copy(&mut self, src: &Tensor, dims: &[usize]) -> Tensor {
        let mut out = self.take_tensor(dims);
        out.as_mut_slice().copy_from_slice(src.as_slice());
        out
    }

    /// Returns a tensor's buffer to the pool, whole
    /// ([`Tensor::into_buffer`]).
    pub fn recycle(&mut self, t: Tensor) {
        self.recycle_vec(t.into_buffer());
    }

    /// Returns a raw buffer to the pool.
    pub fn recycle_vec(&mut self, v: Vec<f32>) {
        if v.capacity() > 0 {
            self.pool.push(v);
        }
    }

    /// Number of buffers currently pooled (idle).
    pub fn pooled_buffers(&self) -> usize {
        self.pool.len()
    }

    /// Total capacity currently pooled, in `f32` elements.
    pub fn pooled_elements(&self) -> usize {
        self.pool.iter().map(Vec::capacity).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_is_exact_length_and_fresh_buffers_are_zeroed() {
        let mut ws = Workspace::new();
        let mut v = ws.take(5);
        assert_eq!(v, vec![0.0; 5], "fresh allocation is zeroed");
        v[0] = 7.0;
        ws.recycle_vec(v);
        // Recycled buffers have unspecified contents but exact length.
        let v = ws.take(3);
        assert_eq!(v.len(), 3);
        let v2 = ws.take(9); // no pooled fit (cap 5 < 9) → fresh, zeroed
        assert_eq!(v2, vec![0.0; 9]);
    }

    /// A tensor taken short from a long buffer is a view of it: recycled
    /// and taken long again, the buffer still holds its old values past the
    /// short tensor's end, and nothing is allocated.
    #[test]
    fn a_short_take_keeps_the_buffer_values_past_its_end() {
        let mut ws = Workspace::new();
        let mut long = ws.take_tensor(&[100]);
        for (i, v) in long.as_mut_slice().iter_mut().enumerate() {
            *v = i as f32;
        }
        ws.recycle(long);
        let mut short = ws.take_tensor(&[2, 5]);
        assert_eq!(short.len(), 10);
        short.as_mut_slice().fill(-1.0);
        ws.recycle(short);
        let long = ws.take_tensor(&[100]);
        assert_eq!(&long.as_slice()[..10], &[-1.0; 10]);
        let old: Vec<f32> = (10..100).map(|i| i as f32).collect();
        assert_eq!(&long.as_slice()[10..], &old[..]);
        ws.recycle(long);
        assert_eq!(ws.pooled_buffers(), 1);
        assert_eq!(ws.pooled_elements(), 100);
    }

    #[test]
    fn best_fit_prefers_smallest_sufficient_buffer() {
        let mut ws = Workspace::new();
        let big = ws.take(100);
        let small = ws.take(10);
        ws.recycle_vec(big);
        ws.recycle_vec(small);
        let got = ws.take(8);
        assert_eq!(got.capacity(), 10, "best fit should pick the 10-cap buffer");
        assert_eq!(ws.pooled_buffers(), 1);
    }

    #[test]
    fn steady_state_reuses_buffers() {
        let mut ws = Workspace::new();
        // Warm up with the trial's request pattern.
        let a = ws.take(16);
        let b = ws.take(32);
        ws.recycle_vec(a);
        ws.recycle_vec(b);
        let elements = ws.pooled_elements();
        for _ in 0..5 {
            let a = ws.take(16);
            let b = ws.take(32);
            ws.recycle_vec(a);
            ws.recycle_vec(b);
        }
        assert_eq!(ws.pooled_elements(), elements, "pool must not grow");
        assert_eq!(ws.pooled_buffers(), 2);
    }

    #[test]
    fn take_tensor_round_trips_shape() {
        let mut ws = Workspace::new();
        let t = ws.take_tensor(&[2, 3]);
        assert_eq!(t.dims(), &[2, 3]);
        ws.recycle(t);
        assert_eq!(ws.pooled_buffers(), 1);
    }

    #[test]
    fn empty_buffers_are_not_pooled() {
        let mut ws = Workspace::new();
        ws.recycle_vec(Vec::new());
        assert_eq!(ws.pooled_buffers(), 0);
    }
}
