//! The [`Layer`] trait and basic containers.

use tensor::Tensor;

use crate::{Mode, Param, Workspace};

/// A differentiable network component.
///
/// A training-mode forward caches activations; the backward pass consumes
/// them, accumulates parameter gradients, and returns the gradient with
/// respect to the layer's input. Calling backward without a preceding
/// training-mode forward on the same input is a programming error and
/// panics. Evaluation-mode forwards skip the cache refresh entirely (the
/// gradient tape is dead weight on the inference hot path), so backward
/// after an eval-only forward is unsupported.
///
/// Layers implement exactly one forward and one backward,
/// [`Layer::forward_ws`] and [`Layer::backward_ws`], which draw every
/// output and scratch buffer from a reusable [`Workspace`].
/// [`Layer::forward`] and [`Layer::backward`] are provided wrappers that
/// run them on a fresh workspace. [`Layer::backward_params_ws`] is a
/// provided backward for callers that discard the input gradient, such as
/// a training step; a layer overrides it only where skipping that gradient
/// saves work, and then keeps one backward body for both.
///
/// The trait is object-safe: networks are built as `Vec<Box<dyn Layer>>`
/// ([`Sequential`]).
pub trait Layer: Send {
    /// Computes the layer output for `input`, drawing the output (and
    /// internal scratch) buffers from `ws` instead of the allocator.
    ///
    /// Pooled buffers arrive with stale contents, so implementations
    /// overwrite everything they hand out: the result is bit-identical
    /// whatever the workspace held before. Callers hand the result back
    /// via [`Workspace::recycle`] once done so the next pass reuses it —
    /// after one warm-up pass, an eval-mode forward performs zero heap
    /// allocations.
    ///
    /// In `Mode::Eval`, activation/input caches needed by the backward
    /// pass are *not* refreshed. In `Mode::Train`, layers refresh their
    /// caches **in place** into persistent per-layer buffers (grown once,
    /// reused across steps), so a whole SGD step — `forward_ws` +
    /// [`Layer::backward_ws`] + an in-place optimizer — is allocation-free
    /// in the steady state.
    fn forward_ws(&mut self, input: &Tensor, mode: Mode, ws: &mut Workspace) -> Tensor;

    /// Backpropagates `grad_out` (gradient w.r.t. this layer's output),
    /// accumulating parameter gradients and returning the gradient w.r.t.
    /// the layer's input. The gradient output and internal scratch
    /// (transposed-gemm temporaries, `col2im` images, bias-sum
    /// accumulators) come from `ws`; callers hand the result back via
    /// [`Workspace::recycle`] once consumed.
    ///
    /// # Panics
    ///
    /// Panics if no training-mode forward pass has been run.
    fn backward_ws(&mut self, grad_out: &Tensor, ws: &mut Workspace) -> Tensor;

    /// [`Layer::backward_ws`] for a caller that discards the gradient
    /// w.r.t. the input: it leaves the same parameter gradients, bit for
    /// bit, and consumes the same tape, but returns nothing.
    ///
    /// The default runs [`Layer::backward_ws`] and recycles the result.
    /// [`Conv2d`](crate::Conv2d) and [`Dense`](crate::Dense) skip their
    /// `Wᵀ·G` products (and the convolution's `col2im` scatter);
    /// [`Sequential`] passes the call on to its first child only: every
    /// later child's input gradient feeds the child before it, so those
    /// run [`Layer::backward_ws`].
    ///
    /// # Panics
    ///
    /// Panics if no training-mode forward pass has been run.
    fn backward_params_ws(&mut self, grad_out: &Tensor, ws: &mut Workspace) {
        let grad_in = self.backward_ws(grad_out, ws);
        ws.recycle(grad_in);
    }

    /// [`Layer::forward_ws`] on a fresh [`Workspace`].
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Tensor {
        self.forward_ws(input, mode, &mut Workspace::new())
    }

    /// [`Layer::backward_ws`] on a fresh [`Workspace`].
    ///
    /// # Panics
    ///
    /// Panics if no training-mode forward pass has been run.
    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        self.backward_ws(grad_out, &mut Workspace::new())
    }

    /// Visits every trainable parameter in a stable order.
    ///
    /// The default implementation visits nothing (parameter-free layer).
    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut Param)) {}

    /// Visits every [`Dropout`](crate::Dropout) layer in a stable order.
    ///
    /// This is the hook BayesFT uses to re-target per-layer dropout rates
    /// between Bayesian-optimization trials without rebuilding the network.
    /// The default implementation visits nothing.
    fn visit_dropout(&mut self, _f: &mut dyn FnMut(&mut crate::Dropout)) {}

    /// Short human-readable layer name for summaries.
    fn name(&self) -> &'static str;

    /// Deep-copies the layer (weights, caches, RNG state) behind a fresh
    /// box.
    ///
    /// This is what lets the experiment engine evaluate independent
    /// Monte-Carlo drift samples on per-thread replicas of one trained
    /// network: each worker clones the pristine model, injects its own
    /// drift, and runs forward passes without synchronizing on the
    /// original.
    fn clone_box(&self) -> Box<dyn Layer>;

    /// Zeroes all parameter gradients.
    fn zero_grads(&mut self) {
        self.visit_params(&mut |p| p.zero_grad());
    }

    /// Total number of trainable scalars.
    fn param_count(&mut self) -> usize {
        let mut n = 0;
        self.visit_params(&mut |p| n += p.len());
        n
    }
}

/// Invalidates a persistent activation cache after an eval-mode forward:
/// the buffer's capacity is retained (the next training step reuses it,
/// still allocation-free), but its length drops to zero so a stray
/// `backward` fails loudly instead of silently backpropagating through a
/// stale tape from an earlier training step.
pub(crate) fn invalidate_cache(slot: &mut Option<Tensor>) {
    if let Some(t) = slot {
        t.reuse_as(&[0]);
    }
}

/// Refreshes a persistent activation cache in place: the slot's buffer is
/// resized within its capacity (growing only to a new high-water mark) and
/// overwritten with `src`, so steady-state training steps never allocate
/// for the cache. A `None` slot is filled with a fresh copy once.
pub(crate) fn cache_into(slot: &mut Option<Tensor>, src: &[f32], dims: &[usize]) {
    match slot {
        Some(t) => {
            t.reuse_as(dims);
            t.as_mut_slice().copy_from_slice(src);
        }
        None => {
            // lint:allow(R1, reason = "cold-start fill only; steady-state steps take the in-place Some arm")
            *slot = Some(Tensor::from_vec(src.to_vec(), dims).expect("cache dims match source"));
        }
    }
}

/// The identity layer (useful as a residual shortcut or norm placeholder).
///
/// # Example
///
/// ```
/// use nn::{Identity, Layer, Mode};
/// use tensor::Tensor;
///
/// let mut id = Identity::new();
/// let x = Tensor::ones(&[2, 3]);
/// assert_eq!(id.forward(&x, Mode::Eval).as_slice(), x.as_slice());
/// ```
#[derive(Debug, Clone, Default)]
pub struct Identity;

impl Identity {
    /// Creates an identity layer.
    pub fn new() -> Self {
        Identity
    }
}

impl Layer for Identity {
    fn forward_ws(&mut self, input: &Tensor, _mode: Mode, ws: &mut Workspace) -> Tensor {
        ws.take_copy(input, input.dims())
    }

    fn backward_ws(&mut self, grad_out: &Tensor, ws: &mut Workspace) -> Tensor {
        ws.take_copy(grad_out, grad_out.dims())
    }

    fn name(&self) -> &'static str {
        "identity"
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

/// An ordered chain of layers, itself a [`Layer`].
///
/// # Example
///
/// ```
/// use nn::{Identity, Layer, Mode, Sequential};
/// use tensor::Tensor;
///
/// let mut net = Sequential::new(vec![Box::new(Identity::new()), Box::new(Identity::new())]);
/// let x = Tensor::ones(&[1, 2]);
/// assert_eq!(net.forward(&x, Mode::Eval).as_slice(), x.as_slice());
/// assert_eq!(net.len(), 2);
/// ```
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
}

impl Clone for Sequential {
    fn clone(&self) -> Self {
        Sequential {
            layers: self.layers.iter().map(|l| l.clone_box()).collect(),
        }
    }
}

impl Sequential {
    /// Builds a chain from boxed layers.
    pub fn new(layers: Vec<Box<dyn Layer>>) -> Self {
        Sequential { layers }
    }

    /// An empty chain (identity behaviour).
    pub fn empty() -> Self {
        Sequential { layers: Vec::new() }
    }

    /// Appends a layer to the end of the chain.
    pub fn push(&mut self, layer: Box<dyn Layer>) {
        self.layers.push(layer);
    }

    /// Inserts a layer at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index > len`.
    pub fn insert(&mut self, index: usize, layer: Box<dyn Layer>) {
        self.layers.insert(index, layer);
    }

    /// Number of layers in the chain.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Whether the chain is empty.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Immutable access to the layers.
    pub fn layers(&self) -> &[Box<dyn Layer>] {
        &self.layers
    }

    /// Mutable access to the layers.
    pub fn layers_mut(&mut self) -> &mut Vec<Box<dyn Layer>> {
        &mut self.layers
    }

    /// Names of all layers in order (for summaries and tests).
    pub fn layer_names(&self) -> Vec<&'static str> {
        self.layers.iter().map(|l| l.name()).collect()
    }
}

impl Layer for Sequential {
    fn forward_ws(&mut self, input: &Tensor, mode: Mode, ws: &mut Workspace) -> Tensor {
        let mut layers = self.layers.iter_mut();
        let Some(first) = layers.next() else {
            return ws.take_copy(input, input.dims());
        };
        let mut x = first.forward_ws(input, mode, ws);
        for layer in layers {
            let y = layer.forward_ws(&x, mode, ws);
            ws.recycle(x);
            x = y;
        }
        x
    }

    fn backward_ws(&mut self, grad_out: &Tensor, ws: &mut Workspace) -> Tensor {
        backward_chain(&mut self.layers, grad_out, ws)
    }

    fn backward_params_ws(&mut self, grad_out: &Tensor, ws: &mut Workspace) {
        match self.layers.split_first_mut() {
            None => {}
            Some((first, [])) => first.backward_params_ws(grad_out, ws),
            Some((first, rest)) => {
                let g = backward_chain(rest, grad_out, ws);
                first.backward_params_ws(&g, ws);
                ws.recycle(g);
            }
        }
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        for layer in &mut self.layers {
            layer.visit_params(f);
        }
    }

    fn visit_dropout(&mut self, f: &mut dyn FnMut(&mut crate::Dropout)) {
        for layer in &mut self.layers {
            layer.visit_dropout(f);
        }
    }

    fn name(&self) -> &'static str {
        "sequential"
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

/// Backpropagates through `layers` last to first, recycling each
/// intermediate gradient, and returns the first layer's input gradient
/// (a copy of `grad_out` for an empty chain).
fn backward_chain(layers: &mut [Box<dyn Layer>], grad_out: &Tensor, ws: &mut Workspace) -> Tensor {
    let mut layers = layers.iter_mut().rev();
    let Some(last) = layers.next() else {
        return ws.take_copy(grad_out, grad_out.dims());
    };
    let mut g = last.backward_ws(grad_out, ws);
    for layer in layers {
        let g2 = layer.backward_ws(&g, ws);
        ws.recycle(g);
        g = g2;
    }
    g
}

impl std::fmt::Debug for Sequential {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sequential")
            .field("layers", &self.layer_names())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_round_trips() {
        let mut id = Identity::new();
        let x = Tensor::from_slice(&[1.0, 2.0]);
        assert_eq!(id.forward(&x, Mode::Train).as_slice(), x.as_slice());
        assert_eq!(id.backward(&x).as_slice(), x.as_slice());
        assert_eq!(id.param_count(), 0);
    }

    #[test]
    fn sequential_composes_in_order() {
        #[derive(Clone)]
        struct AddOne;
        impl Layer for AddOne {
            fn forward_ws(&mut self, input: &Tensor, _m: Mode, _ws: &mut Workspace) -> Tensor {
                input.add_scalar(1.0)
            }
            fn backward_ws(&mut self, g: &Tensor, _ws: &mut Workspace) -> Tensor {
                g.clone()
            }
            fn name(&self) -> &'static str {
                "add_one"
            }
            fn clone_box(&self) -> Box<dyn Layer> {
                Box::new(self.clone())
            }
        }
        let mut net = Sequential::new(vec![Box::new(AddOne), Box::new(AddOne)]);
        let y = net.forward(&Tensor::scalar(0.0), Mode::Eval);
        assert_eq!(y.as_slice(), &[2.0]);
        assert_eq!(net.layer_names(), vec!["add_one", "add_one"]);
    }

    #[test]
    fn sequential_insert_and_push() {
        let mut net = Sequential::empty();
        assert!(net.is_empty());
        net.push(Box::new(Identity::new()));
        net.insert(0, Box::new(Identity::new()));
        assert_eq!(net.len(), 2);
    }
}
