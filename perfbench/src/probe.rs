//! Transparent probes around the program's public traits, for the traced
//! run. Each wrapper forwards every trait method to the wrapped value
//! unchanged and only records into telemetry histograms and counters, so a
//! traced search computes bit-identical results to an untraced one.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use bayesft::{EvalCtx, Objective};
use datasets::ClassificationDataset;
use nn::{Dropout, Layer, Mode, Param, Workspace};
use reram::{DriftModel, McStats};
use telemetry::{duration_histogram, static_counter, Counter, Histogram, Span};
use tensor::Tensor;

use crate::alloc::AllocCount;

/// Set while a [`TracedObjective`] evaluates, so [`TracedLayer`] can book
/// parameter visits to fault injection rather than to the optimizer.
///
/// Ordering: `Relaxed` — set and read on the one thread that runs the
/// serial Monte-Carlo driver; it orders no other data.
static IN_EVAL: AtomicBool = AtomicBool::new(false);

pub fn forward_train() -> &'static Histogram {
    duration_histogram!("bench_nn_forward_train_seconds")
}
pub fn forward_eval() -> &'static Histogram {
    duration_histogram!("bench_nn_forward_eval_seconds")
}
pub fn backward() -> &'static Histogram {
    duration_histogram!("bench_nn_backward_seconds")
}
/// Parameter visits inside an objective evaluation: snapshot, fused
/// inject-and-validate, and the final restore.
pub fn inject() -> &'static Histogram {
    duration_histogram!("bench_reram_inject_seconds")
}
/// Parameter visits outside evaluation: the optimizer step.
pub fn visit_params_train() -> &'static Histogram {
    duration_histogram!("bench_nn_visit_params_train_seconds")
}
pub fn evaluate() -> &'static Histogram {
    duration_histogram!("bench_core_evaluate_seconds")
}
pub fn perturbed_scalars() -> &'static Counter {
    static_counter!("bench_reram_perturbed_scalars_total")
}
pub fn eval_allocs() -> &'static Counter {
    static_counter!("bench_core_eval_allocs_total")
}
pub fn eval_alloc_bytes() -> &'static Counter {
    static_counter!("bench_core_eval_alloc_bytes_total")
}

/// Times a network's forward, backward and parameter visits.
pub struct TracedLayer {
    inner: Box<dyn Layer>,
}

impl TracedLayer {
    pub fn new(inner: Box<dyn Layer>) -> Self {
        TracedLayer { inner }
    }
}

fn forward_span(mode: Mode) -> Span {
    match mode {
        Mode::Train => Span::enter("nn.forward_train", forward_train()),
        Mode::Eval => Span::enter("nn.forward_eval", forward_eval()),
    }
}

impl Layer for TracedLayer {
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Tensor {
        let _s = forward_span(mode);
        self.inner.forward(input, mode)
    }

    fn forward_ws(&mut self, input: &Tensor, mode: Mode, ws: &mut Workspace) -> Tensor {
        let _s = forward_span(mode);
        self.inner.forward_ws(input, mode, ws)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let _s = Span::enter("nn.backward", backward());
        self.inner.backward(grad_out)
    }

    fn backward_ws(&mut self, grad_out: &Tensor, ws: &mut Workspace) -> Tensor {
        let _s = Span::enter("nn.backward", backward());
        self.inner.backward_ws(grad_out, ws)
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        let _s = if IN_EVAL.load(Ordering::Relaxed) {
            Span::enter("reram.inject", inject())
        } else {
            Span::enter("nn.visit_params_train", visit_params_train())
        };
        self.inner.visit_params(f);
    }

    fn visit_dropout(&mut self, f: &mut dyn FnMut(&mut Dropout)) {
        self.inner.visit_dropout(f);
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(TracedLayer::new(self.inner.clone_box()))
    }

    fn zero_grads(&mut self) {
        self.inner.zero_grads();
    }

    fn param_count(&mut self) -> usize {
        self.inner.param_count()
    }
}

/// Times an objective evaluation and counts its heap traffic and samples.
pub struct TracedObjective<O> {
    inner: O,
}

impl<O: Objective> TracedObjective<O> {
    pub fn new(inner: O) -> Self {
        TracedObjective { inner }
    }
}

impl<O: Objective> Objective for TracedObjective<O> {
    fn evaluate(
        &self,
        network: &mut dyn Layer,
        data: &ClassificationDataset,
        ctx: &EvalCtx,
    ) -> McStats {
        let before = AllocCount::now();
        IN_EVAL.store(true, Ordering::Relaxed);
        let stats = {
            let _s = Span::enter("core.evaluate", evaluate());
            self.inner.evaluate(network, data, ctx)
        };
        IN_EVAL.store(false, Ordering::Relaxed);
        let spent = AllocCount::now().since(before);
        eval_allocs().add(spent.allocs);
        eval_alloc_bytes().add(spent.bytes);
        stats
    }

    fn label(&self) -> String {
        self.inner.label()
    }
}

/// Counts the scalars a fault model perturbs.
pub struct CountingDrift {
    inner: Arc<dyn DriftModel>,
}

impl CountingDrift {
    pub fn new(inner: Arc<dyn DriftModel>) -> Self {
        CountingDrift { inner }
    }
}

impl DriftModel for CountingDrift {
    fn perturb(&self, value: f32, rng: &mut dyn rand::RngCore) -> f32 {
        perturbed_scalars().inc();
        self.inner.perturb(value, rng)
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bayesft::DriftObjective;
    use models::{Mlp, MlpConfig};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use reram::{LogNormalDrift, StuckAtFault};

    fn mlp() -> Mlp {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        Mlp::new(&MlpConfig::new(2, 2).hidden(8).initial_rate(0.3), &mut rng)
    }

    fn params(net: &mut dyn Layer) -> Vec<Vec<f32>> {
        let mut out = Vec::new();
        net.visit_params(&mut |p| {
            out.push(p.value.as_slice().to_vec());
            out.push(p.grad.as_slice().to_vec());
        });
        out
    }

    #[test]
    fn traced_layer_forwards_every_method_unchanged() {
        let mut plain = mlp();
        let mut traced = TracedLayer::new(Box::new(mlp()));
        let x = Tensor::from_vec(vec![0.5, -1.0, 0.25, 2.0, -0.75, 1.5], &[3, 2]).unwrap();
        let g = Tensor::from_vec(vec![0.1, -0.2, 0.3, 0.0, -0.5, 0.4], &[3, 2]).unwrap();
        let mut ws_a = Workspace::new();
        let mut ws_b = Workspace::new();

        assert_eq!(traced.name(), plain.name());
        assert_eq!(traced.param_count(), plain.param_count());
        for mode in [Mode::Train, Mode::Eval] {
            assert_eq!(
                traced.forward(&x, mode).as_slice(),
                plain.forward(&x, mode).as_slice()
            );
            assert_eq!(
                traced.forward_ws(&x, mode, &mut ws_b).as_slice(),
                plain.forward_ws(&x, mode, &mut ws_a).as_slice()
            );
        }
        let _ = traced.forward(&x, Mode::Train);
        let _ = plain.forward(&x, Mode::Train);
        assert_eq!(
            traced.backward(&g).as_slice(),
            plain.backward(&g).as_slice()
        );
        let _ = traced.forward_ws(&x, Mode::Train, &mut ws_b);
        let _ = plain.forward_ws(&x, Mode::Train, &mut ws_a);
        assert_eq!(
            traced.backward_ws(&g, &mut ws_b).as_slice(),
            plain.backward_ws(&g, &mut ws_a).as_slice()
        );
        assert_eq!(params(&mut traced), params(&mut plain));

        let rates = |net: &mut dyn Layer| {
            let mut rates = Vec::new();
            net.visit_dropout(&mut |d| rates.push(d.rate()));
            rates
        };
        assert_eq!(rates(&mut traced), rates(&mut plain));

        traced.zero_grads();
        plain.zero_grads();
        assert_eq!(params(&mut traced), params(&mut plain));

        let mut clone = traced.clone_box();
        assert_eq!(clone.name(), plain.name());
        let calls = forward_eval().count();
        assert_eq!(
            clone.forward(&x, Mode::Eval).as_slice(),
            plain.forward(&x, Mode::Eval).as_slice()
        );
        assert!(forward_eval().count() > calls, "clones must stay traced");
    }

    #[test]
    fn traced_objective_forwards_evaluate_and_label() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let data = datasets::moons(64, 0.1, &mut rng);
        let plain = DriftObjective::with_sigmas(vec![0.0, 0.4], 3);
        let traced = TracedObjective::new(plain.clone());
        let ctx = EvalCtx::new(2, 99);
        let a = Objective::evaluate(&plain, &mut mlp(), &data, &ctx);
        let evaluations = evaluate().count();
        let b = traced.evaluate(&mut TracedLayer::new(Box::new(mlp())), &data, &ctx);
        assert_eq!(a, b);
        assert_eq!(traced.label(), plain.label());
        assert!(evaluate().count() > evaluations);
        assert!(!IN_EVAL.load(Ordering::Relaxed));
    }

    #[test]
    fn counting_drift_forwards_perturb_and_name() {
        for model in [
            Arc::new(LogNormalDrift::new(0.5)) as Arc<dyn DriftModel>,
            Arc::new(StuckAtFault::new(0.2, 0.1, 1.0)),
        ] {
            let counting = CountingDrift::new(model.clone());
            assert_eq!(counting.name(), model.name());
            let mut rng_a = ChaCha8Rng::seed_from_u64(11);
            let mut rng_b = ChaCha8Rng::seed_from_u64(11);
            let before = perturbed_scalars().get();
            for i in 0..32 {
                let v = i as f32 / 8.0 - 2.0;
                assert_eq!(
                    counting.perturb(v, &mut rng_b).to_bits(),
                    model.perturb(v, &mut rng_a).to_bits()
                );
            }
            assert!(perturbed_scalars().get() >= before + 32);
        }
    }
}
