//! ResNet-18-S and the pre-activation ResNet family (Fig. 3(d, f–h)).
//!
//! Depth scaling: the paper's 18/50/152-layer networks are reproduced as
//! 6/10/20-block variants with the same *ordering* — the Fig. 3(f–h)
//! conclusion ("deeper falls steeper under drift") depends on relative
//! depth, not absolute layer count.

use nn::{Activation, Conv2d, Dense, Dropout, GlobalAvgPool, PreActBlock, Residual, Sequential};
use rand::Rng;

use crate::delegate_layer;

/// Builds a post-activation residual block (classic ResNet).
fn res_block(
    in_ch: usize,
    out_ch: usize,
    stride: usize,
    seed: u64,
    rng: &mut impl Rng,
) -> Residual {
    let main = Sequential::new(vec![
        Box::new(Conv2d::new(in_ch, out_ch, 3, stride, 1, rng)),
        Activation::Relu.build(),
        Box::new(Dropout::new(0.0, seed)),
        Box::new(Conv2d::new(out_ch, out_ch, 3, 1, 1, rng)),
    ]);
    let shortcut = if stride != 1 || in_ch != out_ch {
        Some(Sequential::new(vec![Box::new(Conv2d::new(
            in_ch, out_ch, 1, stride, 0, rng,
        ))]))
    } else {
        None
    };
    Residual::new(main, shortcut)
}

/// Builds a pre-activation residual block (He et al. 2016b).
fn preact_block(
    in_ch: usize,
    out_ch: usize,
    stride: usize,
    seed: u64,
    rng: &mut impl Rng,
) -> PreActBlock {
    let main = Sequential::new(vec![
        Activation::Relu.build(),
        Box::new(Conv2d::new(in_ch, out_ch, 3, stride, 1, rng)),
        Activation::Relu.build(),
        Box::new(Dropout::new(0.0, seed)),
        Box::new(Conv2d::new(out_ch, out_ch, 3, 1, 1, rng)),
    ]);
    let shortcut = if stride != 1 || in_ch != out_ch {
        Some(Sequential::new(vec![Box::new(Conv2d::new(
            in_ch, out_ch, 1, stride, 0, rng,
        ))]))
    } else {
        None
    };
    PreActBlock::new(main, shortcut)
}

/// ResNet-18-S (Fig. 3(d)): stem conv + three stages of two post-activation
/// residual blocks + global average pooling + classifier.
///
/// # Example
///
/// ```
/// use models::ResNet18S;
/// use nn::{Layer, Mode};
/// use rand::SeedableRng;
/// use rand_chacha::ChaCha8Rng;
/// use tensor::Tensor;
///
/// let mut rng = ChaCha8Rng::seed_from_u64(0);
/// let mut net = ResNet18S::new(3, 10, &mut rng);
/// let y = net.forward(&Tensor::ones(&[1, 3, 16, 16]), Mode::Eval);
/// assert_eq!(y.dims(), &[1, 10]);
/// ```
#[derive(Clone)]
pub struct ResNet18S {
    net: Sequential,
}

impl ResNet18S {
    /// Builds ResNet-18-S for square inputs of any size divisible by 4.
    pub fn new(in_channels: usize, classes: usize, rng: &mut impl Rng) -> Self {
        let widths = [16usize, 32, 64];
        let mut layers: Vec<Box<dyn nn::Layer>> = vec![
            Box::new(Conv2d::new(in_channels, widths[0], 3, 1, 1, rng)),
            Activation::Relu.build(),
            Box::new(Dropout::new(0.0, 0xc0)),
        ];
        let mut ch = widths[0];
        let mut seed = 0xc1u64;
        for (stage, &w) in widths.iter().enumerate() {
            for block in 0..2 {
                let stride = if stage > 0 && block == 0 { 2 } else { 1 };
                layers.push(Box::new(res_block(ch, w, stride, seed, rng)));
                layers.push(Activation::Relu.build());
                ch = w;
                seed += 1;
            }
        }
        layers.push(Box::new(GlobalAvgPool::new()));
        layers.push(Box::new(Dropout::new(0.0, seed)));
        layers.push(Box::new(Dense::new(ch, classes, rng)));
        ResNet18S {
            net: Sequential::new(layers),
        }
    }
}

delegate_layer!(ResNet18S, "resnet18_s");

/// Depth variants of the pre-activation family (Fig. 3(f–h)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PreActDepth {
    /// PreAct-18 stand-in: 2 blocks per stage (6 total).
    D18,
    /// PreAct-50 stand-in: `[3, 4, 3]` blocks (10 total).
    D50,
    /// PreAct-152 stand-in: `[6, 8, 6]` blocks (20 total).
    D152,
}

impl PreActDepth {
    /// Blocks per stage.
    pub fn blocks(&self) -> [usize; 3] {
        match self {
            PreActDepth::D18 => [2, 2, 2],
            PreActDepth::D50 => [3, 4, 3],
            PreActDepth::D152 => [6, 8, 6],
        }
    }

    /// Label used in figure output.
    pub fn label(&self) -> &'static str {
        match self {
            PreActDepth::D18 => "preact-18",
            PreActDepth::D50 => "preact-50",
            PreActDepth::D152 => "preact-152",
        }
    }
}

/// Pre-activation ResNet-S family (Fig. 3(f–h)): stem conv + three stages
/// of pre-activation blocks + global average pooling + classifier, widths
/// `[8, 16, 32]`.
#[derive(Clone)]
pub struct PreActResNetS {
    net: Sequential,
    depth: PreActDepth,
}

impl PreActResNetS {
    /// Builds the requested depth variant.
    pub fn new(depth: PreActDepth, in_channels: usize, classes: usize, rng: &mut impl Rng) -> Self {
        let widths = [8usize, 16, 32];
        let blocks = depth.blocks();
        let mut layers: Vec<Box<dyn nn::Layer>> =
            vec![Box::new(Conv2d::new(in_channels, widths[0], 3, 1, 1, rng))];
        let mut ch = widths[0];
        let mut seed = 0xd0u64;
        for (stage, (&w, &nblocks)) in widths.iter().zip(blocks.iter()).enumerate() {
            for block in 0..nblocks {
                let stride = if stage > 0 && block == 0 { 2 } else { 1 };
                layers.push(Box::new(preact_block(ch, w, stride, seed, rng)));
                ch = w;
                seed += 1;
            }
        }
        layers.push(Activation::Relu.build());
        layers.push(Box::new(GlobalAvgPool::new()));
        layers.push(Box::new(Dropout::new(0.0, seed)));
        layers.push(Box::new(Dense::new(ch, classes, rng)));
        PreActResNetS {
            net: Sequential::new(layers),
            depth,
        }
    }

    /// The depth variant this network was built with.
    pub fn depth(&self) -> PreActDepth {
        self.depth
    }
}

delegate_layer!(PreActResNetS, "preact_resnet_s");

#[cfg(test)]
mod tests {
    use super::*;
    use nn::{Layer, Mode};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use tensor::Tensor;

    #[test]
    fn resnet18_forward_backward() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let mut net = ResNet18S::new(3, 10, &mut rng);
        let x = Tensor::randn(&[2, 3, 16, 16], 0.0, 1.0, &mut rng);
        let y = net.forward(&x, Mode::Train);
        assert_eq!(y.dims(), &[2, 10]);
        let g = net.backward(&Tensor::ones(y.dims()));
        assert_eq!(g.dims(), x.dims());
    }

    #[test]
    fn preact_depths_order_by_parameter_count() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let mut p18 = PreActResNetS::new(PreActDepth::D18, 3, 10, &mut rng);
        let mut p50 = PreActResNetS::new(PreActDepth::D50, 3, 10, &mut rng);
        let mut p152 = PreActResNetS::new(PreActDepth::D152, 3, 10, &mut rng);
        let (a, b, c) = (p18.param_count(), p50.param_count(), p152.param_count());
        assert!(a < b && b < c, "param counts {a} < {b} < {c} violated");
    }

    #[test]
    fn preact152_forward_shape() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let mut net = PreActResNetS::new(PreActDepth::D152, 3, 10, &mut rng);
        let y = net.forward(&Tensor::ones(&[1, 3, 16, 16]), Mode::Eval);
        assert_eq!(y.dims(), &[1, 10]);
    }

    #[test]
    fn dropout_slots_scale_with_depth() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mut p18 = PreActResNetS::new(PreActDepth::D18, 3, 10, &mut rng);
        let mut p50 = PreActResNetS::new(PreActDepth::D50, 3, 10, &mut rng);
        assert!(crate::dropout_count(&mut p50) > crate::dropout_count(&mut p18));
    }

    #[test]
    fn resnet_trains_on_tiny_batch() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let mut net = ResNet18S::new(1, 2, &mut rng);
        let x = Tensor::randn(&[4, 1, 8, 8], 0.0, 1.0, &mut rng);
        let labels = [0usize, 1, 0, 1];
        let mut opt = nn::Adam::new(0.01);
        let mut first = None;
        let mut last = 0.0;
        for _ in 0..30 {
            let logits = net.forward(&x, Mode::Train);
            let out = nn::softmax_cross_entropy(&logits, &labels);
            first.get_or_insert(out.loss);
            last = out.loss;
            let _ = net.backward(&out.grad);
            nn::Optimizer::step(&mut opt, &mut net);
        }
        assert!(
            last < first.unwrap(),
            "loss should decrease: {last} vs {first:?}"
        );
    }
}
