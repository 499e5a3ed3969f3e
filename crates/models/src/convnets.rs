//! Width-scaled AlexNet and VGG-11 (Fig. 3(c, e)).

use nn::{Activation, Conv2d, Dense, Dropout, Flatten, MaxPool2d, Sequential};
use rand::Rng;

use crate::delegate_layer;

fn conv_block(
    layers: &mut Vec<Box<dyn nn::Layer>>,
    in_ch: usize,
    out_ch: usize,
    seed: u64,
    rng: &mut impl Rng,
) {
    layers.push(Box::new(Conv2d::new(in_ch, out_ch, 3, 1, 1, rng)));
    layers.push(Activation::Relu.build());
    layers.push(Box::new(Dropout::new(0.0, seed)));
}

/// AlexNet-S (Fig. 3(c)): three 3×3 conv/pool stages and two dense layers,
/// width-scaled for 16×16 synthetic CIFAR stand-ins.
///
/// # Example
///
/// ```
/// use models::AlexNetS;
/// use nn::{Layer, Mode};
/// use rand::SeedableRng;
/// use rand_chacha::ChaCha8Rng;
/// use tensor::Tensor;
///
/// let mut rng = ChaCha8Rng::seed_from_u64(0);
/// let mut net = AlexNetS::new(3, 16, 10, &mut rng);
/// let y = net.forward(&Tensor::ones(&[1, 3, 16, 16]), Mode::Eval);
/// assert_eq!(y.dims(), &[1, 10]);
/// ```
#[derive(Clone)]
pub struct AlexNetS {
    net: Sequential,
}

impl AlexNetS {
    /// Builds AlexNet-S for `in_channels`×`hw`×`hw` inputs.
    ///
    /// # Panics
    ///
    /// Panics if `hw` is not divisible by 8 (three 2× pooling stages).
    pub fn new(in_channels: usize, hw: usize, classes: usize, rng: &mut impl Rng) -> Self {
        assert_eq!(hw % 8, 0, "AlexNet-S needs hw divisible by 8");
        let mut layers: Vec<Box<dyn nn::Layer>> = Vec::new();
        conv_block(&mut layers, in_channels, 16, 0xa1, rng);
        layers.push(Box::new(MaxPool2d::new(2, 2)));
        conv_block(&mut layers, 16, 32, 0xa2, rng);
        layers.push(Box::new(MaxPool2d::new(2, 2)));
        conv_block(&mut layers, 32, 64, 0xa3, rng);
        layers.push(Box::new(MaxPool2d::new(2, 2)));
        layers.push(Box::new(Flatten::new()));
        let flat = 64 * (hw / 8) * (hw / 8);
        layers.push(Box::new(Dense::new(flat, 96, rng)));
        layers.push(Activation::Relu.build());
        layers.push(Box::new(Dropout::new(0.0, 0xa4)));
        layers.push(Box::new(Dense::new(96, classes, rng)));
        AlexNetS {
            net: Sequential::new(layers),
        }
    }
}

delegate_layer!(AlexNetS, "alexnet_s");

/// VGG-11-S (Fig. 3(e)): the VGG-11 stage layout
/// `[C, M, C, M, C, C, M, C, C, M]` with scaled widths, for 16×16 inputs.
#[derive(Clone)]
pub struct Vgg11S {
    net: Sequential,
}

impl Vgg11S {
    /// Builds VGG-11-S for `in_channels`×`hw`×`hw` inputs.
    ///
    /// # Panics
    ///
    /// Panics if `hw` is not divisible by 16 (four 2× pooling stages).
    pub fn new(in_channels: usize, hw: usize, classes: usize, rng: &mut impl Rng) -> Self {
        assert_eq!(hw % 16, 0, "VGG-11-S needs hw divisible by 16");
        let mut layers: Vec<Box<dyn nn::Layer>> = Vec::new();
        let mut seed = 0xb0u64;
        let mut ch = in_channels;
        // (width, convs-before-pool) per VGG-11 stage, width-scaled 4×.
        for &(width, convs) in &[(16usize, 1usize), (32, 1), (64, 2), (96, 2)] {
            for _ in 0..convs {
                conv_block(&mut layers, ch, width, seed, rng);
                seed += 1;
                ch = width;
            }
            layers.push(Box::new(MaxPool2d::new(2, 2)));
        }
        layers.push(Box::new(Flatten::new()));
        let flat = ch * (hw / 16) * (hw / 16);
        layers.push(Box::new(Dense::new(flat, 96, rng)));
        layers.push(Activation::Relu.build());
        layers.push(Box::new(Dropout::new(0.0, seed)));
        layers.push(Box::new(Dense::new(96, classes, rng)));
        Vgg11S {
            net: Sequential::new(layers),
        }
    }
}

delegate_layer!(Vgg11S, "vgg11_s");

#[cfg(test)]
mod tests {
    use super::*;
    use nn::{Layer, Mode};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use tensor::Tensor;

    #[test]
    fn alexnet_shapes_and_dropout_slots() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let mut net = AlexNetS::new(3, 16, 10, &mut rng);
        let y = net.forward(&Tensor::ones(&[2, 3, 16, 16]), Mode::Eval);
        assert_eq!(y.dims(), &[2, 10]);
        assert_eq!(crate::dropout_count(&mut net), 4);
    }

    #[test]
    fn vgg_shapes_and_dropout_slots() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let mut net = Vgg11S::new(3, 16, 10, &mut rng);
        let y = net.forward(&Tensor::ones(&[2, 3, 16, 16]), Mode::Eval);
        assert_eq!(y.dims(), &[2, 10]);
        // 6 conv blocks + 1 fc dropout
        assert_eq!(crate::dropout_count(&mut net), 7);
    }

    #[test]
    fn vgg_backward_flows() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let mut net = Vgg11S::new(3, 16, 4, &mut rng);
        let x = Tensor::randn(&[1, 3, 16, 16], 0.0, 1.0, &mut rng);
        let y = net.forward(&x, Mode::Train);
        let g = net.backward(&Tensor::ones(y.dims()));
        assert_eq!(g.dims(), x.dims());
    }

    #[test]
    #[should_panic(expected = "divisible by 8")]
    fn alexnet_rejects_bad_size() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let _ = AlexNetS::new(3, 14, 10, &mut rng);
    }
}
