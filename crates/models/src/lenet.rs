//! LeNet-5 (Fig. 3(b)): the classic two-convolution network, sized for the
//! 14×14 synthetic digit images.

use nn::{Activation, Conv2d, Dense, Dropout, Flatten, MaxPool2d, Sequential};
use rand::Rng;
use tensor::Conv2dSpec;

use crate::delegate_layer;

/// LeNet-5 adapted to arbitrary square grayscale-ish inputs:
/// `conv(6@5×5, pad 2) → pool → conv(16@5×5) → pool → fc → fc(classes)`,
/// with a mutable-rate dropout slot after every weighted layer except the
/// output.
///
/// # Example
///
/// ```
/// use models::LeNet5;
/// use nn::{Layer, Mode};
/// use rand::SeedableRng;
/// use rand_chacha::ChaCha8Rng;
/// use tensor::Tensor;
///
/// let mut rng = ChaCha8Rng::seed_from_u64(0);
/// let mut net = LeNet5::new(1, 14, 10, &mut rng);
/// let y = net.forward(&Tensor::ones(&[2, 1, 14, 14]), Mode::Eval);
/// assert_eq!(y.dims(), &[2, 10]);
/// ```
#[derive(Clone)]
pub struct LeNet5 {
    net: Sequential,
}

impl LeNet5 {
    /// Builds LeNet-5 for `in_channels`×`hw`×`hw` inputs and `classes`
    /// outputs.
    ///
    /// # Panics
    ///
    /// Panics if `hw < 12` (the two 5×5 stages need at least 12 pixels).
    pub fn new(in_channels: usize, hw: usize, classes: usize, rng: &mut impl Rng) -> Self {
        assert!(hw >= 12, "LeNet-5 needs inputs of at least 12×12");
        let c1 = Conv2dSpec::new(in_channels, 6, 5, 1, 2);
        let (h1, _) = c1.output_hw(hw, hw);
        let p1 = h1 / 2;
        let c2 = Conv2dSpec::new(6, 16, 5, 1, 0);
        let (h2, _) = c2.output_hw(p1, p1);
        let p2 = ((h2 - 2) / 2) + 1;
        let flat = 16 * p2 * p2;
        let net = Sequential::new(vec![
            Box::new(Conv2d::new(in_channels, 6, 5, 1, 2, rng)),
            Activation::Relu.build(),
            Box::new(Dropout::new(0.0, 0x1e1)),
            Box::new(MaxPool2d::new(2, 2)),
            Box::new(Conv2d::new(6, 16, 5, 1, 0, rng)),
            Activation::Relu.build(),
            Box::new(Dropout::new(0.0, 0x1e2)),
            Box::new(MaxPool2d::new(2, 2)),
            Box::new(Flatten::new()),
            Box::new(Dense::new(flat, 48, rng)),
            Activation::Relu.build(),
            Box::new(Dropout::new(0.0, 0x1e3)),
            Box::new(Dense::new(48, classes, rng)),
        ]);
        LeNet5 { net }
    }
}

delegate_layer!(LeNet5, "lenet5");

#[cfg(test)]
mod tests {
    use super::*;
    use nn::{Layer, Mode};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use tensor::Tensor;

    #[test]
    fn forward_shape_14() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let mut net = LeNet5::new(1, 14, 10, &mut rng);
        let y = net.forward(&Tensor::ones(&[3, 1, 14, 14]), Mode::Eval);
        assert_eq!(y.dims(), &[3, 10]);
    }

    #[test]
    fn forward_shape_16_rgb() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let mut net = LeNet5::new(3, 16, 43, &mut rng);
        let y = net.forward(&Tensor::ones(&[2, 3, 16, 16]), Mode::Eval);
        assert_eq!(y.dims(), &[2, 43]);
    }

    #[test]
    fn has_three_dropout_slots() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let mut net = LeNet5::new(1, 14, 10, &mut rng);
        assert_eq!(crate::dropout_count(&mut net), 3);
    }

    #[test]
    fn backward_produces_input_gradient() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mut net = LeNet5::new(1, 14, 4, &mut rng);
        let x = Tensor::randn(&[2, 1, 14, 14], 0.0, 1.0, &mut rng);
        let y = net.forward(&x, Mode::Train);
        let g = net.backward(&Tensor::ones(y.dims()));
        assert_eq!(g.dims(), x.dims());
        assert!(g.norm() > 0.0, "gradient must flow to the input");
    }
}
