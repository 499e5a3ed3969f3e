//! Model registry used by the benchmark harness to build any Fig. 3
//! architecture by name.

use nn::Layer;
use rand::Rng;

use crate::{
    AlexNetS, LeNet5, Mlp, MlpConfig, PreActDepth, PreActResNetS, ResNet18S, StnClassifier, Vgg11S,
};

/// Every classification architecture evaluated in Fig. 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum ModelKind {
    /// 3-layer MLP (Fig. 3(a), 3(i) substrate).
    Mlp,
    /// LeNet-5 (Fig. 3(b)).
    LeNet5,
    /// AlexNet-S (Fig. 3(c)).
    AlexNet,
    /// ResNet-18-S (Fig. 3(d)).
    ResNet18,
    /// VGG-11-S (Fig. 3(e)).
    Vgg11,
    /// PreAct ResNet-18-S (Fig. 3(f)).
    PreAct18,
    /// PreAct ResNet-50-S (Fig. 3(g)).
    PreAct50,
    /// PreAct ResNet-152-S (Fig. 3(h)).
    PreAct152,
    /// Spatial-transformer classifier (Fig. 3(i)).
    Stn,
}

impl ModelKind {
    /// Builds the network for `in_channels`×`hw`×`hw` inputs and `classes`
    /// outputs.
    ///
    /// The MLP flattens its input internally (`Dense` folds trailing dims),
    /// so a single `[N, C·H·W]`-reshaped batch works for all kinds.
    pub fn build(
        &self,
        in_channels: usize,
        hw: usize,
        classes: usize,
        rng: &mut impl Rng,
    ) -> Box<dyn Layer> {
        match self {
            ModelKind::Mlp => Box::new(Mlp::new(
                &MlpConfig::new(in_channels * hw * hw, classes),
                rng,
            )),
            ModelKind::LeNet5 => Box::new(LeNet5::new(in_channels, hw, classes, rng)),
            ModelKind::AlexNet => Box::new(AlexNetS::new(in_channels, hw, classes, rng)),
            ModelKind::ResNet18 => Box::new(ResNet18S::new(in_channels, classes, rng)),
            ModelKind::Vgg11 => Box::new(Vgg11S::new(in_channels, hw, classes, rng)),
            ModelKind::PreAct18 => Box::new(PreActResNetS::new(
                PreActDepth::D18,
                in_channels,
                classes,
                rng,
            )),
            ModelKind::PreAct50 => Box::new(PreActResNetS::new(
                PreActDepth::D50,
                in_channels,
                classes,
                rng,
            )),
            ModelKind::PreAct152 => Box::new(PreActResNetS::new(
                PreActDepth::D152,
                in_channels,
                classes,
                rng,
            )),
            ModelKind::Stn => Box::new(StnClassifier::new(in_channels, hw, classes, rng)),
        }
    }

    /// Label used in figure output.
    pub fn label(&self) -> &'static str {
        match self {
            ModelKind::Mlp => "mlp",
            ModelKind::LeNet5 => "lenet5",
            ModelKind::AlexNet => "alexnet",
            ModelKind::ResNet18 => "resnet18",
            ModelKind::Vgg11 => "vgg11",
            ModelKind::PreAct18 => "preact-18",
            ModelKind::PreAct50 => "preact-50",
            ModelKind::PreAct152 => "preact-152",
            ModelKind::Stn => "stn",
        }
    }
}

impl std::fmt::Display for ModelKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nn::Mode;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use tensor::Tensor;

    #[test]
    fn every_kind_builds_and_forwards() {
        let kinds = [
            ModelKind::Mlp,
            ModelKind::LeNet5,
            ModelKind::AlexNet,
            ModelKind::ResNet18,
            ModelKind::Vgg11,
            ModelKind::PreAct18,
            ModelKind::Stn,
        ];
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        for kind in kinds {
            let mut net = kind.build(3, 16, 10, &mut rng);
            let x = if kind == ModelKind::Mlp {
                Tensor::ones(&[2, 3 * 16 * 16])
            } else {
                Tensor::ones(&[2, 3, 16, 16])
            };
            let y = net.forward(&x, Mode::Eval);
            assert_eq!(y.dims(), &[2, 10], "{kind} output shape");
            assert!(
                crate::dropout_count(net.as_mut()) > 0,
                "{kind} has no search space"
            );
        }
    }

    #[test]
    fn labels_are_unique() {
        let kinds = [
            ModelKind::Mlp,
            ModelKind::LeNet5,
            ModelKind::AlexNet,
            ModelKind::ResNet18,
            ModelKind::Vgg11,
            ModelKind::PreAct18,
            ModelKind::PreAct50,
            ModelKind::PreAct152,
            ModelKind::Stn,
        ];
        let labels: std::collections::HashSet<_> = kinds.iter().map(|k| k.label()).collect();
        assert_eq!(labels.len(), kinds.len());
    }
}
