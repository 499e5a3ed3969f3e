//! Residual and pre-activation residual blocks (He et al., refs [23], [26]),
//! used by the ResNet-18 and PreAct-ResNet model families of Fig. 3(d, f–h).

use tensor::Tensor;

use crate::{Layer, Mode, Param, Sequential, Workspace};

/// A residual block: `y = main(x) + shortcut(x)`.
///
/// With no shortcut the identity is used, which requires `main` to preserve
/// the input shape.
///
/// # Example
///
/// ```
/// use nn::{Identity, Layer, Mode, Residual, Sequential};
/// use tensor::Tensor;
///
/// // main = identity, shortcut = identity → y = 2x
/// let mut block = Residual::new(
///     Sequential::new(vec![Box::new(Identity::new())]),
///     None,
/// );
/// let y = block.forward(&Tensor::ones(&[1, 4]), Mode::Eval);
/// assert_eq!(y.as_slice(), &[2.0, 2.0, 2.0, 2.0]);
/// ```
#[derive(Clone)]
pub struct Residual {
    main: Sequential,
    shortcut: Option<Sequential>,
}

impl Residual {
    /// Creates a residual block. A `None` shortcut means identity.
    pub fn new(main: Sequential, shortcut: Option<Sequential>) -> Self {
        Residual { main, shortcut }
    }

    /// The main branch (for dropout-insertion hooks).
    pub fn main_mut(&mut self) -> &mut Sequential {
        &mut self.main
    }
}

impl Layer for Residual {
    fn forward_ws(&mut self, input: &Tensor, mode: Mode, ws: &mut Workspace) -> Tensor {
        let mut main_out = self.main.forward_ws(input, mode, ws);
        match &mut self.shortcut {
            Some(s) => {
                let short_out = s.forward_ws(input, mode, ws);
                assert_eq!(
                    main_out.dims(),
                    short_out.dims(),
                    "residual branch shape mismatch: main {} vs shortcut {}",
                    main_out.shape(),
                    short_out.shape()
                );
                main_out.add_assign(&short_out);
                ws.recycle(short_out);
            }
            None => {
                assert_eq!(
                    main_out.dims(),
                    input.dims(),
                    "residual branch shape mismatch: main {} vs shortcut {}",
                    main_out.shape(),
                    input.shape()
                );
                main_out.add_assign(input);
            }
        }
        main_out
    }

    fn backward_ws(&mut self, grad_out: &Tensor, ws: &mut Workspace) -> Tensor {
        let mut g_main = self.main.backward_ws(grad_out, ws);
        match &mut self.shortcut {
            Some(s) => {
                let g_short = s.backward_ws(grad_out, ws);
                g_main.add_assign(&g_short);
                ws.recycle(g_short);
            }
            None => g_main.add_assign(grad_out),
        }
        g_main
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.main.visit_params(f);
        if let Some(s) = &mut self.shortcut {
            s.visit_params(f);
        }
    }

    fn visit_dropout(&mut self, f: &mut dyn FnMut(&mut crate::Dropout)) {
        self.main.visit_dropout(f);
        if let Some(s) = &mut self.shortcut {
            s.visit_dropout(f);
        }
    }

    fn name(&self) -> &'static str {
        "residual"
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

impl std::fmt::Debug for Residual {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Residual")
            .field("main", &self.main)
            .field("has_shortcut", &self.shortcut.is_some())
            .finish()
    }
}

/// A pre-activation residual block: activations and norms run *before* the
/// convolutions inside `main`, and the skip connection is pure identity (or
/// a projection when shapes change). Structurally this is just [`Residual`];
/// the type exists so model summaries distinguish the two families.
#[derive(Clone)]
pub struct PreActBlock {
    inner: Residual,
}

impl PreActBlock {
    /// Creates a pre-activation block. A `None` shortcut means identity.
    pub fn new(main: Sequential, shortcut: Option<Sequential>) -> Self {
        PreActBlock {
            inner: Residual::new(main, shortcut),
        }
    }

    /// The main branch (for dropout-insertion hooks).
    pub fn main_mut(&mut self) -> &mut Sequential {
        self.inner.main_mut()
    }
}

impl Layer for PreActBlock {
    fn forward_ws(&mut self, input: &Tensor, mode: Mode, ws: &mut Workspace) -> Tensor {
        self.inner.forward_ws(input, mode, ws)
    }

    fn backward_ws(&mut self, grad_out: &Tensor, ws: &mut Workspace) -> Tensor {
        self.inner.backward_ws(grad_out, ws)
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.inner.visit_params(f);
    }

    fn visit_dropout(&mut self, f: &mut dyn FnMut(&mut crate::Dropout)) {
        self.inner.visit_dropout(f);
    }

    fn name(&self) -> &'static str {
        "preact_block"
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

impl std::fmt::Debug for PreActBlock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PreActBlock").finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Dense, GradCheck, Identity, Relu};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn identity_residual_doubles() {
        let mut block = Residual::new(Sequential::new(vec![Box::new(Identity::new())]), None);
        let x = Tensor::from_slice(&[1.0, -2.0]);
        assert_eq!(block.forward(&x, Mode::Eval).as_slice(), &[2.0, -4.0]);
        // Backward: gradient doubles too.
        assert_eq!(block.backward(&x).as_slice(), &[2.0, -4.0]);
    }

    #[test]
    fn residual_gradcheck_with_dense_main() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let mut block = Residual::new(
            Sequential::new(vec![
                Box::new(Dense::new(3, 3, &mut rng)),
                Box::new(Relu::new()),
                Box::new(Dense::new(3, 3, &mut rng)),
            ]),
            None,
        );
        let x = Tensor::randn(&[2, 3], 0.0, 1.0, &mut rng);
        let gc = GradCheck::new().eps(1e-2);
        assert!(gc.max_input_error(&mut block, &x) < 5e-2);
        assert!(gc.max_param_error(&mut block, &x) < 5e-2);
    }

    #[test]
    fn projection_shortcut_gradcheck() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let mut block = Residual::new(
            Sequential::new(vec![Box::new(Dense::new(3, 4, &mut rng))]),
            Some(Sequential::new(vec![Box::new(Dense::new(3, 4, &mut rng))])),
        );
        let x = Tensor::randn(&[2, 3], 0.0, 1.0, &mut rng);
        let gc = GradCheck::new().eps(1e-2);
        assert!(gc.max_input_error(&mut block, &x) < 5e-2);
    }

    #[test]
    fn preact_block_delegates() {
        let mut block = PreActBlock::new(Sequential::new(vec![Box::new(Identity::new())]), None);
        let x = Tensor::from_slice(&[3.0]);
        assert_eq!(block.forward(&x, Mode::Eval).as_slice(), &[6.0]);
        assert_eq!(block.name(), "preact_block");
        assert_eq!(block.param_count(), 0);
    }
}
