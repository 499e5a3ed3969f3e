//! The dropout search space (§III-B): the paper's per-layer rates
//! `α ∈ [0, 1]^{K−1}`, and the same rates tied into one shared coordinate
//! or into groups of layers.

use models::dropout_count;
use nn::Layer;

use crate::BayesFtError;

/// Validates a `max_rate` override (shared with the engine builder).
pub(crate) fn check_max_rate(max_rate: f32) -> Result<(), BayesFtError> {
    if !(max_rate > 0.0 && max_rate <= 0.95) {
        return Err(BayesFtError::InvalidConfig(format!(
            "max dropout rate must be in (0, 0.95], got {max_rate}"
        )));
    }
    Ok(())
}

/// Counts a network's dropout layers; a space over none is empty.
fn nonzero_dropout_count(network: &mut dyn Layer) -> Result<usize, BayesFtError> {
    match dropout_count(network) {
        0 => Err(BayesFtError::EmptySearchSpace),
        layers => Ok(layers),
    }
}

/// A mapping from unit-cube Bayesian-optimization coordinates onto a
/// network's dropout rates.
///
/// Each dropout layer (in `visit_dropout` order) is driven by one
/// coordinate or by none; a coordinate `a` becomes the rate
/// `clamp(a, 0, 1) · max_rate`. `max_rate` defaults to 0.8: rates near 1
/// would zero entire layers, which both the paper's clamp-free formulation
/// and training stability argue against. Applying the same `alpha` twice
/// configures the network identically, so the engine can re-apply the best
/// vector after the search.
///
/// # Example
///
/// ```
/// use bayesft::DropoutSearchSpace;
/// use models::{dropout_rates, Mlp, MlpConfig};
/// use rand::SeedableRng;
/// use rand_chacha::ChaCha8Rng;
///
/// let mut rng = ChaCha8Rng::seed_from_u64(0);
/// let mut net = Mlp::new(&MlpConfig::new(4, 2).depth(5), &mut rng); // 4 dropouts
///
/// let per_layer = DropoutSearchSpace::probe(&mut net);
/// assert_eq!(per_layer.dim(), 4);
/// per_layer.apply(&mut net, &[0.5, 1.0, 0.0, 0.25])?;
///
/// let shared = DropoutSearchSpace::shared(&mut net)?;
/// assert_eq!(shared.dim(), 1);
/// shared.apply(&mut net, &[1.0])?;
/// assert!(dropout_rates(&mut net).iter().all(|&r| (r - 0.8).abs() < 1e-6));
///
/// let grouped = DropoutSearchSpace::grouped(&mut net, &[vec![0, 1], vec![2, 3]])?;
/// assert_eq!(grouped.dim(), 2);
/// grouped.apply(&mut net, &[0.0, 1.0])?;
/// let rates = dropout_rates(&mut net);
/// assert!(rates[0] < 1e-6 && (rates[3] - 0.8).abs() < 1e-6);
/// # Ok::<(), bayesft::BayesFtError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DropoutSearchSpace {
    /// The coordinate driving each dropout layer, in `visit_dropout` order;
    /// `None` leaves that layer's rate as it is.
    coords: Vec<Option<usize>>,
    dim: usize,
    max_rate: f32,
    label: &'static str,
}

impl DropoutSearchSpace {
    fn new(coords: Vec<Option<usize>>, dim: usize, label: &'static str) -> Self {
        DropoutSearchSpace {
            coords,
            dim,
            max_rate: 0.8,
            label,
        }
    }

    /// Probes a network for its dropout layers and builds the paper's
    /// space: one coordinate per layer (label `per_layer`).
    ///
    /// # Panics
    ///
    /// Panics if the network has no dropout layers; use
    /// [`DropoutSearchSpace::try_probe`] for a fallible variant.
    pub fn probe(network: &mut dyn Layer) -> Self {
        Self::try_probe(network)
            .expect("network has no dropout layers; BayesFT's search space is empty")
    }

    /// Fallible [`DropoutSearchSpace::probe`].
    ///
    /// # Errors
    ///
    /// Returns [`BayesFtError::EmptySearchSpace`] if the network has no
    /// dropout layers.
    pub fn try_probe(network: &mut dyn Layer) -> Result<Self, BayesFtError> {
        let layers = nonzero_dropout_count(network)?;
        Ok(Self::new(
            (0..layers).map(Some).collect(),
            layers,
            "per_layer",
        ))
    }

    /// A one-dimensional space: a single shared rate drives every dropout
    /// layer (label `shared_rate`). The GP then runs over `[0, 1]` — the
    /// right trade on homogeneous stacks or tiny trial budgets.
    ///
    /// # Errors
    ///
    /// Returns [`BayesFtError::EmptySearchSpace`] if the network has no
    /// dropout layers.
    pub fn shared(network: &mut dyn Layer) -> Result<Self, BayesFtError> {
        let layers = nonzero_dropout_count(network)?;
        Ok(Self::new(vec![Some(0); layers], 1, "shared_rate"))
    }

    /// Ties one coordinate to each group of dropout-layer indices (in
    /// `visit_dropout` order; label `layer_group`). Layers not mentioned in
    /// any group keep whatever rate they already have.
    ///
    /// # Errors
    ///
    /// Returns [`BayesFtError::EmptySearchSpace`] if `groups` is empty or
    /// any group is empty, [`BayesFtError::DimensionMismatch`] if an index
    /// exceeds the network's dropout count, and
    /// [`BayesFtError::InvalidConfig`] if an index appears in two groups.
    pub fn grouped(network: &mut dyn Layer, groups: &[Vec<usize>]) -> Result<Self, BayesFtError> {
        let layers = dropout_count(network);
        if groups.is_empty() || groups.iter().any(Vec::is_empty) {
            return Err(BayesFtError::EmptySearchSpace);
        }
        let mut coords = vec![None; layers];
        for (g, group) in groups.iter().enumerate() {
            for &idx in group {
                let slot = coords.get_mut(idx).ok_or(BayesFtError::DimensionMismatch {
                    what: "group index",
                    expected: layers,
                    got: idx,
                })?;
                if slot.replace(g).is_some() {
                    return Err(BayesFtError::InvalidConfig(format!(
                        "dropout layer {idx} appears in more than one group"
                    )));
                }
            }
        }
        Ok(Self::new(coords, groups.len(), "layer_group"))
    }

    /// Splits a network's dropout layers into `k` contiguous groups of (as
    /// close as possible to) equal size — a structure-agnostic default that
    /// ties neighbouring stages together. The earlier groups take the
    /// remainder.
    ///
    /// # Errors
    ///
    /// Returns [`BayesFtError::EmptySearchSpace`] for dropout-free
    /// networks and [`BayesFtError::InvalidConfig`] if `k` is zero or
    /// exceeds the layer count.
    pub fn chunked(network: &mut dyn Layer, k: usize) -> Result<Self, BayesFtError> {
        let layers = nonzero_dropout_count(network)?;
        if k == 0 || k > layers {
            return Err(BayesFtError::InvalidConfig(format!(
                "cannot split {layers} dropout layers into {k} groups"
            )));
        }
        let (base, extra) = (layers / k, layers % k);
        let coords = (0..k)
            .flat_map(|g| std::iter::repeat_n(Some(g), base + usize::from(g < extra)))
            .collect();
        Ok(Self::new(coords, k, "layer_group"))
    }

    /// Overrides the maximum dropout rate that α = 1 maps to.
    ///
    /// # Panics
    ///
    /// Panics if `max_rate` is outside `(0, 0.95]`.
    pub fn max_rate(mut self, max_rate: f32) -> Self {
        check_max_rate(max_rate).unwrap_or_else(|e| panic!("{e}"));
        self.max_rate = max_rate;
        self
    }

    /// Number of coordinates (the Bayesian-optimization dimensionality).
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Short label identifying the grouping in a
    /// [`RunReport`](crate::RunReport): `per_layer`, `shared_rate` or
    /// `layer_group`.
    pub fn label(&self) -> &'static str {
        self.label
    }

    /// Checks that this space fits `network` — called once by the engine
    /// before the search starts, so a space probed from one network cannot
    /// silently drive a prefix of another.
    ///
    /// # Errors
    ///
    /// Returns [`BayesFtError::DimensionMismatch`] if the network's
    /// dropout-layer count differs from the one the space was built for.
    pub fn validate(&self, network: &mut dyn Layer) -> Result<(), BayesFtError> {
        let got = dropout_count(network);
        if got != self.coords.len() {
            return Err(BayesFtError::DimensionMismatch {
                what: "network dropout-layer",
                expected: self.coords.len(),
                got,
            });
        }
        Ok(())
    }

    /// Writes unit-cube coordinates into the network's dropout rates.
    ///
    /// # Errors
    ///
    /// Returns [`BayesFtError::DimensionMismatch`] if
    /// `alpha.len() != dim()` and [`BayesFtError::InvalidConfig`] if a
    /// coordinate is not finite; the network is left untouched in both
    /// cases.
    pub fn apply(&self, network: &mut dyn Layer, alpha: &[f64]) -> Result<(), BayesFtError> {
        if alpha.len() != self.dim {
            return Err(BayesFtError::DimensionMismatch {
                what: "alpha",
                expected: self.dim,
                got: alpha.len(),
            });
        }
        if let Some(a) = alpha.iter().find(|a| !a.is_finite()) {
            return Err(BayesFtError::InvalidConfig(format!(
                "search coordinates must be finite, got {a}"
            )));
        }
        let mut layer = 0;
        network.visit_dropout(&mut |d| {
            if let Some(&Some(c)) = self.coords.get(layer) {
                d.set_rate((alpha[c] as f32).clamp(0.0, 1.0) * self.max_rate);
            }
            layer += 1;
        });
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use models::{dropout_rates, set_dropout_rates, Mlp, MlpConfig};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn mlp(depth: usize) -> Mlp {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        Mlp::new(&MlpConfig::new(4, 2).depth(depth), &mut rng)
    }

    #[test]
    fn probe_counts_layers() {
        let mut net = mlp(6);
        assert_eq!(DropoutSearchSpace::probe(&mut net).dim(), 5);
    }

    #[test]
    fn apply_and_read_round_trip() {
        let mut net = mlp(4);
        let space = DropoutSearchSpace::probe(&mut net);
        let alpha = vec![0.25, 0.5, 1.0];
        space.apply(&mut net, &alpha).unwrap();
        for (a, r) in alpha.iter().zip(dropout_rates(&mut net)) {
            assert_eq!(r, (*a as f32) * 0.8, "{a}");
        }
    }

    #[test]
    fn apply_scales_by_max_rate() {
        let mut net = mlp(3);
        let space = DropoutSearchSpace::probe(&mut net).max_rate(0.5);
        space.apply(&mut net, &[1.0, 1.0]).unwrap();
        let rates = dropout_rates(&mut net);
        assert!(rates.iter().all(|&r| (r - 0.5).abs() < 1e-6));
    }

    #[test]
    fn apply_rejects_wrong_dimension() {
        let mut net = mlp(3);
        let space = DropoutSearchSpace::probe(&mut net);
        let err = space.apply(&mut net, &[0.5]).unwrap_err();
        assert!(matches!(
            err,
            BayesFtError::DimensionMismatch {
                expected: 2,
                got: 1,
                ..
            }
        ));
    }

    #[test]
    fn apply_rejects_non_finite_coordinates_before_writing() {
        let mut net = mlp(3);
        set_dropout_rates(&mut net, &[0.1, 0.1]);
        let space = DropoutSearchSpace::probe(&mut net);
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let err = space.apply(&mut net, &[0.5, bad]).unwrap_err();
            assert!(
                matches!(err, BayesFtError::InvalidConfig(_)),
                "{bad}: {err}"
            );
            assert_eq!(dropout_rates(&mut net), vec![0.1, 0.1], "{bad}");
        }
    }

    #[test]
    #[should_panic(expected = "search space is empty")]
    fn probing_dropout_free_network_panics() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mut net = Mlp::new(
            &MlpConfig::new(4, 2).dropout(models::DropoutKind::None),
            &mut rng,
        );
        let _ = DropoutSearchSpace::probe(&mut net);
    }

    #[test]
    fn try_probe_reports_empty_space() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mut net = Mlp::new(
            &MlpConfig::new(4, 2).dropout(models::DropoutKind::None),
            &mut rng,
        );
        assert_eq!(
            DropoutSearchSpace::try_probe(&mut net).unwrap_err(),
            BayesFtError::EmptySearchSpace
        );
        assert_eq!(
            DropoutSearchSpace::shared(&mut net).unwrap_err(),
            BayesFtError::EmptySearchSpace
        );
    }

    #[test]
    fn shared_space_drives_all_layers() {
        let mut net = mlp(5);
        let space = DropoutSearchSpace::shared(&mut net).unwrap();
        assert_eq!(space.dim(), 1);
        space.apply(&mut net, &[0.5]).unwrap();
        let rates = dropout_rates(&mut net);
        assert_eq!(rates.len(), 4);
        assert!(rates.iter().all(|&r| (r - 0.4).abs() < 1e-6));
    }

    #[test]
    fn grouped_space_ties_members_and_spares_others() {
        let mut net = mlp(5); // 4 dropout layers
        set_dropout_rates(&mut net, &[0.1, 0.1, 0.1, 0.1]);
        let space = DropoutSearchSpace::grouped(&mut net, &[vec![0, 2]]).unwrap();
        space.apply(&mut net, &[1.0]).unwrap();
        let rates = dropout_rates(&mut net);
        assert!((rates[0] - 0.8).abs() < 1e-6);
        assert!((rates[2] - 0.8).abs() < 1e-6);
        assert!((rates[1] - 0.1).abs() < 1e-6, "ungrouped layer changed");
        assert!((rates[3] - 0.1).abs() < 1e-6, "ungrouped layer changed");
    }

    #[test]
    fn grouped_space_validates_input() {
        let mut net = mlp(4); // 3 dropout layers
        assert!(DropoutSearchSpace::grouped(&mut net, &[]).is_err());
        assert!(DropoutSearchSpace::grouped(&mut net, &[vec![]]).is_err());
        assert!(DropoutSearchSpace::grouped(&mut net, &[vec![7]]).is_err());
        assert!(DropoutSearchSpace::grouped(&mut net, &[vec![0], vec![0]]).is_err());
    }

    #[test]
    fn chunked_covers_all_layers_evenly() {
        let mut net = mlp(6); // 5 dropout layers
        let space = DropoutSearchSpace::chunked(&mut net, 2).unwrap();
        assert_eq!(space.dim(), 2);
        space.apply(&mut net, &[1.0, 0.0]).unwrap();
        let rates = dropout_rates(&mut net);
        // First chunk gets 3 layers, second 2.
        assert!(rates[..3].iter().all(|&r| (r - 0.8).abs() < 1e-6));
        assert!(rates[3..].iter().all(|&r| r < 1e-6));
        assert!(DropoutSearchSpace::chunked(&mut net, 0).is_err());
        assert!(DropoutSearchSpace::chunked(&mut net, 9).is_err());
    }

    /// Each grouping's report name matches its dimension.
    #[test]
    fn names_match_dimensions() {
        let mut net = mlp(4);
        let per_layer = DropoutSearchSpace::probe(&mut net);
        let shared = DropoutSearchSpace::shared(&mut net).unwrap();
        let grouped = DropoutSearchSpace::chunked(&mut net, 3).unwrap();
        assert_eq!((per_layer.label(), per_layer.dim()), ("per_layer", 3));
        assert_eq!((shared.label(), shared.dim()), ("shared_rate", 1));
        assert_eq!((grouped.label(), grouped.dim()), ("layer_group", 3));
    }
}
