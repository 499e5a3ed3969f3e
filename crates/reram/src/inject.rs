//! Snapshot/inject/restore machinery and the Monte-Carlo drift driver.

use nn::{Layer, Workspace};
use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;
use tensor::Tensor;

use crate::{DriftModel, FaultError};

/// A copy of every trainable parameter of a network, in visit order.
///
/// Obtained from [`FaultInjector::snapshot`]; call
/// [`WeightSnapshot::restore_into`] to return the network to its pristine
/// state after drift injection.
#[derive(Debug, Clone)]
pub struct WeightSnapshot {
    values: Vec<Tensor>,
}

impl WeightSnapshot {
    /// Checks that `network`'s parameter structure matches the snapshot
    /// without writing anything.
    ///
    /// Shared by every write path ([`WeightSnapshot::restore_into`],
    /// [`FaultInjector::inject_from`]) so a malformed snapshot can never
    /// half-write a model. The success path performs no heap allocation —
    /// this runs once per Monte-Carlo trial.
    ///
    /// # Errors
    ///
    /// Returns [`FaultError::SnapshotMismatch`] naming the first
    /// structural difference.
    pub fn validate(&self, network: &mut dyn Layer) -> Result<(), FaultError> {
        let mut idx = 0usize;
        let mut mismatch: Option<String> = None;
        network.visit_params(&mut |p| {
            if mismatch.is_some() {
                return;
            }
            match self.values.get(idx) {
                None => {
                    mismatch = Some(format!(
                        "network has more parameters than the snapshot's {}",
                        self.values.len()
                    ));
                }
                Some(saved) if saved.dims() != p.value.dims() => {
                    mismatch = Some(format!(
                        "parameter {idx} changed shape since snapshot: {:?} vs {:?}",
                        saved.dims(),
                        p.value.dims()
                    ));
                }
                Some(_) => idx += 1,
            }
        });
        if let Some(reason) = mismatch {
            return Err(FaultError::SnapshotMismatch { reason });
        }
        if idx != self.values.len() {
            return Err(FaultError::SnapshotMismatch {
                reason: format!(
                    "network has {idx} parameters, snapshot has {}",
                    self.values.len()
                ),
            });
        }
        Ok(())
    }

    /// Copies the saved values into `network`'s existing parameter
    /// buffers (`copy_from_slice`), allocating nothing.
    ///
    /// A structural mismatch is detected **before** any parameter is
    /// written, so on error the network is left exactly as it was — a
    /// malformed snapshot (e.g. loaded from a stale weight file by a
    /// campaign scenario) cannot half-restore a model.
    ///
    /// # Errors
    ///
    /// Returns [`FaultError::SnapshotMismatch`] if the network's parameter
    /// structure differs from what the snapshot captured.
    pub fn restore_into(&self, network: &mut dyn Layer) -> Result<(), FaultError> {
        // lint:allow(R1, reason = "validate allocates only to describe a structural mismatch; the restore path itself is allocation-free")
        self.validate(network)?;
        let mut idx = 0usize;
        network.visit_params(&mut |p| {
            p.value
                .as_mut_slice()
                .copy_from_slice(self.values[idx].as_slice());
            idx += 1;
        });
        Ok(())
    }

    /// Number of parameter tensors captured.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the snapshot is empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Total number of scalar weights captured.
    pub fn scalar_count(&self) -> usize {
        self.values.iter().map(Tensor::len).sum()
    }

    /// The captured parameter tensors, in visit order.
    pub fn tensors(&self) -> &[Tensor] {
        &self.values
    }

    /// Serializes the snapshot to a writer in a simple self-describing
    /// little-endian binary format (magic, tensor count, then per tensor:
    /// rank, dims, f32 data). A `&mut` reference can be passed as the
    /// writer.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the writer.
    pub fn write_to<W: std::io::Write>(&self, mut w: W) -> std::io::Result<()> {
        w.write_all(b"BFTW")?;
        w.write_all(&(self.values.len() as u64).to_le_bytes())?;
        for t in &self.values {
            w.write_all(&(t.rank() as u64).to_le_bytes())?;
            for &d in t.dims() {
                w.write_all(&(d as u64).to_le_bytes())?;
            }
            for &v in t.as_slice() {
                w.write_all(&v.to_le_bytes())?;
            }
        }
        Ok(())
    }

    /// Deserializes a snapshot previously produced by
    /// [`WeightSnapshot::write_to`]. A `&mut` reference can be passed as
    /// the reader.
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` on a bad magic header or truncated stream.
    pub fn read_from<R: std::io::Read>(mut r: R) -> std::io::Result<Self> {
        use std::io::{Error, ErrorKind};
        let mut magic = [0u8; 4];
        r.read_exact(&mut magic)?;
        if &magic != b"BFTW" {
            return Err(Error::new(ErrorKind::InvalidData, "bad weight-file magic"));
        }
        let mut u64buf = [0u8; 8];
        r.read_exact(&mut u64buf)?;
        let count = u64::from_le_bytes(u64buf) as usize;
        let mut values = Vec::with_capacity(count);
        for _ in 0..count {
            r.read_exact(&mut u64buf)?;
            let rank = u64::from_le_bytes(u64buf) as usize;
            if rank > 8 {
                return Err(Error::new(
                    ErrorKind::InvalidData,
                    "implausible tensor rank",
                ));
            }
            let mut dims = Vec::with_capacity(rank);
            for _ in 0..rank {
                r.read_exact(&mut u64buf)?;
                dims.push(u64::from_le_bytes(u64buf) as usize);
            }
            let len: usize = dims.iter().product();
            let mut data = Vec::with_capacity(len);
            let mut f32buf = [0u8; 4];
            for _ in 0..len {
                r.read_exact(&mut f32buf)?;
                data.push(f32::from_le_bytes(f32buf));
            }
            values.push(
                Tensor::from_vec(data, &dims)
                    .map_err(|e| Error::new(ErrorKind::InvalidData, e.to_string()))?,
            );
        }
        Ok(WeightSnapshot { values })
    }
}

/// Stateless namespace for drift injection on [`nn::Layer`] networks.
///
/// Injection perturbs **every** trainable parameter — dense and convolution
/// kernels, biases, and normalization γ/β. This mirrors deployment on a
/// crossbar, where all stored coefficients live in drifting cells, and is
/// what makes the paper's normalization "Achilles heel" observable.
#[derive(Debug, Clone, Copy)]
pub struct FaultInjector;

impl FaultInjector {
    /// Captures the current parameter values of `network`.
    pub fn snapshot(network: &mut dyn Layer) -> WeightSnapshot {
        let mut values = Vec::new();
        network.visit_params(&mut |p| values.push(p.value.clone()));
        WeightSnapshot { values }
    }

    /// Applies `model` to every trainable scalar of `network` in place.
    pub fn inject(network: &mut dyn Layer, model: &dyn DriftModel, rng: &mut dyn RngCore) {
        network.visit_params(&mut |p| {
            for v in p.value.as_mut_slice() {
                *v = model.perturb(*v, rng);
            }
        });
    }

    /// Fused restore + inject: writes `model.perturb(pristine, rng)` into
    /// the live network directly from `snapshot`, in one pass and without
    /// allocating.
    ///
    /// For a network currently holding the previous trial's drifted
    /// weights, this is equivalent to `snapshot.restore_into(network)`
    /// followed by `FaultInjector::inject(network, model, rng)` — the
    /// perturbation always sees the pristine value and consumes the RNG
    /// stream in the same visit order — but touches every weight once per
    /// trial instead of twice. This is what lets the Monte-Carlo drivers
    /// skip the per-trial restore pass entirely (one restore runs after
    /// the final trial).
    ///
    /// # Errors
    ///
    /// Returns [`FaultError::SnapshotMismatch`] if `network`'s parameter
    /// structure differs from what `snapshot` captured; the network is
    /// left untouched.
    pub fn inject_from(
        snapshot: &WeightSnapshot,
        network: &mut dyn Layer,
        model: &dyn DriftModel,
        rng: &mut dyn RngCore,
    ) -> Result<(), FaultError> {
        snapshot.validate(network)?;
        let mut idx = 0usize;
        network.visit_params(&mut |p| {
            let pristine = snapshot.values[idx].as_slice();
            for (v, &p0) in p.value.as_mut_slice().iter_mut().zip(pristine) {
                *v = model.perturb(p0, rng);
            }
            idx += 1;
        });
        Ok(())
    }
}

/// Summary statistics of a Monte-Carlo drift evaluation (Eq. 4).
#[derive(Debug, Clone, PartialEq)]
pub struct McStats {
    /// Per-trial metric values.
    pub values: Vec<f32>,
    /// Sample mean.
    pub mean: f32,
    /// Sample standard deviation (0 for a single trial).
    pub std: f32,
}

impl McStats {
    /// Computes statistics from raw per-trial values.
    ///
    /// # Panics
    ///
    /// Panics if `values` is empty.
    pub fn from_values(values: Vec<f32>) -> Self {
        assert!(!values.is_empty(), "Monte-Carlo needs at least one trial");
        // Identical samples (e.g. σ = 0 drift) must report exactly zero
        // spread; the general path below can round the mean and leak a
        // ~1e-7 phantom deviation.
        if values.iter().all(|&v| v == values[0]) {
            return McStats {
                mean: values[0],
                std: 0.0,
                values,
            };
        }
        // Welford's online algorithm in f64. Accumulating in f32 suffers
        // catastrophic cancellation for metrics with large means (e.g.
        // summed logits ~1e6): the naive `Σ(v−mean)²` collapses into
        // rounding noise and can even go negative.
        let mut mean = 0.0f64;
        let mut m2 = 0.0f64;
        for (n, &v) in values.iter().enumerate() {
            let v = v as f64;
            let delta = v - mean;
            mean += delta / (n + 1) as f64;
            m2 += delta * (v - mean);
        }
        let var = m2 / values.len() as f64;
        McStats {
            mean: mean as f32,
            std: var.sqrt() as f32,
            values,
        }
    }
}

/// Mixes a master seed with a stream index through a SplitMix64-style
/// finalizer.
///
/// Plain XOR-with-index schemes (`seed ^ (i << k)`) leave stream 0 equal to
/// the master seed and neighbouring streams differing in a couple of bits —
/// both of which correlate Monte-Carlo draws with other consumers of the
/// master seed (e.g. the training shuffler). The multiply–xor–shift cascade
/// here decorrelates every `(master, stream)` pair, including `stream == 0`.
///
/// # Example
///
/// ```
/// use reram::mix_seed;
///
/// assert_ne!(mix_seed(42, 0), 42, "stream 0 must not reuse the master seed");
/// assert_ne!(mix_seed(42, 0), mix_seed(42, 1));
/// assert_ne!(mix_seed(42, 1), mix_seed(43, 1));
/// ```
pub fn mix_seed(master: u64, stream: u64) -> u64 {
    let mut z = master
        .wrapping_add(0xD6E8_FEB8_6659_FD93)
        .rotate_left(23)
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Monte-Carlo marginalization of a metric over fault distributions — the
/// tractable estimator of the paper's Eq. 3/4,
/// `u ≈ (1/T) Σ_t metric(f(θ·e^{λ_t}))`, pooled over fault levels.
///
/// `levels` pairs each fault model with the seed its trials derive from:
/// sample `(i, t)` drifts the pristine weights under `levels[i].0` with an
/// RNG seeded `mix_seed(levels[i].1, t)`, and the returned values are in
/// level-major order (index `i·trials + t`).
///
/// The `levels.len()·trials` samples are split into contiguous blocks, one
/// per worker thread (at most `workers`). The first block runs on
/// `network` itself — with `workers <= 1` it is the only one, so nothing
/// is cloned or spawned — and every other block on a
/// [`Layer::clone_box`] replica. Each worker owns one [`Workspace`] and
/// hands it to every `metric` call. Every sample drifts straight from one
/// shared snapshot ([`FaultInjector::inject_from`]) and one final
/// [`WeightSnapshot::restore_into`] hands `network` back pristine, so the
/// result is bit-identical for every worker count.
///
/// # Panics
///
/// Panics if `levels` is empty, `trials` is zero, or a worker panics.
///
/// # Example
///
/// ```
/// use nn::{Dense, Layer, Mode};
/// use rand::SeedableRng;
/// use rand_chacha::ChaCha8Rng;
/// use reram::{monte_carlo, LogNormalDrift};
/// use tensor::Tensor;
///
/// let mut rng = ChaCha8Rng::seed_from_u64(0);
/// let mut net = Dense::new(2, 2, &mut rng);
/// let x = Tensor::ones(&[1, 2]);
/// let drift = LogNormalDrift::new(0.3);
/// let stats = monte_carlo(&mut net, &[(&drift, 7)], 8, 2, |n, ws| {
///     let y = n.forward_ws(&x, Mode::Eval, ws);
///     let sum = y.sum();
///     ws.recycle(y);
///     sum
/// });
/// assert_eq!(stats.values.len(), 8);
/// ```
pub fn monte_carlo(
    network: &mut dyn Layer,
    levels: &[(&dyn DriftModel, u64)],
    trials: usize,
    workers: usize,
    metric: impl Fn(&mut dyn Layer, &mut Workspace) -> f32 + Sync,
) -> McStats {
    assert!(
        !levels.is_empty(),
        "Monte-Carlo needs at least one fault level"
    );
    assert!(trials > 0, "Monte-Carlo needs at least one trial");
    let snapshot = FaultInjector::snapshot(network);
    // Evaluates samples `first..first + out.len()` on one network.
    let run = |first: usize, out: &mut [f32], net: &mut dyn Layer| {
        let mut ws = Workspace::new();
        for (k, value) in (first..).zip(out) {
            let (model, level_seed) = levels[k / trials];
            let mut rng = ChaCha8Rng::seed_from_u64(mix_seed(level_seed, (k % trials) as u64));
            FaultInjector::inject_from(&snapshot, net, model, &mut rng)
                .expect("snapshot was taken from this network");
            *value = metric(net, &mut ws);
        }
    };
    let mut values = vec![0.0f32; levels.len() * trials];
    let block = values.len().div_ceil(workers.max(1));
    let mut blocks = values.chunks_mut(block);
    let own = blocks.next().expect("at least one sample");
    std::thread::scope(|scope| {
        let run = &run;
        for (b, out) in blocks.enumerate() {
            // `dyn Layer` is Send but not Sync, so each replica is cloned
            // here and moved into its worker.
            let mut replica = network.clone_box();
            scope.spawn(move || run((b + 1) * block, out, replica.as_mut()));
        }
        run(0, own, network);
    });
    snapshot
        .restore_into(network)
        .expect("snapshot was taken from this network");
    McStats::from_values(values)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GaussianAdditive, LogNormalDrift, StuckAtFault};
    use nn::{Dense, Mode, Sequential};
    use rand::SeedableRng;

    fn test_net(seed: u64) -> Sequential {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        Sequential::new(vec![
            Box::new(Dense::new(3, 4, &mut rng)),
            Box::new(nn::Relu::new()),
            Box::new(Dense::new(4, 2, &mut rng)),
        ])
    }

    #[test]
    fn snapshot_restore_round_trips() {
        let mut net = test_net(0);
        let snap = FaultInjector::snapshot(&mut net);
        assert_eq!(snap.len(), 4); // 2 weights + 2 biases
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        FaultInjector::inject(&mut net, &LogNormalDrift::new(1.0), &mut rng);
        snap.restore_into(&mut net).unwrap();
        let snap2 = FaultInjector::snapshot(&mut net);
        for (a, b) in snap.scalar_count_pairs(&snap2) {
            assert_eq!(a, b);
        }
    }

    impl WeightSnapshot {
        fn scalar_count_pairs<'a>(
            &'a self,
            other: &'a WeightSnapshot,
        ) -> impl Iterator<Item = (f32, f32)> + 'a {
            self.values.iter().zip(&other.values).flat_map(|(a, b)| {
                a.as_slice()
                    .iter()
                    .copied()
                    .zip(b.as_slice().iter().copied())
            })
        }
    }

    #[test]
    fn injection_changes_weights() {
        let mut net = test_net(2);
        let before = FaultInjector::snapshot(&mut net);
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        FaultInjector::inject(&mut net, &GaussianAdditive::new(0.5), &mut rng);
        let after = FaultInjector::snapshot(&mut net);
        let changed = before
            .scalar_count_pairs(&after)
            .filter(|(a, b)| a != b)
            .count();
        assert!(changed > 0, "injection must modify weights");
    }

    /// Σ of the eval-mode outputs on `x`, through the worker's workspace.
    fn output_sum(x: &Tensor) -> impl Fn(&mut dyn Layer, &mut Workspace) -> f32 + Sync + '_ {
        move |n, ws| {
            let y = n.forward_ws(x, Mode::Eval, ws);
            let sum = y.sum();
            ws.recycle(y);
            sum
        }
    }

    #[test]
    fn monte_carlo_sigma_zero_has_no_variance() {
        let mut net = test_net(6);
        let x = Tensor::ones(&[2, 3]);
        let drift = LogNormalDrift::new(0.0);
        let stats = monte_carlo(&mut net, &[(&drift, 1)], 5, 1, output_sum(&x));
        assert!(stats.std < 1e-9, "σ=0 drift must be deterministic");
    }

    #[test]
    fn monte_carlo_trials_are_independent() {
        let mut net = test_net(7);
        let x = Tensor::ones(&[2, 3]);
        let drift = LogNormalDrift::new(0.8);
        let stats = monte_carlo(&mut net, &[(&drift, 2)], 16, 1, output_sum(&x));
        assert_eq!(stats.values.len(), 16);
        assert!(stats.std > 0.0, "independent drifted trials must vary");
    }

    #[test]
    fn monte_carlo_is_reproducible() {
        let x = Tensor::ones(&[2, 3]);
        let drift = LogNormalDrift::new(0.5);
        let s1 = monte_carlo(&mut test_net(8), &[(&drift, 11)], 4, 1, output_sum(&x));
        let s2 = monte_carlo(&mut test_net(8), &[(&drift, 11)], 4, 1, output_sum(&x));
        assert_eq!(s1.values, s2.values);
    }

    /// Sample `(i, t)` is seeded `mix_seed(level_seed_i, t)` and values
    /// come back level-major, so one call over two levels equals one call
    /// per level.
    #[test]
    fn levels_are_seeded_independently_in_level_major_order() {
        let x = Tensor::ones(&[2, 3]);
        let (a, b) = (LogNormalDrift::new(0.7), GaussianAdditive::new(0.3));
        let both: [(&dyn DriftModel, u64); 2] = [(&a, 5), (&b, 6)];
        let both = monte_carlo(&mut test_net(10), &both, 3, 1, output_sum(&x));
        let only_a = monte_carlo(&mut test_net(10), &[(&a, 5)], 3, 1, output_sum(&x));
        let only_b = monte_carlo(&mut test_net(10), &[(&b, 6)], 3, 1, output_sum(&x));
        assert_eq!(both.values[..3], only_a.values[..]);
        assert_eq!(both.values[3..], only_b.values[..]);
    }

    #[test]
    fn parallel_monte_carlo_matches_serial_bitwise() {
        let x = Tensor::ones(&[2, 3]);
        let (a, b) = (LogNormalDrift::new(0.7), StuckAtFault::new(0.2, 0.0, 1.0));
        let levels: [(&dyn DriftModel, u64); 2] = [(&a, 5), (&b, 9)];
        let serial = monte_carlo(&mut test_net(12), &levels, 9, 1, output_sum(&x));
        for workers in [2usize, 3, 8, 32] {
            let parallel = monte_carlo(&mut test_net(12), &levels, 9, workers, output_sum(&x));
            assert_eq!(
                serial.values, parallel.values,
                "{workers} workers diverged from serial"
            );
        }
    }

    #[test]
    fn parallel_monte_carlo_leaves_network_untouched() {
        let mut net = test_net(13);
        let x = Tensor::ones(&[1, 3]);
        let clean = net.forward(&x, Mode::Eval);
        let drift = GaussianAdditive::new(0.4);
        let _ = monte_carlo(&mut net, &[(&drift, 3)], 6, 3, output_sum(&x));
        assert_eq!(clean.as_slice(), net.forward(&x, Mode::Eval).as_slice());
    }

    #[test]
    fn mix_seed_decorrelates_stream_zero() {
        assert_ne!(mix_seed(0, 0), 0);
        assert_ne!(mix_seed(7, 0), 7);
        let streams: Vec<u64> = (0..64).map(|i| mix_seed(123, i)).collect();
        let mut unique = streams.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), streams.len(), "stream collision");
    }

    #[test]
    fn mc_stats_mean_and_std() {
        let s = McStats::from_values(vec![1.0, 3.0]);
        assert_eq!(s.mean, 2.0);
        assert_eq!(s.std, 1.0);
    }

    /// f32 accumulation corrupts the statistics of large-mean samples
    /// (summing 100 values of magnitude 1e6 loses the low bits, and the
    /// biased mean then poisons every squared deviation): the old path
    /// reported mean 1000001.125 / std 1.663 for this input. The f64
    /// Welford path recovers both exactly — each sample is an exact f32,
    /// so mean 1000002 and std √2 are the true values.
    #[test]
    fn mc_stats_survive_large_mean_offset() {
        let values: Vec<f32> = (0..100).map(|i| 1.0e6 + (i % 5) as f32).collect();
        let stats = McStats::from_values(values);
        assert_eq!(stats.mean, 1_000_002.0, "mean biased by f32 summation");
        assert!(
            (stats.std - std::f32::consts::SQRT_2).abs() < 1e-6,
            "variance corrupted by catastrophic cancellation: {}",
            stats.std
        );
    }

    /// The exact-zero-spread shortcut still reports literally 0 for
    /// identical samples, however extreme their magnitude.
    #[test]
    fn mc_stats_identical_samples_have_exactly_zero_std() {
        let s = McStats::from_values(vec![1.0e6 + 0.5; 7]);
        assert_eq!(s.std, 0.0);
        assert_eq!(s.mean, 1.0e6 + 0.5);
    }

    #[test]
    #[should_panic(expected = "at least one trial")]
    fn empty_mc_panics() {
        let _ = McStats::from_values(vec![]);
    }

    #[test]
    fn snapshot_binary_round_trip() {
        let mut net = test_net(9);
        let snap = FaultInjector::snapshot(&mut net);
        let mut buf = Vec::new();
        snap.write_to(&mut buf).unwrap();
        let loaded = WeightSnapshot::read_from(buf.as_slice()).unwrap();
        assert_eq!(loaded.len(), snap.len());
        for (a, b) in snap.tensors().iter().zip(loaded.tensors()) {
            assert_eq!(a.dims(), b.dims());
            assert_eq!(a.as_slice(), b.as_slice());
        }
        // Loaded snapshot can restore the network (deployment round trip).
        loaded.restore_into(&mut net).unwrap();
    }

    #[test]
    fn snapshot_read_rejects_garbage() {
        assert!(WeightSnapshot::read_from(&b"NOPE1234"[..]).is_err());
        assert!(WeightSnapshot::read_from(&b"BF"[..]).is_err()); // truncated
    }

    #[test]
    fn restore_into_mismatched_network_is_a_recoverable_error() {
        let mut small = test_net(20);
        let mut big = {
            let mut rng = ChaCha8Rng::seed_from_u64(21);
            Sequential::new(vec![
                Box::new(Dense::new(3, 4, &mut rng)),
                Box::new(Dense::new(4, 4, &mut rng)),
                Box::new(Dense::new(4, 2, &mut rng)),
            ])
        };
        let small_snap = FaultInjector::snapshot(&mut small);
        let big_snap = FaultInjector::snapshot(&mut big);

        // Too few saved tensors for the target network.
        let err = small_snap.restore_into(&mut big).unwrap_err();
        assert!(matches!(err, crate::FaultError::SnapshotMismatch { .. }));
        // Too many saved tensors for the target network.
        let err = big_snap.restore_into(&mut small).unwrap_err();
        assert!(matches!(err, crate::FaultError::SnapshotMismatch { .. }));
        // Same tensor count, different shapes.
        let mut other = {
            let mut rng = ChaCha8Rng::seed_from_u64(22);
            Sequential::new(vec![
                Box::new(Dense::new(3, 5, &mut rng)),
                Box::new(nn::Relu::new()),
                Box::new(Dense::new(5, 2, &mut rng)),
            ])
        };
        let err = small_snap.restore_into(&mut other).unwrap_err();
        assert!(err.to_string().contains("changed shape"), "{err}");
    }

    #[test]
    fn failed_restore_leaves_the_network_untouched() {
        let mut net = test_net(23);
        let x = Tensor::ones(&[1, 3]);
        let before = net.forward(&x, Mode::Eval);
        let mut other = {
            let mut rng = ChaCha8Rng::seed_from_u64(24);
            Sequential::new(vec![
                Box::new(Dense::new(3, 5, &mut rng)),
                Box::new(nn::Relu::new()),
                Box::new(Dense::new(5, 2, &mut rng)),
            ])
        };
        // First tensor shape matches neither network fully; the pre-write
        // validation must reject without mutating anything.
        assert!(FaultInjector::snapshot(&mut other)
            .restore_into(&mut net)
            .is_err());
        assert_eq!(before.as_slice(), net.forward(&x, Mode::Eval).as_slice());
    }
}
