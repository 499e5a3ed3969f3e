//! Bit pins for the GP surrogate and the suggest loop.
//!
//! Every value is compared as `f64::to_bits`, so any change to the order
//! of a sum, the candidate RNG order or the jitter schedule fails here.
//! The suggest pins cover all three acquisitions under both kernels, on a
//! history whose second trial reports NaN (excluded from the fit, so the
//! space-filling phase lasts one trial longer).

use bayesopt::{Acquisition, BayesOpt, GaussianProcess, Kernel, Matern52, SquaredExponential};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

const TRIALS: usize = 7;
const DIM: usize = 2;

/// Runs `TRIALS` suggest/tell rounds and returns every suggested
/// coordinate, in order, as bits.
fn suggest_bits<K: Kernel + Clone>(kernel: K, acquisition: Acquisition) -> Vec<u64> {
    let mut bo = BayesOpt::new(DIM, kernel)
        .acquisition(acquisition)
        .candidates(48);
    let mut rng = ChaCha8Rng::seed_from_u64(17);
    let mut bits = Vec::new();
    for t in 0..TRIALS {
        let x = bo.suggest(&mut rng).unwrap();
        bits.extend(x.iter().map(|v| v.to_bits()));
        let y = if t == 1 {
            f64::NAN
        } else {
            -(x[0] - 0.3).powi(2) - (x[1] - 0.7).powi(2)
        };
        bo.tell(x, y);
    }
    bits
}

/// Fits a GP on five fixed 2-d points and returns `(mean, variance)` bits
/// at three queries: one at a training point, one between points and one
/// far outside the unit square.
fn posterior_bits<K: Kernel>(kernel: K) -> Vec<(u64, u64)> {
    let xs = [
        [0.1, 0.2],
        [0.4, 0.9],
        [0.8, 0.3],
        [0.55, 0.55],
        [0.95, 0.85],
    ];
    let ys = [0.3, -0.2, 0.7, 0.1, -0.5];
    let mut gp = GaussianProcess::new(kernel, 1e-6);
    gp.fit(xs.iter().zip(ys)).unwrap();
    [[0.4, 0.9], [0.3, 0.5], [2.0, -1.0]]
        .iter()
        .map(|q| {
            let p = gp.posterior(q).unwrap();
            (p.mean.to_bits(), p.variance.to_bits())
        })
        .collect()
}

fn acquisitions() -> [Acquisition; 3] {
    [
        Acquisition::PosteriorMean,
        Acquisition::ExpectedImprovement { xi: 0.01 },
        Acquisition::UpperConfidenceBound { kappa: 1.5 },
    ]
}

/// Suggested coordinates, trial-major, for `suggest_bits`. The first
/// three trials space-fill (fewer than two finite observations), so they
/// agree across every configuration.
const SE_PM: [u64; TRIALS * DIM] = [
    0x3fe138bfe730e6ca,
    0x3fe1ceeaae0de31c,
    0x3fea27882d5d4d14,
    0x3fd0e102d4a3f70a,
    0x3fee1508b92033e1,
    0x3fe8a0ef986f66c6,
    0x3fdc4c4c1c6f2ae4,
    0x3fdb9aaad6e04a4e,
    0x3fde3910a20c9ab6,
    0x3fe2de5079600ca7,
    0x3fd55886107b5c02,
    0x3fe87eeda94921e7,
    0x3fd645d645c7cb42,
    0x3fe7b832f207484c,
];
const M52_PM: [u64; TRIALS * DIM] = [
    0x3fe138bfe730e6ca,
    0x3fe1ceeaae0de31c,
    0x3fea27882d5d4d14,
    0x3fd0e102d4a3f70a,
    0x3fee1508b92033e1,
    0x3fe8a0ef986f66c6,
    0x3fe061f278ce7076,
    0x3fe06883342e1986,
    0x3fde3910a20c9ab6,
    0x3fe2de5079600ca7,
    0x3fdc3fb72c9d0b96,
    0x3fe569e9f6ff39ca,
    0x3fd6d6b1e8f88a1c,
    0x3fe64f8e58a94ed1,
];
/// Both kernels rank the same expected-improvement candidate first on
/// this history, so one pin serves both.
const EI: [u64; TRIALS * DIM] = [
    0x3fe138bfe730e6ca,
    0x3fe1ceeaae0de31c,
    0x3fea27882d5d4d14,
    0x3fd0e102d4a3f70a,
    0x3fee1508b92033e1,
    0x3fe8a0ef986f66c6,
    0x3fa4ee26f5176f30,
    0x3fda411c9df16f44,
    0x3fe3d032f2511fa6,
    0x3fb212376087cf30,
    0x3fc2cd8298b956d8,
    0x3fef29beeef7291c,
    0x3fe08f7941a1b46f,
    0x3feeb708943c55f9,
];
const SE_UCB: [u64; TRIALS * DIM] = [
    0x3fe138bfe730e6ca,
    0x3fe1ceeaae0de31c,
    0x3fea27882d5d4d14,
    0x3fd0e102d4a3f70a,
    0x3fee1508b92033e1,
    0x3fe8a0ef986f66c6,
    0x3f3d5f2c47311000,
    0x3fe92935215a60bf,
    0x3fbcc859e4c063f0,
    0x3fb9e4cd6a9c5c38,
    0x3feea6bcca633776,
    0x3fb2deb4e0cdb850,
    0x3fe08f7941a1b46f,
    0x3feeb708943c55f9,
];
const M52_UCB: [u64; TRIALS * DIM] = [
    0x3fe138bfe730e6ca,
    0x3fe1ceeaae0de31c,
    0x3fea27882d5d4d14,
    0x3fd0e102d4a3f70a,
    0x3fee1508b92033e1,
    0x3fe8a0ef986f66c6,
    0x3f3d5f2c47311000,
    0x3fe92935215a60bf,
    0x3fa651e49b141400,
    0x3fb4e75388a633a0,
    0x3feea6bcca633776,
    0x3fb2deb4e0cdb850,
    0x3fe08f7941a1b46f,
    0x3feeb708943c55f9,
];

#[test]
fn suggest_sequences_are_bit_pinned() {
    let [pm, ei, ucb] = acquisitions();
    let se = || SquaredExponential::isotropic(1.0, 0.3);
    let m52 = || Matern52::new(1.0, 0.3);
    assert_eq!(suggest_bits(se(), pm), SE_PM, "SE posterior mean");
    assert_eq!(suggest_bits(m52(), pm), M52_PM, "Matern-5/2 posterior mean");
    assert_eq!(suggest_bits(se(), ei), EI, "SE expected improvement");
    assert_eq!(
        suggest_bits(m52(), ei),
        EI,
        "Matern-5/2 expected improvement"
    );
    assert_eq!(suggest_bits(se(), ucb), SE_UCB, "SE UCB");
    assert_eq!(suggest_bits(m52(), ucb), M52_UCB, "Matern-5/2 UCB");
}

#[test]
fn posterior_mean_and_variance_are_bit_pinned() {
    assert_eq!(
        posterior_bits(SquaredExponential::isotropic(1.0, 0.3)),
        [
            (0xbfc999989444f39b, 0x3eb0c6f62bb00000),
            (0x3fbec59628934d7e, 0x3fd50dc6242f1702),
            (0x3fb47ae1ab13047b, 0x3feffffffffffff6),
        ]
    );
    assert_eq!(
        posterior_bits(Matern52::new(1.0, 0.3)),
        [
            (0xbfc9999805b2f013, 0x3eb0c6f64f800000),
            (0x3fbf9b7e71adc07c, 0x3fdfeabdbe7b2d8e),
            (0x3fb481275365e533, 0x3feffffff4d1a2f1),
        ]
    );
}
