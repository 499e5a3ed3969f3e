//! Bit pins for every normalization and activation layer, built through
//! `NormKind::build` and `Activation::build`.
//!
//! Each value is an FNV-1a digest of `f32::to_bits`, so any change to the
//! order of a sum, a grouping or an elementwise formula fails here. On a
//! mismatch the assertion prints the whole table as it now stands.

use nn::{Activation, Mode, NormKind, Param};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use tensor::Tensor;

const FNV_OFFSET: u64 = 0xcbf29ce484222325;

fn fold(h: &mut u64, values: &[f32]) {
    for &v in values {
        *h ^= v.to_bits() as u64;
        *h = h.wrapping_mul(0x100000001b3);
    }
}

/// Digests of `[train output, input gradient, γ/β gradients, eval output]`
/// for one norm layer of 8 channels over three SGD steps on `dims` inputs,
/// then an eval-mode forward (for `Batch`, through the running statistics
/// the three steps left behind).
fn norm_digests(kind: NormKind, dims: &[usize]) -> [u64; 4] {
    let mut rng = ChaCha8Rng::seed_from_u64(11);
    let mut layer = kind.build(8);
    let mut h = [FNV_OFFSET; 4];
    for _ in 0..3 {
        let x = Tensor::randn(dims, 0.5, 2.0, &mut rng);
        let y = layer.forward(&x, Mode::Train);
        fold(&mut h[0], y.as_slice());
        let g = Tensor::randn(dims, 0.0, 1.0, &mut rng);
        let gx = layer.backward(&g);
        fold(&mut h[1], gx.as_slice());
        layer.visit_params(&mut |p: &mut Param| {
            fold(&mut h[2], p.grad.as_slice());
            let step = p.grad.map(|v| 0.1 * v);
            for (w, s) in p.value.as_mut_slice().iter_mut().zip(step.as_slice()) {
                *w -= s;
            }
            p.zero_grad();
        });
    }
    let x = Tensor::randn(dims, -0.5, 3.0, &mut rng);
    fold(&mut h[3], layer.forward(&x, Mode::Eval).as_slice());
    h
}

/// Digests of `[forward, backward]` for one activation on special values
/// (±0, ±1, tiny, huge and infinite magnitudes) followed by 64 normal draws.
fn activation_digests(act: Activation) -> [u64; 2] {
    let mut values = vec![
        0.0,
        -0.0,
        1.0,
        -1.0,
        1e-30,
        -1e-30,
        f32::MIN_POSITIVE / 4.0,
        -f32::MIN_POSITIVE / 4.0,
        0.5,
        -2.5,
        30.0,
        -30.0,
        88.0,
        -88.0,
        1e6,
        -1e6,
        3.0e38,
        -3.0e38,
        f32::INFINITY,
        f32::NEG_INFINITY,
    ];
    let mut rng = ChaCha8Rng::seed_from_u64(23);
    values.extend_from_slice(Tensor::randn(&[64], 0.0, 4.0, &mut rng).as_slice());
    let x = Tensor::from_slice(&values);
    let g = Tensor::randn(&[values.len()], 1.0, 2.0, &mut rng);
    let mut layer = act.build();
    let mut h = [FNV_OFFSET; 2];
    fold(&mut h[0], layer.forward(&x, Mode::Train).as_slice());
    fold(&mut h[1], layer.backward(&g).as_slice());
    h
}

const NORM_PINS: [(&str, [u64; 4]); 10] = [
    (
        "none [4, 8]",
        [
            0x6acbdecf8e02e758,
            0x54561563b9d10cc2,
            0xcbf29ce484222325,
            0x981da163c4812a16,
        ],
    ),
    (
        "none [2, 8, 3, 3]",
        [
            0xc9044a7411323ad0,
            0x093a2f0a1960b62c,
            0xcbf29ce484222325,
            0x4f0d716ded0c133c,
        ],
    ),
    (
        "instance_norm [4, 8]",
        [
            0x77495f87261ef11e,
            0xe0a3f4b608d0246a,
            0xc8d484b9f9816197,
            0xe6980783781eb989,
        ],
    ),
    (
        "instance_norm [2, 8, 3, 3]",
        [
            0x0e528902483fc396,
            0xfa5e36a051e108bd,
            0xdee903893335c4aa,
            0x52cd14d7c318fdab,
        ],
    ),
    (
        "batch_norm [4, 8]",
        [
            0x0502af9f5efdfded,
            0x3d710f5dc7058fa9,
            0x89dd068f3291a989,
            0xfc1d55b22052187a,
        ],
    ),
    (
        "batch_norm [2, 8, 3, 3]",
        [
            0x53ba38c0198e321c,
            0xe93d8e9c057ae678,
            0x2255f145d3364f22,
            0x0fa9cfc40ce5e5b0,
        ],
    ),
    (
        "group_norm [4, 8]",
        [
            0x1e8de3347b18f862,
            0xdb2b70bd12500f68,
            0x404a4bee8c79a10d,
            0xec701f298d9e3087,
        ],
    ),
    (
        "group_norm [2, 8, 3, 3]",
        [
            0xec0c23dfcb1190b8,
            0x3a94ea4b5c0c36b4,
            0x84b2623ec8e62ff0,
            0x396a0f498fc3aabd,
        ],
    ),
    (
        "layer_norm [4, 8]",
        [
            0x77495f87261ef11e,
            0xe0a3f4b608d0246a,
            0xc8d484b9f9816197,
            0xe6980783781eb989,
        ],
    ),
    (
        "layer_norm [2, 8, 3, 3]",
        [
            0xf96c5fe69c62bef7,
            0x5ffc1f337ebdfd78,
            0xab5a26f09598b5d7,
            0x2f5e64a89dc2291a,
        ],
    ),
];

const ACTIVATION_PINS: [(&str, [u64; 2]); 4] = [
    ("relu", [0x0160eae410274955, 0xc2ada8d52d31833b]),
    ("leaky_relu", [0x39ed8844ca7f1873, 0xd82e619067caa2a5]),
    ("elu", [0xf5b2c373a3fa67b5, 0xee81f33fad2e6c16]),
    ("gelu", [0x63763768ace69e68, 0x7aba45bd6bc051ea]),
];

fn table<const N: usize>(rows: &[(String, [u64; N])]) -> String {
    rows.iter()
        .map(|(name, d)| {
            let hex: Vec<String> = d.iter().map(|v| format!("{v:#018x}")).collect();
            format!("    (\"{name}\", [{}]),\n", hex.join(", "))
        })
        .collect()
}

#[test]
fn norm_layers_are_bit_pinned() {
    let got: Vec<(String, [u64; 4])> = NormKind::all()
        .into_iter()
        .flat_map(|kind| {
            [&[4, 8][..], &[2, 8, 3, 3][..]]
                .map(|dims| (format!("{kind} {dims:?}"), norm_digests(kind, dims)))
        })
        .collect();
    let want: Vec<(String, [u64; 4])> = NORM_PINS
        .iter()
        .map(|(name, d)| (name.to_string(), *d))
        .collect();
    assert!(got == want, "norm digests now:\n{}", table(&got));
}

#[test]
fn activation_layers_are_bit_pinned() {
    let got: Vec<(String, [u64; 2])> = Activation::all()
        .into_iter()
        .map(|act| (act.to_string(), activation_digests(act)))
        .collect();
    let want: Vec<(String, [u64; 2])> = ACTIVATION_PINS
        .iter()
        .map(|(name, d)| (name.to_string(), *d))
        .collect();
    assert!(got == want, "activation digests now:\n{}", table(&got));
}
