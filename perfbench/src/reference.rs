//! Result digests pinned at the commit that introduced the benchmark, for
//! seeds 0 to 10. A change that alters any of them changed what the search
//! computes: every run on that seed then counts as failed.

/// `(workload, seed, digest)`.
const PINNED: &[(&str, u64, u64)] = &[
    ("engine-mlp-moons", 0, 0xee1efea281426aba),
    ("engine-mlp-moons", 1, 0x39407f8fa2ab0539),
    ("engine-mlp-moons", 2, 0x673249f5ced4c625),
    ("engine-mlp-moons", 3, 0xee2548015b2bce35),
    ("engine-mlp-moons", 4, 0xe479429701370679),
    ("engine-mlp-moons", 5, 0x836b1173021d4ebb),
    ("engine-mlp-moons", 6, 0x0bf6b5c02b116747),
    ("engine-mlp-moons", 7, 0x988f49c45009c2ab),
    ("engine-mlp-moons", 8, 0x52a3f84f00d05820),
    ("engine-mlp-moons", 9, 0x8f3baf065a2db5a8),
    ("engine-mlp-moons", 10, 0x3e96666fe6581014),
    ("engine-lenet-digits", 0, 0xf957f68be0dab0ac),
    ("engine-lenet-digits", 1, 0xa2c45191c73d734b),
    ("engine-lenet-digits", 2, 0xf8d686360d67dd72),
    ("engine-lenet-digits", 3, 0xb1743f415b14facc),
    ("engine-lenet-digits", 4, 0xce7fb854c79d15bd),
    ("engine-lenet-digits", 5, 0x651e31f0990a8a57),
    ("engine-lenet-digits", 6, 0x24242665b5961f60),
    ("engine-lenet-digits", 7, 0xc8f5cf641863d412),
    ("engine-lenet-digits", 8, 0x85e2d882f589671e),
    ("engine-lenet-digits", 9, 0x0633f6d75f72824c),
    ("engine-lenet-digits", 10, 0x25d701fb1ee2a04c),
    ("campaign-fault-mix", 0, 0x4c1b6b67c60881b8),
    ("campaign-fault-mix", 1, 0x44e3c7bcbf2d3c8e),
    ("campaign-fault-mix", 2, 0x10fb941659fca73b),
    ("campaign-fault-mix", 3, 0xa5fd3d68fcd6a1ff),
    ("campaign-fault-mix", 4, 0xa8db76397699ac9d),
    ("campaign-fault-mix", 5, 0xdf82b50f056c0ea9),
    ("campaign-fault-mix", 6, 0xb0fb22ed9b4e2dcc),
    ("campaign-fault-mix", 7, 0x38c900319cdd329c),
    ("campaign-fault-mix", 8, 0xefd14c37af8b18b2),
    ("campaign-fault-mix", 9, 0x91ca3e89704d3e88),
    ("campaign-fault-mix", 10, 0xa2f2a9b23c29d2c0),
];

/// The pinned digest of `workload` at `seed`, if there is one.
pub fn digest(workload: &str, seed: u64) -> Option<u64> {
    PINNED
        .iter()
        .find(|(w, s, _)| *w == workload && *s == seed)
        .map(|&(_, _, d)| d)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Workload;

    #[test]
    fn every_workload_is_pinned_on_seeds_0_to_10() {
        for w in Workload::ALL {
            for seed in 0..=10 {
                assert!(digest(w.name(), seed).is_some(), "{} {seed}", w.name());
            }
        }
        assert_eq!(PINNED.len(), 33);
        assert_eq!(digest("engine-mlp-moons", 11), None);
    }
}
