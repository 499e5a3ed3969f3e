//! Candidate samplers over the unit hypercube `[0, 1]^d`.

use rand::Rng;

/// `n` Latin-hypercube samples in `[0, 1]^d`: each dimension is stratified
/// into `n` equal bins, each bin used exactly once, with independent
/// per-dimension permutations.
pub fn latin_hypercube(n: usize, d: usize, rng: &mut impl Rng) -> Vec<Vec<f64>> {
    if n == 0 {
        return Vec::new();
    }
    let mut columns: Vec<Vec<f64>> = Vec::with_capacity(d);
    for _ in 0..d {
        let mut perm: Vec<usize> = (0..n).collect();
        // Fisher–Yates shuffle.
        for i in (1..n).rev() {
            let j = rng.gen_range(0..=i);
            perm.swap(i, j);
        }
        columns.push(
            perm.into_iter()
                .map(|bin| (bin as f64 + rng.gen::<f64>()) / n as f64)
                .collect(),
        );
    }
    (0..n)
        .map(|i| columns.iter().map(|col| col[i]).collect())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn latin_hypercube_stratifies_each_dimension() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let n = 16;
        let pts = latin_hypercube(n, 3, &mut rng);
        for dim in 0..3 {
            let mut bins = vec![false; n];
            for p in &pts {
                let b = ((p[dim] * n as f64) as usize).min(n - 1);
                assert!(!bins[b], "bin {b} of dim {dim} used twice");
                bins[b] = true;
            }
            assert!(bins.iter().all(|&b| b), "all bins covered in dim {dim}");
        }
    }

    #[test]
    fn latin_hypercube_handles_degenerate_sizes() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        assert!(latin_hypercube(0, 3, &mut rng).is_empty());
        let one = latin_hypercube(1, 2, &mut rng);
        assert_eq!(one.len(), 1);
        assert!(one[0].iter().all(|&v| (0.0..1.0).contains(&v)));
    }
}
