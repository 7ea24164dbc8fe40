//! Deterministic input generation for workload instances.
//!
//! All workloads generate inputs from a seed so that every run — host
//! reference, simulation, benchmarks — is reproducible.  Values are kept
//! small enough that the largest accumulations (matrix products of 10⁹
//! terms, reductions of 10⁸ elements) stay far from `i64` overflow.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Uniform values in `[lo, hi]`.
pub fn vec_in_range(n: u64, lo: i64, hi: i64, seed: u64) -> Vec<i64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| rng.gen_range(lo..=hi)).collect()
}

/// The paper's vector inputs: random small integers.
pub fn small_ints(n: u64, seed: u64) -> Vec<i64> {
    vec_in_range(n, -1000, 1000, seed)
}

/// The paper's reduction inputs: "randomly generated vectors of 0/1
/// values".
pub fn zero_ones(n: u64, seed: u64) -> Vec<i64> {
    vec_in_range(n, 0, 1, seed)
}

/// Histogram inputs: values in `[0, bins)`.
pub fn bin_values(n: u64, bins: u64, seed: u64) -> Vec<i64> {
    vec_in_range(n, 0, bins as i64 - 1, seed)
}

/// Matrix entries kept tiny so `n³`-term products stay in range.
pub fn matrix_entries(n_sq: u64, seed: u64) -> Vec<i64> {
    vec_in_range(n_sq, -4, 4, seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_generation_is_deterministic() {
        assert_eq!(small_ints(100, 7), small_ints(100, 7));
        assert_ne!(small_ints(100, 7), small_ints(100, 8));
    }

    #[test]
    fn ranges_respected() {
        for &v in &zero_ones(1000, 1) {
            assert!(v == 0 || v == 1);
        }
        for &v in &bin_values(1000, 16, 2) {
            assert!((0..16).contains(&v));
        }
        for &v in &matrix_entries(1000, 3) {
            assert!((-4..=4).contains(&v));
        }
    }

    #[test]
    fn length_matches() {
        assert_eq!(small_ints(17, 0).len(), 17);
        assert!(small_ints(0, 0).is_empty());
    }
}
