//! Exemplar selection: which cluster member answers for the whole cluster.
//!
//! Appendix D defines two estimators. The **biased** one deterministically
//! picks the member closest to the cluster's per-dimension *median* feature
//! vector (§4.2) — zero variance, empirically better at small budgets. The
//! **unbiased** one picks a uniform random member, making the clustered
//! estimator a textbook stratified sampler.

use rand::rngs::StdRng;
use rand::Rng;

use crate::dist_sq;
use crate::simd::PointMatrix;

/// The member of `cluster` whose feature vector is closest to the cluster's
/// per-dimension median (the paper's deterministic exemplar).
///
/// # Panics
/// Panics on an empty cluster.
pub fn median_exemplar(points: &PointMatrix, cluster: &[usize]) -> usize {
    assert!(!cluster.is_empty(), "empty cluster");
    if cluster.len() == 1 {
        return cluster[0];
    }
    let mut median = vec![0.0; points.dim()];
    let mut scratch: Vec<f64> = Vec::with_capacity(cluster.len());
    for (d, m) in median.iter_mut().enumerate() {
        scratch.clear();
        scratch.extend(cluster.iter().map(|&i| points.row(i)[d]));
        scratch.sort_by(f64::total_cmp);
        let mid = scratch.len() / 2;
        *m = if scratch.len() % 2 == 1 {
            scratch[mid]
        } else {
            0.5 * (scratch[mid - 1] + scratch[mid])
        };
    }
    cluster
        .iter()
        .copied()
        .min_by(|&a, &b| {
            dist_sq(points.row(a), &median)
                .total_cmp(&dist_sq(points.row(b), &median))
                .then(a.cmp(&b))
        })
        .expect("non-empty cluster")
}

/// A uniform random member (the unbiased estimator of Appendix D.1).
pub fn random_exemplar(cluster: &[usize], rng: &mut StdRng) -> usize {
    assert!(!cluster.is_empty(), "empty cluster");
    cluster[rng.gen_range(0..cluster.len())]
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn median_member_wins() {
        let points = PointMatrix::from_rows(&[
            vec![0.0],
            vec![5.0], // closest to the median (4.0)
            vec![4.0], // exactly the median... see below
            vec![100.0],
        ]);
        // cluster of all: medians of {0,5,4,100} = (4+5)/2 = 4.5 → point 2
        // (4.0) at distance 0.5 beats point 1 (5.0) at 0.5? tie → lower idx 1?
        // distances: p1=0.5, p2=0.5 → tie broken by index: picks 1.
        let e = median_exemplar(&points, &[0, 1, 2, 3]);
        assert!(e == 1 || e == 2);
        // Odd-sized cluster: median of {0,5,4} = 4 → exemplar is point 2.
        assert_eq!(median_exemplar(&points, &[0, 1, 2]), 2);
    }

    #[test]
    fn singleton_cluster() {
        let points = PointMatrix::from_rows(&[vec![1.0], vec![2.0]]);
        assert_eq!(median_exemplar(&points, &[1]), 1);
    }

    #[test]
    fn median_is_outlier_robust() {
        // 9 points near 0, one at 1e6: the exemplar must be from the bulk.
        let mut points: Vec<Vec<f64>> = (0..9).map(|i| vec![f64::from(i) * 0.1]).collect();
        points.push(vec![1e6]);
        let points = PointMatrix::from_rows(&points);
        let cluster: Vec<usize> = (0..10).collect();
        let e = median_exemplar(&points, &cluster);
        assert!(e < 9, "picked the outlier");
    }

    #[test]
    fn random_exemplar_is_member_and_seeded() {
        let cluster = vec![3, 7, 11];
        let mut a = StdRng::seed_from_u64(5);
        let mut b = StdRng::seed_from_u64(5);
        let ea = random_exemplar(&cluster, &mut a);
        let eb = random_exemplar(&cluster, &mut b);
        assert_eq!(ea, eb);
        assert!(cluster.contains(&ea));
    }

    #[test]
    fn random_exemplar_covers_all_members_eventually() {
        let cluster = vec![1, 2, 3];
        let mut rng = StdRng::seed_from_u64(0);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..100 {
            seen.insert(random_exemplar(&cluster, &mut rng));
        }
        assert_eq!(seen.len(), 3);
    }
}
