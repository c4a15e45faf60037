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
        *m = column_median(&mut scratch);
    }
    // One distance per member, compared by `total_cmp`, then index.
    (cluster.iter())
        .map(|&i| (dist_sq(points.row(i), &median), i))
        .min_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)))
        .expect("non-empty cluster")
        .1
}

/// Median of a non-empty column under `f64::total_cmp` (the mean of the two
/// middle values for an even count), reordering `column`. Two selections
/// instead of a sort: `total_cmp` is a total order on bit patterns, so the
/// order statistics — and the median's bits — are what the sort would give.
fn column_median(column: &mut [f64]) -> f64 {
    let (mid, odd) = (column.len() / 2, column.len() % 2 == 1);
    let (below, &mut upper_mid, _) = column.select_nth_unstable_by(mid, f64::total_cmp);
    if odd {
        return upper_mid;
    }
    let lower_mid = below.iter().copied().max_by(f64::total_cmp);
    0.5 * (lower_mid.expect("an even count has a lower half") + upper_mid)
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
    fn selected_median_has_the_sorted_medians_bits() {
        let sorted_median = |column: &[f64]| {
            let mut sorted = column.to_vec();
            sorted.sort_by(f64::total_cmp);
            let mid = sorted.len() / 2;
            if sorted.len() % 2 == 1 {
                sorted[mid]
            } else {
                0.5 * (sorted[mid - 1] + sorted[mid])
            }
        };
        let nan = f64::NAN;
        let columns: [&[f64]; 10] = [
            &[3.0],
            &[0.0, -0.0],
            &[-0.0, 0.0, -0.0, 0.0],
            &[0.0, -0.0, 0.0],
            &[2.0, 2.0, 2.0, 2.0, 1.0, 1.0],
            &[nan, 1.0, -1.0],
            &[nan, 1.0, -nan, 5.0],
            &[nan, nan, 1.0, 2.0],
            &[1e300, -1e300, 1e-300, -0.0, 7.0, 7.0],
            &[5.0, 4.0, 3.0, 2.0, 1.0, 0.0, -1.0, -2.0],
        ];
        for column in columns {
            // Every rotation: selection must not depend on the input order.
            for turn in 0..column.len() {
                let mut rotated = column.to_vec();
                rotated.rotate_left(turn);
                assert_eq!(
                    column_median(&mut rotated).to_bits(),
                    sorted_median(column).to_bits(),
                    "{column:?} rotated by {turn}"
                );
            }
        }
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
