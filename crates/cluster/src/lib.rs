//! Clustering for PS3's similarity-aware sample selection (§4.2, §5.5.5).
//!
//! The paper samples by clustering partition feature vectors into as many
//! clusters as the sampling budget and reading one *exemplar* per cluster
//! with weight = cluster size. Two algorithm families are evaluated:
//!
//! * [`mod@kmeans`] — Lloyd's algorithm with k-means++ seeding, exact at
//!   every input size,
//! * [`mod@hac`] — hierarchical agglomerative clustering via the nearest-neighbor
//!   chain algorithm, with *single* and *Ward* linkage (Table 6).
//!
//! [`exemplar`] implements both estimators of Appendix D: the biased
//! median-nearest exemplar and the unbiased uniform-random exemplar.
//!
//! The numeric inner loops live in [`mod@simd`] (blocked, SIMD-friendly,
//! deterministic accumulation order, Lloyd sweeps pruned by distance
//! bounds that only ever skip a proven result) with scalar, unbounded
//! mirrors in `oracle`; set `PS3_STRICT_KERNELS=1`
//! ([`ps3_runtime::strict_kernels`]) to assert kernel/oracle bit-identity
//! inside every k-means call and every median exemplar.

pub mod exemplar;
pub mod hac;
pub mod kmeans;
#[doc(hidden)]
pub mod oracle;
pub mod simd;

pub use exemplar::{median_exemplar, random_exemplar};
pub use hac::{hac, Linkage};
pub use kmeans::{kmeans, kmeans_fit, kmeans_fit_counted, KmeansFit};
pub use simd::PointMatrix;

use rand::rngs::StdRng;

/// Which clustering algorithm to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClusterAlgo {
    /// Lloyd's k-means with k-means++ seeding.
    KMeans,
    /// Agglomerative, single linkage.
    HacSingle,
    /// Agglomerative, Ward linkage.
    HacWard,
}

impl ClusterAlgo {
    /// Display label matching the paper's tables.
    pub fn label(self) -> &'static str {
        match self {
            ClusterAlgo::KMeans => "KMeans",
            ClusterAlgo::HacSingle => "HAC(single)",
            ClusterAlgo::HacWard => "HAC(ward)",
        }
    }
}

/// Lloyd's sweep cap, the same at every input size.
const MAX_SWEEPS: usize = 25;

/// Cluster `points` into (at most) `k` clusters; returns member-index lists
/// and the `dist_sq` evaluations k-means spent on them (see
/// [`kmeans_fit_counted`]; 0 for HAC and for the trivial cases).
///
/// Fewer than `k` clusters come back when there are fewer points.
///
/// The matrix is clustered as given. A dimension that is 0.0 in every point
/// adds exactly 0.0 to every pairwise distance, so the caller that builds
/// the matrix (the picker's group projection) leaves such dimensions out;
/// nothing here copies the points again to do it.
pub fn cluster(
    points: &PointMatrix,
    k: usize,
    algo: ClusterAlgo,
    rng: &mut StdRng,
) -> (Vec<Vec<usize>>, u64) {
    if points.n() == 0 || k == 0 {
        return (Vec::new(), 0);
    }
    if points.n() <= k {
        return ((0..points.n()).map(|i| vec![i]).collect(), 0);
    }
    match algo {
        ClusterAlgo::KMeans => kmeans::kmeans_counted(points, k, rng, MAX_SWEEPS),
        ClusterAlgo::HacSingle => (hac(points, k, Linkage::Single), 0),
        ClusterAlgo::HacWard => (hac(points, k, Linkage::Ward), 0),
    }
}

/// Squared Euclidean distance — the blocked kernel; see [`simd::dist_sq`].
#[inline]
pub(crate) fn dist_sq(a: &[f64], b: &[f64]) -> f64 {
    simd::dist_sq(a, b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn two_blobs() -> PointMatrix {
        let mut pts = Vec::new();
        for i in 0..10 {
            pts.push(vec![0.0 + f64::from(i) * 0.01, 0.0]);
            pts.push(vec![10.0 + f64::from(i) * 0.01, 10.0]);
        }
        PointMatrix::from_rows(&pts)
    }

    #[test]
    fn every_algo_partitions_all_points() {
        let pts = two_blobs();
        for algo in [
            ClusterAlgo::KMeans,
            ClusterAlgo::HacSingle,
            ClusterAlgo::HacWard,
        ] {
            let mut rng = StdRng::seed_from_u64(1);
            let (clusters, _) = cluster(&pts, 2, algo, &mut rng);
            assert_eq!(clusters.len(), 2, "{algo:?}");
            let mut seen: Vec<usize> = clusters.iter().flatten().copied().collect();
            seen.sort_unstable();
            assert_eq!(seen, (0..20).collect::<Vec<_>>(), "{algo:?}");
            // Blobs are well separated: each cluster holds one parity class.
            for c in &clusters {
                let parities: std::collections::HashSet<usize> = c.iter().map(|&i| i % 2).collect();
                assert_eq!(parities.len(), 1, "{algo:?} mixed the blobs");
            }
        }
    }

    #[test]
    fn k_larger_than_points_gives_singletons() {
        let pts = PointMatrix::from_rows(&[vec![1.0], vec![2.0]]);
        let mut rng = StdRng::seed_from_u64(0);
        let (clusters, evals) = cluster(&pts, 10, ClusterAlgo::KMeans, &mut rng);
        assert_eq!(clusters.len(), 2);
        assert_eq!(evals, 0, "singletons cost no distance");
    }

    #[test]
    fn empty_inputs() {
        let mut rng = StdRng::seed_from_u64(0);
        let none = PointMatrix::from_rows(&[]);
        assert!(cluster(&none, 3, ClusterAlgo::KMeans, &mut rng)
            .0
            .is_empty());
        let one = PointMatrix::from_rows(&[vec![1.0]]);
        assert!(cluster(&one, 0, ClusterAlgo::HacWard, &mut rng)
            .0
            .is_empty());
    }

    #[test]
    fn zero_dim_pruning_is_invisible_to_results() {
        // Blob structure carried by 2 of 40 dims, the rest all-zero:
        // clustering must behave exactly as if the zeros weren't there,
        // whether or not the caller projected them away.
        let pts: Vec<Vec<f64>> = (0..20)
            .map(|i| {
                let mut row = vec![0.0f64; 40];
                row[7] = f64::from(i % 2) * 10.0 + f64::from(i) * 0.01;
                row[23] = f64::from(i % 2) * 10.0;
                row
            })
            .collect();
        let live: Vec<Vec<f64>> = pts.iter().map(|r| vec![r[7], r[23]]).collect();
        let (full, pruned) = (PointMatrix::from_rows(&pts), PointMatrix::from_rows(&live));
        for algo in [ClusterAlgo::KMeans, ClusterAlgo::HacWard] {
            let (clusters, _) = cluster(&full, 2, algo, &mut StdRng::seed_from_u64(1));
            assert_eq!(clusters.len(), 2, "{algo:?}");
            for c in &clusters {
                let parities: std::collections::HashSet<usize> = c.iter().map(|&i| i % 2).collect();
                assert_eq!(parities.len(), 1, "{algo:?} mixed the blobs");
            }
            assert_eq!(
                clusters,
                cluster(&pruned, 2, algo, &mut StdRng::seed_from_u64(1)).0,
                "{algo:?}: all-zero dimensions changed the clustering"
            );
        }
    }
}
