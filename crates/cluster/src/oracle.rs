//! Scalar reference implementations of the blocked kernels in
//! [`crate::simd`] — the "oracle" side of the kernel/oracle discipline.
//!
//! Everything here is written with plain index arithmetic and no iterator
//! adapters, but it commits to the **same accumulation spec** as the
//! kernels: eight lane accumulators selected by `i % LANES`, the same fixed
//! pairwise combine tree, per-[`crate::simd::UPDATE_BLOCK`] partial sums
//! merged in ascending block order, the same k-means++ RNG draw sequence,
//! and the same empty-cluster reseed rule. IEEE addition is not
//! associative, so the grouping *is* the definition — two independently
//! written implementations of the same grouping must agree to the bit,
//! and `tests/kernel_oracle.rs` plus `PS3_STRICT_KERNELS=1` hold them to
//! it (NaN and ±0.0 inputs included).
//!
//! This module is `#[doc(hidden)]` public so integration tests and the
//! strict-mode assertions can reach it; it is not part of the crate's API.

use rand::rngs::StdRng;
use rand::Rng;

use crate::exemplar::one_nan;
use crate::kmeans::KmeansFit;
use crate::simd::{PointMatrix, LANES, UPDATE_BLOCK};

/// Scalar mirror of [`crate::simd::dist_sq`]: lane `i % LANES` accumulates
/// element `i`, the lanes combine by the shared pairwise tree, and the tail
/// past the last full lane-group adds sequentially.
pub fn dist_sq(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len());
    let full = (a.len() / LANES) * LANES;
    let mut acc = [0.0f64; LANES];
    let mut i = 0;
    while i < full {
        let d = a[i] - b[i];
        acc[i % LANES] += d * d;
        i += 1;
    }
    let mut sum = ((acc[0] + acc[4]) + (acc[1] + acc[5])) + ((acc[2] + acc[6]) + (acc[3] + acc[7]));
    while i < a.len() {
        let d = a[i] - b[i];
        sum += d * d;
        i += 1;
    }
    sum
}

/// Scalar mirror of [`crate::simd::nearest_centroid`]: strict `<` from
/// `(0, ∞)` — ties keep the lowest index, NaN never wins.
fn nearest(row: &[f64], centroids: &[Vec<f64>]) -> usize {
    let mut best = 0usize;
    let mut best_d = f64::INFINITY;
    for (c, centroid) in centroids.iter().enumerate() {
        let d = dist_sq(row, centroid);
        if d < best_d {
            best_d = d;
            best = c;
        }
    }
    best
}

/// Scalar mirror of [`crate::kmeans::kmeans_fit`]: identical RNG draws,
/// identical blocked accumulation, identical reseed rule — bit-identical
/// output, arrived at through none of the kernel code.
///
/// # Panics
/// Panics when `k == 0` or there are fewer points than `k`.
pub fn kmeans_fit(points: &[Vec<f64>], k: usize, rng: &mut StdRng, max_iter: usize) -> KmeansFit {
    assert!(k > 0 && points.len() >= k);
    let n = points.len();
    let dim = points[0].len();
    let mut centroids = pp_init(points, k, rng);
    let mut assignment = vec![0usize; n];
    let mut sweeps = 0usize;
    let mut converged = false;

    for _ in 0..max_iter {
        sweeps += 1;
        let mut sums = vec![vec![0.0f64; dim]; k];
        let mut counts = vec![0usize; k];
        let mut changed = false;

        // Per-block partial sums, merged ascending — the grouping the
        // blocked kernel defines.
        let blocks = n.div_ceil(UPDATE_BLOCK).max(1);
        for b in 0..blocks {
            let start = b * UPDATE_BLOCK;
            let end = (start + UPDATE_BLOCK).min(n);
            let mut bsums = vec![vec![0.0f64; dim]; k];
            let mut bcounts = vec![0usize; k];
            for i in start..end {
                let best = nearest(&points[i], &centroids);
                if assignment[i] != best {
                    changed = true;
                }
                assignment[i] = best;
                bcounts[best] += 1;
                for d in 0..dim {
                    bsums[best][d] += points[i][d];
                }
            }
            for c in 0..k {
                counts[c] += bcounts[c];
                for d in 0..dim {
                    sums[c][d] += bsums[c][d];
                }
            }
        }

        for c in 0..k {
            if counts[c] > 0 {
                for d in 0..dim {
                    centroids[c][d] = sums[c][d] / counts[c] as f64;
                }
            }
        }
        for c in 0..k {
            if counts[c] == 0 {
                let mut far = 0usize;
                let mut far_d = f64::NEG_INFINITY;
                for i in 0..n {
                    let d = dist_sq(&points[i], &centroids[assignment[i]]);
                    if d > far_d {
                        far_d = d;
                        far = i;
                    }
                }
                centroids[c] = points[far].clone();
                changed = true;
            }
        }
        if !changed {
            converged = true;
            break;
        }
    }

    KmeansFit {
        centroids,
        assignment,
        sweeps,
        converged,
    }
}

/// Scalar mirror of the kernel's k-means++ seeding: one `gen_range(0..n)`
/// for the first center, then per additional center a sequential sum of
/// `d2` and one `gen_range(0.0..total)` (or `gen_range(0..n)` when the
/// total is not positive), walking `d2` to find the index.
fn pp_init(points: &[Vec<f64>], k: usize, rng: &mut StdRng) -> Vec<Vec<f64>> {
    let n = points.len();
    let first = rng.gen_range(0..n);
    let mut centroids = vec![points[first].clone()];
    let mut d2: Vec<f64> = (0..n).map(|i| dist_sq(&points[i], &centroids[0])).collect();
    while centroids.len() < k {
        let mut total = 0.0f64;
        for &d in &d2 {
            total += d;
        }
        let next = if total <= 0.0 {
            rng.gen_range(0..n)
        } else {
            let mut target = rng.gen_range(0.0..total);
            let mut idx = 0usize;
            for (i, &d) in d2.iter().enumerate() {
                if target < d {
                    idx = i;
                    break;
                }
                target -= d;
                idx = i;
            }
            idx
        };
        centroids.push(points[next].clone());
        let newest = centroids.len() - 1;
        for i in 0..n {
            let d = dist_sq(&points[i], &centroids[newest]);
            if d < d2[i] {
                d2[i] = d;
            }
        }
    }
    centroids
}

/// The median exemplar as first written, the specification
/// [`crate::median_exemplar`] is held to: per dimension, gather the
/// members' values and select the median under `f64::total_cmp` (the mean
/// of the two middle values for an even count), then the member nearest
/// that median by [`crate::simd::dist_sq`], compared by `total_cmp`, ties
/// to the lower index. Every NaN, value or distance, is the positive quiet
/// NaN before `total_cmp` sees it, so none sorts below a number.
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
        scratch.extend(cluster.iter().map(|&i| one_nan(points.row(i)[d])));
        *m = column_median(&mut scratch);
    }
    // One distance per member, compared by `total_cmp`, then index.
    (cluster.iter())
        .map(|&i| (one_nan(crate::simd::dist_sq(points.row(i), &median)), i))
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
