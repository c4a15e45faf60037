//! Hierarchical agglomerative clustering via the nearest-neighbor chain
//! algorithm — O(n²) time, O(n²/2) memory — with Lance–Williams updates for
//! *single* and *Ward* linkage (the two the paper compares, §5.5.5).
//!
//! The pairwise matrix is built once and cached in **condensed
//! upper-triangular** form (n(n−1)/2 cells instead of n²), initialized with
//! the blocked kernels through the norm expansion
//! ‖x−y‖² = ‖x‖² − 2x·y + ‖y‖²: row norms are precomputed once, so the init
//! is one [`crate::simd::dot`] per pair instead of a subtract-square-sum
//! pass. All later merges touch the cached matrix only, via the
//! Lance–Williams recurrences — no distance is ever recomputed from points.
//!
//! The NN-chain merge order is not sorted by merge height, so cutting the
//! dendrogram at k clusters first re-sorts merges by height and replays the
//! `n − k` smallest through a union-find (exactly how scipy's
//! `fcluster(..., 'maxclust')` behaves for reducible linkages).

use crate::simd::{dot, PointMatrix};

/// Linkage criterion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Linkage {
    /// Minimum pairwise distance between clusters — chains easily.
    Single,
    /// Ward's minimum-variance criterion.
    Ward,
}

/// Condensed upper-triangular pairwise matrix: cell `(i, j)` with `i < j`
/// lives at `i·n − i(i+1)/2 + (j − i − 1)`.
struct Condensed {
    data: Vec<f64>,
    n: usize,
}

impl Condensed {
    #[inline]
    fn idx(&self, i: usize, j: usize) -> usize {
        debug_assert!(i < j && j < self.n);
        i * self.n - i * (i + 1) / 2 + (j - i - 1)
    }

    #[inline]
    fn get(&self, i: usize, j: usize) -> f64 {
        if i < j {
            self.data[self.idx(i, j)]
        } else {
            self.data[self.idx(j, i)]
        }
    }

    #[inline]
    fn set(&mut self, i: usize, j: usize, v: f64) {
        let at = if i < j {
            self.idx(i, j)
        } else {
            self.idx(j, i)
        };
        self.data[at] = v;
    }
}

/// Build the condensed squared-distance matrix from `points` using
/// precomputed row norms and blocked dot products. Rounding can push a
/// tiny true distance negative; those clamp to 0.0 with a comparison (not
/// `f64::max`, which would swallow NaN — NaN distances must stay NaN so
/// they keep losing every `<` comparison, same as the direct formula).
fn condensed_from_points(m: &PointMatrix) -> Condensed {
    let n = m.n();
    let norms = m.row_norms();
    let mut data = Vec::with_capacity(n * (n - 1) / 2);
    for i in 0..n {
        for j in (i + 1)..n {
            let d = norms[i] + norms[j] - 2.0 * dot(m.row(i), m.row(j));
            data.push(if d < 0.0 { 0.0 } else { d });
        }
    }
    Condensed { data, n }
}

/// Cluster `points` into `k` groups; returns member-index lists.
///
/// # Panics
/// Panics when `k == 0`.
pub fn hac(points: &PointMatrix, k: usize, linkage: Linkage) -> Vec<Vec<usize>> {
    let n = points.n();
    assert!(k > 0);
    if n <= k {
        return (0..n).map(|i| vec![i]).collect();
    }

    // Pairwise squared distances; Ward's recurrence operates on squared
    // Euclidean, single linkage is monotone in it.
    let mut dist = condensed_from_points(points);

    let mut active = vec![true; n];
    let mut size = vec![1.0f64; n];
    let mut merges: Vec<(usize, usize, f64)> = Vec::with_capacity(n - 1);
    let mut chain: Vec<usize> = Vec::with_capacity(n);

    let mut remaining = n;
    while remaining > 1 {
        if chain.is_empty() {
            let start = active.iter().position(|&a| a).expect("remaining > 1");
            chain.push(start);
        }
        loop {
            let a = *chain.last().expect("chain non-empty");
            // Nearest active neighbor of a, preferring the chain predecessor
            // on ties (required for NN-chain correctness).
            let prev = if chain.len() >= 2 {
                Some(chain[chain.len() - 2])
            } else {
                None
            };
            let mut best = usize::MAX;
            let mut best_d = f64::INFINITY;
            for (j, &alive) in active.iter().enumerate() {
                if j == a || !alive {
                    continue;
                }
                let d = dist.get(a, j);
                if d < best_d || (d == best_d && Some(j) == prev) {
                    best_d = d;
                    best = j;
                }
            }
            if Some(best) == prev {
                // Reciprocal nearest neighbors: merge.
                let b = best;
                chain.pop();
                chain.pop();
                merges.push((a, b, best_d));
                // Lance–Williams update into slot `a`; deactivate `b`.
                let (sa, sb) = (size[a], size[b]);
                for j in 0..n {
                    if j == a || j == b || !active[j] {
                        continue;
                    }
                    let daj = dist.get(a, j);
                    let dbj = dist.get(b, j);
                    let new = match linkage {
                        Linkage::Single => daj.min(dbj),
                        Linkage::Ward => {
                            let sj = size[j];
                            ((sa + sj) * daj + (sb + sj) * dbj - sj * best_d) / (sa + sb + sj)
                        }
                    };
                    dist.set(a, j, new);
                }
                active[b] = false;
                size[a] += size[b];
                remaining -= 1;
                break;
            }
            chain.push(best);
        }
    }

    // Cut: replay the n−k smallest merges through a union-find.
    merges.sort_by(|x, y| x.2.total_cmp(&y.2));
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }
    for &(a, b, _) in merges.iter().take(n - k) {
        let (ra, rb) = (find(&mut parent, a), find(&mut parent, b));
        if ra != rb {
            parent[rb] = ra;
        }
    }
    let mut byroot: std::collections::HashMap<usize, Vec<usize>> = std::collections::HashMap::new();
    for i in 0..n {
        let r = find(&mut parent, i);
        byroot.entry(r).or_default().push(i);
    }
    let mut clusters: Vec<Vec<usize>> = byroot.into_values().collect();
    clusters.sort_by_key(|c| c[0]);
    clusters
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn blobs(counts: &[usize], gap: f64) -> Vec<Vec<f64>> {
        let mut pts = Vec::new();
        for (b, &c) in counts.iter().enumerate() {
            for i in 0..c {
                pts.push(vec![b as f64 * gap + i as f64 * 0.01, b as f64 * gap]);
            }
        }
        pts
    }

    #[test]
    fn ward_separates_blobs() {
        let pts = blobs(&[8, 8, 8], 100.0);
        let clusters = hac(&PointMatrix::from_rows(&pts), 3, Linkage::Ward);
        assert_eq!(clusters.len(), 3);
        for c in &clusters {
            assert_eq!(c.len(), 8);
        }
    }

    #[test]
    fn single_linkage_follows_chains() {
        // A tight chain of points plus one distant outlier: single linkage
        // keeps the chain together at k=2.
        let mut pts: Vec<Vec<f64>> = (0..12).map(|i| vec![f64::from(i) * 1.0]).collect();
        pts.push(vec![1000.0]);
        let clusters = hac(&PointMatrix::from_rows(&pts), 2, Linkage::Single);
        assert_eq!(clusters.len(), 2);
        let sizes: Vec<usize> = clusters.iter().map(Vec::len).collect();
        assert!(sizes.contains(&12) && sizes.contains(&1), "{sizes:?}");
    }

    #[test]
    fn ward_prefers_balanced_merges_over_chains() {
        // Two blobs of 6 plus a chain bridging them: ward should still cut
        // into coherent halves rather than peeling one point off.
        let pts = blobs(&[6, 6], 10.0);
        let clusters = hac(&PointMatrix::from_rows(&pts), 2, Linkage::Ward);
        let sizes: Vec<usize> = clusters.iter().map(Vec::len).collect();
        assert_eq!(sizes, vec![6, 6]);
    }

    #[test]
    fn k_equals_n_is_singletons() {
        let pts = blobs(&[4], 1.0);
        let clusters = hac(&PointMatrix::from_rows(&pts), 4, Linkage::Ward);
        assert_eq!(clusters.len(), 4);
        assert!(clusters.iter().all(|c| c.len() == 1));
    }

    #[test]
    fn duplicate_points_merge_first() {
        // Identical rows must land at distance exactly 0.0 under the norm
        // expansion (‖x‖² + ‖x‖² − 2·dot(x,x) with the same kernel for both
        // terms), so duplicates still merge before anything else.
        let mut pts = vec![vec![5.0]; 6];
        pts.push(vec![100.0]);
        pts.push(vec![101.0]);
        let clusters = hac(&PointMatrix::from_rows(&pts), 2, Linkage::Single);
        let sizes: Vec<usize> = {
            let mut s: Vec<usize> = clusters.iter().map(Vec::len).collect();
            s.sort_unstable();
            s
        };
        assert_eq!(sizes, vec![2, 6]);
    }

    #[test]
    fn condensed_indexing_round_trips() {
        let n = 7;
        let mut c = Condensed {
            data: vec![0.0; n * (n - 1) / 2],
            n,
        };
        let mut v = 1.0;
        for i in 0..n {
            for j in (i + 1)..n {
                c.set(i, j, v);
                v += 1.0;
            }
        }
        let mut expect = 1.0;
        for i in 0..n {
            for j in (i + 1)..n {
                assert_eq!(c.get(i, j), expect);
                assert_eq!(c.get(j, i), expect, "symmetric access");
                expect += 1.0;
            }
        }
    }

    proptest! {
        #[test]
        fn partitions_every_point(n in 3usize..40, k in 1usize..6, ward in any::<bool>()) {
            let k = k.min(n);
            let pts: Vec<Vec<f64>> = (0..n)
                .map(|i| vec![(i as f64 * 17.0) % 29.0, (i as f64 * 5.0) % 11.0])
                .collect();
            let linkage = if ward { Linkage::Ward } else { Linkage::Single };
            let clusters = hac(&PointMatrix::from_rows(&pts), k, linkage);
            prop_assert_eq!(clusters.len(), k);
            let mut all: Vec<usize> = clusters.iter().flatten().copied().collect();
            all.sort_unstable();
            prop_assert_eq!(all, (0..n).collect::<Vec<_>>());
        }
    }
}
