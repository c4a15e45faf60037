//! Exemplar selection: which cluster member answers for the whole cluster.
//!
//! Appendix D defines two estimators. The **biased** one deterministically
//! picks the member closest to the cluster's per-dimension *median* feature
//! vector (§4.2) — zero variance, empirically better at small budgets. The
//! **unbiased** one picks a uniform random member, making the clustered
//! estimator a textbook stratified sampler.
//!
//! The biased exemplar is the picker's per-cluster cost after k-means, so
//! its medians are found a run of [`LANES`] dimensions at a time (see
//! [`median_exemplar`]); `crate::oracle::median_exemplar`, one selection
//! per dimension, is the specification it is held to.

use std::sync::OnceLock;

use rand::rngs::StdRng;
use rand::Rng;

use crate::simd::{self, Isa, PointMatrix, LANES};

/// Clusters up to this size sort their values through a comparator
/// network, [`LANES`] dimensions per vector min/max; larger ones select per
/// dimension, whose linear cost wins once the network's `m·log²m` grows.
const NETWORK_MAX: usize = 64;

/// The member of `cluster` whose feature vector is closest to the cluster's
/// per-dimension median (the paper's deterministic exemplar): the median
/// under `f64::total_cmp`, the mean of the two middle values for an even
/// count, then one distance per member, compared by `total_cmp`, ties to
/// the lower index. Every NaN, value or distance, is taken as the one
/// positive quiet NaN before it is compared: it sorts above every
/// number, so a NaN feature never pulls a median down and a NaN distance
/// never wins, whatever sign the data or the arithmetic gave it.
///
/// Under `PS3_STRICT_KERNELS=1` every call re-runs
/// [`crate::oracle::median_exemplar`] and asserts the same member.
///
/// # Panics
/// Panics on an empty cluster (and, strict mode only, on a divergence from
/// the oracle).
pub fn median_exemplar(points: &PointMatrix, cluster: &[usize]) -> usize {
    assert!(!cluster.is_empty(), "empty cluster");
    let pick = if cluster.len() == 1 {
        cluster[0]
    } else {
        let isa = Isa::detect();
        let median = cluster_median(isa, points, cluster);
        // One distance per member, compared by `total_cmp`, then index.
        (cluster.iter())
            .map(|&i| (one_nan(isa.dist_sq(points.row(i), &median)), i))
            .min_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)))
            .expect("non-empty cluster")
            .1
    };
    if ps3_runtime::strict_kernels() {
        assert_eq!(
            pick,
            crate::oracle::median_exemplar(points, cluster),
            "strict kernels: median exemplar diverged from the oracle"
        );
    }
    pick
}

/// `x`, or the one positive quiet NaN if `x` is any NaN: what the median
/// exemplar compares in place of a value or a distance, so that
/// `total_cmp` never sees a NaN's sign or payload.
#[inline]
pub(crate) fn one_nan(x: f64) -> f64 {
    if x.is_nan() {
        f64::NAN
    } else {
        x
    }
}

/// The per-dimension median of the cluster's rows, bit for bit what
/// sorting each column, every NaN made [`one_nan`], under `total_cmp` and
/// taking its middle (or the mean of its two middles) gives.
///
/// Without NaN and `-0.0` among the values, `total_cmp` orders them as `<`
/// does and equal values have equal bits, so a sorting network of plain
/// compares puts the same bits in the middle; it runs on [`LANES`]
/// dimensions at once. A cluster holding either, or larger than
/// [`NETWORK_MAX`], selects per dimension on `total_cmp`'s integer keys.
fn cluster_median(isa: Isa, points: &PointMatrix, cluster: &[usize]) -> Vec<f64> {
    let (m, dim) = (cluster.len(), points.dim());
    let (mid, odd) = (m / 2, m % 2 == 1);
    let rows = || cluster.iter().map(|&i| points.row(i));
    // The order statistics at `mid` and (even counts) `mid - 1`.
    let (lower, upper) = (m <= NETWORK_MAX)
        .then(|| sorted_middles(isa, rows(), m, dim, mid))
        .flatten()
        .unwrap_or_else(|| selected_middles(rows(), m, dim, mid));
    if odd {
        upper
    } else {
        (lower.iter().zip(&upper))
            .map(|(&l, &u)| 0.5 * (l + u))
            .collect()
    }
}

/// Middle order statistics by sorting, or `None` when a value is NaN or
/// `-0.0`. The values are laid out in runs of [`LANES`] dimensions,
/// run-major (zero-padded past `dim`), and each run goes through Batcher's
/// odd–even merge network for `m` members: every comparator is a lane-wise
/// min/max of two members' runs, so it moves values without a branch.
fn sorted_middles<'a>(
    isa: Isa,
    rows: impl Iterator<Item = &'a [f64]>,
    m: usize,
    dim: usize,
    mid: usize,
) -> Option<(Vec<f64>, Vec<f64>)> {
    let runs = dim.div_ceil(LANES);
    let mut by_run = vec![[0.0f64; LANES]; runs * m];
    let mut plain = true;
    for (i, row) in rows.enumerate() {
        plain &= (row.iter()).fold(true, |p, x| p & !x.is_nan() & (x.to_bits() != NEG_ZERO));
        for (r, chunk) in row.chunks(LANES).enumerate() {
            by_run[r * m + i][..chunk.len()].copy_from_slice(chunk);
        }
    }
    if !plain {
        return None;
    }
    simd::sort_runs(isa, &mut by_run, m, median_network(m));
    let mut lower = Vec::with_capacity(runs * LANES);
    let mut upper = Vec::with_capacity(runs * LANES);
    for run in by_run.chunks_exact(m) {
        lower.extend_from_slice(&run[mid.saturating_sub(1)]);
        upper.extend_from_slice(&run[mid]);
    }
    lower.truncate(dim);
    upper.truncate(dim);
    Some((lower, upper))
}

/// The bits of `-0.0`, the one value `<` and `total_cmp` disagree on
/// besides NaN.
const NEG_ZERO: u64 = 0x8000_0000_0000_0000;

/// The comparators that put the order statistics `n/2 - 1` and `n/2` of
/// `n ≤ NETWORK_MAX` elements in place, built once per `n` and kept:
/// Batcher's network with every comparator dropped whose outputs neither
/// those two positions nor a kept comparator ever read. A comparator
/// network commutes with every monotone map, so (the zero–one principle)
/// the two positions end up holding what a full sort would put there.
fn median_network(n: usize) -> &'static [(u8, u8)] {
    static NETWORKS: [OnceLock<Vec<(u8, u8)>>; NETWORK_MAX + 1] =
        [const { OnceLock::new() }; NETWORK_MAX + 1];
    NETWORKS[n].get_or_init(|| {
        let mut live = vec![false; n];
        live[n / 2] = true;
        live[(n / 2).saturating_sub(1)] = true;
        let at = |i: usize| u8::try_from(i).expect("NETWORK_MAX fits a byte");
        let mut kept = Vec::new();
        for (a, b) in build_odd_even_merge_network(n).into_iter().rev() {
            if live[a] || live[b] {
                (live[a], live[b]) = (true, true);
                kept.push((at(a), at(b)));
            }
        }
        kept.reverse();
        kept
    })
}

/// The comparators of Batcher's odd–even merge sort on `n` elements, in
/// order (Knuth, TAOCP 5.3.4): the network for the next power of two with
/// every comparator that touches an index past `n` dropped, which sorts
/// `n` elements because the dropped ones only ever compare against a
/// padding `+∞` that never moves.
fn build_odd_even_merge_network(n: usize) -> Vec<(usize, usize)> {
    let mut network = Vec::new();
    let mut p = 1;
    while p < n {
        let mut k = p;
        while k >= 1 {
            let mut j = k % p;
            while j + k < n {
                for i in 0..k.min(n - j - k) {
                    if (i + j) / (2 * p) == (i + j + k) / (2 * p) {
                        network.push((i + j, i + j + k));
                    }
                }
                j += 2 * k;
            }
            k /= 2;
        }
        p *= 2;
    }
    network
}

/// `f64::total_cmp`'s order as a signed integer: the transform `total_cmp`
/// applies to both operands, so `<` on keys is `total_cmp` on values and
/// equal keys are equal bits. It is its own inverse.
#[inline]
fn order_key(bits: i64) -> i64 {
    bits ^ (((bits >> 63) as u64) >> 1) as i64
}

/// Middle order statistics by selection, one dimension at a time, on
/// `total_cmp`'s integer keys of the values made [`one_nan`].
fn selected_middles<'a>(
    rows: impl Iterator<Item = &'a [f64]>,
    m: usize,
    dim: usize,
    mid: usize,
) -> (Vec<f64>, Vec<f64>) {
    let mut keys = Vec::with_capacity(m * dim);
    for row in rows {
        keys.extend(row.iter().map(|&x| order_key(one_nan(x).to_bits() as i64)));
    }
    let value = |key: i64| f64::from_bits(order_key(key) as u64);
    let (mut lower, mut upper) = (vec![0.0; dim], vec![0.0; dim]);
    let mut column = Vec::with_capacity(m);
    for d in 0..dim {
        column.clear();
        column.extend(keys[d..].iter().step_by(dim));
        let (below, &mut middle, _) = column.select_nth_unstable(mid);
        upper[d] = value(middle);
        lower[d] = below.iter().copied().max().map_or(0.0, value);
    }
    (lower, upper)
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
    fn network_and_selected_medians_have_the_sorted_medians_bits() {
        let sorted_median = |column: &[f64]| {
            let mut sorted: Vec<f64> = column.iter().map(|&x| one_nan(x)).collect();
            sorted.sort_by(f64::total_cmp);
            let mid = sorted.len() / 2;
            if sorted.len() % 2 == 1 {
                sorted[mid]
            } else {
                0.5 * (sorted[mid - 1] + sorted[mid])
            }
        };
        let nan = f64::NAN;
        let long: Vec<f64> = (0..(NETWORK_MAX as u32 + 7))
            .map(|i| f64::from(i * 37 % 11) - 5.0)
            .chain([nan, -nan, 0.0, -0.0])
            .collect();
        let columns: [&[f64]; 11] = [
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
            &long,
        ];
        for column in columns {
            // Every rotation: the median must not depend on member order;
            // one column alone, and beside a second that orders otherwise.
            for turn in 0..column.len() {
                let mut rotated = column.to_vec();
                rotated.rotate_left(turn);
                let members: Vec<usize> = (0..rotated.len()).collect();
                let want = sorted_median(column).to_bits();
                let single: Vec<Vec<f64>> = rotated.iter().map(|&x| vec![x]).collect();
                let got = cluster_median(Isa::detect(), &PointMatrix::from_rows(&single), &members);
                assert_eq!(got[0].to_bits(), want, "{column:?} rotated by {turn}");
                let paired: Vec<Vec<f64>> = (rotated.iter().enumerate())
                    .map(|(i, &x)| vec![-(i as f64), x])
                    .collect();
                let got = cluster_median(Isa::detect(), &PointMatrix::from_rows(&paired), &members);
                assert_eq!(
                    got[1].to_bits(),
                    want,
                    "{column:?} rotated by {turn}, paired"
                );
            }
        }
    }

    /// Zero–one principle: a comparator network sorts every input exactly
    /// when it sorts every input of 0s and 1s.
    #[test]
    fn odd_even_merge_networks_sort_every_zero_one_input() {
        for n in 1..=16usize {
            let network = build_odd_even_merge_network(n);
            for bits in 0u32..1 << n {
                let mut v: Vec<u32> = (0..n).map(|i| bits >> i & 1).collect();
                for &(a, b) in &network {
                    assert!(a < b && b < n);
                    if v[b] < v[a] {
                        v.swap(a, b);
                    }
                }
                assert!(v.windows(2).all(|w| w[0] <= w[1]), "n {n}, input {bits:b}");
            }
        }
    }

    /// The pruned networks leave the two middle positions as a sort would.
    #[test]
    fn median_networks_place_the_middles_of_every_zero_one_input() {
        for n in 2..=16usize {
            let network = median_network(n);
            assert!(network.len() <= build_odd_even_merge_network(n).len());
            for bits in 0u32..1 << n {
                let mut v: Vec<u32> = (0..n).map(|i| bits >> i & 1).collect();
                let mut sorted = v.clone();
                sorted.sort_unstable();
                for &(a, b) in network {
                    let (a, b) = (usize::from(a), usize::from(b));
                    if v[b] < v[a] {
                        v.swap(a, b);
                    }
                }
                assert_eq!(
                    v[n / 2 - 1..=n / 2],
                    sorted[n / 2 - 1..=n / 2],
                    "n {n}, input {bits:b}"
                );
            }
        }
    }

    /// Members whose every distance to the median is NaN still elect one:
    /// the oracle's, the least under `total_cmp`.
    #[test]
    fn all_nan_distances_elect_the_oracles_member() {
        let nan = f64::NAN;
        for rows in [
            vec![vec![nan, 1.0], vec![nan, 2.0], vec![nan, 3.0]],
            vec![vec![-nan], vec![nan], vec![-nan], vec![nan], vec![1.0]],
        ] {
            let points = PointMatrix::from_rows(&rows);
            let members: Vec<usize> = (0..rows.len()).rev().collect();
            assert_eq!(
                median_exemplar(&points, &members),
                crate::oracle::median_exemplar(&points, &members),
                "{rows:?}"
            );
        }
    }

    /// A NaN's sign does not decide the pick. On `[0,5] [1,5] [2,−NaN]`
    /// the median is `[1,5]` and member 2's distance is NaN: it loses to
    /// member 1's 0 whatever its sign (a `−NaN` distance used to sort below
    /// every number and win). Flipping the sign of every NaN, in the data
    /// or in the median, leaves every pick, the kernel's and the oracle's,
    /// where it was.
    #[test]
    fn a_nans_sign_does_not_decide_the_pick() {
        let nan = f64::NAN;
        let flip = |rows: &[Vec<f64>]| -> Vec<Vec<f64>> {
            (rows.iter())
                .map(|r| r.iter().map(|&x| if x.is_nan() { -x } else { x }).collect())
                .collect()
        };
        let neg = vec![vec![0.0, 5.0], vec![1.0, 5.0], vec![2.0, -nan]];
        for rows in [neg.clone(), flip(&neg)] {
            let points = PointMatrix::from_rows(&rows);
            assert_eq!(median_exemplar(&points, &[0, 1, 2]), 1, "{rows:?}");
            assert_eq!(crate::oracle::median_exemplar(&points, &[0, 1, 2]), 1);
        }
        // Mixed signs in one column, a NaN median, clusters past the
        // network's size, every member order.
        let mut cases = vec![
            vec![
                vec![-nan, 1.0],
                vec![nan, 2.0],
                vec![0.5, -nan],
                vec![0.0, 3.0],
            ],
            vec![vec![-nan], vec![-nan], vec![nan], vec![4.0], vec![1.0]],
            vec![
                vec![1.0, -nan, 2.0],
                vec![-nan, -nan, 1.0],
                vec![3.0, 0.0, -nan],
            ],
        ];
        cases.push(
            (0..(NETWORK_MAX as u32 + 5))
                .map(|i| match i % 7 {
                    0 => vec![-nan, f64::from(i)],
                    3 => vec![f64::from(i % 5), nan],
                    _ => vec![f64::from(i % 11), f64::from(i % 3)],
                })
                .collect(),
        );
        for rows in &cases {
            let flipped = flip(rows);
            for turn in 0..rows.len() {
                let mut members: Vec<usize> = (0..rows.len()).collect();
                members.rotate_left(turn);
                let (a, b) = (
                    PointMatrix::from_rows(rows),
                    PointMatrix::from_rows(&flipped),
                );
                let pick = median_exemplar(&a, &members);
                assert_eq!(median_exemplar(&b, &members), pick, "{rows:?}");
                assert_eq!(crate::oracle::median_exemplar(&a, &members), pick);
                assert_eq!(crate::oracle::median_exemplar(&b, &members), pick);
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
