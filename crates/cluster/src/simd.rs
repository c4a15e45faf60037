//! Blocked, SIMD-friendly distance kernels for the training path.
//!
//! Everything clustering-shaped in this crate bottoms out in squared
//! Euclidean distance over `f64` rows. The scalar `iter().zip().sum()`
//! formulation chains every addition through one accumulator, which pins
//! LLVM to scalar code (IEEE addition is not associative, so the compiler
//! may not regroup it). The kernels here commit to a **fixed blocked
//! accumulation order** instead: [`LANES`] independent accumulators over
//! `chunks_exact(LANES)`, combined by a fixed pairwise tree, then a
//! sequential tail. That breaks the dependency chain (so the loop
//! autovectorizes) while keeping the result a deterministic function of the
//! input — the same bits on every machine, every run.
//!
//! The k-means update step is blocked the same way: rows are processed in
//! [`UPDATE_BLOCK`]-sized blocks, each block accumulating its own partial
//! per-cluster sums in ascending row order, and the block partials are
//! merged in ascending block order. Because the merge order is fixed, a
//! parallel fan-out of the blocks over the shared pool is **bit-identical**
//! to the serial pass — which is what lets `assign_update` fan out on large
//! partition counts without breaking the kernel/oracle contract.
//!
//! `ps3_cluster::oracle` re-implements these definitions with plain index
//! arithmetic (no iterator adapters, no blocking of the code itself) and
//! the property tests in `tests/kernel_oracle.rs` hold the two bit-equal,
//! including NaN and ±0.0 feature values. `PS3_STRICT_KERNELS=1`
//! additionally forces the comparison inside every [`crate::kmeans_fit`] call.

use ps3_runtime::ThreadPool;

/// Independent accumulator lanes in the distance kernels. Eight `f64`
/// accumulators fill an AVX-512 register and give AVX2 two independent
/// 4-wide chains — enough ILP either way.
pub const LANES: usize = 8;

/// Rows per partial-sum block in [`assign_update`]. One block of 64 rows ×
/// a few hundred dims stays in L1/L2 while its partial sums are live.
pub const UPDATE_BLOCK: usize = 64;

/// Fan out [`assign_update`] over the shared pool only past this much work
/// (rows × dims); below it the pool hand-off costs more than it saves.
/// Purely a performance threshold — the blocked merge order makes the
/// parallel and serial results bit-identical.
const PARALLEL_MIN_CELLS: usize = 1 << 18;

/// Combine the eight lane accumulators by the fixed pairwise tree shared
/// with the oracle. The grouping is part of the kernel's definition: change
/// it and every stored distance changes bits.
#[inline(always)]
fn combine(acc: [f64; LANES]) -> f64 {
    ((acc[0] + acc[4]) + (acc[1] + acc[5])) + ((acc[2] + acc[6]) + (acc[3] + acc[7]))
}

/// Blocked squared Euclidean distance: 8 independent lanes over the full
/// chunks, pairwise-combined, then the tail added sequentially in index
/// order. NaN in either input propagates to the result, exactly as the
/// scalar formulation would.
#[inline]
pub fn dist_sq(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = [0.0f64; LANES];
    let mut chunks_a = a.chunks_exact(LANES);
    let mut chunks_b = b.chunks_exact(LANES);
    for (ca, cb) in (&mut chunks_a).zip(&mut chunks_b) {
        for j in 0..LANES {
            let d = ca[j] - cb[j];
            acc[j] += d * d;
        }
    }
    let mut sum = combine(acc);
    for (x, y) in chunks_a.remainder().iter().zip(chunks_b.remainder()) {
        let d = x - y;
        sum += d * d;
    }
    sum
}

/// Blocked dot product with the same lane structure as [`dist_sq`].
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = [0.0f64; LANES];
    let mut chunks_a = a.chunks_exact(LANES);
    let mut chunks_b = b.chunks_exact(LANES);
    for (ca, cb) in (&mut chunks_a).zip(&mut chunks_b) {
        for j in 0..LANES {
            acc[j] += ca[j] * cb[j];
        }
    }
    let mut sum = combine(acc);
    for (x, y) in chunks_a.remainder().iter().zip(chunks_b.remainder()) {
        sum += x * y;
    }
    sum
}

/// Squared L2 norm (`dot(a, a)`), the precomputation behind the
/// ‖x−c‖² = ‖x‖² − 2x·c + ‖c‖² expansion used where no bit-identity
/// contract binds (HAC matrix init, the mini-batch interior).
#[inline]
pub fn sq_norm(a: &[f64]) -> f64 {
    dot(a, a)
}

/// Row-major flat matrix of points — the contiguous layout the kernels
/// want, and the input form of every clustering entry point. The picker
/// builds one directly ([`Self::from_flat`]); callers holding
/// `Vec<Vec<f64>>` rows pack them once with [`Self::from_rows`].
#[derive(Debug, Clone)]
pub struct PointMatrix {
    data: Vec<f64>,
    n: usize,
    dim: usize,
}

impl PointMatrix {
    /// Pack `rows` (all of equal length) into one contiguous buffer.
    ///
    /// # Panics
    /// Panics if rows disagree on length.
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        let dim = rows.first().map_or(0, Vec::len);
        let mut data = Vec::with_capacity(rows.len() * dim);
        for r in rows {
            assert_eq!(r.len(), dim, "ragged point matrix");
            data.extend_from_slice(r);
        }
        Self {
            data,
            n: rows.len(),
            dim,
        }
    }

    /// Build from an already-flat buffer of `n` rows × `dim`.
    pub fn from_flat(data: Vec<f64>, n: usize, dim: usize) -> Self {
        assert_eq!(data.len(), n * dim);
        Self { data, n, dim }
    }

    /// Number of rows.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Row width.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Row `i` as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.dim..(i + 1) * self.dim]
    }

    /// Mutable row `i`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.data[i * self.dim..(i + 1) * self.dim]
    }

    /// Rows unpacked back into `Vec<Vec<f64>>` (the crate's public shape).
    pub fn to_rows(&self) -> Vec<Vec<f64>> {
        (0..self.n).map(|i| self.row(i).to_vec()).collect()
    }

    /// `sq_norm` of every row.
    pub fn row_norms(&self) -> Vec<f64> {
        (0..self.n).map(|i| sq_norm(self.row(i))).collect()
    }
}

/// Index of the nearest centroid to `row`, by blocked [`dist_sq`], with its
/// distance. Strict `<` comparison from `(0, ∞)`: ties keep the lowest
/// index and NaN distances never win, so an all-NaN row stays on centroid 0
/// — the same rule the scalar implementation always had.
#[inline]
pub fn nearest_centroid(row: &[f64], centroids: &PointMatrix) -> (usize, f64) {
    let mut best = 0usize;
    let mut best_d = f64::INFINITY;
    for c in 0..centroids.n() {
        let d = dist_sq(row, centroids.row(c));
        if d < best_d {
            best_d = d;
            best = c;
        }
    }
    (best, best_d)
}

/// Per-cluster output of one fused assign-then-update pass.
#[derive(Debug, Clone)]
pub struct AssignUpdate {
    /// Per-cluster coordinate sums, merged from block partials in ascending
    /// block order.
    pub sums: Vec<Vec<f64>>,
    /// Per-cluster member counts.
    pub counts: Vec<usize>,
    /// Whether any row changed assignment this pass.
    pub changed: bool,
}

/// One block's partial results: per-cluster sums, per-cluster counts, the
/// block's new assignments in row order, and whether any row moved.
type BlockPartial = (Vec<Vec<f64>>, Vec<usize>, Vec<usize>, bool);

/// One partial-sum block: rows `[start, end)` assigned and accumulated in
/// ascending row order. This is the unit both the serial pass and the
/// parallel fan-out execute; the caller merges blocks in ascending order.
fn assign_update_block(
    points: &PointMatrix,
    centroids: &PointMatrix,
    assignment: &[usize],
    start: usize,
    end: usize,
) -> BlockPartial {
    let k = centroids.n();
    let dim = points.dim();
    let mut sums = vec![vec![0.0f64; dim]; k];
    let mut counts = vec![0usize; k];
    let mut assigned = Vec::with_capacity(end - start);
    let mut changed = false;
    for (i, &home) in assignment.iter().enumerate().take(end).skip(start) {
        let row = points.row(i);
        let (best, _) = nearest_centroid(row, centroids);
        if home != best {
            changed = true;
        }
        assigned.push(best);
        counts[best] += 1;
        for (s, &x) in sums[best].iter_mut().zip(row) {
            *s += x;
        }
    }
    (sums, counts, assigned, changed)
}

/// The chunked assign-then-update k-means step: touch every row exactly
/// once, writing its nearest centroid into `assignment` and accumulating
/// per-cluster sums in [`UPDATE_BLOCK`]-row blocks. Blocks run on the
/// shared pool when the matrix is large enough to pay for the hand-off;
/// either way the block partials merge in ascending block order, so the
/// result is bit-identical to the serial pass (and to the oracle).
pub fn assign_update(
    points: &PointMatrix,
    centroids: &PointMatrix,
    assignment: &mut [usize],
) -> AssignUpdate {
    let n = points.n();
    let k = centroids.n();
    let dim = points.dim();
    let blocks = n.div_ceil(UPDATE_BLOCK).max(1);
    let parallel = blocks > 1 && n * dim >= PARALLEL_MIN_CELLS;

    let per_block: Vec<BlockPartial> = if parallel {
        let assignment_ref: &[usize] = assignment;
        ThreadPool::global().scope_map(blocks, |b| {
            let start = b * UPDATE_BLOCK;
            let end = (start + UPDATE_BLOCK).min(n);
            assign_update_block(points, centroids, assignment_ref, start, end)
        })
    } else {
        (0..blocks)
            .map(|b| {
                let start = b * UPDATE_BLOCK;
                let end = (start + UPDATE_BLOCK).min(n);
                assign_update_block(points, centroids, assignment, start, end)
            })
            .collect()
    };

    let mut sums = vec![vec![0.0f64; dim]; k];
    let mut counts = vec![0usize; k];
    let mut changed = false;
    for (b, (bsums, bcounts, assigned, bchanged)) in per_block.into_iter().enumerate() {
        let start = b * UPDATE_BLOCK;
        assignment[start..start + assigned.len()].copy_from_slice(&assigned);
        changed |= bchanged;
        for c in 0..k {
            counts[c] += bcounts[c];
            for (s, &x) in sums[c].iter_mut().zip(&bsums[c]) {
                *s += x;
            }
        }
    }
    AssignUpdate {
        sums,
        counts,
        changed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dist_sq_matches_naive_on_clean_input() {
        let a: Vec<f64> = (0..21).map(f64::from).collect();
        let b: Vec<f64> = (0..21).map(|i| f64::from(i) * 0.5).collect();
        let naive: f64 = a.iter().zip(&b).map(|(x, y)| (x - y) * (x - y)).sum();
        assert!((dist_sq(&a, &b) - naive).abs() < 1e-9);
    }

    #[test]
    fn dist_sq_propagates_nan() {
        let a = vec![1.0, f64::NAN, 3.0];
        let b = vec![1.0, 2.0, 3.0];
        assert!(dist_sq(&a, &b).is_nan());
    }

    #[test]
    fn dot_and_norm_agree() {
        let a: Vec<f64> = (0..13).map(|i| f64::from(i) - 6.0).collect();
        assert_eq!(sq_norm(&a), dot(&a, &a));
    }

    #[test]
    fn matrix_round_trips() {
        let rows = vec![vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]];
        let m = PointMatrix::from_rows(&rows);
        assert_eq!(m.n(), 3);
        assert_eq!(m.dim(), 2);
        assert_eq!(m.row(1), &[3.0, 4.0]);
        assert_eq!(m.to_rows(), rows);
    }

    #[test]
    fn nearest_keeps_lowest_index_on_tie_and_nan() {
        let centroids = PointMatrix::from_rows(&[vec![0.0], vec![0.0], vec![2.0]]);
        let (c, d) = nearest_centroid(&[0.0], &centroids);
        assert_eq!((c, d), (0, 0.0));
        let (c, d) = nearest_centroid(&[f64::NAN], &centroids);
        assert_eq!(c, 0, "all-NaN distances stay on centroid 0");
        assert!(d.is_infinite());
    }

    #[test]
    fn assign_update_parallel_threshold_is_invisible() {
        // 3 blocks, below the parallel threshold: still blocked, so the
        // merge-order spec is exercised without the pool.
        let rows: Vec<Vec<f64>> = (0..150)
            .map(|i| vec![f64::from(i % 10), f64::from(i / 10)])
            .collect();
        let points = PointMatrix::from_rows(&rows);
        let centroids = PointMatrix::from_rows(&[rows[0].clone(), rows[75].clone()]);
        let mut a1 = vec![0usize; 150];
        let out1 = assign_update(&points, &centroids, &mut a1);
        let mut a2 = vec![0usize; 150];
        let out2 = assign_update(&points, &centroids, &mut a2);
        assert_eq!(a1, a2);
        assert_eq!(out1.counts, out2.counts);
        let bits =
            |s: &Vec<Vec<f64>>| -> Vec<u64> { s.iter().flatten().map(|x| x.to_bits()).collect() };
        assert_eq!(bits(&out1.sums), bits(&out2.sums));
        assert_eq!(out1.counts.iter().sum::<usize>(), 150);
    }
}
