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
//! vectorizes) while keeping the result a deterministic function of the
//! input — the same bits on every machine, every run.
//!
//! **Two instruction sets, one definition.** A fit picks its arithmetic
//! once, at run time (`Isa::detect`): on a processor with AVX2 the
//! distance kernels are written out in AVX2 intrinsics — the same eight
//! lanes as two 4-wide registers, an explicit subtract → multiply → add per
//! element (never a fused multiply-add, which rounds once instead of twice),
//! the same combine tree and the same sequential tail — and the flag pass,
//! the row sums, the centroid division and the median network's min/max are
//! the portable bodies compiled with AVX2 enabled. Elsewhere, or with no
//! AVX2, the portable code runs ([`portable`]). Each operation rounds as
//! IEEE says on both paths, in the same order, so the two give the same
//! bits; `tests/kernel_oracle.rs` holds both to the oracle. The one thing
//! neither path fixes is a NaN result's sign: Rust leaves it to the
//! compiler on every path (two NaNs added give the sign of whichever
//! operand the compiler put first), and no fit reads it — a NaN distance
//! never wins and bounds nothing. (The median exemplar, which orders values
//! and distances by `total_cmp`, makes every NaN one positive NaN first.)
//! `std::arch` and `#[target_feature]` appear in this file only, and
//! every call across the feature boundary rests on the `Isa::Avx2`
//! token, which only a positive `is_x86_feature_detected!("avx2")` creates.
//!
//! Every evaluation whose inputs are known before the first is made — the
//! seeding's open rows, the seed-to-seed gaps, the reseed scan and the
//! centroid shifts — runs four pairs at a time ([`dist_sq4`]), eight
//! independent chains in flight instead of two. The set of evaluations, and
//! so every count, is what it was one at a time.
//!
//! The k-means update step is blocked the same way: rows are processed in
//! [`UPDATE_BLOCK`]-sized blocks, each block accumulating its own partial
//! per-cluster sums in ascending row order, and the block partials are
//! merged in ascending block order — the order the oracle defines. A sweep
//! assigns every row first and then re-sums only the clusters whose member
//! set changed: a cluster with the same members in the same rows has the
//! same blocked sums, so it keeps its sums, its count and (in `kmeans`) its
//! centroid bits.
//!
//! The assign step is *bounded* (Elkan, ICML 2003): every row carries an
//! upper bound on the distance to its home centroid and one lower bound per
//! centroid, both on `√dist_sq` and both moved outward by each centroid's
//! shift after the update step. A sweep evaluates a centroid for a row only
//! when the bounds cannot prove it **strictly farther** than a centroid the
//! row does evaluate (`provably_farther`); among the evaluated ones the
//! choice is the plain ascending strict-`<` argmin. A skipped evaluation is
//! therefore one whose outcome is already known, so the assignment — and
//! through it every sum, centroid and sweep count — is bit-identical to the
//! scan that evaluates all n·k distances, which is what the oracle does.
//!
//! The bookkeeping stays off the per-centroid path where it can. The lower
//! bounds take their shifts when the next sweep reaches the row, in the
//! pass that flags each run of [`LANES`] centroids whose bounds are not all
//! clear of the row's upper bound; a row with no flagged run is settled
//! there, and an unsettled row's scan reads only its flagged runs and
//! evaluates its home only once it meets a centroid the bounds leave open.
//! The home's own slot holds a `+∞` sentinel, which no sweep reads while it
//! is the home. A block zeroes only the partial sums it touched.
//!
//! k-means++ seeding fills the same bounds as it draws (`SeedBounds`): a
//! row skips a new seed when the seed lies more than twice the row's
//! distance from the row's nearest seed, and keeps the triangle bound in
//! place of the distance — about 42% of n·k evaluated at the picker's
//! shapes, ~0.69·n·k for the whole fit. Seeding keeps the bounds
//! seed-major, so each seed writes one contiguous run, and the hand-off
//! turns them row-major once. The price is the n × k `f64` lower-bound
//! matrix, alive for one fit (209 KB at 512 rows × 51 centroids; two for
//! the moment of the hand-off).
//!
//! `ps3_cluster::oracle` re-implements the distance, accumulation and
//! reseed definitions with plain index arithmetic (no iterator adapters, no
//! blocking of the code itself, no bounds) and the property tests in
//! `tests/kernel_oracle.rs` hold the two bit-equal, including NaN and ±0.0
//! feature values. `PS3_STRICT_KERNELS=1` additionally forces the
//! comparison inside every k-means fit.

/// Independent accumulator lanes in the distance kernels: two 4-wide
/// chains on the AVX2 path, four 2-wide ones where the portable code
/// compiles to SSE2. The lane of element `i` is `i % LANES` on every path.
pub const LANES: usize = 8;

/// Rows per partial-sum block in [`SweepState::sweep`]. One block of 64
/// rows × a few hundred dims stays in L1/L2 while its partial sums are live.
pub const UPDATE_BLOCK: usize = 64;

/// Relative slack of the pruning proof. The bounds are built from computed
/// `√dist_sq` values, which sit within ~`dim · ε` (1e-13 at a thousand
/// columns) of the true distances the triangle inequality speaks about;
/// a centroid is skipped only when it is farther by a margin that dwarfs
/// that, so "farther in exact arithmetic" implies "farther as computed".
const PRUNE_SLACK: f64 = 1e-9;

/// Lower bounds at or under this never prune, and every centroid shift is
/// taken this much longer than computed. Squares of differences under
/// ~1e-154 underflow, so near there `dist_sq` has an absolute error (up to
/// ~1e-160 on the distance) that no relative slack covers; this floor keeps
/// the proof a hundred orders of magnitude away from it.
const PRUNE_FLOOR: f64 = 1e-100;

/// Multipliers that push a just-rounded positive sum or difference outward
/// past its rounding error (one half-ulp for the operation, one for the
/// multiply itself), so bounds never tighten by accident however many
/// sweeps move them.
const ROUND_UP: f64 = 1.0 + 4.0 * f64::EPSILON;
const ROUND_DOWN: f64 = 1.0 - 4.0 * f64::EPSILON;

/// Combine the eight lane accumulators by the fixed pairwise tree shared
/// with the oracle. The grouping is part of the kernel's definition: change
/// it and every stored distance changes bits.
#[inline(always)]
fn combine(acc: [f64; LANES]) -> f64 {
    ((acc[0] + acc[4]) + (acc[1] + acc[5])) + ((acc[2] + acc[6]) + (acc[3] + acc[7]))
}

/// The instruction set a fit's kernels run on, chosen once per fit (or per
/// call, for the free functions) by [`Isa::detect`]. Both give the same
/// bits (a NaN's sign aside, see the module docs); only the speed differs.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Isa {
    /// The plain-Rust kernels of [`portable`], for any processor.
    Portable,
    /// AVX2, which the token proves present.
    #[cfg(target_arch = "x86_64")]
    Avx2(avx2::Detected),
}

impl Isa {
    /// AVX2 where the running processor has it, the portable code
    /// elsewhere. The detection is the standard library's, cached after the
    /// first call.
    #[inline]
    pub(crate) fn detect() -> Self {
        #[cfg(target_arch = "x86_64")]
        if let Some(detected) = avx2::Detected::new() {
            return Isa::Avx2(detected);
        }
        Isa::Portable
    }

    /// [`dist_sq`] on this instruction set.
    #[inline]
    pub(crate) fn dist_sq(self, a: &[f64], b: &[f64]) -> f64 {
        match self {
            Isa::Portable => portable::dist_sq(a, b),
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `Isa::Avx2` holds a token only `avx2::Detected::new`
            // makes, after `is_x86_feature_detected!("avx2")` returned true.
            Isa::Avx2(_) => unsafe { avx2::dist_sq(a, b) },
        }
    }

    /// [`dist_sq4`] on this instruction set.
    #[inline]
    pub(crate) fn dist_sq4(self, a: [&[f64]; 4], b: [&[f64]; 4]) -> [f64; 4] {
        match self {
            Isa::Portable => portable::dist_sq4(a, b),
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `Isa::Avx2` holds a token only `avx2::Detected::new`
            // makes, after `is_x86_feature_detected!("avx2")` returned true.
            Isa::Avx2(_) => unsafe { avx2::dist_sq4(a, b) },
        }
    }

    /// `f(j, dist_sq(a_j, b_j))` for every `j` in `0..n`, in ascending
    /// order, where `pair(j)` is `(a_j, b_j)`: the distances four at a
    /// time, the last `n % 4` one at a time. Each is the bits [`dist_sq`]
    /// gives that pair, so batching changes no result and no count.
    #[inline]
    pub(crate) fn each_dist_sq<'a>(
        self,
        n: usize,
        pair: impl Fn(usize) -> (&'a [f64], &'a [f64]),
        mut f: impl FnMut(usize, f64),
    ) {
        let mut j = 0;
        while j + 4 <= n {
            let pairs = [pair(j), pair(j + 1), pair(j + 2), pair(j + 3)];
            let dists = self.dist_sq4(pairs.map(|p| p.0), pairs.map(|p| p.1));
            for (t, d) in dists.into_iter().enumerate() {
                f(j + t, d);
            }
            j += 4;
        }
        for j in j..n {
            let (a, b) = pair(j);
            f(j, self.dist_sq(a, b));
        }
    }
}

/// `$vis fn $name(isa: Isa, args…)`: the `#[inline(always)]` body `$body`
/// as the portable code, or the same body compiled with AVX2 enabled when
/// `isa` carries the token. Elementwise IEEE operations round the same at
/// any vector width, and no fused multiply-add is enabled, so the bits do
/// not depend on which one runs.
macro_rules! avx2_compiled {
    ($(#[$attr:meta])* $vis:vis fn $name:ident($($arg:ident: $ty:ty),* $(,)?) $(-> $ret:ty)? = $body:ident;) => {
        $(#[$attr])*
        #[inline]
        $vis fn $name(isa: Isa, $($arg: $ty),*) $(-> $ret)? {
            match isa {
                Isa::Portable => $body($($arg),*),
                #[cfg(target_arch = "x86_64")]
                Isa::Avx2(_) => {
                    #[target_feature(enable = "avx2")]
                    fn with_avx2($($arg: $ty),*) $(-> $ret)? {
                        $body($($arg),*)
                    }
                    // SAFETY: `Isa::Avx2` holds a token only
                    // `avx2::Detected::new` makes, after
                    // `is_x86_feature_detected!("avx2")` returned true.
                    unsafe { with_avx2($($arg),*) }
                }
            }
        }
    };
}

/// Blocked squared Euclidean distance: 8 independent lanes over the full
/// chunks, pairwise-combined, then the tail added sequentially in index
/// order. NaN in either input propagates to the result, exactly as the
/// scalar formulation would. AVX2 where the processor has it (see the
/// module docs), the same bits either way.
#[inline]
pub fn dist_sq(a: &[f64], b: &[f64]) -> f64 {
    Isa::detect().dist_sq(a, b)
}

/// [`dist_sq`] of four pairs at once, `[dist_sq(a[0], b[0]), …]` to the
/// bit (a NaN's sign aside): eight independent accumulator chains instead
/// of two.
///
/// # Panics
/// Panics when the eight slices are not all of one length.
#[inline]
pub fn dist_sq4(a: [&[f64]; 4], b: [&[f64]; 4]) -> [f64; 4] {
    Isa::detect().dist_sq4(a, b)
}

/// The kernels as plain Rust, which the compiler vectorizes for the
/// target's baseline (SSE2 on x86-64): the path for processors without
/// AVX2, and the reference the AVX2 path is tested against.
pub mod portable {
    use super::{combine, LANES};

    /// [`super::dist_sq`] in plain Rust.
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

    /// [`super::dist_sq4`] in plain Rust: one pair after another.
    ///
    /// # Panics
    /// Panics when the eight slices are not all of one length.
    #[inline]
    pub fn dist_sq4(a: [&[f64]; 4], b: [&[f64]; 4]) -> [f64; 4] {
        let len = a[0].len();
        assert!(a.iter().chain(&b).all(|s| s.len() == len), "ragged pairs");
        std::array::from_fn(|p| dist_sq(a[p], b[p]))
    }
}

/// The distance kernels in AVX2 intrinsics, and the token that proves the
/// processor runs them.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use std::arch::x86_64::{
        __m256d, _mm256_add_pd, _mm256_castpd256_pd128, _mm256_extractf128_pd, _mm256_mul_pd,
        _mm256_setr_pd, _mm256_setzero_pd, _mm256_sub_pd, _mm_cvtsd_f64, _mm_unpackhi_pd,
    };

    use super::LANES;

    /// Proof that the running processor has AVX2: [`Detected::new`] is the
    /// only way to make one.
    #[derive(Debug, Clone, Copy)]
    pub(crate) struct Detected(());

    impl Detected {
        /// `Some` exactly when `is_x86_feature_detected!("avx2")` holds.
        #[inline]
        pub(super) fn new() -> Option<Self> {
            is_x86_feature_detected!("avx2").then_some(Self(()))
        }
    }

    /// One chunk's step of one pair: lanes 0–3 and 4–7 of `x − y`,
    /// squared, added to their accumulators — a subtract, a multiply and an
    /// add, each rounded, as the portable loop does them.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn step(acc: &mut [__m256d; 2], x: &[f64; LANES], y: &[f64; LANES]) {
        let lo = _mm256_sub_pd(
            _mm256_setr_pd(x[0], x[1], x[2], x[3]),
            _mm256_setr_pd(y[0], y[1], y[2], y[3]),
        );
        let hi = _mm256_sub_pd(
            _mm256_setr_pd(x[4], x[5], x[6], x[7]),
            _mm256_setr_pd(y[4], y[5], y[6], y[7]),
        );
        acc[0] = _mm256_add_pd(acc[0], _mm256_mul_pd(lo, lo));
        acc[1] = _mm256_add_pd(acc[1], _mm256_mul_pd(hi, hi));
    }

    /// The combine tree over lanes `acc[0] = 0–3`, `acc[1] = 4–7`, then the
    /// tail in index order. The vector add forms `l_j + l_{j+4}`, the four
    /// inner sums of [`super::combine`]; the rest is its outer two levels.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn finish(acc: [__m256d; 2], tail_a: &[f64], tail_b: &[f64]) -> f64 {
        let pairs = _mm256_add_pd(acc[0], acc[1]);
        let (low, high) = (
            _mm256_castpd256_pd128(pairs),
            _mm256_extractf128_pd::<1>(pairs),
        );
        let mut sum = (_mm_cvtsd_f64(low) + _mm_cvtsd_f64(_mm_unpackhi_pd(low, low)))
            + (_mm_cvtsd_f64(high) + _mm_cvtsd_f64(_mm_unpackhi_pd(high, high)));
        for (x, y) in tail_a.iter().zip(tail_b) {
            let d = x - y;
            sum += d * d;
        }
        sum
    }

    /// [`super::dist_sq`] in AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) fn dist_sq(a: &[f64], b: &[f64]) -> f64 {
        debug_assert_eq!(a.len(), b.len());
        let (chunks_a, tail_a) = a.as_chunks::<LANES>();
        let (chunks_b, tail_b) = b.as_chunks::<LANES>();
        let mut acc = [_mm256_setzero_pd(); 2];
        for (x, y) in chunks_a.iter().zip(chunks_b) {
            step(&mut acc, x, y);
        }
        finish(acc, tail_a, tail_b)
    }

    /// [`super::dist_sq4`] in AVX2: the four pairs' chunks interleaved,
    /// eight accumulator chains in flight.
    #[target_feature(enable = "avx2")]
    pub(super) fn dist_sq4(a: [&[f64]; 4], b: [&[f64]; 4]) -> [f64; 4] {
        let len = a[0].len();
        assert!(a.iter().chain(&b).all(|s| s.len() == len), "ragged pairs");
        let full = len / LANES;
        // Slices of exactly `full` chunks, so the loop needs no bounds check.
        fn chunks(s: &[f64], full: usize) -> &[[f64; LANES]] {
            &s.as_chunks::<LANES>().0[..full]
        }
        let (a0, a1) = (chunks(a[0], full), chunks(a[1], full));
        let (a2, a3) = (chunks(a[2], full), chunks(a[3], full));
        let (b0, b1) = (chunks(b[0], full), chunks(b[1], full));
        let (b2, b3) = (chunks(b[2], full), chunks(b[3], full));
        let mut acc = [[_mm256_setzero_pd(); 2]; 4];
        for i in 0..full {
            step(&mut acc[0], &a0[i], &b0[i]);
            step(&mut acc[1], &a1[i], &b1[i]);
            step(&mut acc[2], &a2[i], &b2[i]);
            step(&mut acc[3], &a3[i], &b3[i]);
        }
        let tail = full * LANES;
        [
            finish(acc[0], &a[0][tail..], &b[0][tail..]),
            finish(acc[1], &a[1][tail..], &b[1][tail..]),
            finish(acc[2], &a[2][tail..], &b[2][tail..]),
            finish(acc[3], &a[3][tail..], &b[3][tail..]),
        ]
    }
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
/// contract binds (HAC matrix init).
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

/// The skip test of the bounded assign step: is a centroid whose distance
/// from the row is at least `lower` **provably strictly farther** than one
/// whose distance is at most `upper`? False whenever either side is NaN,
/// whenever `lower` is not clear of [`PRUNE_FLOOR`], and on anything closer
/// than a relative [`PRUNE_SLACK`] — ties and near-ties are always
/// evaluated, and the ascending strict `<` decides them.
#[inline]
fn provably_farther(upper: f64, lower: f64) -> bool {
    lower > PRUNE_FLOOR && upper < lower * (1.0 - PRUNE_SLACK)
}

/// The lower bound a freshly evaluated squared distance supports. An
/// infinite `dist_sq` may be an overflowed finite distance and a NaN one
/// says nothing, so neither supports any bound (0 never prunes). Every
/// bound that can prune is therefore under `√f64::MAX`, and so is whatever
/// it proves nearer: a distance that wins by a proof is one whose own
/// `dist_sq` is finite, never an `∞` that the scan's strict `<` would pass
/// over.
#[inline]
fn lower_bound(d_sq: f64) -> f64 {
    if d_sq < f64::INFINITY {
        d_sq.sqrt()
    } else {
        0.0
    }
}

/// The reach under which a row is provably strictly nearer its home seed
/// than a new seed `gap` (`√dist_sq`, via [`lower_bound`]) away from that
/// home. By the triangle inequality the new seed is at least `gap − reach`
/// from the row, which [`provably_farther`] accepts over `reach` whenever
/// `reach < gap · (1 − PRUNE_SLACK) / 2` — one compare per row. Gaps not
/// clear of the floor (NaN and overflow arrive as 0) prune nothing.
#[inline]
fn prune_limit(gap: f64) -> f64 {
    if gap > 2.0 * PRUNE_FLOOR {
        gap * ((1.0 - PRUNE_SLACK) / 2.0)
    } else {
        0.0
    }
}

/// How far a centroid that moved by `dist_sq` = `d_sq` may have carried any
/// bound: the computed shift, taken longer by the proof's slack and floor.
/// NaN and ∞ pass through and disable every bound they touch.
#[inline]
pub(crate) fn shift_bound(d_sq: f64) -> f64 {
    d_sq.sqrt() * (1.0 + PRUNE_SLACK) + PRUNE_FLOOR
}

/// What k-means++ seeding learns about every row as the seeds are drawn,
/// kept so that it evaluates only the distances it cannot bound (exact
/// k-means++ acceleration, Raff 2021, after Elkan 2003) and hands Lloyd a
/// primed [`SweepState`] instead of an n × k squared-distance matrix.
pub(crate) struct SeedBounds {
    isa: Isa,
    k: usize,
    /// Per row: the nearest seed so far by the full scan's rule — strict
    /// `<` from `(0, ∞)`, so NaN never wins — and its `dist_sq`, and `√` of
    /// that (the `upper` Lloyd starts from).
    home: Vec<usize>,
    best: Vec<f64>,
    reach: Vec<f64>,
    /// Per (seed, row), seed-major, so each drawn seed writes one
    /// contiguous run: the exact [`lower_bound`] where the distance was
    /// evaluated, the triangle bound where it was not. [`SweepState::seeded`]
    /// turns it row-major once.
    lower: Vec<f64>,
    /// Per earlier seed: its distance to the newest one, and the reach
    /// [`prune_limit`] derives from it.
    gaps: Vec<f64>,
    limits: Vec<f64>,
    /// Scratch for one seed: the rows the triangle inequality leaves to
    /// evaluate (a prefix of `n` slots), and their distances.
    open: Vec<usize>,
    dists: Vec<f64>,
    distance_evals: u64,
}

impl SeedBounds {
    /// Bounds over `n` rows for `k` seeds, none drawn yet, evaluated on
    /// `isa`.
    pub(crate) fn new(isa: Isa, n: usize, k: usize) -> Self {
        Self {
            isa,
            k,
            home: vec![0; n],
            best: vec![f64::INFINITY; n],
            reach: vec![f64::INFINITY; n],
            lower: vec![0.0; n * k],
            gaps: vec![0.0; k],
            limits: vec![0.0; k],
            open: vec![0; n],
            dists: Vec::with_capacity(n),
            distance_evals: 0,
        }
    }

    /// Seed `c` (row `c` of `seeds`) was drawn: fold it into every row's
    /// `d2` (k-means++'s own nearest-seed `dist_sq`: the first seed's
    /// distance as computed, NaN included, then strict `<`) and into the
    /// bounds. A row's distance to the new seed is skipped when the
    /// triangle inequality proves it strictly farther than the row's home,
    /// so it could move neither `d2` nor the assignment. Returns the new
    /// `d2` summed in ascending row order from `0.0`, the total the next
    /// draw is scaled by.
    ///
    /// Three passes, each without a data-dependent branch in its way: the
    /// prune test over every row (writing the triangle bound, and listing
    /// the rows it leaves open), the distances of the listed rows four at a
    /// time, then their fold into `d2`, the assignment and the bounds, in
    /// ascending row order.
    pub(crate) fn add(
        &mut self,
        points: &PointMatrix,
        seeds: &PointMatrix,
        c: usize,
        d2: &mut [f64],
    ) -> f64 {
        let seed = seeds.row(c);
        let (gaps, limits) = (&mut self.gaps, &mut self.limits);
        self.isa.each_dist_sq(
            c,
            |a| (seeds.row(a), seed),
            |a, d| {
                gaps[a] = lower_bound(d);
                limits[a] = prune_limit(gaps[a]);
            },
        );
        let n = d2.len();
        let lows = &mut self.lower[c * n..(c + 1) * n];
        let mut open = 0;
        let rows = (self.home.iter().zip(&self.reach)).zip(lows.iter_mut());
        for (i, ((&home, &reach), low)) in rows.enumerate() {
            // Before the first seed every limit is 0 and every reach ∞.
            let pruned = reach < self.limits[home];
            *low = (self.gaps[home] - reach) * ROUND_DOWN;
            debug_assert!(!pruned || provably_farther(reach, *low));
            self.open[open] = i;
            open += usize::from(!pruned);
        }
        let open = &self.open[..open];
        self.dists.clear();
        let dists = &mut self.dists;
        self.isa.each_dist_sq(
            open.len(),
            |j| (points.row(open[j]), seed),
            |_, d| {
                dists.push(d);
            },
        );
        for (&i, &d) in open.iter().zip(&self.dists) {
            let root = lower_bound(d);
            lows[i] = root;
            if c == 0 || d < d2[i] {
                d2[i] = d;
            }
            if d < self.best[i] {
                self.best[i] = d;
                self.home[i] = c;
                self.reach[i] = root;
            }
        }
        self.distance_evals += (c + open.len()) as u64;
        d2.iter().fold(0.0, |total, &d| total + d)
    }
}

/// Everything the Lloyd loop carries from sweep to sweep: the assignment,
/// the pruning bounds, and the flat per-cluster sums, of which each sweep
/// redoes only the clusters whose members changed.
#[derive(Debug)]
pub struct SweepState {
    k: usize,
    dim: usize,
    assignment: Vec<usize>,
    /// Per row: an upper bound on `√dist_sq` to its home centroid.
    upper: Vec<f64>,
    /// Per (row, centroid), row-major: a lower bound on `√dist_sq`, before
    /// the moves in `drift`.
    lower: Vec<f64>,
    /// The `k` centroid shifts of each bounds move since the last sweep, in
    /// order. The next sweep applies them to each row's lower bounds as it
    /// reaches the row — the operations an eager move makes, in its order,
    /// so the bits are the same, without a pass of its own over n·k.
    drift: Vec<f64>,
    /// The assignment and `upper` are still the full scan's over the
    /// k-means++ seeds, as [`SeedBounds`] left them: the next sweep only
    /// accumulates, without evaluating anything.
    seeded: bool,
    /// The instruction set the kernels run on: detected, and invisible in
    /// every output (tests pin the portable one to prove that).
    pub(crate) isa: Isa,
    sums: Vec<f64>,
    counts: Vec<usize>,
    /// Per cluster: the last sweep summed it again, because its member set
    /// changed (every cluster, on the first sweep).
    resummed: Vec<bool>,
    /// No sweep has run yet, so no cluster has sums to keep.
    unsummed: bool,
    block_sums: Vec<f64>,
    block_counts: Vec<usize>,
    distance_evals: u64,
}

impl SweepState {
    /// State that knows nothing: the first sweep evaluates all n·k
    /// distances and fills the bounds from them. No fit starts here (every
    /// fit is seeded); it is the unpruned sweep, for benches and tests.
    pub fn blank(n: usize, k: usize, dim: usize) -> Self {
        let (assignment, upper) = (vec![0; n], vec![f64::INFINITY; n]);
        Self::new(assignment, upper, vec![0.0; n * k], k, dim, false)
    }

    /// State primed by k-means++ seeding with every seed drawn: the full
    /// scan's assignment over the seeds, exact home distances and a lower
    /// bound per (row, seed), so sweep one evaluates nothing. The seed-major
    /// bounds are turned row-major here, once. The seeding's evaluations
    /// count toward [`Self::distance_evals`], and its instruction set is
    /// the sweeps'.
    pub(crate) fn seeded(seeding: SeedBounds, dim: usize) -> Self {
        let SeedBounds {
            isa,
            k,
            home,
            reach,
            lower: by_seed,
            distance_evals,
            ..
        } = seeding;
        let n = home.len();
        let mut lower = vec![0.0; n * k];
        for (c, column) in by_seed.chunks_exact(n.max(1)).enumerate() {
            for (row, &low) in lower.chunks_exact_mut(k).zip(column) {
                row[c] = low;
            }
        }
        for (row, &home) in lower.chunks_exact_mut(k).zip(&home) {
            row[home] = f64::INFINITY;
        }
        let mut state = Self::new(home, reach, lower, k, dim, true);
        state.distance_evals = distance_evals;
        state.isa = isa;
        state
    }

    fn new(
        assignment: Vec<usize>,
        upper: Vec<f64>,
        lower: Vec<f64>,
        k: usize,
        dim: usize,
        seeded: bool,
    ) -> Self {
        Self {
            k,
            dim,
            assignment,
            upper,
            lower,
            drift: Vec::new(),
            seeded,
            isa: Isa::detect(),
            sums: vec![0.0; k * dim],
            counts: vec![0; k],
            resummed: vec![true; k],
            unsummed: true,
            block_sums: vec![0.0; k * dim],
            block_counts: vec![0; k],
            distance_evals: 0,
        }
    }

    /// `assignment[i]` = centroid of row `i` after the last sweep (all 0
    /// before the first).
    pub fn assignment(&self) -> &[usize] {
        &self.assignment
    }

    /// Row `i`'s upper bound and its `k` lower bounds, every move applied.
    #[cfg(test)]
    pub(crate) fn row_bounds(&self, i: usize) -> (f64, Vec<f64>) {
        let mut lows = self.lower[i * self.k..(i + 1) * self.k].to_vec();
        take_moves(&mut lows, &self.drift);
        (self.upper[i], lows)
    }

    /// Hand the assignment out at the end of a fit.
    pub(crate) fn into_assignment(self) -> Vec<usize> {
        self.assignment
    }

    /// Per-cluster member counts of the last sweep.
    pub fn counts(&self) -> &[usize] {
        &self.counts
    }

    /// Cluster `c`'s coordinate sums from the last sweep, merged from block
    /// partials in ascending block order.
    pub fn sums(&self, c: usize) -> &[f64] {
        &self.sums[c * self.dim..(c + 1) * self.dim]
    }

    /// Per cluster: whether the last sweep summed it again. One it did not
    /// has the members, and so the sums and count, of the sweep before.
    pub(crate) fn resummed(&self) -> &[bool] {
        &self.resummed
    }

    /// `dist_sq` calls spent so far, the seeding's included — a pure
    /// function of the input, identical run to run.
    pub fn distance_evals(&self) -> u64 {
        self.distance_evals
    }

    /// Count `n` distance evaluations the caller made on this fit's behalf
    /// (centroid shifts, the reseed scan).
    pub(crate) fn count_evals(&mut self, n: usize) {
        self.distance_evals += n as u64;
    }

    /// One assign-then-update sweep: every row gets the centroid a full
    /// scan would give it — by the bounds where they prove it, by
    /// evaluation where they do not — and then each cluster whose member
    /// set changed is summed again in [`UPDATE_BLOCK`]-row blocks merged in
    /// ascending order. The sums are bit-identical to the oracle's, which
    /// sums every cluster every sweep: the same members in the same blocks
    /// sum to the same bits. Returns whether any row changed assignment.
    pub fn sweep(&mut self, points: &PointMatrix, centroids: &PointMatrix) -> bool {
        let seeded = std::mem::take(&mut self.seeded);
        debug_assert!(
            !seeded || self.drift.is_empty(),
            "no move precedes the seeded sweep"
        );
        // The first sweep sums every cluster; a later one, those a row left
        // or joined.
        let first = std::mem::take(&mut self.unsummed);
        self.resummed.fill(first);
        let moved = if seeded {
            // The seeding's assignment replaces the all-0 one a fit starts
            // from, which is what "moved" is measured against. The first
            // sweep sums every cluster, so nothing is flagged.
            self.assignment.iter().any(|&home| home != 0)
        } else {
            self.assign(points, centroids)
        };
        self.drift.clear();
        self.resum(points);
        moved
    }

    /// The assign step: each row, in ascending order, gets the centroid a
    /// full scan would give it, and a row that moves flags its old and new
    /// home in `resummed`. Returns whether any row moved.
    fn assign(&mut self, points: &PointMatrix, centroids: &PointMatrix) -> bool {
        let (k, isa) = (self.k, self.isa);
        let mut moved = false;
        let mut flags = vec![false; k.div_ceil(LANES)];
        let per_row = (self.assignment.iter_mut().zip(self.upper.iter_mut()))
            .zip(self.lower.chunks_exact_mut(k));
        for (r, ((home, upper), lows)) in per_row.enumerate() {
            let open = move_and_flag(isa, lows, &self.drift, *upper, &mut flags);
            // One centroid is its own nearest, whatever the bounds say.
            if !open || k == 1 {
                continue;
            }
            let found = bounded_nearest(
                isa,
                points.row(r),
                centroids,
                *home,
                *upper,
                lows,
                &flags,
                &mut self.distance_evals,
            );
            if let Some((best, best_d)) = found {
                if best != *home {
                    moved = true;
                    self.resummed[*home] = true;
                    self.resummed[best] = true;
                }
                *home = best;
                *upper = best_d.sqrt();
            }
        }
        moved
    }

    /// Sum the clusters `resummed` flags again from their members: block by
    /// block, each in ascending row order, the partials merged in ascending
    /// block order. The other clusters keep their sums and counts.
    fn resum(&mut self, points: &PointMatrix) {
        let (dim, isa) = (self.dim, self.isa);
        for (c, _) in self.resummed.iter().enumerate().filter(|(_, &r)| r) {
            self.sums[c * dim..(c + 1) * dim].fill(0.0);
            self.counts[c] = 0;
        }
        for (b, block) in self.assignment.chunks(UPDATE_BLOCK).enumerate() {
            sum_block(
                isa,
                points,
                b * UPDATE_BLOCK,
                block,
                &self.resummed,
                &mut self.block_sums,
                &mut self.block_counts,
            );
            merge_block(
                dim,
                &mut self.sums,
                &mut self.counts,
                &mut self.block_sums,
                &mut self.block_counts,
            );
        }
    }

    /// After the update step moved centroid `c` by at most `shifts[c]`
    /// (see [`shift_bound`]): every upper bound grows by its home's shift
    /// and every lower bound shrinks by its centroid's, rounded outward. A
    /// reseeded centroid is no special case — its shift is just long. The
    /// upper bounds move here; the lower bounds when the next sweep reads
    /// them.
    pub(crate) fn move_bounds(&mut self, shifts: &[f64]) {
        for (upper, &home) in self.upper.iter_mut().zip(&self.assignment) {
            *upper = (*upper + shifts[home]) * ROUND_UP;
        }
        self.drift.extend_from_slice(shifts);
    }
}

/// Apply the moves in `drift` to one row's lower bounds, in order.
#[inline]
fn take_moves(lows: &mut [f64], drift: &[f64]) {
    for shifts in drift.chunks_exact(lows.len()) {
        for (low, shift) in lows.iter_mut().zip(shifts) {
            *low = (*low - shift) * ROUND_DOWN;
        }
    }
}

/// The bound past which a lower bound is *clear* of `upper`: anything
/// above it is [`provably_farther`] than `upper` with room to spare — over
/// [`PRUNE_FLOOR`], and over `upper` by twice the slack, which covers the
/// slack and the rounding of both products. `∞` (nothing clear) when
/// `upper` is not finite, or NaN.
#[inline]
fn clearance(upper: f64) -> f64 {
    if upper < f64::INFINITY {
        (upper * (1.0 + 2.0 * PRUNE_SLACK)).max(PRUNE_FLOOR)
    } else {
        f64::INFINITY
    }
}

/// A run of [`LANES`] lower bounds is flagged unless every one of them is
/// above `clear` (NaN never is). One compare per bound, no branch.
#[inline]
fn flagged(run: &[f64], clear: f64) -> bool {
    !run.iter()
        .fold(true, |clear_all, &low| clear_all & (low > clear))
}

/// Move one row's lower bounds by the pending `drift` — the operations an
/// eager move makes, in its order — and, in the same pass, flag each run of
/// [`LANES`] centroids whose bounds are not all clear of `upper` (see
/// [`clearance`]). An unflagged run holds only centroids provably farther
/// than `upper`. Returns whether any run is flagged.
#[inline(always)]
fn move_and_flag_body(lows: &mut [f64], drift: &[f64], upper: f64, flags: &mut [bool]) -> bool {
    let k = lows.len();
    let moves = drift.len() / k;
    take_moves(lows, &drift[..moves.saturating_sub(1) * k]);
    let clear = clearance(upper);
    let mut any = false;
    if moves == 0 {
        for (flag, run) in flags.iter_mut().zip(lows.chunks(LANES)) {
            *flag = flagged(run, clear);
            any |= *flag;
        }
        return any;
    }
    let shifts = &drift[(moves - 1) * k..];
    let mut runs = lows.chunks_exact_mut(LANES);
    let mut run_shifts = shifts.chunks_exact(LANES);
    for ((flag, run), shift) in flags.iter_mut().zip(&mut runs).zip(&mut run_shifts) {
        for (low, s) in run.iter_mut().zip(shift) {
            *low = (*low - s) * ROUND_DOWN;
        }
        *flag = flagged(run, clear);
        any |= *flag;
    }
    let run = runs.into_remainder();
    if let Some(flag) = flags.get_mut(k / LANES) {
        for (low, s) in run.iter_mut().zip(run_shifts.remainder()) {
            *low = (*low - s) * ROUND_DOWN;
        }
        *flag = flagged(run, clear);
        any |= *flag;
    }
    any
}

avx2_compiled! {
    /// [`move_and_flag_body`], vectorized as wide as `isa` allows.
    fn move_and_flag(lows: &mut [f64], drift: &[f64], upper: f64, flags: &mut [bool]) -> bool
        = move_and_flag_body;
}

/// Add one block's partial sums and counts into the sweep totals, and hand
/// the partials back zeroed. A cluster the block never touched has an
/// all-`+0.0` partial, and no total is ever `-0.0` (every sum starts from
/// `+0.0`), so skipping it changes no bit — and leaves nothing to zero.
fn merge_block(
    dim: usize,
    sums: &mut [f64],
    counts: &mut [usize],
    block_sums: &mut [f64],
    block_counts: &mut [usize],
) {
    for (c, members) in block_counts.iter_mut().enumerate() {
        if *members > 0 {
            counts[c] += std::mem::take(members);
            let span = c * dim..(c + 1) * dim;
            for (s, x) in sums[span.clone()].iter_mut().zip(&mut block_sums[span]) {
                *s += std::mem::take(x);
            }
        }
    }
}

/// One block's rows, `start..start + homes.len()`, accumulated in ascending
/// row order into the partial `sums` and `counts` of their homes — only the
/// rows whose home `resum` flags. The partials arrive zeroed.
#[inline(always)]
fn sum_block_body(
    points: &PointMatrix,
    start: usize,
    homes: &[usize],
    resum: &[bool],
    sums: &mut [f64],
    counts: &mut [usize],
) {
    let dim = points.dim();
    for (r, &home) in homes.iter().enumerate() {
        if resum[home] {
            counts[home] += 1;
            let row = points.row(start + r);
            for (s, &x) in sums[home * dim..(home + 1) * dim].iter_mut().zip(row) {
                *s += x;
            }
        }
    }
}

avx2_compiled! {
    /// [`sum_block_body`], vectorized as wide as `isa` allows.
    fn sum_block(
        points: &PointMatrix,
        start: usize,
        homes: &[usize],
        resum: &[bool],
        sums: &mut [f64],
        counts: &mut [usize],
    ) = sum_block_body;
}

/// `out = sums / count`, element by element.
#[inline(always)]
fn divide_body(out: &mut [f64], sums: &[f64], count: f64) {
    for (x, s) in out.iter_mut().zip(sums) {
        *x = s / count;
    }
}

avx2_compiled! {
    /// A cluster's mean from its sums and member count ([`divide_body`]),
    /// vectorized as wide as `isa` allows.
    pub(crate) fn divide(out: &mut [f64], sums: &[f64], count: f64) = divide_body;
}

/// Run the comparator `network` over each group of `m` consecutive runs,
/// every comparator a lane-wise min/max of two runs of [`LANES`] values.
#[inline(always)]
fn sort_runs_body(runs: &mut [[f64; LANES]], m: usize, network: &[(u8, u8)]) {
    for run in runs.chunks_exact_mut(m) {
        for &(a, b) in network {
            let (a, b) = (usize::from(a), usize::from(b));
            let (x, y) = (run[a], run[b]);
            for j in 0..LANES {
                let swap = y[j] < x[j];
                run[a][j] = if swap { y[j] } else { x[j] };
                run[b][j] = if swap { x[j] } else { y[j] };
            }
        }
    }
}

avx2_compiled! {
    /// The median exemplar's sorting network ([`sort_runs_body`]),
    /// vectorized as wide as `isa` allows. On values without NaN and
    /// `-0.0` a min/max picks one of its inputs whole, so the width changes
    /// no bit.
    pub(crate) fn sort_runs(runs: &mut [[f64; LANES]], m: usize, network: &[(u8, u8)])
        = sort_runs_body;
}

/// [`nearest_centroid`] with the evaluations the bounds make pointless left
/// out, for a row [`move_and_flag`] flagged. It is the full scan's strict
/// `<` from `(0, ∞)` in ascending order, skipping only centroids provably
/// strictly farther than the nearest one evaluated so far — which cannot
/// include the scan's winner, nor anything tied with it — and it evaluates
/// `home` only once some other centroid is not provably farther than
/// `upper`. `None`: there was none, so the row stays, at no cost.
/// Otherwise every evaluated bound becomes exact, and the new home's turns
/// the `+∞` sentinel.
///
/// Before `home` is evaluated the bar is `upper`; after, the reach `√` of
/// its distance, which sits at or under `upper`. A centroid skipped against
/// the first is skipped against the second, and so is every centroid of a
/// run `flags` left unflagged (all provably farther than `upper`): only the
/// flagged runs, and the home's, are read. A reach past `upper`, or NaN,
/// proves less than `upper` did, so that row is scanned whole
/// ([`scan_from`]).
#[allow(clippy::too_many_arguments)]
fn bounded_nearest(
    isa: Isa,
    row: &[f64],
    centroids: &PointMatrix,
    home: usize,
    upper: f64,
    lows: &mut [f64],
    flags: &[bool],
    evals: &mut u64,
) -> Option<(usize, f64)> {
    let mut nearest = Nearest::new();
    let mut reach = upper;
    let mut home_d = None;
    let home_run = home / LANES;
    for (g, &flag) in flags.iter().enumerate() {
        if !flag && g != home_run {
            continue;
        }
        for c in g * LANES..((g + 1) * LANES).min(lows.len()) {
            if c == home {
                if let Some(d) = home_d {
                    nearest.take(c, d, &mut lows[c], &mut reach);
                }
                continue;
            }
            if provably_farther(reach, lows[c]) {
                continue;
            }
            if home_d.is_none() {
                let d = isa.dist_sq(row, centroids.row(home));
                *evals += 1;
                home_d = Some(d);
                reach = d.sqrt();
                let within = reach <= upper;
                if !within {
                    return Some(scan_from(isa, row, centroids, home, d, lows, evals));
                }
                if home < c {
                    nearest.take(home, d, &mut lows[home], &mut reach);
                }
                if provably_farther(reach, lows[c]) {
                    continue;
                }
            }
            *evals += 1;
            let d = isa.dist_sq(row, centroids.row(c));
            nearest.take(c, d, &mut lows[c], &mut reach);
        }
    }
    home_d?;
    lows[nearest.best] = f64::INFINITY;
    Some((nearest.best, nearest.best_d))
}

/// The scan's running winner: strict `<` from `(0, ∞)`.
struct Nearest {
    best: usize,
    best_d: f64,
}

impl Nearest {
    fn new() -> Self {
        Self {
            best: 0,
            best_d: f64::INFINITY,
        }
    }

    /// Centroid `c` was evaluated at `d`: its bound becomes exact, and a
    /// new winner lowers the reach (`<`, not `min`: a NaN reach must stay
    /// NaN).
    #[inline]
    fn take(&mut self, c: usize, d: f64, low: &mut f64, reach: &mut f64) {
        *low = lower_bound(d);
        if d < self.best_d {
            self.best_d = d;
            self.best = c;
            if d.sqrt() < *reach {
                *reach = d.sqrt();
            }
        }
    }
}

/// The bounded scan over every centroid, `home` already evaluated at
/// `d_home`: the one a row gets when its home's distance proves less than
/// the flags assumed.
fn scan_from(
    isa: Isa,
    row: &[f64],
    centroids: &PointMatrix,
    home: usize,
    d_home: f64,
    lows: &mut [f64],
    evals: &mut u64,
) -> (usize, f64) {
    let mut nearest = Nearest::new();
    let mut reach = d_home.sqrt();
    for (c, low) in lows.iter_mut().enumerate() {
        let d = if c == home {
            d_home
        } else if provably_farther(reach, *low) {
            continue;
        } else {
            *evals += 1;
            isa.dist_sq(row, centroids.row(c))
        };
        nearest.take(c, d, low, &mut reach);
    }
    lows[nearest.best] = f64::INFINITY;
    (nearest.best, nearest.best_d)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The serial full scan every bounded sweep must reproduce.
    fn assign_nearest(points: &PointMatrix, centroids: &PointMatrix) -> Vec<usize> {
        (0..points.n())
            .map(|i| nearest_centroid(points.row(i), centroids).0)
            .collect()
    }

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
    fn pruning_needs_a_strict_margin_and_never_trusts_nan_or_tiny_bounds() {
        assert!(provably_farther(1.0, 1.1));
        assert!(!provably_farther(1.0, 1.0), "a tie is never skipped");
        assert!(!provably_farther(1.0, 1.0 + 1e-12), "nor a near-tie");
        assert!(!provably_farther(f64::NAN, 5.0));
        assert!(!provably_farther(1.0, f64::NAN));
        assert!(!provably_farther(f64::INFINITY, f64::INFINITY));
        assert!(
            !provably_farther(0.0, 1e-120),
            "underflow range proves nothing"
        );
        assert!(!provably_farther(0.0, 0.0));
        assert_eq!(lower_bound(f64::INFINITY), 0.0);
        assert_eq!(lower_bound(f64::NAN), 0.0);
        assert_eq!(lower_bound(9.0), 3.0);
        assert!(shift_bound(0.0) > 0.0 && shift_bound(4.0) > 2.0);
        assert!(shift_bound(f64::NAN).is_nan());
    }

    #[test]
    fn blank_state_sweeps_like_a_full_scan_then_prunes() {
        // 3 blocks.
        let rows: Vec<Vec<f64>> = (0..150)
            .map(|i| vec![f64::from(i % 10), f64::from(i / 10)])
            .collect();
        let points = PointMatrix::from_rows(&rows);
        let centroids = PointMatrix::from_rows(&[rows[0].clone(), rows[75].clone()]);
        let mut state = SweepState::blank(150, 2, 2);
        assert!(state.sweep(&points, &centroids));
        assert_eq!(state.distance_evals(), 300, "a blank sweep evaluates n·k");
        assert_eq!(state.assignment(), assign_nearest(&points, &centroids));
        assert_eq!(state.counts().iter().sum::<usize>(), 150);
        for c in 0..2 {
            let members = (0..150).filter(|&i| state.assignment()[i] == c);
            let x: f64 = members.map(|i| rows[i][0]).sum();
            assert_eq!(state.sums(c)[0], x, "small integers sum exactly");
        }
        // Centroids that did not move: the second sweep moves nothing and,
        // away from the boundary between the two, evaluates nothing.
        state.move_bounds(&[shift_bound(0.0); 2]);
        assert!(!state.sweep(&points, &centroids));
        assert!(state.distance_evals() < 450);
        // Zero-width rows are all one point, and still counted.
        let mut flat = SweepState::blank(150, 2, 0);
        let none = |n| PointMatrix::from_flat(Vec::new(), n, 0);
        flat.sweep(&none(150), &none(2));
        assert_eq!(flat.counts(), [150, 0]);
    }

    fn weird_f64() -> impl Strategy<Value = f64> {
        prop_oneof![
            -1e3..1e3f64,
            -1e3..1e3f64,
            -1e3..1e3f64,
            -1e3..1e3f64,
            -1e3..1e3f64,
            -1e3..1e3f64,
            Just(0.0),
            Just(-0.0),
            Just(1e-300),
            Just(1e300),
            Just(-1e300),
            Just(f64::NAN),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The bounds are a proof or they are nothing: carried across any
        /// sequence of centroid moves — nudges, long jumps, jumps onto a
        /// point (a reseed), moves to NaN or ±1e300, no move at all — over
        /// rows that themselves hold NaN, ±0.0 and magnitude cliffs, every
        /// sweep's assignment is the full scan's, and its counts and sums
        /// are that assignment's.
        #[test]
        fn bounded_sweeps_equal_full_scans_across_arbitrary_centroid_moves(
            rows in (2usize..200, 1usize..5)
                .prop_flat_map(|(n, dim)| prop::collection::vec(prop::collection::vec(weird_f64(), dim), n)),
            k in 1usize..24,
            moves in prop::collection::vec((0usize..24, 0usize..6, weird_f64()), 1..40),
            per_sweep in 1usize..6,
        ) {
            let (n, dim) = (rows.len(), rows[0].len());
            let points = PointMatrix::from_rows(&rows);
            let seeds: Vec<Vec<f64>> = (0..k).map(|c| rows[(c * 7) % n].clone()).collect();
            let mut centroids = PointMatrix::from_rows(&seeds);
            let mut state = SweepState::blank(n, k, dim);
            for batch in moves.chunks(per_sweep) {
                state.sweep(&points, &centroids);
                let full = assign_nearest(&points, &centroids);
                prop_assert_eq!(state.assignment(), &full[..]);
                for c in 0..k {
                    let members: Vec<usize> = (0..n).filter(|&i| full[i] == c).collect();
                    prop_assert_eq!(state.counts()[c], members.len());
                    // Blocked ascending sums, the oracle's grouping.
                    let mut sums = vec![0.0f64; dim];
                    for block in members.chunk_by(|a, b| a / UPDATE_BLOCK == b / UPDATE_BLOCK) {
                        let mut partial = vec![0.0f64; dim];
                        for &i in block {
                            for (s, &x) in partial.iter_mut().zip(&rows[i]) {
                                *s += x;
                            }
                        }
                        for (s, &x) in sums.iter_mut().zip(&partial) {
                            *s += x;
                        }
                    }
                    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
                    prop_assert_eq!(bits(state.sums(c)), bits(&sums));
                }
                let before = centroids.clone();
                for &(c, how, value) in batch {
                    let c = c % k;
                    match how {
                        0 => centroids.row_mut(c)[0] += value * 1e-6,
                        1 => centroids.row_mut(c)[0] += value,
                        2 => centroids.row_mut(c).copy_from_slice(&rows[(c * 13 + 5) % n]),
                        3 => centroids.row_mut(c)[dim - 1] = value,
                        4 => centroids.row_mut(c).iter_mut().for_each(|x| *x *= 1.0 + 1e-12),
                        _ => {}
                    }
                }
                let shifts: Vec<f64> = (0..k)
                    .map(|c| shift_bound(dist_sq(before.row(c), centroids.row(c))))
                    .collect();
                state.move_bounds(&shifts);
            }
        }
    }
}
