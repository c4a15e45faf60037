//! Lloyd's k-means with k-means++ seeding, on the blocked kernels of
//! [`crate::simd`]: the per-query clustering the picker runs (§4.2).
//!
//! [`kmeans`] / [`kmeans_fit`] are exact Lloyd, bounded: a sweep evaluates a
//! point-to-centroid distance only when the bounds [`SweepState`] carries
//! cannot prove that centroid strictly farther than the row's nearest
//! (Elkan's triangle-inequality pruning). k-means++ seeding is pruned the
//! same way: a row's distance to a new seed is evaluated only when the
//! seed-to-seed distances cannot prove it farther than the row's nearest
//! seed so far (about 42% of the n·k at the picker's shapes, the whole fit
//! ~0.69·n·k). Seeding hands Lloyd the full scan's assignment and bounds,
//! so the first sweep evaluates nothing at all. Bit-identical to
//! [`crate::oracle::kmeans_fit`], which evaluates every distance on every
//! sweep, *because* a skipped evaluation is one whose result is proven:
//! same distance definition for the ones that are made, same strict-`<`
//! argmin over them, same accumulation order over every row, same RNG draw
//! sequence. Set `PS3_STRICT_KERNELS=1` to assert that equality on every
//! call. Costs an n × k `f64` bound matrix per fit (209 KB at 512 × 51).

use rand::rngs::StdRng;
use rand::Rng;

use crate::simd::{self, Isa, PointMatrix, SeedBounds, SweepState};

/// A fitted k-means model: centroids, assignment and how the run went.
#[derive(Debug, Clone)]
pub struct KmeansFit {
    /// Final centroids, one row per cluster (empty clusters keep their
    /// reseeded position).
    pub centroids: Vec<Vec<f64>>,
    /// `assignment[i]` = centroid index of point `i`.
    pub assignment: Vec<usize>,
    /// Assign-update sweeps executed.
    pub sweeps: usize,
    /// Whether the run converged before its sweep cap.
    pub converged: bool,
}

impl KmeansFit {
    /// Member-index lists per cluster, non-empty clusters only, in
    /// centroid-index order.
    pub fn clusters(&self) -> Vec<Vec<usize>> {
        members(&self.assignment, self.centroids.len())
    }
}

/// Member-index lists of an assignment to `k` clusters, non-empty clusters
/// only, in cluster order: each list allocated once, at its final size.
fn members(assignment: &[usize], k: usize) -> Vec<Vec<usize>> {
    let mut counts = vec![0usize; k];
    for &c in assignment {
        counts[c] += 1;
    }
    let mut lists: Vec<Vec<usize>> = counts.iter().map(|&n| Vec::with_capacity(n)).collect();
    for (i, &c) in assignment.iter().enumerate() {
        lists[c].push(i);
    }
    lists.retain(|members| !members.is_empty());
    lists
}

/// Cluster `points` into `k` groups; returns member-index lists (non-empty
/// clusters only — k-means++ on distinct points rarely loses one, but ties
/// can).
///
/// # Panics
/// Panics when `k == 0` or there are fewer points than `k` (the
/// [`crate::cluster`] wrapper handles those cases).
pub fn kmeans(
    points: &PointMatrix,
    k: usize,
    rng: &mut StdRng,
    max_iter: usize,
) -> Vec<Vec<usize>> {
    kmeans_counted(points, k, rng, max_iter).0
}

/// [`kmeans`] plus its `dist_sq` count (see [`kmeans_fit_counted`]): the
/// member lists straight from the assignment, with no per-cluster copy of
/// the centroids made only to be dropped.
pub(crate) fn kmeans_counted(
    points: &PointMatrix,
    k: usize,
    rng: &mut StdRng,
    max_iter: usize,
) -> (Vec<Vec<usize>>, u64) {
    let fit = fit(points, k, rng, max_iter);
    (members(&fit.assignment, k), fit.evals)
}

/// [`kmeans`] returning the full [`KmeansFit`] (centroids included).
///
/// Under `PS3_STRICT_KERNELS=1` every call re-runs the scalar oracle on a
/// cloned RNG and asserts the bounded result is bit-identical.
///
/// # Panics
/// As [`kmeans`]; additionally (strict mode only) if the bounded loop ever
/// diverges from the oracle.
pub fn kmeans_fit(points: &PointMatrix, k: usize, rng: &mut StdRng, max_iter: usize) -> KmeansFit {
    kmeans_fit_counted(points, k, rng, max_iter).0
}

/// [`kmeans_fit`] plus what it cost: the number of `dist_sq` evaluations
/// the fit made, seeding included. Plain Lloyd spends `(1 + sweeps) · n · k`
/// of them; the count is a pure function of `(points, k, rng, max_iter)`,
/// so it repeats exactly and can gate a regression where wall-clock cannot.
pub fn kmeans_fit_counted(
    points: &PointMatrix,
    k: usize,
    rng: &mut StdRng,
    max_iter: usize,
) -> (KmeansFit, u64) {
    fit(points, k, rng, max_iter).into_public()
}

/// A fit in the kernels' own shapes, with its `dist_sq` count.
struct Fit {
    centroids: PointMatrix,
    assignment: Vec<usize>,
    sweeps: usize,
    converged: bool,
    evals: u64,
}

impl Fit {
    /// The public shape, centroids unpacked into rows, and the count.
    fn into_public(self) -> (KmeansFit, u64) {
        let fit = KmeansFit {
            centroids: self.centroids.to_rows(),
            assignment: self.assignment,
            sweeps: self.sweeps,
            converged: self.converged,
        };
        (fit, self.evals)
    }
}

/// The one fit: seeding, then Lloyd, on the instruction set
/// [`Isa::detect`] finds; under `PS3_STRICT_KERNELS=1` checked against the
/// oracle (assignment, centroid bits, sweep count).
fn fit(points: &PointMatrix, k: usize, rng: &mut StdRng, max_iter: usize) -> Fit {
    assert!(k > 0 && points.n() >= k);
    let strict_rng = ps3_runtime::strict_kernels().then(|| rng.clone());
    let (centroids, state) = seed(Isa::detect(), points, k, rng);
    let fit = lloyd(points, centroids, state, max_iter);
    if let Some(mut oracle_rng) = strict_rng {
        let reference = crate::oracle::kmeans_fit(&points.to_rows(), k, &mut oracle_rng, max_iter);
        assert_eq!(
            fit.assignment, reference.assignment,
            "strict kernels: bounded assignment diverged from the oracle"
        );
        let bits = |rows: &mut dyn Iterator<Item = &[f64]>| -> Vec<Vec<u64>> {
            rows.map(|row| row.iter().map(|x| x.to_bits()).collect())
                .collect()
        };
        assert_eq!(
            bits(&mut (0..k).map(|c| fit.centroids.row(c))),
            bits(&mut reference.centroids.iter().map(Vec::as_slice)),
            "strict kernels: bounded centroids diverged from the oracle"
        );
        assert_eq!(
            (fit.sweeps, fit.converged),
            (reference.sweeps, reference.converged),
            "strict kernels: bounded sweep count diverged from the oracle"
        );
    }
    fit
}

/// k-means++ seeding: each new center is drawn with probability
/// proportional to its squared distance from the nearest existing center.
/// The RNG draw sequence (one `gen_range(0..n)`, then one
/// `gen_range(0.0..total)` per additional center) and the sequential
/// ascending sum of `d2` from `0.0` as the total are part of the
/// kernel/oracle spec. [`SeedBounds`]
/// keeps `d2` exactly as a full evaluation would — it skips only distances
/// the triangle inequality proves could not lower it — and returns the
/// seeds with the sweep state they leave: the full scan's assignment, exact
/// home distances and a lower bound per (row, seed), so Lloyd's first sweep
/// evaluates nothing.
fn seed(isa: Isa, points: &PointMatrix, k: usize, rng: &mut StdRng) -> (PointMatrix, SweepState) {
    let (n, dim) = (points.n(), points.dim());
    let mut seeds = PointMatrix::from_flat(vec![0.0; k * dim], k, dim);
    let mut bounds = SeedBounds::new(isa, n, k);
    let mut d2 = vec![0.0f64; n];
    let first = rng.gen_range(0..n);
    seeds.row_mut(0).copy_from_slice(points.row(first));
    let mut total = bounds.add(points, &seeds, 0, &mut d2);
    for c in 1..k {
        let next = if total <= 0.0 {
            // All remaining points coincide with a center; pick uniformly.
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
        seeds.row_mut(c).copy_from_slice(points.row(next));
        total = bounds.add(points, &seeds, c, &mut d2);
    }
    (seeds, SweepState::seeded(bounds, dim))
}

/// The one Lloyd loop: bounded assign+update sweeps with the deterministic
/// empty-cluster reseed rule, returning the fit and its `dist_sq` count.
/// The spec (mirrored, without bounds, by the oracle):
///
/// 1. One [`SweepState::sweep`] — the assignment a full strict-`<` scan
///    would produce, and per-cluster sums in blocked ascending order.
/// 2. Non-empty centroids finalize to `sum / count`, ascending cluster.
/// 3. Empty clusters, ascending, reseed at the point with the strictly
///    largest distance to its (new) assigned centroid — first maximum
///    wins; NaN distances never win.
/// 4. Stop when nothing changed (no assignment moved, no reseed fired);
///    otherwise every bound moves by its centroid's shift, reseeds included.
///
/// Step 2 divides only the clusters the sweep summed again: one with the
/// members it had has the sums and count it had, so `sum / count` is the
/// centroid it has. The evaluations whose inputs are all known up front
/// (the reseed scan, the shifts) run four at a time.
fn lloyd(
    points: &PointMatrix,
    mut centroids: PointMatrix,
    mut state: SweepState,
    max_iter: usize,
) -> Fit {
    let (k, isa) = (centroids.n(), state.isa);
    // What each centroid was before the sweep's update: equal to
    // `centroids` at the top of every sweep.
    let mut previous = centroids.clone();
    let mut shifts = vec![0.0f64; k];
    let mut sweeps = 0usize;
    let mut converged = false;
    while sweeps < max_iter {
        sweeps += 1;
        let mut changed = state.sweep(points, &centroids);
        for c in 0..k {
            let members = state.counts()[c];
            if members > 0 && state.resummed()[c] {
                simd::divide(isa, centroids.row_mut(c), state.sums(c), members as f64);
            }
        }
        if state.counts().contains(&0) {
            // No row's home is an empty cluster, so reseeding one moves no
            // row's home distance: one scan serves every empty cluster.
            let (mut far, mut far_d) = (0usize, f64::NEG_INFINITY);
            let homes = state.assignment();
            isa.each_dist_sq(
                points.n(),
                |i| (points.row(i), centroids.row(homes[i])),
                |i, d| {
                    if d > far_d {
                        far_d = d;
                        far = i;
                    }
                },
            );
            state.count_evals(points.n());
            for c in 0..k {
                if state.counts()[c] == 0 {
                    centroids.row_mut(c).copy_from_slice(points.row(far));
                }
            }
            changed = true;
        }
        if !changed {
            converged = true;
            break;
        }
        if sweeps < max_iter {
            isa.each_dist_sq(
                k,
                |c| (previous.row(c), centroids.row(c)),
                |c, d| shifts[c] = simd::shift_bound(d),
            );
            state.count_evals(k);
            state.move_bounds(&shifts);
            for c in 0..k {
                previous.row_mut(c).copy_from_slice(centroids.row(c));
            }
        }
    }
    Fit {
        centroids,
        evals: state.distance_evals(),
        assignment: state.into_assignment(),
        sweeps,
        converged,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::SeedableRng;

    #[test]
    fn separates_three_obvious_blobs() {
        let mut pts = Vec::new();
        for i in 0..15 {
            let j = f64::from(i % 5) * 0.1;
            pts.push(vec![f64::from(i / 5) * 100.0 + j]);
        }
        let mut rng = StdRng::seed_from_u64(3);
        let clusters = kmeans(&PointMatrix::from_rows(&pts), 3, &mut rng, 50);
        assert_eq!(clusters.len(), 3);
        for c in &clusters {
            assert_eq!(c.len(), 5);
            let blob: std::collections::HashSet<usize> = c.iter().map(|&i| i / 5).collect();
            assert_eq!(blob.len(), 1);
        }
    }

    #[test]
    fn identical_points_still_produce_k_or_fewer() {
        let pts = vec![vec![1.0, 1.0]; 12];
        let mut rng = StdRng::seed_from_u64(0);
        let clusters = kmeans(&PointMatrix::from_rows(&pts), 3, &mut rng, 10);
        let total: usize = clusters.iter().map(Vec::len).sum();
        assert_eq!(total, 12);
        assert!(clusters.len() <= 3);
    }

    #[test]
    fn fit_reports_convergence_and_centroids() {
        let pts: Vec<Vec<f64>> = (0..20)
            .map(|i| vec![if i < 10 { 0.0 } else { 100.0 } + f64::from(i % 10) * 0.01])
            .collect();
        let mut rng = StdRng::seed_from_u64(1);
        let fit = kmeans_fit(&PointMatrix::from_rows(&pts), 2, &mut rng, 50);
        assert!(fit.converged);
        assert!(fit.sweeps <= 50);
        assert_eq!(fit.centroids.len(), 2);
        assert_eq!(fit.assignment.len(), 20);
        assert_eq!(fit.clusters().len(), 2);
    }

    /// `blobs` noisy clumps in `dim` columns — the shape the picker's group
    /// projection hands k-means (far fewer natural groups than clusters).
    fn blob_points(n: usize, dim: usize, blobs: usize, seed: u64) -> Vec<Vec<f64>> {
        let mut rng = StdRng::seed_from_u64(seed);
        let centers: Vec<Vec<f64>> = (0..blobs)
            .map(|_| (0..dim).map(|_| rng.gen_range(0.0..4.0)).collect())
            .collect();
        (0..n)
            .map(|i| {
                let center = &centers[i % blobs];
                center
                    .iter()
                    .map(|x| x + rng.gen_range(-0.15..0.15))
                    .collect()
            })
            .collect()
    }

    fn centroid_bits(c: &[Vec<f64>]) -> Vec<u64> {
        c.iter().flatten().map(|x| x.to_bits()).collect()
    }

    /// The whole kernel/oracle contract between two fits.
    fn assert_same_fit(fit: &KmeansFit, reference: &KmeansFit) {
        assert_eq!(fit.assignment, reference.assignment);
        assert_eq!(
            centroid_bits(&fit.centroids),
            centroid_bits(&reference.centroids)
        );
        assert_eq!(
            (fit.sweeps, fit.converged),
            (reference.sweeps, reference.converged)
        );
    }

    #[test]
    fn bounded_fit_costs_less_than_one_full_scan() {
        let (n, dim, k) = (400, 70, 40);
        let rows = blob_points(n, dim, 12, 17);
        let points = PointMatrix::from_rows(&rows);
        let run = || kmeans_fit_counted(&points, k, &mut StdRng::seed_from_u64(5), 25);
        let (fit, evals) = run();
        assert!(fit.converged && fit.sweeps >= 4, "{} sweeps", fit.sweeps);
        let plain_lloyd = ((1 + fit.sweeps) * n * k) as u64;
        assert!(
            evals <= (n * k) as u64,
            "{evals} evaluations over {} sweeps; one full scan is {}, plain Lloyd {plain_lloyd}",
            fit.sweeps,
            n * k
        );
        assert_eq!(run().1, evals, "the count is a pure function of the input");
        let slow = crate::oracle::kmeans_fit(&rows, k, &mut StdRng::seed_from_u64(5), 25);
        assert_same_fit(&fit, &slow);
    }

    /// Seeding skips what it can bound: on the picker's shape (far fewer
    /// natural groups than clusters) it evaluates at most half of the n·k
    /// seed distances, and Lloyd's first sweep evaluates none.
    #[test]
    fn seeding_evaluates_at_most_half_the_seed_distances() {
        let (n, dim, k) = (400, 70, 40);
        let points = PointMatrix::from_rows(&blob_points(n, dim, 12, 17));
        let (seeds, mut state) = seed(Isa::detect(), &points, k, &mut StdRng::seed_from_u64(5));
        let seeding = state.distance_evals();
        assert!(
            seeding * 2 <= (n * k) as u64,
            "seeding evaluated {seeding} of {} distances",
            n * k
        );
        state.sweep(&points, &seeds);
        assert_eq!(
            state.distance_evals(),
            seeding,
            "sweep one evaluates nothing"
        );
    }

    /// What seeding hands Lloyd is what a full scan over the seeds gives:
    /// each row's strict-`<`-from-∞ nearest seed (not k-means++'s `d2`,
    /// which starts from the first distance — a NaN on a NaN row), the
    /// exact `√` of its distance as the upper bound, lower bounds that
    /// never exceed a finite distance they stand for, and the `+∞` sentinel
    /// in the home's slot, which no sweep reads while it is the home.
    #[test]
    fn seeding_hands_lloyd_the_full_scan_and_sound_bounds() {
        let lattice: Vec<Vec<f64>> = (0..120u32)
            .map(|i| vec![f64::from(i % 10) * 0.1, f64::from(i / 10) * 0.1])
            .collect();
        let mut nan_row = blob_points(30, 3, 3, 2);
        nan_row[4][1] = f64::NAN;
        let mut cliffs = blob_points(60, 4, 5, 3);
        cliffs[7] = vec![1e300, -1e300, 0.0, -0.0];
        cliffs[9] = vec![-0.0; 4];
        let cases = [
            (blob_points(400, 70, 12, 17), 40),
            (lattice, 17),
            (nan_row, 1),
            (cliffs, 6),
        ];
        for (case, (rows, k)) in cases.iter().enumerate() {
            let points = PointMatrix::from_rows(rows);
            let (seeds, state) = seed(
                Isa::detect(),
                &points,
                *k,
                &mut StdRng::seed_from_u64(case as u64),
            );
            for (i, row) in rows.iter().enumerate() {
                let (home, home_d) = simd::nearest_centroid(row, &seeds);
                let (upper, lows) = state.row_bounds(i);
                assert_eq!(state.assignment()[i], home, "case {case}, row {i}");
                assert_eq!(
                    upper.to_bits(),
                    home_d.sqrt().to_bits(),
                    "case {case}, row {i}"
                );
                assert_eq!(lows[home], f64::INFINITY, "case {case}, row {i}");
                for (c, &low) in lows.iter().enumerate() {
                    let d = simd::dist_sq(row, seeds.row(c));
                    if c != home && d < f64::INFINITY {
                        assert!(
                            low <= d.sqrt() * (1.0 + 1e-12),
                            "case {case}, row {i}, seed {c}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn a_fit_of_many_blocks_equals_the_oracle() {
        // 1,100 rows: 18 blocks of partial sums.
        let (n, dim, k, max_iter) = (1100, 256, 24, 6);
        let rows = blob_points(n, dim, 9, 23);
        let points = PointMatrix::from_rows(&rows);
        let (fit, evals) = kmeans_fit_counted(&points, k, &mut StdRng::seed_from_u64(11), max_iter);
        let slow = crate::oracle::kmeans_fit(&rows, k, &mut StdRng::seed_from_u64(11), max_iter);
        assert!(
            slow.sweeps >= 3,
            "bounds must be in play: {} sweeps",
            slow.sweeps
        );
        assert!(evals < ((1 + slow.sweeps) * n * k) as u64 / 2);
        assert_same_fit(&fit, &slow);
    }

    /// The fit on the detected instruction set and on the portable one,
    /// with its count.
    fn fit_every_way(
        rows: &[Vec<f64>],
        k: usize,
        seed_: u64,
        max_iter: usize,
    ) -> Vec<(KmeansFit, u64)> {
        let points = PointMatrix::from_rows(rows);
        [Isa::detect(), Isa::Portable]
            .map(|isa| {
                let (centroids, state) = seed(isa, &points, k, &mut StdRng::seed_from_u64(seed_));
                lloyd(&points, centroids, state, max_iter).into_public()
            })
            .into()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Pinning the portable kernels is invisible: on duplicate-heavy
        /// rows that empty clusters (so reseeds fire and some clusters are
        /// summed again while others keep their sums), both instruction
        /// sets give the oracle's assignment, centroid bits and sweep
        /// count, and one evaluation count.
        #[test]
        fn every_way_of_sweeping_equals_the_oracle(
            n in 10usize..200,
            k in 2usize..30,
            distinct in 1usize..40,
            dim in 0usize..12,
            seed_ in 0u64..1000,
            max_iter in prop_oneof![Just(1usize), Just(2usize), Just(25usize)],
        ) {
            let k = k.min(n);
            let rows: Vec<Vec<f64>> = (0..n)
                .map(|i| {
                    let v = (i * 7 + i / 3) % distinct;
                    (0..dim)
                        .map(|d| f64::from(((v * (d + 2)) % 11) as u32) * 0.75 - f64::from(v as u32) + (i % 3) as f64 * 0.01)
                        .collect()
                })
                .collect();
            let slow = crate::oracle::kmeans_fit(&rows, k, &mut StdRng::seed_from_u64(seed_), max_iter);
            let fits = fit_every_way(&rows, k, seed_, max_iter);
            for (fit, evals) in &fits {
                assert_same_fit(fit, &slow);
                prop_assert_eq!(*evals, fits[0].1);
            }
        }
    }

    proptest! {
        #[test]
        fn partitions_every_point(n in 5usize..60, k in 1usize..5, seed in 0u64..20) {
            let k = k.min(n);
            let pts: Vec<Vec<f64>> = (0..n)
                .map(|i| vec![f64::from(i as u32), f64::from((i * 7 % 13) as u32)])
                .collect();
            let mut rng = StdRng::seed_from_u64(seed);
            let clusters = kmeans(&PointMatrix::from_rows(&pts), k, &mut rng, 20);
            let mut all: Vec<usize> = clusters.iter().flatten().copied().collect();
            all.sort_unstable();
            prop_assert_eq!(all, (0..n).collect::<Vec<_>>());
            prop_assert!(clusters.len() <= k);
        }
    }
}
