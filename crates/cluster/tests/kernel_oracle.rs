//! Kernel-vs-oracle bit-identity, from outside the crate.
//!
//! The blocked kernels in `ps3_cluster::simd` promise *bit-identical*
//! results to the straight-line scalar oracles in `ps3_cluster::oracle` —
//! not approximately equal, equal to the last ulp, because partition
//! clustering feeds exemplar choices and any drift changes which rows a
//! query reads. These property tests exercise the contract on adversarial
//! float inputs (NaN, signed zeros, magnitude cliffs) and on inputs that
//! force the empty-cluster reseed path, where the tie-breaking spec does
//! the heavy lifting. The second block below goes after the bounded Lloyd
//! loop specifically: inputs where a pruning bound that was a heuristic
//! rather than a proof would flip a tie (exact equidistance, lattices,
//! near-ties in the last bits), lose a reseed, or trust a NaN. The last
//! block holds the median exemplar to its oracle.
//! `PS3_STRICT_KERNELS=1` additionally re-checks the same contract inside
//! every k-means fit and median exemplar; CI runs this file both ways.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use ps3_cluster::{cluster, kmeans_fit, median_exemplar, oracle, simd, ClusterAlgo, PointMatrix};

/// Interesting doubles: ordinary values (repeated arms skew the draw
/// toward them), denormal-scale, huge-scale, signed zeros, and NaN.
/// Infinities are excluded — a distance through ±∞ is ∞ either way, but
/// ∞ − ∞ = NaN makes every draw collapse to the NaN case and hides the
/// finite-value coverage.
fn weird_f64() -> impl Strategy<Value = f64> {
    prop_oneof![
        -1e3..1e3f64,
        -1e3..1e3f64,
        -1e3..1e3f64,
        -1e3..1e3f64,
        Just(0.0),
        Just(-0.0),
        Just(1e-300),
        Just(-1e-300),
        Just(1e300),
        Just(-1e300),
        Just(f64::NAN),
    ]
}

fn weird_vec(len: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(weird_f64(), len)
}

fn bits(v: &[Vec<f64>]) -> Vec<u64> {
    v.iter().flatten().map(|x| x.to_bits()).collect()
}

proptest! {
    /// The blocked distance kernel equals the scalar oracle bit-for-bit on
    /// every length (full 8-lane blocks, partial tails, and the
    /// shorter-than-one-block case) and on every weird float.
    #[test]
    fn dist_sq_matches_oracle_bitwise(len in 0usize..40, seed in any::<u64>()) {
        let mut runner = StdRng::seed_from_u64(seed);
        use rand::Rng;
        let gen = |rng: &mut StdRng| -> Vec<f64> {
            (0..len)
                .map(|_| match rng.gen_range(0..10) {
                    0 => f64::NAN,
                    1 => -0.0,
                    2 => 1e300,
                    3 => 1e-300,
                    _ => rng.gen_range(-1e3..1e3),
                })
                .collect()
        };
        let a = gen(&mut runner);
        let b = gen(&mut runner);
        let fast = simd::dist_sq(&a, &b);
        let slow = oracle::dist_sq(&a, &b);
        prop_assert_eq!(
            fast.to_bits(),
            slow.to_bits(),
            "kernel {} vs oracle {} on len {}",
            fast,
            slow,
            len
        );
    }

    /// Same contract driven directly by strategy-built vectors, hitting
    /// the special values more densely than the RNG loop above.
    #[test]
    fn dist_sq_matches_oracle_on_adversarial_pairs(
        ab in (0usize..24).prop_flat_map(|len| (weird_vec(len), weird_vec(len)))
    ) {
        let (a, b) = ab;
        prop_assert_eq!(
            simd::dist_sq(&a, &b).to_bits(),
            oracle::dist_sq(&a, &b).to_bits()
        );
    }

    /// Full k-means runs agree with the oracle end to end: same RNG draws,
    /// same assignment, bit-identical centroids — including runs where
    /// duplicated points force clusters empty and the reseed rule decides.
    #[test]
    fn kmeans_fit_matches_oracle_bitwise(
        n in 4usize..40,
        k in 1usize..6,
        dim in 1usize..12,
        dup in 0usize..3,
        seed in 0u64..50,
    ) {
        let k = k.min(n);
        let pts: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                // dup > 0 collapses points onto few distinct values, which
                // reliably empties clusters mid-run.
                let v = if dup > 0 { (i % dup.max(1)) as u32 } else { i as u32 };
                (0..dim)
                    .map(|d| f64::from(v) * 10.0 + f64::from((d * 7 % 5) as u32) * 0.25)
                    .collect()
            })
            .collect();
        let fast = kmeans_fit(&PointMatrix::from_rows(&pts), k, &mut StdRng::seed_from_u64(seed), 25);
        let slow = oracle::kmeans_fit(&pts, k, &mut StdRng::seed_from_u64(seed), 25);
        prop_assert_eq!(&fast.assignment, &slow.assignment);
        prop_assert_eq!(bits(&fast.centroids), bits(&slow.centroids));
        prop_assert_eq!(fast.sweeps, slow.sweeps);
        prop_assert_eq!(fast.converged, slow.converged);
    }

    /// The flat matrix is the only input form of [`cluster`]. However it was
    /// assembled — packed from rows, or built flat the way the picker's
    /// group projection builds it — every algorithm returns the same
    /// clusters, and k-means returns what the scalar oracle computes from the
    /// `&[Vec<f64>]` rows (CI re-runs this under `PS3_STRICT_KERNELS=1`,
    /// which also asserts it inside `kmeans_fit`) — at every size, the
    /// picker's 512-partition groups and their neighbours included.
    #[test]
    fn flat_input_cluster_matches_the_row_form(
        n in prop_oneof![
            6usize..48,
            6usize..48,
            6usize..48,
            6usize..48,
            Just(511usize),
            Just(512usize),
            Just(513usize),
            Just(700usize),
        ],
        k in 1usize..6,
        dim in 1usize..20,
        zero_every in 2usize..5,
        seed in 0u64..40,
    ) {
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                (0..dim)
                    .map(|d| match (i * 7 + d * 3) % zero_every {
                        0 => 0.0,
                        1 if d % 2 == 0 => -0.0,
                        _ => f64::from(((i * 31 + d * 17) % 23) as u32) * 0.5 - 4.0,
                    })
                    .collect()
            })
            .collect();
        let packed = PointMatrix::from_rows(&rows);
        let flat = PointMatrix::from_flat(rows.concat(), n, dim);
        // HAC is quadratic and has no size switch to cross: small draws only.
        let algos: &[ClusterAlgo] = if n < 48 {
            &[ClusterAlgo::KMeans, ClusterAlgo::HacSingle, ClusterAlgo::HacWard]
        } else {
            &[ClusterAlgo::KMeans]
        };
        for &algo in algos {
            let from_rows = cluster(&packed, k, algo, &mut StdRng::seed_from_u64(seed)).0;
            let from_flat = cluster(&flat, k, algo, &mut StdRng::seed_from_u64(seed)).0;
            prop_assert_eq!(&from_flat, &from_rows, "{:?}", algo);
            let mut all: Vec<usize> = from_flat.iter().flatten().copied().collect();
            all.sort_unstable();
            prop_assert_eq!(all, (0..n).collect::<Vec<_>>(), "{:?}", algo);
        }
        if n > k {
            let (fast, _) = cluster(&flat, k, ClusterAlgo::KMeans, &mut StdRng::seed_from_u64(seed));
            let reference = oracle::kmeans_fit(&rows, k, &mut StdRng::seed_from_u64(seed), 25);
            prop_assert_eq!(fast, reference.clusters());
        }
    }
}

/// Values where a kernel that is not the oracle's arithmetic shows: NaN of
/// both signs, signed zeros, infinities (whose difference is NaN), the
/// smallest subnormals (whose squares underflow), overflow-sized values
/// (whose squares overflow) and plain ones.
const EDGE_VALUES: [f64; 14] = [
    f64::NAN,
    -f64::NAN,
    0.0,
    -0.0,
    f64::INFINITY,
    f64::NEG_INFINITY,
    f64::MIN_POSITIVE / 4.0,
    -5e-324,
    1e300,
    -1e300,
    f64::MAX,
    1.5,
    -2.25,
    0.1,
];

/// A row of `len` values, each an edge value one time in `1 << edge_odds`
/// and a plain one otherwise.
fn edge_row(rng: &mut StdRng, len: usize, edge_odds: u32) -> Vec<f64> {
    use rand::Rng;
    (0..len)
        .map(|_| {
            if rng.gen_range(0..1u32 << edge_odds) == 0 {
                EDGE_VALUES[rng.gen_range(0..EDGE_VALUES.len())]
            } else {
                rng.gen_range(-1e3..1e3)
            }
        })
        .collect()
}

/// A result's bits, with every NaN as one value. Rust leaves the sign and
/// payload of a NaN that arithmetic returns unspecified: an add of two NaNs
/// of opposite sign gives the sign of whichever operand the compiler put
/// first, and it may put either (optimized and unoptimized builds of the
/// oracle itself disagree). Everything downstream treats a NaN distance as
/// NaN — it never wins a scan and bounds nothing — so that is the contract.
fn result_bits(x: f64) -> u64 {
    if x.is_nan() {
        f64::NAN.to_bits()
    } else {
        x.to_bits()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The dispatched kernels (AVX2 where this processor has it) and the
    /// portable ones, single and four pairs at a time, are the oracle's
    /// bits on every width with every tail length 0–7 behind zero to four
    /// full chunks, and on the picker's widths 64–72 — NaN of both signs,
    /// ±0.0, ±∞, subnormals and overflow included, alone or many to a row
    /// (see [`result_bits`] for NaN).
    #[test]
    fn dispatched_and_portable_kernels_match_oracle(
        edge_odds in 0u32..4,
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        for len in (0..40).chain(64..73) {
            kernels_match_oracle(&mut rng, len, edge_odds)?;
        }
    }
}

/// One draw of [`dispatched_and_portable_kernels_match_oracle`]: four
/// pairs of rows of `len` values.
fn kernels_match_oracle(rng: &mut StdRng, len: usize, edge_odds: u32) -> Result<(), TestCaseError> {
    let rows: Vec<Vec<f64>> = (0..8).map(|_| edge_row(rng, len, edge_odds)).collect();
    let a = [&rows[0][..], &rows[1][..], &rows[2][..], &rows[3][..]];
    let b = [&rows[4][..], &rows[5][..], &rows[6][..], &rows[7][..]];
    let want: Vec<u64> = (0..4)
        .map(|p| result_bits(oracle::dist_sq(a[p], b[p])))
        .collect();
    let single = |kernel: fn(&[f64], &[f64]) -> f64| -> Vec<u64> {
        (0..4).map(|p| result_bits(kernel(a[p], b[p]))).collect()
    };
    prop_assert_eq!(&single(simd::dist_sq), &want, "dispatched, len {}", len);
    prop_assert_eq!(
        &single(simd::portable::dist_sq),
        &want,
        "portable, len {}",
        len
    );
    let four = simd::dist_sq4(a, b).map(result_bits);
    prop_assert_eq!(&four[..], &want[..], "dispatched four, len {}", len);
    let four = simd::portable::dist_sq4(a, b).map(result_bits);
    prop_assert_eq!(&four[..], &want[..], "portable four, len {}", len);
    Ok(())
}

/// The sweep caps worth drawing: one sweep (the seeded one, no bound ever
/// consulted), two (the first bounded sweep, bounds moved exactly once),
/// and the picker's 25.
fn sweep_cap() -> impl Strategy<Value = usize> {
    prop_oneof![Just(1usize), Just(2usize), Just(25usize)]
}

/// The whole contract on one input: assignment, centroid bits, sweep count
/// and convergence flag of the bounded fit equal the unbounded oracle's.
fn fit_matches_oracle(
    rows: &[Vec<f64>],
    k: usize,
    seed: u64,
    max_iter: usize,
) -> Result<(), TestCaseError> {
    let k = k.clamp(1, rows.len());
    let m = PointMatrix::from_rows(rows);
    let fast = kmeans_fit(&m, k, &mut StdRng::seed_from_u64(seed), max_iter);
    let slow = oracle::kmeans_fit(rows, k, &mut StdRng::seed_from_u64(seed), max_iter);
    prop_assert_eq!(&fast.assignment, &slow.assignment);
    prop_assert_eq!(bits(&fast.centroids), bits(&slow.centroids));
    prop_assert_eq!(fast.sweeps, slow.sweeps);
    prop_assert_eq!(fast.converged, slow.converged);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Small-integer coordinates: every distance is exact, every pair of
    /// seeds an even distance apart has points exactly equidistant from
    /// both, and repeated values make whole groups tie at once. The lowest
    /// index must win each tie in every sweep, exactly as in the full scan.
    #[test]
    fn exact_ties_on_integer_points_match_oracle(
        n in 8usize..300,
        k in 2usize..40,
        dim in 1usize..4,
        extent in 2usize..9,
        seed in 0u64..1000,
        max_iter in sweep_cap(),
    ) {
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                (0..dim)
                    .map(|d| f64::from(((i * (2 * d + 3) + i / extent) % extent) as u32))
                    .collect()
            })
            .collect();
        fit_matches_oracle(&rows, k, seed, max_iter)?;
    }

    /// A regular lattice with an inexact step (0.1 has no finite binary
    /// expansion): symmetric neighbours are equidistant on paper and differ
    /// in the last bits as computed — the near-ties the relative slack
    /// exists for.
    #[test]
    fn lattice_near_ties_match_oracle(
        side in 3usize..18,
        k in 2usize..40,
        step in prop_oneof![Just(0.1f64), Just(1.0 / 3.0), Just(1e-7), Just(3e5)],
        seed in 0u64..1000,
        max_iter in sweep_cap(),
    ) {
        let rows: Vec<Vec<f64>> = (0..side * side)
            .map(|i| vec![(i % side) as f64 * step, (i / side) as f64 * step])
            .collect();
        fit_matches_oracle(&rows, k, seed, max_iter)?;
    }

    /// Many copies of few distinct rows. With fewer distinct rows than
    /// clusters the seeding must repeat itself and clusters are empty from
    /// sweep one; with a few more, a cluster empties mid-run when its
    /// members tie with a lower-indexed centroid. Every reseed has to land
    /// on the oracle's row and move the bounds by its (long) shift.
    #[test]
    fn duplicated_points_that_empty_clusters_match_oracle(
        n in 10usize..300,
        k in 2usize..40,
        distinct in 1usize..50,
        dim in 1usize..8,
        seed in 0u64..1000,
        max_iter in sweep_cap(),
    ) {
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                let v = (i * 7 + i / 3) % distinct;
                (0..dim)
                    .map(|d| f64::from(((v * (d + 2)) % 11) as u32) * 0.75 - f64::from(v as u32))
                    .collect()
            })
            .collect();
        fit_matches_oracle(&rows, k, seed, max_iter)?;
    }

    /// Rows of weird doubles at picker scale: ±0.0, 1e-300 (squares
    /// underflow to 0) and ±1e300 (squares overflow to ∞, and so does the
    /// seeding's total). No bound built from such a distance may ever
    /// prune. A NaN distance makes the k-means++ total NaN, which no
    /// `gen_range` accepts — kernel and oracle both panic there, as they
    /// always have — so NaN stays in one draw of eight, which runs at
    /// k = 1; NaN rows under many centroids are driven sweep by sweep in
    /// `simd`'s own tests.
    #[test]
    fn weird_rows_at_picker_scale_match_oracle(
        rows in (4usize..300, 1usize..7)
            .prop_flat_map(|(n, dim)| prop::collection::vec(weird_vec(dim), n)),
        keep_nan in 0u8..8,
        k in 1usize..40,
        seed in 0u64..1000,
        max_iter in sweep_cap(),
    ) {
        let keep_nan = keep_nan == 0;
        let rows: Vec<Vec<f64>> = rows
            .iter()
            .map(|r| r.iter().map(|&x| if x.is_nan() && !keep_nan { -1e300 } else { x }).collect())
            .collect();
        fit_matches_oracle(&rows, if keep_nan { 1 } else { k }, seed, max_iter)?;
    }

}

/// Every point of the `side`^`dim` grid with spacing `step`: whichever two
/// grid points are seeds, the grid point halfway between them (when their
/// offsets are even) is present.
fn lattice(side: usize, dim: usize, step: f64) -> Vec<Vec<f64>> {
    (0..side.pow(dim as u32))
        .map(|i| {
            (0..dim)
                .map(|d| ((i / side.pow(d as u32)) % side) as f64 * step)
                .collect()
        })
        .collect()
}

/// Both fits run to completion and agree, or both panic: a NaN distance
/// makes the k-means++ total NaN, which no `gen_range` accepts, and the
/// bounded seeding must reach that draw exactly when the oracle does.
fn fit_or_panic_matches_oracle(
    rows: &[Vec<f64>],
    k: usize,
    seed: u64,
    max_iter: usize,
) -> Result<(), TestCaseError> {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    let k = k.clamp(1, rows.len());
    let m = PointMatrix::from_rows(rows);
    let fast = catch_unwind(AssertUnwindSafe(|| {
        kmeans_fit(&m, k, &mut StdRng::seed_from_u64(seed), max_iter)
    }));
    let slow = catch_unwind(AssertUnwindSafe(|| {
        oracle::kmeans_fit(rows, k, &mut StdRng::seed_from_u64(seed), max_iter)
    }));
    match (fast, slow) {
        (Ok(fast), Ok(slow)) => {
            prop_assert_eq!(&fast.assignment, &slow.assignment);
            prop_assert_eq!(bits(&fast.centroids), bits(&slow.centroids));
            prop_assert_eq!(fast.sweeps, slow.sweeps);
            prop_assert_eq!(fast.converged, slow.converged);
        }
        (Err(_), Err(_)) => {}
        (fast, slow) => prop_assert!(
            false,
            "one side panicked: bounded {:?}, oracle {:?}",
            fast.is_ok(),
            slow.is_ok()
        ),
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The seeding's prune sits exactly on its edge here: every lattice row
    /// halfway between two seeds is `gap / 2` from each, so a new seed lies
    /// at exactly twice the row's reach from its home — a tie the triangle
    /// inequality must not skip. With an inexact step (0.1, 1.1, 1/3) the
    /// same ties differ in the last bits as computed, which only the slack
    /// covers. A few cells are overwritten with NaN, ±0.0 or ±1e300; the
    /// seeds, assignment, centroid bits and sweep count (or the panic on a
    /// NaN total) must be the oracle's.
    #[test]
    fn seed_gaps_of_exactly_twice_the_reach_match_oracle(
        side in 3usize..11,
        dim in 2usize..4,
        step in prop_oneof![Just(2.0f64), Just(0.5f64), Just(0.1f64), Just(1.1f64), Just(1.0 / 3.0)],
        k in 2usize..40,
        weird in prop::collection::vec((0usize..512, 0usize..2, weird_f64()), 0..4),
        seed in 0u64..1000,
        max_iter in sweep_cap(),
    ) {
        let mut rows = lattice(side, dim, step);
        let n = rows.len();
        for &(at, col, value) in &weird {
            rows[at % n][col % dim] = value;
        }
        fit_or_panic_matches_oracle(&rows, k, seed, max_iter)?;
    }
}

/// The property above, pinned where its edge is dense: on 512-point cubic
/// lattices with step 0.1 or 1.1, a few percent of seeds put a row whose
/// computed reach sits within rounding under half a seed gap — pruned by a
/// test without slack, and won, as computed, by the pruned seed. A slack
/// that went missing fails here on every run, not one draw in hundreds.
#[test]
fn near_ties_at_twice_the_reach_on_cubic_lattices_agree_with_oracle() {
    for step in [0.1, 1.1] {
        let rows = lattice(8, 3, step);
        for k in [13, 30, 39] {
            for seed in 0..40 {
                fit_matches_oracle(&rows, k, seed, 1)
                    .unwrap_or_else(|e| panic!("step {step}, k {k}, seed {seed}: {}", e.0));
            }
        }
    }
}

/// Even coordinates with every midpoint present: whichever rows k-means++
/// seeds, the rows halfway between two seeds are exactly equidistant from
/// both, and must go to the lower-indexed one — in the seeded sweep and in
/// every bounded sweep after it.
#[test]
fn points_equidistant_from_two_seeds_agree_with_oracle() {
    let rows: Vec<Vec<f64>> = (0..84u32)
        .map(|i| vec![f64::from(i % 7 * 2), f64::from(i % 3 * 2)])
        .collect();
    for seed in 0..24 {
        for k in [2, 3, 5, 8, 13] {
            for max_iter in [1, 2, 25] {
                fit_matches_oracle(&rows, k, seed, max_iter)
                    .unwrap_or_else(|e| panic!("seed {seed}, k {k}, {max_iter} sweeps: {}", e.0));
            }
        }
    }
}

/// Pinned regression cases the strategies above could in principle rotate
/// away from: NaN lanes in every block position, and ±0.0 (whose distance
/// must be +0.0, not −0.0, for `to_bits` equality downstream).
#[test]
fn pinned_nan_and_signed_zero_cases() {
    for len in [1usize, 7, 8, 9, 15, 16, 17, 31] {
        for nan_at in 0..len {
            let mut a = vec![1.5; len];
            a[nan_at] = f64::NAN;
            let b = vec![-0.5; len];
            assert_eq!(
                simd::dist_sq(&a, &b).to_bits(),
                oracle::dist_sq(&a, &b).to_bits(),
                "NaN at {nan_at} of {len}"
            );
        }
        let z = vec![0.0; len];
        let nz = vec![-0.0; len];
        assert_eq!(
            simd::dist_sq(&z, &nz).to_bits(),
            oracle::dist_sq(&z, &nz).to_bits()
        );
    }
}

/// Twelve identical points under k=3 guarantee empty clusters every sweep;
/// the ascending-reseed tie-break must agree between kernel and oracle.
#[test]
fn all_duplicate_points_agree_with_oracle() {
    let pts = vec![vec![2.0, -3.0, 0.5]; 12];
    let m = PointMatrix::from_rows(&pts);
    for seed in 0..8 {
        let fast = kmeans_fit(&m, 3, &mut StdRng::seed_from_u64(seed), 10);
        let slow = oracle::kmeans_fit(&pts, 3, &mut StdRng::seed_from_u64(seed), 10);
        assert_eq!(fast.assignment, slow.assignment, "seed {seed}");
        assert_eq!(bits(&fast.centroids), bits(&slow.centroids), "seed {seed}");
    }
}

/// Lloyd against the oracle where reseeds fire and most clusters keep
/// their members: copies of fewer distinct rows than clusters leave
/// clusters empty from sweep one (reseeded every sweep), and rows spread
/// among the copies move a few members per sweep, so each sweep sums some
/// clusters again and keeps the rest — the reseeded ones, ones that lost
/// their last member, and clean ones side by side. Assignment, centroid
/// bits and sweep count must be the oracle's, which sums every cluster
/// every sweep.
#[test]
fn reseeds_beside_clean_clusters_match_oracle() {
    let mut emptied = 0;
    for distinct in [2usize, 3, 7] {
        for spread in [0usize, 40, 90] {
            let rows: Vec<Vec<f64>> = (0..150 + spread)
                .map(|i| {
                    let v = ((i * 7 + i / 5) % distinct) as f64;
                    let jitter = if i >= 150 {
                        (i % 13) as f64 * 0.37
                    } else {
                        0.0
                    };
                    vec![v * 1.5 + jitter, v * v * 0.25 - 1.0, -v - jitter * 0.5]
                })
                .collect();
            for k in [distinct + 1, 2 * distinct + 3, 12] {
                for seed in 0..8 {
                    fit_matches_oracle(&rows, k, seed, 25).unwrap_or_else(|e| {
                        panic!(
                            "{distinct} distinct, spread {spread}, k {k}, seed {seed}: {}",
                            e.0
                        )
                    });
                    let m = PointMatrix::from_rows(&rows);
                    let fit = kmeans_fit(&m, k, &mut StdRng::seed_from_u64(seed), 25);
                    emptied += usize::from(fit.clusters().len() < k);
                }
            }
        }
    }
    assert!(emptied > 0, "no fit ended with an empty, reseeded cluster");
}

/// Rows for the exemplar contract: half the cells from a six-value palette
/// (so members tie, in a dimension and in distance), the rest spread over
/// ±1e3. `flavour` 1 sprinkles `-0.0` among the palette's `+0.0`, flavour
/// 2 sprinkles NaN of both signs: the two things `<` and `total_cmp` see
/// differently.
fn exemplar_rows(n: usize, dim: usize, flavour: u8, seed: u64) -> Vec<Vec<f64>> {
    use rand::Rng;
    let mut rng = StdRng::seed_from_u64(seed);
    let palette = [0.0, 1.0, -1.0, 2.5, 1e-300, -1e300];
    (0..n)
        .map(|_| {
            (0..dim)
                .map(|_| {
                    let x = if rng.gen_range(0..2) == 0 {
                        palette[rng.gen_range(0..palette.len())]
                    } else {
                        rng.gen_range(-1e3..1e3)
                    };
                    match (flavour, rng.gen_range(0..16)) {
                        (1, 0) => -0.0,
                        (2, 0) => f64::NAN,
                        (2, 1) => -f64::NAN,
                        _ => x,
                    }
                })
                .collect()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The median exemplar is the oracle's member on every cluster: sizes
    /// from 2 through the sorting network's limit and past it, odd and
    /// even (whose median is the mean of two middles), more than 500
    /// members, members in any order and a cluster that is a subset of
    /// the rows, ties in every dimension and at equal distance, and NaN,
    /// `-0.0` and `+0.0` side by side.
    #[test]
    fn median_exemplar_matches_oracle(
        m in prop_oneof![2usize..12, 12usize..40, 60usize..70, 500usize..520],
        dim in 1usize..20,
        extra in 0usize..8,
        flavour in 0u8..3,
        seed in any::<u64>(),
    ) {
        use rand::seq::SliceRandom;
        let rows = exemplar_rows(m + extra, dim, flavour, seed);
        let points = PointMatrix::from_rows(&rows);
        let mut members: Vec<usize> = (0..m + extra).collect();
        members.shuffle(&mut StdRng::seed_from_u64(seed ^ 1));
        members.truncate(m);
        let fast = median_exemplar(&points, &members);
        prop_assert_eq!(fast, oracle::median_exemplar(&points, &members));
        members.sort_unstable();
        prop_assert_eq!(median_exemplar(&points, &members), fast);
    }
}
