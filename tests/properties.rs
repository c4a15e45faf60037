//! Cross-crate property tests for the invariants the system's correctness
//! rests on:
//!
//! * `selectivity_upper` has **perfect recall** against the real executor
//!   (§3.2) — the foundation of the filter used by every method but Random.
//! * Weighted combination at full budget reproduces exact answers for any
//!   query in scope.
//! * The §4.3 contribution definition is a valid share in [0,1] that sums
//!   sensibly across partitions.
//! * The selectivity plan estimates exactly what the recursive evaluator
//!   it replaced (`ps3_stats::oracle`) does, bit for bit, on nested
//!   predicates with `<>`, ±0.0, NaN and ±∞ constants over columns holding
//!   ±0.0 and NaN.
//! * The compact feature matrix gathered from the shared pre-normalized
//!   statics and a query's own columns is the full-width masked matrix
//!   through the transform, bit for bit: expanded, and as the importance
//!   models read it through the column map (`-0.0` and NaN statistics
//!   included). The normalizer fitted on live blocks and raw selectivity
//!   estimates is the one fitted on the full-width rows
//!   (`ps3_stats::oracle` keeps the full-width transform and fit).
//! * A workload binned once from its compact matrices trains the GBDT the
//!   expanded full-width rows train, bit for bit.
//! * A partition column's sketch bundle derived from one sort encodes to
//!   the bytes the streaming sketches (`ps3_stats::oracle`) encode to.
//! * An artifact streamed to disk section by section is the container
//!   `ArtifactWriter::to_bytes` lays out, and `Artifact::open` accepts it.
//! * The artifact checksum is the same however its input is cut into
//!   pieces, and any change inside one aligned 8-byte word changes it, so
//!   `Artifact::open` refuses the change.
//! * A sorted layout computed from per-row `u64` keys orders rows exactly as
//!   the comparator sort over values and dictionary strings did.

use proptest::prelude::*;
use proptest::TestRng;

use ps3::core::bin_workload;
use ps3::learn::{BinnedSet, Gbdt, GbdtParams, NodeSpec, Tree};
use ps3::query::{
    execute_partition, AggExpr, Clause, CmpOp, CompiledPredicate, CompiledQuery, PartialAnswer,
    Predicate, Query, ScalarExpr,
};
use ps3::sketch::Measures;
use ps3::stats::column_stats::{ColumnStats, ColumnStatsParams};
use ps3::stats::features::{PER_COL, SCALARS_PER_COL};
use ps3::stats::persist::column_stats_bytes;
use ps3::stats::{
    oracle, FeatureMatrix, Normalizer, QueryColumns, SelectivityFeatures, SelectivityPlan,
    StatsConfig, TableStats,
};
use ps3::storage::format::{
    checksum, Artifact, ArtifactWriter, Checksum, FormatError, HEADER_LEN, SECTION_ENTRY_LEN,
    SECTION_TABLE, SEC_STATS, SEC_TRAINED,
};
use ps3::storage::table::TableBuilder;
use ps3::storage::{
    ColId, ColumnData, ColumnMeta, ColumnType, Dictionary, Layout, PartitionId, PartitionedTable,
    Schema, Table,
};

/// A small random table: numeric x (0..100), numeric y (-50..50),
/// categorical tag from a fixed alphabet.
fn arb_table() -> impl Strategy<Value = PartitionedTable> {
    (
        prop::collection::vec((0.0f64..100.0, -50.0f64..50.0, 0usize..5), 40..200),
        2usize..8,
    )
        .prop_map(|(rows, parts)| {
            let schema = Schema::new(vec![
                ColumnMeta::new("x", ColumnType::Numeric),
                ColumnMeta::new("y", ColumnType::Numeric),
                ColumnMeta::new("tag", ColumnType::Categorical),
            ]);
            let mut b = TableBuilder::new(schema);
            const TAGS: [&str; 5] = ["a", "b", "c", "d", "e"];
            for (x, y, t) in rows {
                b.push_row(&[x, y], &[TAGS[t]]);
            }
            let t = b.finish();
            let parts = parts.min(t.num_rows());
            PartitionedTable::with_equal_partitions(t, parts)
        })
}

/// A random predicate over the fixed schema above.
fn arb_predicate() -> impl Strategy<Value = Predicate> {
    let clause = prop_oneof![
        (
            prop_oneof![
                Just(CmpOp::Lt),
                Just(CmpOp::Le),
                Just(CmpOp::Gt),
                Just(CmpOp::Ge),
                Just(CmpOp::Eq)
            ],
            -10.0f64..110.0
        )
            .prop_map(|(op, v)| Clause::Cmp {
                col: ColId(0),
                op,
                value: v
            }),
        (
            prop_oneof![Just(CmpOp::Lt), Just(CmpOp::Ge)],
            -60.0f64..60.0
        )
            .prop_map(|(op, v)| Clause::Cmp {
                col: ColId(1),
                op,
                value: v
            }),
        (0usize..6, any::<bool>()).prop_map(|(t, neg)| Clause::In {
            col: ColId(2),
            values: vec![["a", "b", "c", "d", "e", "zzz"][t].to_owned()],
            negated: neg,
        }),
    ];
    prop::collection::vec(clause, 1..5).prop_flat_map(|clauses| {
        (0..3u8).prop_map(move |shape| match shape {
            0 => Predicate::all(clauses.clone()),
            1 => Predicate::any(clauses.clone()),
            _ => Predicate::Not(Box::new(Predicate::all(clauses.clone()))),
        })
    })
}

/// [`arb_table`]'s shape with `x` often one of ±0.0, ±∞, NaN of either sign,
/// 1 or 50 and `y` sometimes `-0.0`: values that land on interval bounds and
/// exact-dictionary keys in both sign halves, with NaN at both ends of the
/// `total_cmp` order.
fn arb_edge_table() -> impl Strategy<Value = PartitionedTable> {
    (
        prop::collection::vec(
            (0usize..13, 0.0f64..100.0, -50.0f64..50.0, 0usize..5),
            40..200,
        ),
        2usize..8,
    )
        .prop_map(|(rows, parts)| {
            let schema = Schema::new(vec![
                ColumnMeta::new("x", ColumnType::Numeric),
                ColumnMeta::new("y", ColumnType::Numeric),
                ColumnMeta::new("tag", ColumnType::Categorical),
            ]);
            let mut b = TableBuilder::new(schema);
            const TAGS: [&str; 5] = ["a", "b", "c", "d", "e"];
            const EDGES: [f64; 8] = [
                0.0,
                -0.0,
                f64::NAN,
                -f64::NAN,
                f64::INFINITY,
                f64::NEG_INFINITY,
                1.0,
                50.0,
            ];
            for (pick, x, y, t) in rows {
                let x = EDGES.get(pick).copied().unwrap_or(x);
                let y = if pick == 12 { -0.0 } else { y };
                b.push_row(&[x, y], &[TAGS[t]]);
            }
            let t = b.finish();
            let parts = parts.min(t.num_rows());
            PartitionedTable::with_equal_partitions(t, parts)
        })
}

/// Predicate trees up to `depth` levels deep over [`arb_table`]'s schema:
/// empty, nested and negated `AND`/`OR` nodes, every comparison operator
/// including `<>`, constants that include ±0.0, NaN and ±∞, and `IN` /
/// `LIKE` leaves.
struct NestedPredicate {
    depth: u32,
}

impl NestedPredicate {
    fn leaf(rng: &mut TestRng) -> Predicate {
        const OPS: [CmpOp; 6] = [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ];
        const EDGES: [f64; 7] = [
            0.0,
            -0.0,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            1.0,
            50.0,
        ];
        const TAGS: [&str; 6] = ["a", "b", "c", "d", "e", "zzz"];
        let negated = rng.below(2) == 0;
        let clause = match rng.below(6) {
            0..=3 => Clause::Cmp {
                col: ColId(rng.below(2) as usize),
                op: OPS[rng.below(6) as usize],
                value: match rng.below(2) {
                    0 => EDGES[rng.below(7) as usize],
                    _ => rng.unit_f64() * 120.0 - 10.0,
                },
            },
            4 => Clause::In {
                col: ColId(2),
                values: (0..1 + rng.below(3))
                    .map(|_| TAGS[rng.below(6) as usize].to_owned())
                    .collect(),
                negated,
            },
            _ => Clause::Contains {
                col: ColId(2),
                needle: ["a", "", "zz"][rng.below(3) as usize].to_owned(),
                negated,
            },
        };
        Predicate::Clause(clause)
    }
}

impl Strategy for NestedPredicate {
    type Value = Predicate;

    fn sample(&self, rng: &mut TestRng) -> Predicate {
        if self.depth == 0 || rng.below(3) == 0 {
            return Self::leaf(rng);
        }
        let inner = NestedPredicate {
            depth: self.depth - 1,
        };
        let children = |rng: &mut TestRng| (0..rng.below(6)).map(|_| inner.sample(rng)).collect();
        match rng.below(5) {
            0 | 1 => Predicate::And(children(rng)),
            2 | 3 => Predicate::Or(children(rng)),
            _ => Predicate::Not(Box::new(inner.sample(rng))),
        }
    }
}

/// `stats` with the measures sketches poisoned so the static features
/// hold `-0.0`, NaN and negated values — values a real sketch can produce
/// (an empty partition's mean, a negative zero minimum) and the ones a
/// careless "is it zero?" or re-derivation breaks. The poison goes into
/// the sketches' raw accumulators and the catalog is derived from them the
/// way a thaw derives it; every table gets all three.
fn poisoned(stats: &TableStats, salt: usize) -> TableStats {
    let mut partitions: Vec<Vec<ColumnStats>> = (0..stats.num_partitions())
        .map(|p| stats.partition(p).to_vec())
        .collect();
    let measures = partitions
        .iter_mut()
        .flatten()
        .filter_map(|c| c.measures.as_mut());
    for (k, m) in measures.enumerate() {
        let mut raw = m.raw_parts();
        match (k + salt) % 4 {
            0 => raw.min = -0.0,
            1 => raw.sum = f64::NAN,
            2 => (raw.sum, raw.min, raw.max) = (-raw.sum, -raw.min, -raw.max),
            _ => continue,
        }
        *m = Measures::from_raw_parts(raw);
    }
    let out = TableStats::from_sketches(partitions, stats.feature_schema().num_cols())
        .expect("the sketches of a built catalog");
    let pairs =
        || (stats.static_features().iter().flatten()).zip(out.static_features().iter().flatten());
    assert!(
        pairs().any(|(_, y)| y.to_bits() == (-0.0f64).to_bits()),
        "no -0.0"
    );
    assert!(pairs().any(|(_, y)| y.is_nan()), "no NaN");
    assert!(
        pairs().any(|(x, y)| *x != 0.0 && *y == -x),
        "no negated value"
    );
    out
}

/// The full-width masked feature rows of §3.2, built the way the parent of
/// the compact matrix built them: a zero row per partition, the static
/// blocks of the used columns copied in (bitmaps only for group-by
/// columns), the four selectivity estimates of the recursive oracle at the
/// end.
fn reference_dense_features(stats: &TableStats, pt: &PartitionedTable, q: &Query) -> Vec<Vec<f64>> {
    let schema = *stats.feature_schema();
    let compiled =
        (q.predicate.as_ref()).map(|p| ps3::query::CompiledPredicate::compile(pt.table(), p));
    (0..stats.num_partitions())
        .map(|p| {
            let statics = &stats.static_features()[p];
            let mut row = vec![0.0; schema.dim()];
            for c in q.used_columns() {
                let off = schema.col_offset(c);
                let len = if q.group_by.contains(&c) {
                    PER_COL
                } else {
                    SCALARS_PER_COL
                };
                row[off..off + len].copy_from_slice(&statics[off..off + len]);
            }
            let sel = oracle::selectivity_features_compiled(compiled.as_ref(), stats.partition(p));
            row[schema.selectivity_offset()..].copy_from_slice(&sel.as_array());
            row
        })
        .collect()
}

/// One of a few query shapes over the fixed schema: which columns are
/// aggregated, filtered and grouped decides the compact column set.
fn shaped_query(shape: u8, pred: Option<Predicate>) -> Query {
    let (x, y, tag) = (ColId(0), ColId(1), ColId(2));
    match shape % 4 {
        0 => Query::new(vec![AggExpr::count()], pred, vec![]),
        1 => Query::new(vec![AggExpr::sum(ScalarExpr::col(x))], pred, vec![tag]),
        2 => Query::new(vec![AggExpr::avg(ScalarExpr::col(y))], pred, vec![]),
        _ => Query::new(
            vec![AggExpr::sum(ScalarExpr::col(y)), AggExpr::count()],
            pred,
            vec![x, tag],
        ),
    }
}

fn bits(rows: &[Vec<f64>]) -> Vec<Vec<u64>> {
    (rows.iter())
        .map(|r| r.iter().map(|x| x.to_bits()).collect())
        .collect()
}

fn feature_bits(f: SelectivityFeatures) -> [u64; 4] {
    f.as_array().map(f64::to_bits)
}

/// A normalizer with every mean 1.0: the transforms alone.
fn unit_normalizer(stats: &TableStats) -> Normalizer {
    let schema = *stats.feature_schema();
    Normalizer::from_raw_parts(schema, vec![1.0; schema.dim()]).expect("one mean per dimension")
}

/// `query`'s cache entry and gathered matrix, built the way serving builds
/// them: the query compiled once, its selectivity estimated on every
/// partition through that predicate, normalized into the entry, gathered
/// against the shared statics.
fn gathered(
    normalizer: &Normalizer,
    stats: &TableStats,
    pt: &PartitionedTable,
    query: &Query,
) -> (QueryColumns, FeatureMatrix) {
    let statics = normalizer.normalize_statics(stats);
    let compiled = CompiledQuery::compile(pt.table(), query);
    let plan = SelectivityPlan::new(compiled.predicate());
    let entry = statics.query_columns(query, plan.estimate_all(stats));
    let matrix = statics.gather(&entry);
    (entry, matrix)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The plan, built once and run over every partition, is the recursive
    /// evaluator bit for bit — for the flat predicates the other properties
    /// draw and for nested ones with edge constants, on sketches with and
    /// without exact dictionaries (so the histogram and heavy-hitter probes
    /// run too).
    #[test]
    fn selectivity_plan_equals_the_recursive_oracle_bit_for_bit(
        pt in arb_edge_table(),
        flat in arb_predicate(),
        nested in NestedPredicate { depth: 3 },
        exact_dict_limit in prop_oneof![Just(0usize), Just(4), Just(256)],
        salt in 0usize..11,
    ) {
        let cfg = StatsConfig {
            column_params: ColumnStatsParams { exact_dict_limit, ..Default::default() },
            ..Default::default()
        };
        let stats = poisoned(&TableStats::build(&pt, &cfg), salt);
        for pred in [&flat, &nested] {
            let compiled = CompiledPredicate::compile(pt.table(), pred);
            let plan = SelectivityPlan::new(Some(&compiled));
            prop_assert_eq!(plan.estimate_all(&stats).len(), stats.num_partitions());
            for (p, planned) in plan.estimate_all(&stats).enumerate() {
                let recursive =
                    oracle::selectivity_features_compiled(Some(&compiled), stats.partition(p));
                prop_assert_eq!(feature_bits(planned), feature_bits(recursive), "partition {}", p);
            }
        }
        let all_pass = SelectivityPlan::new(None);
        prop_assert!(all_pass.estimate_all(&stats).all(|f| f == SelectivityFeatures::all_pass()));
    }

    /// The compact matrix a pick gathers, expanded, is the reference
    /// full-width matrix through the oracle's transform bit for bit (unit
    /// means); what it does not store reads as `+0.0` through the map, and
    /// the entry's raw upper bounds are the reference's selectivity slot.
    #[test]
    fn compact_features_expand_to_the_reference_dense_rows(
        pt in arb_table(),
        pred in arb_predicate(),
        filtered in any::<bool>(),
        shape in 0u8..4,
        salt in 0usize..11,
    ) {
        let stats = poisoned(&TableStats::build(&pt, &StatsConfig::default()), salt);
        let query = shaped_query(shape, filtered.then_some(pred));
        let raw = reference_dense_features(&stats, &pt, &query);
        let unit = unit_normalizer(&stats);
        let mut reference = raw.clone();
        oracle::apply_matrix(&unit, &mut reference);
        let (entry, m) = gathered(&unit, &stats, &pt, &query);
        prop_assert_eq!(bits(&m.to_dense()), bits(&reference));
        prop_assert!(m.width() < m.full_dim());
        for (p, row) in reference.iter().enumerate() {
            for (idx, x) in row.iter().enumerate() {
                prop_assert_eq!(m.feature(p, idx).to_bits(), x.to_bits());
            }
            prop_assert_eq!(entry.upper()[p].to_bits(), raw[p][m.full_dim() - 4].to_bits());
        }
    }

    /// The rows a pick (and training) gathers — the shared pre-normalized
    /// static table plus the selectivity block a cache entry holds — are
    /// the full-width reference rows through the oracle's `apply_matrix`;
    /// and the entry's raw upper bounds are the reference's.
    #[test]
    fn gathered_prenormalized_rows_equal_apply_row_on_the_dense_row(
        pt in arb_table(),
        pred in arb_predicate(),
        filtered in any::<bool>(),
        shape in 0u8..4,
        salt in 0usize..11,
        means in prop::collection::vec(0.05f64..20.0, 3 * PER_COL + 4),
    ) {
        let stats = poisoned(&TableStats::build(&pt, &StatsConfig::default()), salt);
        let query = shaped_query(shape, filtered.then_some(pred));
        let normalizer = Normalizer::from_raw_parts(*stats.feature_schema(), means)
            .expect("one mean per dimension");
        let raw = reference_dense_features(&stats, &pt, &query);
        let mut reference = raw.clone();
        oracle::apply_matrix(&normalizer, &mut reference);

        let (entry, gathered) = gathered(&normalizer, &stats, &pt, &query);
        prop_assert_eq!(bits(&gathered.to_dense()), bits(&reference));
        let uppers: Vec<u64> = raw.iter().map(|row| row[row.len() - 4].to_bits()).collect();
        prop_assert_eq!(entry.upper().iter().map(|u| u.to_bits()).collect::<Vec<_>>(), uppers);
    }

    /// `Normalizer::fit` over a workload — queries of every shape, so each
    /// masks different columns, each with its raw selectivity features —
    /// fits the means the dense reference fits on the full-width rows, bit
    /// for bit, over stats holding ±0.0, NaN and negated values.
    #[test]
    fn compact_normalizer_fit_equals_the_dense_reference_fit(
        pt in arb_table(),
        preds in prop::collection::vec((arb_predicate(), any::<bool>(), 0u8..4), 1..6),
        salt in 0usize..11,
    ) {
        let stats = poisoned(&TableStats::build(&pt, &StatsConfig::default()), salt);
        let schema = *stats.feature_schema();
        let queries: Vec<Query> = (preds.into_iter())
            .map(|(pred, filtered, shape)| shaped_query(shape, filtered.then_some(pred)))
            .collect();
        let estimates: Vec<Vec<SelectivityFeatures>> = (queries.iter())
            .map(|q| {
                let compiled = CompiledQuery::compile(pt.table(), q);
                SelectivityPlan::new(compiled.predicate()).estimate_all(&stats).collect()
            })
            .collect();
        let compact = Normalizer::fit(&stats, queries.iter().zip(estimates.iter().map(Vec::as_slice)));
        let dense: Vec<Vec<Vec<f64>>> =
            queries.iter().map(|q| reference_dense_features(&stats, &pt, q)).collect();
        let reference = oracle::fit_normalizer(schema, &dense);
        let mean_bits = |n: &Normalizer| n.means().iter().map(|m| m.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(mean_bits(&compact), mean_bits(&reference));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A boosted model walking compact rows through the column map predicts
    /// what it predicts on the expanded rows.
    #[test]
    fn gbdt_through_the_column_map_equals_the_dense_prediction(
        pt in arb_table(),
        pred in arb_predicate(),
        shape in 0u8..4,
        seed in 0u64..1000,
    ) {
        let stats = TableStats::build(&pt, &StatsConfig::default());
        // Train on the widest shape so splits land on columns the narrower
        // shapes mask out.
        let unit = unit_normalizer(&stats);
        let (entry, wide) = gathered(&unit, &stats, &pt, &shaped_query(3, Some(pred.clone())));
        let data = wide.to_dense();
        let labels: Vec<f64> = entry.upper().iter().map(|u| u - 0.3).collect();
        let params = GbdtParams { n_trees: 6, colsample: 1.0, seed };
        let model = Gbdt::train(&data, &labels, &params);
        let (_, m) = gathered(&unit, &stats, &pt, &shaped_query(shape, Some(pred)));
        let dense = m.to_dense();
        for (p, row) in dense.iter().enumerate() {
            prop_assert_eq!(
                model.predict_with(|f| m.feature(p, f)).to_bits(),
                model.predict_row(row).to_bits()
            );
        }
    }
}

/// A tree's nodes as bits, for exact comparison.
fn node_bits(tree: &Tree) -> Vec<(u64, usize, usize, usize)> {
    (tree.nodes_spec().into_iter())
        .map(|n| match n {
            NodeSpec::Leaf { value } => (value.to_bits(), usize::MAX, 0, 0),
            NodeSpec::Split {
                feature,
                threshold,
                left,
                right,
            } => (threshold.to_bits(), feature, left, right),
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A workload binned once, column by column, from compact matrices
    /// whose column maps differ ([`bin_workload`]) trains the model the
    /// same rows expanded and binned whole train, bit for bit: every tree's
    /// nodes, the importances and the predictions. Column subsampling
    /// leaves features out of each tree; the poisoned statistics put `-0.0`
    /// and NaN in the columns.
    #[test]
    fn a_workload_binned_once_trains_the_dense_model_bit_for_bit(
        pt in arb_table(),
        workload in prop::collection::vec((arb_predicate(), 0u8..4), 1..5),
        salt in 0usize..11,
        max_bins in prop_oneof![Just(4usize), Just(64)],
        seed in 0u64..1000,
    ) {
        let stats = poisoned(&TableStats::build(&pt, &StatsConfig::default()), salt);
        let unit = unit_normalizer(&stats);
        let (mut matrices, mut labels) = (Vec::new(), Vec::new());
        for (q, (pred, shape)) in workload.into_iter().enumerate() {
            let (entry, m) = gathered(&unit, &stats, &pt, &shaped_query(shape, Some(pred)));
            labels.extend(entry.upper().iter().map(|u| u - 0.1 * q as f64));
            matrices.push(m);
        }
        let params = GbdtParams {
            n_trees: 6,
            colsample: 0.6,
            seed,
        };
        let binned = Gbdt::train_binned(&bin_workload(&matrices, max_bins), &labels, &params);
        let dense: Vec<Vec<f64>> = matrices.iter().flat_map(FeatureMatrix::to_dense).collect();
        let reference = Gbdt::train_binned(&BinnedSet::from_rows(&dense, max_bins), &labels, &params);

        prop_assert_eq!(binned.base().to_bits(), reference.base().to_bits());
        prop_assert_eq!(binned.num_trees(), reference.num_trees());
        for (a, b) in binned.trees().iter().zip(reference.trees()) {
            prop_assert_eq!(node_bits(a), node_bits(b));
        }
        let importance = |m: &Gbdt| -> Vec<u64> {
            m.feature_importance().iter().map(|x| x.to_bits()).collect()
        };
        prop_assert_eq!(importance(&binned), importance(&reference));
        for row in &dense {
            prop_assert_eq!(binned.predict_row(row).to_bits(), reference.predict_row(row).to_bits());
        }
    }
}

/// Values a numeric sketch must keep apart or merge exactly: NaNs with
/// payloads of both signs (quiet and signalling), ±0.0, ±∞ and subnormals
/// of both signs.
const SPECIAL_VALUES: [f64; 11] = [
    f64::NAN,
    -f64::NAN,
    f64::from_bits(0x7FF0_0000_0000_0001),
    f64::from_bits(0xFFF8_0000_0000_0042),
    0.0,
    -0.0,
    f64::INFINITY,
    f64::NEG_INFINITY,
    5e-324,
    -5e-324,
    f64::MIN_POSITIVE / 3.0,
];

/// Partition columns for the one-sort sketch bundle, eight per draw: a
/// numeric and a categorical column for each of four key-pool sizes — 1–8
/// keys, around the AKMV sketch's 128 hashes, around the exact
/// dictionary's 256 keys, and up to 1,500 keys. Each column sketches 1–3,500
/// rows (so lossy counting crosses 0–3 bucket boundaries at ε = 0.001)
/// starting at a random offset. Keys are drawn skewed toward a point that
/// drifts through the pool along the column: some are heavy hitters, many
/// occur once, and some are rare early and heavy late, so lossy counting
/// prunes them and reports short counts.
struct SketchColumns;

impl Strategy for SketchColumns {
    type Value = Vec<(ColumnData, ColumnType, std::ops::Range<usize>)>;

    fn sample(&self, rng: &mut TestRng) -> Self::Value {
        let mut columns = Vec::with_capacity(8);
        for (lo, spread) in [(1, 8), (100, 60), (220, 80), (300, 1_200)] {
            let pool_len = lo + rng.below(spread) as usize;
            let start = rng.below(40) as usize;
            let rows = start..start + 1 + rng.below(3_500) as usize;
            let drift = rng.below(pool_len as u64) as usize;
            let draws: Vec<usize> = (0..rows.end)
                .map(|i| {
                    let at = i * drift / rows.end;
                    (at + (rng.unit_f64().powi(3) * pool_len as f64) as usize) % pool_len
                })
                .collect();
            let pool: Vec<f64> = (0..pool_len)
                .map(|_| match rng.below(4) {
                    0 => SPECIAL_VALUES[rng.below(SPECIAL_VALUES.len() as u64) as usize],
                    1 => rng.below(50) as f64 - 25.0,
                    _ => rng.unit_f64() * 2e3 - 1e3,
                })
                .collect();
            let values: Vec<f64> = draws.iter().map(|&d| pool[d]).collect();
            columns.push((
                ColumnData::Numeric(values.into()),
                ColumnType::Numeric,
                rows.clone(),
            ));
            let mut dict = Dictionary::new();
            let codes: Vec<u32> = (0..pool_len)
                .map(|i| dict.intern(&format!("k{i}")))
                .collect();
            let codes: Vec<u32> = draws.iter().map(|&d| codes[d]).collect();
            columns.push((
                ColumnData::Categorical {
                    codes: codes.into(),
                    dict: std::sync::Arc::new(dict),
                },
                ColumnType::Categorical,
                rows,
            ));
        }
        columns
    }
}

/// Container sections, 0–9 per draw: distinct kinds in any order, payload
/// lengths 0–300 with exact multiples of 64 drawn as often as the rest, and
/// each payload either added whole or streamed in 1–4 writes of random
/// split points.
struct Sections;

impl Strategy for Sections {
    type Value = Vec<(u32, Vec<u8>, Option<Vec<usize>>)>;

    fn sample(&self, rng: &mut TestRng) -> Self::Value {
        let count = rng.below(10) as usize;
        let mut sections: Vec<(u32, Vec<u8>, Option<Vec<usize>>)> = Vec::with_capacity(count);
        while sections.len() < count {
            let kind = rng.below(1_000) as u32;
            if sections.iter().any(|(k, ..)| *k == kind) {
                continue;
            }
            let len = match rng.below(2) {
                0 => 64 * rng.below(5) as usize,
                _ => rng.below(301) as usize,
            };
            let payload = (0..len).map(|_| rng.below(256) as u8).collect();
            let splits = (rng.below(2) == 0).then(|| {
                let mut at: Vec<usize> = (0..rng.below(4))
                    .map(|_| rng.below(len as u64 + 1) as usize)
                    .collect();
                at.sort_unstable();
                at
            });
            sections.push((kind, payload, splits));
        }
        sections
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `write_to` streams each section to the file as it is written and
    /// patches the header and section table last; the file is the container
    /// `to_bytes` lays out, and it opens with every payload in place.
    #[test]
    fn an_artifact_streamed_to_disk_equals_its_bytes(sections in Sections) {
        let mut w = ArtifactWriter::new();
        for (kind, payload, splits) in &sections {
            match splits {
                None => w.add_section(*kind, payload.clone()),
                Some(at) => w.add_streamed(*kind, move |out| {
                    let mut from = 0;
                    for &to in at.iter().chain([&payload.len()]) {
                        out.write_all(&payload[from..to])?;
                        from = to;
                    }
                    Ok(())
                }),
            }
        }
        let path = std::env::temp_dir().join(format!(
            "ps3_prop_stream_{}_{}.ps3",
            std::process::id(),
            sections.len()
        ));
        w.write_to(&path).unwrap();
        let on_disk = std::fs::read(&path).unwrap();
        let opened = Artifact::open(&path);
        std::fs::remove_file(&path).ok();
        prop_assert!(on_disk == w.to_bytes(), "{} sections: file differs", sections.len());
        let artifact = opened.map_err(|e| TestCaseError::fail(e.to_string()))?;
        for (kind, payload, _) in &sections {
            prop_assert!(artifact.section(*kind).unwrap() == &payload[..], "section {kind}");
        }
    }
}

/// A payload of 0–300 bytes, lengths at and around multiples of the
/// checksum's 32-byte block drawn as often as the rest, cut into 1–6 pieces
/// at random points (empty pieces included).
struct SplitPayloads;

impl Strategy for SplitPayloads {
    type Value = (Vec<u8>, Vec<usize>);

    fn sample(&self, rng: &mut TestRng) -> Self::Value {
        let len = match rng.below(2) {
            0 => (32 * rng.below(10) as usize + rng.below(3) as usize).saturating_sub(1),
            _ => rng.below(301) as usize,
        };
        let payload = (0..len).map(|_| rng.below(256) as u8).collect();
        let mut cuts: Vec<usize> = (0..rng.below(6))
            .map(|_| rng.below(len as u64 + 1) as usize)
            .collect();
        cuts.sort_unstable();
        (payload, cuts)
    }
}

/// A payload of 1–300 bytes and a change to it: one to eight bytes, all
/// inside one aligned 8-byte word, each xored with a non-zero mask.
struct WordFlips;

impl Strategy for WordFlips {
    type Value = (Vec<u8>, Vec<(usize, u8)>);

    fn sample(&self, rng: &mut TestRng) -> Self::Value {
        let len = 1 + rng.below(300) as usize;
        let payload = (0..len).map(|_| rng.below(256) as u8).collect();
        let first = rng.below(len as u64) as usize;
        let word_end = (first / 8 * 8 + 8).min(len);
        let last = first + rng.below((word_end - first) as u64) as usize;
        let flips = (first..=last)
            .map(|at| (at, 1 + rng.below(255) as u8))
            .collect();
        (payload, flips)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The artifact checksum of a payload fed in pieces is the checksum of
    /// the whole, however it is cut: what `freeze` relies on when it folds
    /// each write of a streamed section in as it passes.
    #[test]
    fn the_checksum_of_a_payload_in_pieces_is_the_checksum_of_the_whole(
        (payload, cuts) in SplitPayloads,
    ) {
        let mut sum = Checksum::new();
        let mut from = 0;
        for &to in cuts.iter().chain([&payload.len()]) {
            sum.update(&payload[from..to]);
            from = to;
        }
        prop_assert_eq!(sum.finish(), checksum(&payload));
    }

    /// Changing any bytes inside one aligned 8-byte word changes the
    /// checksum — always, not with high probability: the changed word
    /// enters one step, every step is a bijection, and nothing after it can
    /// undo the difference. So `Artifact::open` refuses such a change to a
    /// section payload or to the section table, naming where it is.
    #[test]
    fn a_change_inside_one_word_always_changes_the_checksum((payload, flips) in WordFlips) {
        let mut changed = payload.clone();
        for &(at, mask) in &flips {
            changed[at] ^= mask;
        }
        prop_assert!(checksum(&changed) != checksum(&payload), "flips {flips:?} undetected");

        let mut w = ArtifactWriter::new();
        w.add_section(SEC_STATS, vec![7; 40]);
        w.add_section(SEC_TRAINED, payload.clone());
        let good = w.to_bytes();
        let path = std::env::temp_dir().join(format!(
            "ps3_prop_flip_{}_{}.ps3",
            std::process::id(),
            payload.len()
        ));
        std::fs::write(&path, &good).unwrap();
        let (offset, _) = Artifact::open(&path).unwrap().section_range(SEC_TRAINED).unwrap();
        // The same change to the payload, then to the 64-byte section table
        // where it falls inside it.
        let table_len = 2 * SECTION_ENTRY_LEN;
        for (base, end, section) in [
            (offset, payload.len(), SEC_TRAINED),
            (HEADER_LEN, table_len, SECTION_TABLE),
        ] {
            if flips.iter().any(|&(at, _)| at >= end) {
                continue;
            }
            let mut bad = good.clone();
            for &(at, mask) in &flips {
                bad[base + at] ^= mask;
            }
            std::fs::write(&path, &bad).unwrap();
            match Artifact::open(&path) {
                Err(FormatError::ChecksumMismatch { section: s }) => prop_assert_eq!(s, section),
                other => prop_assert!(false, "section {section}: got {other:?}"),
            }
        }
        std::fs::remove_file(&path).ok();
    }
}

/// Tables to lay out: 0–300 rows of two numeric and two categorical
/// columns, then a row number. The numeric values come from a few
/// repeated values (many ties), NaNs of both signs and other payloads,
/// ±0.0, ±∞ and subnormals; each categorical dictionary is interned in a
/// random order, not the lexicographic one. One to three distinct sort
/// columns from the first four, most significant first.
struct SortTables;

impl Strategy for SortTables {
    type Value = (Table, Vec<ColId>);

    fn sample(&self, rng: &mut TestRng) -> Self::Value {
        const WORDS: [&str; 8] = ["b", "a", "", "ab", "B", "zz", "a\u{0}", "é"];
        let schema = Schema::new(vec![
            ColumnMeta::new("x", ColumnType::Numeric),
            ColumnMeta::new("tag", ColumnType::Categorical),
            ColumnMeta::new("y", ColumnType::Date),
            ColumnMeta::new("kind", ColumnType::Categorical),
            ColumnMeta::new("row", ColumnType::Numeric),
        ]);
        let mut b = TableBuilder::new(schema);
        // Interning order is first-seen order: shuffle which word is seen
        // first by pushing each once, in random order, before the rest.
        let mut words: Vec<&str> = WORDS.to_vec();
        for i in (1..words.len()).rev() {
            words.swap(i, rng.below(i as u64 + 1) as usize);
        }
        let rows = rng.below(301) as usize;
        let value = |rng: &mut TestRng| match rng.below(3) {
            0 => SPECIAL_VALUES[rng.below(SPECIAL_VALUES.len() as u64) as usize],
            1 => rng.below(4) as f64 - 1.0,
            _ => rng.unit_f64() * 200.0 - 100.0,
        };
        for row in 0..rows {
            let (tag, kind) = if row < words.len() {
                (words[row], words[words.len() - 1 - row])
            } else {
                let mut word = || WORDS[rng.below(WORDS.len() as u64) as usize];
                (word(), word())
            };
            let (x, y) = (value(rng), value(rng));
            b.push_row(&[x, y, row as f64], &[tag, kind]);
        }
        let mut cols = vec![ColId(0), ColId(1), ColId(2), ColId(3)];
        for i in (1..cols.len()).rev() {
            cols.swap(i, rng.below(i as u64 + 1) as usize);
        }
        cols.truncate(1 + rng.below(3) as usize);
        (b.finish(), cols)
    }
}

/// The row order of `Layout::SortedBy(cols)` as it was computed before the
/// layout sorted on keys: a stable sort comparing rows column by column,
/// numbers by `f64::total_cmp` and categories by their dictionary string.
fn comparator_sort(table: &Table, cols: &[ColId]) -> Vec<usize> {
    let mut perm: Vec<usize> = (0..table.num_rows()).collect();
    perm.sort_by(|&a, &b| {
        for &c in cols {
            let ord = match table.column(c) {
                ColumnData::Numeric(v) => v[a].total_cmp(&v[b]),
                ColumnData::Categorical { codes, dict } => {
                    dict.value(codes[a]).cmp(dict.value(codes[b]))
                }
            };
            if ord.is_ne() {
                return ord;
            }
        }
        std::cmp::Ordering::Equal
    });
    perm
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// A sorted layout computed from one `u64` key per row and sort column
    /// puts every row where the string-comparing sort did: the same
    /// values, bit for bit, in every column, and the row numbers show that
    /// ties kept their ingest order.
    #[test]
    fn a_keyed_layout_sort_is_the_comparator_sort((table, cols) in SortTables) {
        let sorted = Layout::SortedBy(cols.clone()).apply(&table);
        let expected = table.permute(&comparator_sort(&table, &cols));
        for c in 0..table.schema().len() {
            match (sorted.column(ColId(c)), expected.column(ColId(c))) {
                (ColumnData::Numeric(a), ColumnData::Numeric(b)) => prop_assert!(
                    a.iter().map(|v| v.to_bits()).eq(b.iter().map(|v| v.to_bits())),
                    "sorted by {cols:?}: column {c} differs"
                ),
                (
                    ColumnData::Categorical { codes: a, .. },
                    ColumnData::Categorical { codes: b, .. },
                ) => prop_assert!(a[..] == b[..], "sorted by {cols:?}: column {c} differs"),
                _ => prop_assert!(false, "column {c} changed type"),
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `ColumnStats::build` derives every sketch from one sort of the
    /// column's `(key, row)` pairs; its record in the statistics section is
    /// the streaming sketches' record, byte for byte.
    #[test]
    fn one_sort_sketch_bundle_encodes_to_the_streaming_bytes(columns in SketchColumns) {
        let params = ColumnStatsParams::default();
        for (column, ctype, rows) in &columns {
            let built = ColumnStats::build(column, *ctype, rows.clone(), &params);
            let streamed = oracle::streaming_column_stats(column, *ctype, rows.clone(), &params);
            prop_assert!(
                column_stats_bytes(&built) == column_stats_bytes(&streamed),
                "{ctype:?} column of {} rows: bundles differ",
                rows.len()
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// §3.2: "selectivity_upper > 0 has perfect recall" — if any row of a
    /// partition satisfies the predicate, the feature must be positive.
    #[test]
    fn selectivity_upper_has_perfect_recall(pt in arb_table(), pred in arb_predicate()) {
        let stats = TableStats::build(&pt, &StatsConfig::default());
        let query = Query::new(vec![AggExpr::count()], Some(pred), vec![]);
        // The raw bounds a cache entry holds: what the filter and the
        // exactness check read.
        let (entry, _) = gathered(&unit_normalizer(&stats), &stats, &pt, &query);
        for p in 0..pt.num_partitions() {
            let part = execute_partition(pt.table(), pt.rows(PartitionId(p)), &query);
            let any_rows = part.groups().next().is_some_and(|(_, slots)| slots[0] > 0.0);
            if any_rows {
                prop_assert!(
                    entry.upper()[p] > 0.0,
                    "partition {p} has matching rows but upper == 0"
                );
            }
        }
    }

    /// Reading every partition with weight 1 must equal the exact answer,
    /// regardless of predicate shape or grouping.
    #[test]
    fn unit_weights_reproduce_truth(pt in arb_table(), pred in arb_predicate(), group in any::<bool>()) {
        let group_by = if group { vec![ColId(2)] } else { vec![] };
        let query = Query::new(
            vec![
                AggExpr::sum(ScalarExpr::col(ColId(0))),
                AggExpr::avg(ScalarExpr::col(ColId(1))),
                AggExpr::count(),
            ],
            Some(pred),
            group_by,
        );
        let truth = ps3::query::execute_table(&pt, &query);
        let sel: Vec<ps3::query::WeightedPart> = (0..pt.num_partitions())
            .map(|p| ps3::query::WeightedPart { partition: PartitionId(p), weight: 1.0 })
            .collect();
        let combined = ps3::query::execute_partitions(&pt, &query, &sel);
        let m = ps3::query::metrics::ErrorMetrics::compute(&truth, &combined);
        prop_assert!(m.avg_rel_err < 1e-9, "err {}", m.avg_rel_err);
        prop_assert_eq!(m.missed_groups, 0.0);
    }

    /// Contributions are shares: within [0,1], and for single-group COUNT
    /// queries they sum to 1 across partitions.
    #[test]
    fn contributions_are_valid_shares(pt in arb_table()) {
        let query = Query::new(vec![AggExpr::count()], None, vec![]);
        let partials: Vec<PartialAnswer> = (0..pt.num_partitions())
            .map(|p| execute_partition(pt.table(), pt.rows(PartitionId(p)), &query))
            .collect();
        let mut total = PartialAnswer::empty(&query);
        for part in &partials {
            total.add_weighted(part, 1.0);
        }
        let contribs = ps3::core::train::contributions_for(&partials, &total);
        let sum: f64 = contribs.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-9, "COUNT shares sum to {sum}");
        for &c in &contribs {
            prop_assert!((0.0..=1.0).contains(&c));
        }
    }

    /// The NNF transform must never change which rows a predicate accepts
    /// (selectivity estimation relies on it).
    #[test]
    fn nnf_equivalence_on_real_data(pt in arb_table(), pred in arb_predicate()) {
        let nnf = pred.to_nnf();
        let n = pt.table().num_rows();
        let a = ps3::query::predicate::eval_predicate(pt.table(), 0..n, &pred);
        let b = ps3::query::predicate::eval_predicate(pt.table(), 0..n, &nnf);
        prop_assert_eq!(a, b);
    }
}
