//! Freeze/thaw: a trained [`Ps3System`] as one flat, versioned, checksummed
//! on-disk artifact (`docs/FORMAT.md`).
//!
//! [`freeze`] writes every input of the query-answer function — the
//! partitioned table, the statistics catalog, the trained picker state, the
//! LSS baseline, and the training queries — into the container format of
//! [`ps3_storage::format`]. [`thaw`] maps the file back (column payloads
//! stay `mmap`ed, zero-copy) and reassembles a system whose answers are
//! **bit-identical** to the one that was frozen: answers are a pure
//! function of `(query, method, budget, seed)` and every persisted model
//! round-trips its `f64`s by bit pattern.
//!
//! A trained system keeps only its training queries once training returns
//! (the per-partition answers and features training read are freed then),
//! and that query list is what is persisted: a thawed system carries the
//! same training value as the one that was frozen, and a warm retrain
//! ([`Ps3System::retrain_from`]) shares it with the generation it builds.
//!
//! Every decoder validates shape and range before building anything, so a
//! corrupted or adversarial artifact surfaces as a typed [`FormatError`] —
//! never a panic, never an out-of-bounds model index. The sections are
//! written and read with the one byte codec ([`ps3_storage::codec`]); a
//! short section reports its name (`Truncated("trained")`, …).

use std::io;
use std::path::Path;
use std::sync::Arc;

use ps3_cluster::ClusterAlgo;
use ps3_learn::{Gbdt, GbdtParams, NodeSpec, Tree};
use ps3_query::codec;
use ps3_query::Query;
use ps3_stats::features::FeatureType;
use ps3_stats::persist::decode_table_stats;
use ps3_stats::{FeatureSchema, Normalizer};
use ps3_storage::codec::{decode_section, CodecError, Reader, Writer};
use ps3_storage::format::{
    decode_partitioned_table, encode_partitioned_table, Artifact, ArtifactWriter, FormatError,
    SEC_COLDATA, SEC_LSS, SEC_STATS, SEC_TRAINED, SEC_TRAINING,
};
use ps3_storage::Schema;

use crate::baselines::LssModel;
use crate::config::{ExemplarRule, Ps3Config};
use crate::system::Ps3System;
use crate::train::TrainedPs3;

/// Maximum persisted training-query count.
const MAX_QUERIES: usize = 1 << 20;
/// Maximum nodes per persisted tree.
const MAX_TREE_NODES: usize = 1 << 20;
/// Maximum trees per persisted model.
const MAX_TREES: usize = 1 << 16;
/// Maximum elements in any persisted flat vector (budgets, LSS strata
/// sizes).
const MAX_VEC: usize = 1 << 24;

/// Write `system` to `path` as one flat artifact (temp file + rename, so a
/// crash or a failure mid-write never leaves a half-written artifact
/// behind). The trained, LSS and training sections are small and encoded
/// first, so an encoder error surfaces before any byte is written; the
/// column data stream to the file as encoded, the statistics verbatim.
pub fn freeze(system: &Ps3System, path: &Path) -> io::Result<()> {
    let trained = encode_trained(&system.trained);
    let lss = encode_lss(&system.lss);
    let training = encode_training(&system.training)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;
    let mut w = ArtifactWriter::new();
    encode_partitioned_table(&mut w, &system.pt);
    w.add_streamed(SEC_STATS, |out| out.write_all(system.stats.section()));
    w.add_section(SEC_TRAINED, trained);
    w.add_section(SEC_LSS, lss);
    w.add_section(SEC_TRAINING, training);
    w.write_to(path)
}

/// Map the artifact at `path` and reassemble the trained system. Column
/// payloads are served straight from the mapping (zero-copy); models and
/// statistics are decoded with full validation.
pub fn thaw(path: &Path) -> Result<Ps3System, FormatError> {
    let a = Artifact::open(path)?;
    let pt = decode_partitioned_table(&a)?;
    let schema = pt.table().schema();
    let num_cols = schema.len();

    let stats = decode_table_stats(a.section_bytes(SEC_STATS)?, schema)?;
    if stats.num_partitions() != pt.num_partitions() {
        return Err(FormatError::Corrupt(
            "stats partition count disagrees with table",
        ));
    }

    let trained = decode_section("trained", a.section(SEC_TRAINED)?, |r| {
        decode_trained(r, num_cols)
    })?;
    let dim = trained.normalizer.schema().dim();
    let lss = decode_section("lss", a.section(SEC_LSS)?, |r| decode_lss(r, dim))?;
    let queries = decode_section("training", a.section(SEC_TRAINING)?, |r| {
        decode_training(r, schema)
    })?;
    // `freeze` writes the column payloads ahead of the sections decoded
    // above. Those now live on the heap and the mapping serves only the
    // columns (and the statistics section, read again only if its sketches
    // are asked for), so the pages after them need not stay resident.
    // Advisory: a failed release only leaves them resident.
    let (col_off, col_len) = a.section_range(SEC_COLDATA)?;
    let _ = a.mmap().release_from(col_off + col_len);

    Ok(Ps3System::from_parts(
        Arc::new(pt),
        Arc::new(stats),
        trained,
        lss,
        queries.into(),
    ))
}

// ---------------------------------------------------------------------------
// Training workload

/// `[n: u32]` then `n` queries in the one `Query` grammar
/// ([`ps3_query::codec`]). Fails only on a query past that grammar's `u16`
/// list and string caps.
fn encode_training(queries: &[Query]) -> Result<Vec<u8>, CodecError> {
    let mut bytes = Vec::new();
    let mut w = Writer::new(&mut bytes);
    w.u32_len(queries.len(), "training workloads cap at 2^32-1 queries")?;
    for q in queries {
        codec::encode_query(&mut w, q)?;
    }
    Ok(bytes)
}

fn decode_training(r: &mut Reader<'_>, schema: &Schema) -> Result<Vec<Query>, CodecError> {
    let n = r.u32()? as usize;
    if n > MAX_QUERIES {
        return Err(CodecError::Invalid("training query count implausible"));
    }
    let mut queries = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        let q = codec::decode_query(r)?;
        codec::check_query_schema(&q, schema)?;
        queries.push(q);
    }
    Ok(queries)
}

// ---------------------------------------------------------------------------
// Models

fn encode_gbdt(e: &mut Writer<'_>, g: &Gbdt) {
    e.f64(g.base());
    e.f64(g.learning_rate());
    let importance = g.feature_importance();
    e.u32(importance.len() as u32);
    for &x in importance {
        e.f64(x);
    }
    let trees = g.trees();
    e.u32(trees.len() as u32);
    for t in trees {
        let nodes = t.nodes_spec();
        e.u32(nodes.len() as u32);
        for n in nodes {
            match n {
                NodeSpec::Leaf { value } => {
                    e.u8(0);
                    e.f64(value);
                }
                NodeSpec::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    e.u8(1);
                    e.u32(feature as u32);
                    e.f64(threshold);
                    e.u32(left as u32);
                    e.u32(right as u32);
                }
            }
        }
    }
}

/// Decode a model whose feature width must equal `dim` — the normalized
/// feature dimension every serving-path row has. Enforcing the width here
/// is what makes `predict_row` panic-free on thawed models.
fn decode_gbdt(c: &mut Reader<'_>, dim: usize) -> Result<Gbdt, CodecError> {
    let base = c.f64()?;
    let learning_rate = c.f64()?;
    let n_imp = c.u32()? as usize;
    if n_imp != dim {
        return Err(CodecError::Invalid(
            "model feature width disagrees with schema",
        ));
    }
    let mut importance = Vec::with_capacity(n_imp);
    for _ in 0..n_imp {
        importance.push(c.f64()?);
    }
    let n_trees = c.u32()? as usize;
    if n_trees > MAX_TREES {
        return Err(CodecError::Invalid("model tree count implausible"));
    }
    let mut trees = Vec::with_capacity(n_trees.min(1024));
    for _ in 0..n_trees {
        let n_nodes = c.u32()? as usize;
        if n_nodes > MAX_TREE_NODES {
            return Err(CodecError::Invalid("tree node count implausible"));
        }
        let mut nodes = Vec::with_capacity(n_nodes.min(4096));
        for _ in 0..n_nodes {
            nodes.push(match c.u8()? {
                0 => NodeSpec::Leaf { value: c.f64()? },
                1 => NodeSpec::Split {
                    feature: c.u32()? as usize,
                    threshold: c.f64()?,
                    left: c.u32()? as usize,
                    right: c.u32()? as usize,
                },
                tag => {
                    let what = "tree node";
                    return Err(CodecError::BadTag { what, tag });
                }
            });
        }
        trees.push(Tree::from_nodes(nodes, dim).map_err(CodecError::Invalid)?);
    }
    Ok(Gbdt::from_raw_parts(trees, base, learning_rate, importance))
}

fn encode_gbdt_params(e: &mut Writer<'_>, p: &GbdtParams) {
    e.u32(p.n_trees as u32);
    e.u32(p.max_depth as u32);
    e.f64(p.learning_rate);
    e.f64(p.lambda);
    e.f64(p.gamma);
    e.f64(p.min_child_weight);
    e.u32(p.max_bins as u32);
    e.f64(p.subsample);
    e.f64(p.colsample);
    e.u64(p.seed);
}

fn decode_gbdt_params(c: &mut Reader<'_>) -> Result<GbdtParams, CodecError> {
    Ok(GbdtParams {
        n_trees: c.u32()? as usize,
        max_depth: c.u32()? as usize,
        learning_rate: c.f64()?,
        lambda: c.f64()?,
        gamma: c.f64()?,
        min_child_weight: c.f64()?,
        max_bins: c.u32()? as usize,
        subsample: c.f64()?,
        colsample: c.f64()?,
        seed: c.u64()?,
    })
}

fn encode_config(e: &mut Writer<'_>, cfg: &Ps3Config) {
    e.u32(cfg.k_models as u32);
    e.f64(cfg.alpha);
    e.f64(cfg.outlier_budget_frac);
    e.u32(cfg.outlier_abs_limit as u32);
    e.f64(cfg.outlier_rel_limit);
    e.u8(match cfg.cluster_algo {
        ClusterAlgo::KMeans => 0,
        ClusterAlgo::HacSingle => 2,
        ClusterAlgo::HacWard => 3,
    });
    e.u8(match cfg.estimator {
        ExemplarRule::Median => 0,
        ExemplarRule::Random => 1,
    });
    e.u32(cfg.fallback_clause_limit as u32);
    encode_gbdt_params(e, &cfg.gbdt);
    e.u8(u8::from(cfg.feature_selection));
    e.u32(cfg.fs_restarts as u32);
    e.u32(cfg.fs_eval_queries as u32);
    e.u32(cfg.fs_eval_budgets.len() as u32);
    for &b in &cfg.fs_eval_budgets {
        e.f64(b);
    }
    e.u8(u8::from(cfg.use_clustering));
    e.u8(u8::from(cfg.use_outliers));
    e.u8(u8::from(cfg.use_regressors));
    e.u8(u8::from(cfg.use_filter));
    e.u64(cfg.seed);
    e.u32(cfg.threads as u32);
    e.u64(cfg.feature_cache_cap as u64);
}

fn decode_config(c: &mut Reader<'_>) -> Result<Ps3Config, CodecError> {
    let k_models = c.u32()? as usize;
    let alpha = c.f64()?;
    let outlier_budget_frac = c.f64()?;
    let outlier_abs_limit = c.u32()? as usize;
    let outlier_rel_limit = c.f64()?;
    let cluster_algo = match c.u8()? {
        // 1 is the retired `KMeansExact` knob: exact Lloyd at every size,
        // which is what `KMeans` now means.
        0 | 1 => ClusterAlgo::KMeans,
        2 => ClusterAlgo::HacSingle,
        3 => ClusterAlgo::HacWard,
        tag => {
            let what = "cluster algorithm";
            return Err(CodecError::BadTag { what, tag });
        }
    };
    let estimator = match c.u8()? {
        0 => ExemplarRule::Median,
        1 => ExemplarRule::Random,
        tag => {
            let what = "exemplar rule";
            return Err(CodecError::BadTag { what, tag });
        }
    };
    let fallback_clause_limit = c.u32()? as usize;
    let gbdt = decode_gbdt_params(c)?;
    let feature_selection = c.u8()? != 0;
    let fs_restarts = c.u32()? as usize;
    let fs_eval_queries = c.u32()? as usize;
    let n_budgets = c.u32()? as usize;
    if n_budgets > MAX_VEC {
        return Err(CodecError::Invalid("config budget count implausible"));
    }
    let mut fs_eval_budgets = Vec::with_capacity(n_budgets.min(1024));
    for _ in 0..n_budgets {
        fs_eval_budgets.push(c.f64()?);
    }
    Ok(Ps3Config {
        k_models,
        alpha,
        outlier_budget_frac,
        outlier_abs_limit,
        outlier_rel_limit,
        cluster_algo,
        estimator,
        fallback_clause_limit,
        gbdt,
        feature_selection,
        fs_restarts,
        fs_eval_queries,
        fs_eval_budgets,
        use_clustering: c.u8()? != 0,
        use_outliers: c.u8()? != 0,
        use_regressors: c.u8()? != 0,
        use_filter: c.u8()? != 0,
        seed: c.u64()?,
        threads: c.u32()? as usize,
        feature_cache_cap: c.usize("config feature_cache_cap overflows")?,
    })
}

fn encode_trained(t: &TrainedPs3) -> Vec<u8> {
    let mut bytes = Vec::new();
    let mut e = Writer::new(&mut bytes);
    e.u32(t.normalizer.schema().num_cols() as u32);
    let means = t.normalizer.means();
    e.u32(means.len() as u32);
    for &m in means {
        e.f64(m);
    }

    e.u32(t.models.len() as u32);
    for m in &t.models {
        encode_gbdt(&mut e, m);
    }
    e.u32(t.thresholds.len() as u32);
    for &x in &t.thresholds {
        e.f64(x);
    }

    e.u32(t.excluded.len() as u32);
    for ft in &t.excluded {
        let idx = FeatureType::ALL
            .iter()
            .position(|x| x == ft)
            .expect("FeatureType::ALL covers every variant");
        e.u8(idx as u8);
    }

    encode_config(&mut e, &t.config);
    bytes
}

fn decode_trained(c: &mut Reader<'_>, num_cols: usize) -> Result<TrainedPs3, CodecError> {
    let schema_cols = c.u32()? as usize;
    if schema_cols != num_cols {
        return Err(CodecError::Invalid(
            "trained schema disagrees with table schema",
        ));
    }
    let schema = FeatureSchema::new(num_cols);
    let dim = schema.dim();
    let n_means = c.u32()? as usize;
    if n_means != dim {
        return Err(CodecError::Invalid(
            "normalizer mean count disagrees with schema",
        ));
    }
    let mut means = Vec::with_capacity(n_means);
    for _ in 0..n_means {
        means.push(c.f64()?);
    }
    let normalizer = Normalizer::from_raw_parts(schema, means).map_err(CodecError::Invalid)?;

    let n_models = c.u32()? as usize;
    if n_models > 256 {
        return Err(CodecError::Invalid("model count implausible"));
    }
    let mut models = Vec::with_capacity(n_models);
    for _ in 0..n_models {
        models.push(decode_gbdt(c, dim)?);
    }
    let n_thresholds = c.u32()? as usize;
    if n_thresholds != n_models {
        return Err(CodecError::Invalid(
            "threshold count disagrees with model count",
        ));
    }
    let mut thresholds = Vec::with_capacity(n_thresholds);
    for _ in 0..n_thresholds {
        thresholds.push(c.f64()?);
    }

    let n_excluded = c.u32()? as usize;
    if n_excluded > FeatureType::ALL.len() {
        return Err(CodecError::Invalid("excluded feature count implausible"));
    }
    let mut excluded = Vec::with_capacity(n_excluded);
    for _ in 0..n_excluded {
        let idx = c.u8()? as usize;
        let ft = *FeatureType::ALL
            .get(idx)
            .ok_or(CodecError::Invalid("excluded feature index out of range"))?;
        excluded.push(ft);
    }
    // Derived, never persisted: recomputing guarantees the projection
    // always agrees with `excluded` and the schema.
    let excluded_dims = schema.mask_of(&excluded);

    let config = decode_config(c)?;
    Ok(TrainedPs3 {
        models,
        thresholds,
        normalizer,
        excluded,
        excluded_dims,
        config,
    })
}

fn encode_lss(lss: &LssModel) -> Vec<u8> {
    let mut bytes = Vec::new();
    let mut e = Writer::new(&mut bytes);
    encode_gbdt(&mut e, &lss.model);
    e.u32(lss.strata_by_budget.len() as u32);
    for &(frac, size) in &lss.strata_by_budget {
        e.f64(frac);
        e.u64(size as u64);
    }
    bytes
}

fn decode_lss(c: &mut Reader<'_>, dim: usize) -> Result<LssModel, CodecError> {
    let model = decode_gbdt(c, dim)?;
    let n = c.u32()? as usize;
    if n > MAX_VEC {
        return Err(CodecError::Invalid("lss budget count implausible"));
    }
    let mut strata_by_budget = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        let frac = c.f64()?;
        let size = c.usize("lss strata size overflows")?;
        strata_by_budget.push((frac, size));
    }
    Ok(LssModel {
        model,
        strata_by_budget,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ps3_query::{AggExpr, Clause, CmpOp, Predicate, ScalarExpr};
    use ps3_stats::{StatsConfig, TableStats};
    use ps3_storage::table::TableBuilder;
    use ps3_storage::{ColId, ColumnMeta, ColumnType, PartitionedTable};

    fn queries() -> Vec<Query> {
        vec![
            Query::new(
                vec![AggExpr::sum(ScalarExpr::col(ColId(0)))],
                Some(Predicate::Not(Box::new(Predicate::Or(vec![
                    Predicate::Clause(Clause::Cmp {
                        col: ColId(0),
                        op: CmpOp::Lt,
                        value: 20.0,
                    }),
                    Predicate::Clause(Clause::In {
                        col: ColId(1),
                        values: vec!["a".into(), "b".into()],
                        negated: true,
                    }),
                ])))),
                vec![ColId(1)],
            ),
            Query::new(
                vec![
                    AggExpr::count(),
                    AggExpr::avg(ScalarExpr::col(ColId(0)).mul(ScalarExpr::Literal(2.0))).filtered(
                        Predicate::Clause(Clause::Contains {
                            col: ColId(1),
                            needle: "a".into(),
                            negated: false,
                        }),
                    ),
                ],
                None,
                vec![],
            ),
        ]
    }

    fn tiny_system() -> Ps3System {
        let schema = Schema::new(vec![
            ColumnMeta::new("x", ColumnType::Numeric),
            ColumnMeta::new("g", ColumnType::Categorical),
        ]);
        let mut b = TableBuilder::new(schema);
        for i in 0..160u32 {
            b.push_row(&[f64::from(i)], &[["a", "b"][(i as usize / 40) % 2]]);
        }
        let pt = Arc::new(PartitionedTable::with_equal_partitions(b.finish(), 16));
        let stats = Arc::new(TableStats::build(&pt, &StatsConfig::default()));
        let mut cfg = Ps3Config::default().with_seed(5);
        cfg.gbdt.n_trees = 4;
        cfg.feature_selection = false;
        Ps3System::train(pt, stats, &queries(), cfg)
    }

    #[test]
    fn gbdt_roundtrip_is_bit_exact() {
        let data: Vec<Vec<f64>> = (0..200)
            .map(|i| vec![f64::from(i), f64::from(i % 7)])
            .collect();
        let labels: Vec<f64> = (0..200).map(|i| f64::from(i) * 0.3).collect();
        let model = Gbdt::train(&data, &labels, &GbdtParams::default());
        let mut bytes = Vec::new();
        encode_gbdt(&mut Writer::new(&mut bytes), &model);
        let d = decode_gbdt(&mut Reader::new(&bytes), 2).unwrap();
        for row in data.iter().take(50) {
            assert_eq!(
                d.predict_row(row).to_bits(),
                model.predict_row(row).to_bits()
            );
        }
        assert_eq!(d.feature_importance(), model.feature_importance());
    }

    #[test]
    fn config_roundtrip() {
        let mut cfg = Ps3Config::default().with_seed(99);
        cfg.cluster_algo = ClusterAlgo::HacWard;
        cfg.estimator = ExemplarRule::Random;
        cfg.fs_eval_budgets = vec![0.01, 0.2, 0.5];
        cfg.use_outliers = false;
        let mut bytes = Vec::new();
        encode_config(&mut Writer::new(&mut bytes), &cfg);
        let d = decode_config(&mut Reader::new(&bytes)).unwrap();
        assert_eq!(format!("{d:?}"), format!("{cfg:?}"));

        // The tag byte follows k_models, alpha and the three outlier fields.
        const TAG_AT: usize = 4 + 8 + 8 + 4 + 8;
        assert_eq!(bytes[TAG_AT], 3);
        let with_tag = |tag: u8| {
            let mut patched = bytes.clone();
            patched[TAG_AT] = tag;
            decode_config(&mut Reader::new(&patched)).map(|c| format!("{c:?}"))
        };
        assert_eq!(with_tag(1).unwrap(), with_tag(0).unwrap());
        assert!(with_tag(0).unwrap().contains("cluster_algo: KMeans,"));
        let what = "cluster algorithm";
        assert_eq!(with_tag(4), Err(CodecError::BadTag { what, tag: 4 }));
    }

    #[test]
    fn freeze_thaw_roundtrips_answers() {
        let sys = tiny_system();
        let dir = std::env::temp_dir().join(format!("ps3_persist_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tiny.ps3");
        freeze(&sys, &path).unwrap();
        let thawed = thaw(&path).unwrap();
        assert_eq!(thawed.num_partitions(), sys.num_partitions());
        for q in queries() {
            for method in crate::system::Method::ALL {
                for seed in [0u64, 13] {
                    let a = sys.answer_seeded(&q, method, 0.25, seed);
                    let b = thawed.answer_seeded(&q, method, 0.25, seed);
                    assert_eq!(a.answer, b.answer, "{method:?} seed {seed}");
                    assert_eq!(a.meta.error_estimate, b.meta.error_estimate);
                }
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn thawed_system_supports_warm_retrain() {
        let sys = tiny_system();
        let dir = std::env::temp_dir().join(format!("ps3_persist_rt_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tiny.ps3");
        freeze(&sys, &path).unwrap();
        let thawed = thaw(&path).unwrap();
        let warm =
            Ps3System::retrain_from(&thawed, Arc::clone(&thawed.pt), Arc::clone(&thawed.stats));
        let q = Query::new(vec![AggExpr::count()], None, vec![]);
        let a = thawed.answer_seeded(&q, crate::system::Method::Ps3, 0.25, 3);
        let b = warm.answer_seeded(&q, crate::system::Method::Ps3, 0.25, 3);
        assert_eq!(a.answer, b.answer);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_thawed_system_carries_the_training_value_it_was_trained_with() {
        let sys = tiny_system();
        assert_eq!(*sys.training, *queries());
        let dir = std::env::temp_dir().join(format!("ps3_persist_wl_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tiny.ps3");
        freeze(&sys, &path).unwrap();
        let thawed = thaw(&path).unwrap();
        assert_eq!(thawed.training, sys.training);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn statistics_whose_column_kinds_disagree_with_the_schema_are_refused() {
        let sys = tiny_system();
        // Statistics of the same shape with the two column types swapped.
        let mut b = TableBuilder::new(Schema::new(vec![
            ColumnMeta::new("x", ColumnType::Categorical),
            ColumnMeta::new("g", ColumnType::Numeric),
        ]));
        for i in 0..160u32 {
            b.push_row(&[f64::from(i)], &[["a", "b"][i as usize % 2]]);
        }
        let swapped = PartitionedTable::with_equal_partitions(b.finish(), 16);
        let stats = Arc::new(TableStats::build(&swapped, &StatsConfig::default()));
        let (trained, lss) = (sys.trained.clone(), sys.lss.clone());
        let mismatched =
            Ps3System::from_parts(Arc::clone(&sys.pt), stats, trained, lss, sys.training);
        let dir = std::env::temp_dir().join(format!("ps3_persist_kinds_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("kinds.ps3");
        freeze(&mismatched, &path).unwrap();
        let err = thaw(&path).err().expect("kinds disagree");
        let why = "stats column kinds disagree with table schema";
        assert!(matches!(err, FormatError::Corrupt(w) if w == why), "{err}");
        std::fs::remove_file(&path).ok();
    }

    /// The names in `dir`, sorted.
    fn listing(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        names
    }

    #[test]
    fn a_failed_freeze_leaves_the_old_artifact_and_no_temp_file() {
        let sys = tiny_system();
        let dir = std::env::temp_dir().join(format!("ps3_persist_fail_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tiny.ps3");
        freeze(&sys, &path).unwrap();
        let before = std::fs::read(&path).unwrap();

        // A needle past the query grammar's `u16` string cap cannot be
        // persisted.
        let needle = "a".repeat(usize::from(u16::MAX) + 1);
        let oversized = Query::new(
            vec![
                AggExpr::count().filtered(Predicate::Clause(Clause::Contains {
                    col: ColId(1),
                    needle,
                    negated: false,
                })),
            ],
            None,
            vec![],
        );
        let (trained, lss) = (sys.trained.clone(), sys.lss.clone());
        let unwritable = Ps3System::from_parts(
            Arc::clone(&sys.pt),
            Arc::clone(&sys.stats),
            trained,
            lss,
            vec![oversized].into(),
        );
        let err = freeze(&unwritable, &path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "{err}");
        assert_eq!(std::fs::read(&path).unwrap(), before);
        assert_eq!(listing(&dir), ["tiny.ps3"]);

        // A target inside a directory that does not exist.
        let missing = dir.join("missing");
        let err = freeze(&sys, &missing.join("tiny.ps3")).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotFound, "{err}");
        assert!(!missing.exists());
        assert_eq!(listing(&dir), ["tiny.ps3"]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupted_sections_yield_typed_errors() {
        let sys = tiny_system();
        let dir = std::env::temp_dir().join(format!("ps3_persist_bad_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tiny.ps3");
        freeze(&sys, &path).unwrap();
        let good = std::fs::read(&path).unwrap();
        let bad_path = dir.join("bad.ps3");
        // Flip one byte in several spots spread across the file: decode
        // must fail with a typed error (checksums catch payload damage,
        // header validation catches the rest) and never panic.
        for i in (0..good.len()).step_by(good.len() / 23 + 1) {
            let mut bad = good.clone();
            bad[i] ^= 0x40;
            std::fs::write(&bad_path, &bad).unwrap();
            match thaw(&bad_path) {
                Ok(_) => {} // flipped a byte of ignorable padding
                Err(e) => {
                    let _ = e.to_string();
                }
            }
        }
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&bad_path).ok();
    }
}
