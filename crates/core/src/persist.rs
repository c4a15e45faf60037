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
//! Training partials/totals/features/contributions are *not* persisted:
//! they are off the answer path, and the only retrain input consumed from
//! [`TrainingData`] is the query list ([`Ps3System::retrain_from`]
//! recomputes features against the new table).
//!
//! Every decoder validates shape and range before building anything, so a
//! corrupted or adversarial artifact surfaces as a typed [`FormatError`] —
//! never a panic, never an out-of-bounds model index.

use std::io;
use std::path::Path;
use std::sync::Arc;

use ps3_cluster::ClusterAlgo;
use ps3_learn::{Gbdt, GbdtParams, NodeSpec, Tree};
use ps3_query::{AggExpr, AggFunc, BinOp, Clause, CmpOp, Predicate, Query, ScalarExpr};
use ps3_stats::features::FeatureType;
use ps3_stats::persist::{decode_table_stats, encode_table_stats};
use ps3_stats::{FeatureSchema, Normalizer};
use ps3_storage::format::{
    decode_partitioned_table, encode_partitioned_table, Artifact, ArtifactWriter, Cursor, Enc,
    FormatError, SEC_LSS, SEC_STATS, SEC_TRAINED, SEC_TRAINING,
};

use crate::baselines::LssModel;
use crate::config::{ExemplarRule, Ps3Config};
use crate::system::Ps3System;
use crate::train::{PartitionStrata, TrainedPs3, TrainingData};

/// Maximum nesting depth accepted when decoding scalar expressions and
/// predicates (bounds recursion on adversarial input).
const MAX_DEPTH: usize = 64;
/// Maximum persisted training-query count.
const MAX_QUERIES: usize = 1 << 20;
/// Maximum nodes per persisted tree.
const MAX_TREE_NODES: usize = 1 << 20;
/// Maximum trees per persisted model.
const MAX_TREES: usize = 1 << 16;
/// Maximum elements in any persisted flat vector (thresholds, centroids,
/// assignments, budgets).
const MAX_VEC: usize = 1 << 24;

/// Write `system` to `path` as one flat artifact (temp file + rename, so a
/// crash mid-write never leaves a half-written artifact behind).
pub fn freeze(system: &Ps3System, path: &Path) -> io::Result<()> {
    let mut w = ArtifactWriter::new();
    encode_partitioned_table(&mut w, &system.pt);
    w.add_section(SEC_STATS, encode_table_stats(&system.stats));
    w.add_section(SEC_TRAINED, encode_trained(&system.trained));
    w.add_section(SEC_LSS, encode_lss(&system.lss));
    w.add_section(SEC_TRAINING, encode_training(&system.training));
    w.write_to(path)
}

/// Map the artifact at `path` and reassemble the trained system. Column
/// payloads are served straight from the mapping (zero-copy); models and
/// statistics are decoded with full validation.
pub fn thaw(path: &Path) -> Result<Ps3System, FormatError> {
    let a = Artifact::open(path)?;
    let pt = decode_partitioned_table(&a)?;
    let num_cols = pt.table().schema().len();

    let stats = decode_table_stats(a.section(SEC_STATS)?)?;
    if stats.num_partitions() != pt.num_partitions() {
        return Err(FormatError::Corrupt(
            "stats partition count disagrees with table",
        ));
    }
    if stats.feature_schema().num_cols() != num_cols {
        return Err(FormatError::Corrupt(
            "stats column count disagrees with table schema",
        ));
    }

    let trained = decode_trained(a.section(SEC_TRAINED)?, num_cols)?;
    let dim = trained.normalizer.schema().dim();
    let lss = decode_lss(a.section(SEC_LSS)?, dim)?;
    let queries = decode_training(a.section(SEC_TRAINING)?, num_cols)?;
    let training = TrainingData {
        queries,
        partials: Vec::new(),
        totals: Vec::new(),
        features: Vec::new(),
        contributions: Vec::new(),
    };

    Ok(Ps3System::from_parts(
        Arc::new(pt),
        Arc::new(stats),
        trained,
        lss,
        Arc::new(training),
    ))
}

// ---------------------------------------------------------------------------
// Queries

fn encode_scalar(e: &mut Enc, s: &ScalarExpr) {
    match s {
        ScalarExpr::Column(c) => {
            e.u8(1);
            e.u32(c.index() as u32);
        }
        ScalarExpr::Literal(v) => {
            e.u8(2);
            e.f64(*v);
        }
        ScalarExpr::BinOp(op, l, r) => {
            e.u8(3);
            e.u8(match op {
                BinOp::Add => 0,
                BinOp::Sub => 1,
                BinOp::Mul => 2,
                BinOp::Div => 3,
            });
            encode_scalar(e, l);
            encode_scalar(e, r);
        }
    }
}

fn decode_scalar(
    c: &mut Cursor<'_>,
    num_cols: usize,
    depth: usize,
) -> Result<ScalarExpr, FormatError> {
    if depth > MAX_DEPTH {
        return Err(FormatError::Corrupt("scalar expression nests too deep"));
    }
    match c.u8("scalar tag")? {
        1 => {
            let col = c.u32("scalar column")? as usize;
            if col >= num_cols {
                return Err(FormatError::Corrupt("scalar column out of range"));
            }
            Ok(ScalarExpr::Column(ps3_storage::ColId(col)))
        }
        2 => Ok(ScalarExpr::Literal(c.f64("scalar literal")?)),
        3 => {
            let op = match c.u8("scalar binop")? {
                0 => BinOp::Add,
                1 => BinOp::Sub,
                2 => BinOp::Mul,
                3 => BinOp::Div,
                _ => return Err(FormatError::Corrupt("unknown scalar operator")),
            };
            let l = decode_scalar(c, num_cols, depth + 1)?;
            let r = decode_scalar(c, num_cols, depth + 1)?;
            Ok(ScalarExpr::BinOp(op, Box::new(l), Box::new(r)))
        }
        _ => Err(FormatError::Corrupt("unknown scalar tag")),
    }
}

fn encode_clause(e: &mut Enc, cl: &Clause) {
    match cl {
        Clause::Cmp { col, op, value } => {
            e.u8(1);
            e.u32(col.index() as u32);
            e.u8(match op {
                CmpOp::Eq => 0,
                CmpOp::Ne => 1,
                CmpOp::Lt => 2,
                CmpOp::Le => 3,
                CmpOp::Gt => 4,
                CmpOp::Ge => 5,
            });
            e.f64(*value);
        }
        Clause::In {
            col,
            values,
            negated,
        } => {
            e.u8(2);
            e.u32(col.index() as u32);
            e.u8(u8::from(*negated));
            e.u32(values.len() as u32);
            for v in values {
                e.str(v);
            }
        }
        Clause::Contains {
            col,
            needle,
            negated,
        } => {
            e.u8(3);
            e.u32(col.index() as u32);
            e.u8(u8::from(*negated));
            e.str(needle);
        }
    }
}

fn decode_col(c: &mut Cursor<'_>, num_cols: usize) -> Result<ps3_storage::ColId, FormatError> {
    let col = c.u32("clause column")? as usize;
    if col >= num_cols {
        return Err(FormatError::Corrupt("clause column out of range"));
    }
    Ok(ps3_storage::ColId(col))
}

fn decode_clause(c: &mut Cursor<'_>, num_cols: usize) -> Result<Clause, FormatError> {
    match c.u8("clause tag")? {
        1 => {
            let col = decode_col(c, num_cols)?;
            let op = match c.u8("clause cmp op")? {
                0 => CmpOp::Eq,
                1 => CmpOp::Ne,
                2 => CmpOp::Lt,
                3 => CmpOp::Le,
                4 => CmpOp::Gt,
                5 => CmpOp::Ge,
                _ => return Err(FormatError::Corrupt("unknown comparison operator")),
            };
            let value = c.f64("clause value")?;
            Ok(Clause::Cmp { col, op, value })
        }
        2 => {
            let col = decode_col(c, num_cols)?;
            let negated = c.u8("clause negated")? != 0;
            let n = c.u32("clause value count")? as usize;
            if n > MAX_VEC {
                return Err(FormatError::Corrupt("IN list implausibly long"));
            }
            let mut values = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                values.push(c.str("clause value string")?.to_owned());
            }
            Ok(Clause::In {
                col,
                values,
                negated,
            })
        }
        3 => {
            let col = decode_col(c, num_cols)?;
            let negated = c.u8("clause negated")? != 0;
            let needle = c.str("clause needle")?.to_owned();
            Ok(Clause::Contains {
                col,
                needle,
                negated,
            })
        }
        _ => Err(FormatError::Corrupt("unknown clause tag")),
    }
}

fn encode_predicate(e: &mut Enc, p: &Predicate) {
    match p {
        Predicate::Clause(cl) => {
            e.u8(1);
            encode_clause(e, cl);
        }
        Predicate::And(ps) => {
            e.u8(2);
            e.u32(ps.len() as u32);
            for q in ps {
                encode_predicate(e, q);
            }
        }
        Predicate::Or(ps) => {
            e.u8(3);
            e.u32(ps.len() as u32);
            for q in ps {
                encode_predicate(e, q);
            }
        }
        Predicate::Not(q) => {
            e.u8(4);
            encode_predicate(e, q);
        }
    }
}

fn decode_predicate(
    c: &mut Cursor<'_>,
    num_cols: usize,
    depth: usize,
) -> Result<Predicate, FormatError> {
    if depth > MAX_DEPTH {
        return Err(FormatError::Corrupt("predicate nests too deep"));
    }
    match c.u8("predicate tag")? {
        1 => Ok(Predicate::Clause(decode_clause(c, num_cols)?)),
        tag @ (2 | 3) => {
            let n = c.u32("predicate arm count")? as usize;
            if n > MAX_VEC {
                return Err(FormatError::Corrupt("predicate arm count implausible"));
            }
            let mut parts = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                parts.push(decode_predicate(c, num_cols, depth + 1)?);
            }
            Ok(if tag == 2 {
                Predicate::And(parts)
            } else {
                Predicate::Or(parts)
            })
        }
        4 => Ok(Predicate::Not(Box::new(decode_predicate(
            c,
            num_cols,
            depth + 1,
        )?))),
        _ => Err(FormatError::Corrupt("unknown predicate tag")),
    }
}

/// Encode one query (the persisted-workload grammar; mirrors the AST, not
/// the wire protocol, though both use tagged pre-order encodings).
pub fn encode_query(e: &mut Enc, q: &Query) {
    e.u32(q.aggregates.len() as u32);
    for agg in &q.aggregates {
        e.u8(match agg.func {
            AggFunc::Sum => 0,
            AggFunc::Count => 1,
            AggFunc::Avg => 2,
        });
        encode_scalar(e, &agg.expr);
        match &agg.condition {
            Some(p) => {
                e.u8(1);
                encode_predicate(e, p);
            }
            None => e.u8(0),
        }
    }
    match &q.predicate {
        Some(p) => {
            e.u8(1);
            encode_predicate(e, p);
        }
        None => e.u8(0),
    }
    e.u32(q.group_by.len() as u32);
    for col in &q.group_by {
        e.u32(col.index() as u32);
    }
}

/// Decode one query, validating every column index against `num_cols`.
pub fn decode_query(c: &mut Cursor<'_>, num_cols: usize) -> Result<Query, FormatError> {
    let n_aggs = c.u32("aggregate count")? as usize;
    if n_aggs == 0 {
        return Err(FormatError::Corrupt("query has no aggregates"));
    }
    if n_aggs > MAX_VEC {
        return Err(FormatError::Corrupt("aggregate count implausible"));
    }
    let mut aggregates = Vec::with_capacity(n_aggs.min(1024));
    for _ in 0..n_aggs {
        let func = match c.u8("aggregate function")? {
            0 => AggFunc::Sum,
            1 => AggFunc::Count,
            2 => AggFunc::Avg,
            _ => return Err(FormatError::Corrupt("unknown aggregate function")),
        };
        let expr = decode_scalar(c, num_cols, 0)?;
        let condition = match c.u8("aggregate condition flag")? {
            0 => None,
            1 => Some(decode_predicate(c, num_cols, 0)?),
            _ => return Err(FormatError::Corrupt("bad aggregate condition flag")),
        };
        aggregates.push(AggExpr {
            func,
            expr,
            condition,
        });
    }
    let predicate = match c.u8("predicate flag")? {
        0 => None,
        1 => Some(decode_predicate(c, num_cols, 0)?),
        _ => return Err(FormatError::Corrupt("bad predicate flag")),
    };
    let n_group = c.u32("group-by count")? as usize;
    if n_group > num_cols {
        return Err(FormatError::Corrupt("group-by count exceeds columns"));
    }
    let mut group_by = Vec::with_capacity(n_group);
    for _ in 0..n_group {
        group_by.push(decode_col(c, num_cols)?);
    }
    Ok(Query {
        aggregates,
        predicate,
        group_by,
    })
}

fn encode_training(td: &TrainingData) -> Vec<u8> {
    let mut e = Enc::new();
    e.u32(td.queries.len() as u32);
    for q in &td.queries {
        encode_query(&mut e, q);
    }
    e.into_bytes()
}

fn decode_training(bytes: &[u8], num_cols: usize) -> Result<Vec<Query>, FormatError> {
    let mut c = Cursor::new(bytes);
    let n = c.u32("training query count")? as usize;
    if n > MAX_QUERIES {
        return Err(FormatError::Corrupt("training query count implausible"));
    }
    let mut queries = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        queries.push(decode_query(&mut c, num_cols)?);
    }
    c.finish("training section")?;
    Ok(queries)
}

// ---------------------------------------------------------------------------
// Models

fn encode_gbdt(e: &mut Enc, g: &Gbdt) {
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
fn decode_gbdt(c: &mut Cursor<'_>, dim: usize) -> Result<Gbdt, FormatError> {
    let base = c.f64("model base")?;
    let learning_rate = c.f64("model learning rate")?;
    let n_imp = c.u32("model importance len")? as usize;
    if n_imp != dim {
        return Err(FormatError::Corrupt(
            "model feature width disagrees with schema",
        ));
    }
    let mut importance = Vec::with_capacity(n_imp);
    for _ in 0..n_imp {
        importance.push(c.f64("model importance")?);
    }
    let n_trees = c.u32("model tree count")? as usize;
    if n_trees > MAX_TREES {
        return Err(FormatError::Corrupt("model tree count implausible"));
    }
    let mut trees = Vec::with_capacity(n_trees.min(1024));
    for _ in 0..n_trees {
        let n_nodes = c.u32("tree node count")? as usize;
        if n_nodes > MAX_TREE_NODES {
            return Err(FormatError::Corrupt("tree node count implausible"));
        }
        let mut nodes = Vec::with_capacity(n_nodes.min(4096));
        for _ in 0..n_nodes {
            nodes.push(match c.u8("tree node tag")? {
                0 => NodeSpec::Leaf {
                    value: c.f64("leaf value")?,
                },
                1 => NodeSpec::Split {
                    feature: c.u32("split feature")? as usize,
                    threshold: c.f64("split threshold")?,
                    left: c.u32("split left")? as usize,
                    right: c.u32("split right")? as usize,
                },
                _ => return Err(FormatError::Corrupt("unknown tree node tag")),
            });
        }
        trees.push(Tree::from_nodes(nodes, dim).map_err(FormatError::Corrupt)?);
    }
    Ok(Gbdt::from_raw_parts(trees, base, learning_rate, importance))
}

fn encode_gbdt_params(e: &mut Enc, p: &GbdtParams) {
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

fn decode_gbdt_params(c: &mut Cursor<'_>) -> Result<GbdtParams, FormatError> {
    Ok(GbdtParams {
        n_trees: c.u32("gbdt n_trees")? as usize,
        max_depth: c.u32("gbdt max_depth")? as usize,
        learning_rate: c.f64("gbdt learning_rate")?,
        lambda: c.f64("gbdt lambda")?,
        gamma: c.f64("gbdt gamma")?,
        min_child_weight: c.f64("gbdt min_child_weight")?,
        max_bins: c.u32("gbdt max_bins")? as usize,
        subsample: c.f64("gbdt subsample")?,
        colsample: c.f64("gbdt colsample")?,
        seed: c.u64("gbdt seed")?,
    })
}

fn encode_config(e: &mut Enc, cfg: &Ps3Config) {
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
    e.u32(cfg.strata_k as u32);
    e.u8(u8::from(cfg.use_clustering));
    e.u8(u8::from(cfg.use_outliers));
    e.u8(u8::from(cfg.use_regressors));
    e.u8(u8::from(cfg.use_filter));
    e.u64(cfg.seed);
    e.u32(cfg.threads as u32);
    e.u64(cfg.feature_cache_cap as u64);
}

fn decode_config(c: &mut Cursor<'_>) -> Result<Ps3Config, FormatError> {
    let k_models = c.u32("config k_models")? as usize;
    let alpha = c.f64("config alpha")?;
    let outlier_budget_frac = c.f64("config outlier_budget_frac")?;
    let outlier_abs_limit = c.u32("config outlier_abs_limit")? as usize;
    let outlier_rel_limit = c.f64("config outlier_rel_limit")?;
    let cluster_algo = match c.u8("config cluster_algo")? {
        // 1 is the retired `KMeansExact` knob: exact Lloyd at every size,
        // which is what `KMeans` now means.
        0 | 1 => ClusterAlgo::KMeans,
        2 => ClusterAlgo::HacSingle,
        3 => ClusterAlgo::HacWard,
        _ => return Err(FormatError::Corrupt("unknown cluster algorithm")),
    };
    let estimator = match c.u8("config estimator")? {
        0 => ExemplarRule::Median,
        1 => ExemplarRule::Random,
        _ => return Err(FormatError::Corrupt("unknown exemplar rule")),
    };
    let fallback_clause_limit = c.u32("config fallback_clause_limit")? as usize;
    let gbdt = decode_gbdt_params(c)?;
    let feature_selection = c.u8("config feature_selection")? != 0;
    let fs_restarts = c.u32("config fs_restarts")? as usize;
    let fs_eval_queries = c.u32("config fs_eval_queries")? as usize;
    let n_budgets = c.u32("config fs budget count")? as usize;
    if n_budgets > MAX_VEC {
        return Err(FormatError::Corrupt("config budget count implausible"));
    }
    let mut fs_eval_budgets = Vec::with_capacity(n_budgets.min(1024));
    for _ in 0..n_budgets {
        fs_eval_budgets.push(c.f64("config fs budget")?);
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
        strata_k: c.u32("config strata_k")? as usize,
        use_clustering: c.u8("config use_clustering")? != 0,
        use_outliers: c.u8("config use_outliers")? != 0,
        use_regressors: c.u8("config use_regressors")? != 0,
        use_filter: c.u8("config use_filter")? != 0,
        seed: c.u64("config seed")?,
        threads: c.u32("config threads")? as usize,
        feature_cache_cap: usize::try_from(c.u64("config feature_cache_cap")?)
            .map_err(|_| FormatError::Corrupt("config feature_cache_cap overflows"))?,
    })
}

fn encode_trained(t: &TrainedPs3) -> Vec<u8> {
    let mut e = Enc::new();
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

    let k = t.strata.centroids.len();
    let cdim = t.strata.centroids.first().map_or(0, Vec::len);
    e.u32(k as u32);
    e.u32(cdim as u32);
    for row in &t.strata.centroids {
        for &x in row {
            e.f64(x);
        }
    }
    e.u32(t.strata.assignment.len() as u32);
    for &a in &t.strata.assignment {
        e.u32(a as u32);
    }
    e.u32(t.strata.sweeps as u32);

    encode_config(&mut e, &t.config);
    e.into_bytes()
}

fn decode_trained(bytes: &[u8], num_cols: usize) -> Result<TrainedPs3, FormatError> {
    let mut c = Cursor::new(bytes);
    let schema_cols = c.u32("trained schema columns")? as usize;
    if schema_cols != num_cols {
        return Err(FormatError::Corrupt(
            "trained schema disagrees with table schema",
        ));
    }
    let schema = FeatureSchema::new(num_cols);
    let dim = schema.dim();
    let n_means = c.u32("normalizer mean count")? as usize;
    if n_means != dim {
        return Err(FormatError::Corrupt(
            "normalizer mean count disagrees with schema",
        ));
    }
    let mut means = Vec::with_capacity(n_means);
    for _ in 0..n_means {
        means.push(c.f64("normalizer mean")?);
    }
    let normalizer = Normalizer::from_raw_parts(schema, means).map_err(FormatError::Corrupt)?;

    let n_models = c.u32("model count")? as usize;
    if n_models > 256 {
        return Err(FormatError::Corrupt("model count implausible"));
    }
    let mut models = Vec::with_capacity(n_models);
    for _ in 0..n_models {
        models.push(decode_gbdt(&mut c, dim)?);
    }
    let n_thresholds = c.u32("threshold count")? as usize;
    if n_thresholds != n_models {
        return Err(FormatError::Corrupt(
            "threshold count disagrees with model count",
        ));
    }
    let mut thresholds = Vec::with_capacity(n_thresholds);
    for _ in 0..n_thresholds {
        thresholds.push(c.f64("threshold")?);
    }

    let n_excluded = c.u32("excluded count")? as usize;
    if n_excluded > FeatureType::ALL.len() {
        return Err(FormatError::Corrupt("excluded feature count implausible"));
    }
    let mut excluded = Vec::with_capacity(n_excluded);
    for _ in 0..n_excluded {
        let idx = c.u8("excluded feature index")? as usize;
        let ft = *FeatureType::ALL
            .get(idx)
            .ok_or(FormatError::Corrupt("excluded feature index out of range"))?;
        excluded.push(ft);
    }
    // Derived, never persisted: recomputing guarantees the projection
    // always agrees with `excluded` and the schema.
    let mut excluded_dims = vec![false; dim];
    for ft in &excluded {
        for i in schema.indices_of(*ft) {
            excluded_dims[i] = true;
        }
    }

    let k = c.u32("strata centroid count")? as usize;
    let cdim = c.u32("strata centroid dim")? as usize;
    if k > MAX_VEC || cdim > MAX_VEC {
        return Err(FormatError::Corrupt("strata shape implausible"));
    }
    let mut centroids = Vec::with_capacity(k.min(1024));
    for _ in 0..k {
        let mut row = Vec::with_capacity(cdim.min(4096));
        for _ in 0..cdim {
            row.push(c.f64("strata centroid")?);
        }
        centroids.push(row);
    }
    let n_assign = c.u32("strata assignment count")? as usize;
    if n_assign > MAX_VEC {
        return Err(FormatError::Corrupt("strata assignment implausible"));
    }
    let mut assignment = Vec::with_capacity(n_assign.min(4096));
    for _ in 0..n_assign {
        let a = c.u32("strata assignment")? as usize;
        if a >= k.max(1) {
            return Err(FormatError::Corrupt("strata assignment out of range"));
        }
        assignment.push(a);
    }
    let sweeps = c.u32("strata sweeps")? as usize;
    let strata = PartitionStrata {
        centroids,
        assignment,
        sweeps,
    };

    let config = decode_config(&mut c)?;
    c.finish("trained section")?;
    Ok(TrainedPs3 {
        models,
        thresholds,
        normalizer,
        excluded,
        excluded_dims,
        strata,
        config,
    })
}

fn encode_lss(lss: &LssModel) -> Vec<u8> {
    let mut e = Enc::new();
    encode_gbdt(&mut e, &lss.model);
    e.u32(lss.strata_by_budget.len() as u32);
    for &(frac, size) in &lss.strata_by_budget {
        e.f64(frac);
        e.u64(size as u64);
    }
    e.into_bytes()
}

fn decode_lss(bytes: &[u8], dim: usize) -> Result<LssModel, FormatError> {
    let mut c = Cursor::new(bytes);
    let model = decode_gbdt(&mut c, dim)?;
    let n = c.u32("lss budget count")? as usize;
    if n > MAX_VEC {
        return Err(FormatError::Corrupt("lss budget count implausible"));
    }
    let mut strata_by_budget = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        let frac = c.f64("lss budget frac")?;
        let size = usize::try_from(c.u64("lss strata size")?)
            .map_err(|_| FormatError::Corrupt("lss strata size overflows"))?;
        strata_by_budget.push((frac, size));
    }
    c.finish("lss section")?;
    Ok(LssModel {
        model,
        strata_by_budget,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ps3_query::ScalarExpr;
    use ps3_stats::{StatsConfig, TableStats};
    use ps3_storage::table::TableBuilder;
    use ps3_storage::{ColId, ColumnMeta, ColumnType, PartitionedTable, Schema};

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
    fn query_roundtrip_preserves_fingerprint() {
        for q in queries() {
            let mut e = Enc::new();
            encode_query(&mut e, &q);
            let bytes = e.into_bytes();
            let mut c = Cursor::new(&bytes);
            let d = decode_query(&mut c, 2).unwrap();
            c.finish("query").unwrap();
            assert_eq!(d, q);
            assert_eq!(d.fingerprint(), q.fingerprint());
        }
    }

    #[test]
    fn query_decode_rejects_out_of_range_columns() {
        let q = Query::new(vec![AggExpr::sum(ScalarExpr::col(ColId(1)))], None, vec![]);
        let mut e = Enc::new();
        encode_query(&mut e, &q);
        let bytes = e.into_bytes();
        // Valid against a 2-column schema, invalid against a 1-column one.
        assert!(decode_query(&mut Cursor::new(&bytes), 2).is_ok());
        let err = decode_query(&mut Cursor::new(&bytes), 1).unwrap_err();
        assert!(matches!(err, FormatError::Corrupt(_)));
    }

    #[test]
    fn deep_predicate_nesting_is_bounded() {
        let mut e = Enc::new();
        // 1 aggregate: COUNT, literal expr, no condition.
        e.u32(1);
        e.u8(1);
        e.u8(2);
        e.f64(1.0);
        e.u8(0);
        // Predicate: a Not-chain deeper than MAX_DEPTH.
        e.u8(1);
        for _ in 0..(MAX_DEPTH + 2) {
            e.u8(4);
        }
        let bytes = e.into_bytes();
        let err = decode_query(&mut Cursor::new(&bytes), 1).unwrap_err();
        assert!(matches!(
            err,
            FormatError::Corrupt("predicate nests too deep") | FormatError::Truncated(_)
        ));
    }

    #[test]
    fn gbdt_roundtrip_is_bit_exact() {
        let data: Vec<Vec<f64>> = (0..200)
            .map(|i| vec![f64::from(i), f64::from(i % 7)])
            .collect();
        let labels: Vec<f64> = (0..200).map(|i| f64::from(i) * 0.3).collect();
        let model = Gbdt::train(&data, &labels, &GbdtParams::default());
        let mut e = Enc::new();
        encode_gbdt(&mut e, &model);
        let bytes = e.into_bytes();
        let d = decode_gbdt(&mut Cursor::new(&bytes), 2).unwrap();
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
        let mut e = Enc::new();
        encode_config(&mut e, &cfg);
        let bytes = e.into_bytes();
        let d = decode_config(&mut Cursor::new(&bytes)).unwrap();
        assert_eq!(format!("{d:?}"), format!("{cfg:?}"));

        // The tag byte follows k_models, alpha and the three outlier fields.
        const TAG_AT: usize = 4 + 8 + 8 + 4 + 8;
        assert_eq!(bytes[TAG_AT], 3);
        let with_tag = |tag: u8| {
            let mut patched = bytes.clone();
            patched[TAG_AT] = tag;
            decode_config(&mut Cursor::new(&patched)).map(|c| format!("{c:?}"))
        };
        assert_eq!(with_tag(1).unwrap(), with_tag(0).unwrap());
        assert!(with_tag(0).unwrap().contains("cluster_algo: KMeans,"));
        assert!(matches!(with_tag(4), Err(FormatError::Corrupt(_))));
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
        let (warm, _) =
            Ps3System::retrain_from(&thawed, Arc::clone(&thawed.pt), Arc::clone(&thawed.stats));
        let q = Query::new(vec![AggExpr::count()], None, vec![]);
        let a = thawed.answer_seeded(&q, crate::system::Method::Ps3, 0.25, 3);
        let b = warm.answer_seeded(&q, crate::system::Method::Ps3, 0.25, 3);
        assert_eq!(a.answer, b.answer);
        std::fs::remove_file(&path).ok();
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
