//! Golden answers: one digest of what partition execution and the §2.4 fold
//! produce, recorded at commit `593d67b` (grouped execution row-at-a-time
//! through `HashMap<GroupKey, Vec<f64>>`) and asserted ever since. The
//! representation of a partial answer is free to change; the groups, every
//! value bit, the error bars and the number of partitions read are not.
//!
//! The table is `golden_selections.rs`'s 512-partition Aria shape, trained
//! on the first four generated queries. The queries are the ten held-out
//! test queries and the next twenty generated ones it never trained on
//! (group-by arity 0, 1 and 2 over dictionary columns), plus eight edits
//! that the generator never draws: a numeric key, a numeric key beside a
//! categorical one, and `AVG … CASE` with and without `GROUP BY`.

use ps3::core::{Method, Ps3Config, Ps3System};
use ps3::data::{DatasetConfig, DatasetKind, ScaleProfile};
use ps3::query::{AggExpr, AggFunc, Clause, CmpOp, Predicate, Query, ScalarExpr};
use ps3::storage::format::fnv1a;
use ps3::storage::ColumnType;
use std::sync::Arc;

const FRACS: [f64; 3] = [0.05, 0.1, 1.0];
const SEEDS: [u64; 2] = [0, 7];

#[test]
fn aria_512_partition_answers_match_the_recorded_digest() {
    let ds = DatasetConfig::new(DatasetKind::Aria, ScaleProfile::Tiny)
        .with_partitions(512)
        .with_rows(512 * 16)
        .build(24);
    let mut cfg = Ps3Config::default().with_seed(24);
    cfg.gbdt.n_trees = 2;
    cfg.feature_selection = false;
    let system = Ps3System::train(
        Arc::clone(&ds.pt),
        Arc::clone(&ds.stats),
        &ds.train_queries[..4],
        cfg,
    );
    let schema = ds.pt.table().schema();
    let col = |name: &str| schema.expect_col(name);
    let received = col("records_received_count");
    let network = col("DeviceInfo_NetworkType");
    let avg_case = || {
        AggExpr::avg(ScalarExpr::col(col("olsize"))).filtered(Predicate::Clause(Clause::Cmp {
            col: col("infl"),
            op: CmpOp::Gt,
            value: 3.0,
        }))
    };

    let mut queries: Vec<Query> = ds.test_queries.clone();
    queries.extend_from_slice(&ds.train_queries[4..24]);
    for qi in 0..8 {
        let mut q = ds.sample_test_query(qi);
        match qi % 4 {
            0 => q.group_by = vec![received],
            1 => q.group_by = vec![received, network],
            2 => {
                q.aggregates.push(avg_case());
                q.group_by = vec![col("TenantId")];
            }
            _ => {
                q.aggregates.push(avg_case());
                q.group_by = vec![];
            }
        }
        queries.push(q);
    }

    // The digest is only a referee for the shapes it contains.
    let numeric = |q: &Query| {
        q.group_by
            .iter()
            .filter(|&&c| schema.col(c).ctype == ColumnType::Numeric)
            .count()
    };
    for arity in 0..3 {
        assert!(queries.iter().any(|q| q.group_by.len() == arity));
    }
    assert!(queries
        .iter()
        .any(|q| numeric(q) == 1 && q.group_by.len() == 2));
    assert!(queries
        .iter()
        .any(|q| numeric(q) == 1 && q.group_by.len() == 1));
    assert!(queries
        .iter()
        .any(|q| numeric(q) == 0 && q.group_by.len() == 2));
    assert!(queries.iter().any(|q| q
        .aggregates
        .iter()
        .any(|a| a.func == AggFunc::Avg && a.condition.is_some())));

    let mut bytes = Vec::new();
    let mut word = |w: u64| bytes.extend_from_slice(&w.to_le_bytes());
    let mut grouped_answers = 0;
    for q in &queries {
        for method in [Method::Ps3, Method::Random] {
            for frac in FRACS {
                for seed in SEEDS {
                    let out = system.answer_seeded(q, method, frac, seed);
                    let mut groups: Vec<_> = out.answer.groups.iter().collect();
                    groups.sort_by(|a, b| a.0.cmp(b.0));
                    grouped_answers += usize::from(groups.len() > 1);
                    word(groups.len() as u64);
                    for (key, vals) in groups {
                        key.0.iter().for_each(|&k| word(k));
                        vals.iter().for_each(|v| word(v.to_bits()));
                    }
                    for e in &out.meta.error_estimate.per_agg {
                        word(e.ci_half_width.to_bits());
                        word(e.rel_err.to_bits());
                    }
                    word(out.meta.error_estimate.rel_err.to_bits());
                    word(u64::from(out.meta.partitions_read));
                    word(u64::from(out.meta.exact));
                }
            }
        }
    }
    assert!(
        grouped_answers > 100,
        "only {grouped_answers} answers hold more than one group"
    );
    assert_eq!(fnv1a(&bytes), 1787318471019760965);
}
