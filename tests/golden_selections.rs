//! Golden selections: digests of what the picker chose, recorded at commit
//! `0a075bb` (dense `Vec<Vec<f64>>` feature rows, normalised per query) and
//! asserted ever since. The feature representation underneath the picker is
//! free to change; the partitions it picks, their weights, the answers and
//! the error bars are not — a digest that moves means a selection moved.
//!
//! Each digest folds, over the first six held-out test queries × 4 methods ×
//! {0.05, 0.1, 0.5} × 3 seeds, every picked partition id and weight bit
//! pattern in selection order (plus, for answers, the sorted group values and
//! the error estimate). Tiny tables have 64 partitions; a third digest,
//! recorded when k-means became exact Lloyd at every size, covers picks that
//! cluster a whole 512-partition table. Under `PS3_STRICT_KERNELS=1` every
//! k-means here — the picks, and the TPC-H fixture's Algorithm-3 evaluation
//! during training — re-runs its scalar oracle.

use ps3::core::{Method, Ps3Config, Ps3System};
use ps3::data::{Dataset, DatasetConfig, DatasetKind, ScaleProfile};
use ps3::query::{Query, QuerySpec, SketchQuery, WeightedPart};
use ps3::storage::ColId;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

const FRACS: [f64; 3] = [0.05, 0.1, 0.5];
const SEEDS: [u64; 3] = [0, 7, 9];
const QUERIES: usize = 6;

/// FNV-1a over 64-bit words: stable across runs, platforms and toolchains.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn selection(&mut self, sel: &[WeightedPart]) {
        self.word(sel.len() as u64);
        for wp in sel {
            self.word(wp.partition.index() as u64);
            self.word(wp.weight.to_bits());
        }
    }
}

/// What one dataset's sweep digests to.
#[derive(Debug, PartialEq, Eq)]
struct Golden {
    /// `answer_seeded` over scalar specs: selections only.
    scalar_selections: u64,
    /// `answer_seeded` over sketch specs (picked as `COUNT(*)` under the
    /// predicate): selections only.
    sketch_selections: u64,
    /// `pick_outcome` (PS3 diagnostics path): selections and outlier counts.
    pick_outcomes: u64,
    /// Scalar answers: sorted group values, error estimates, exactness.
    scalar_answers: u64,
}

fn system_for(kind: DatasetKind, feature_selection: bool) -> (Dataset, Ps3System) {
    let ds = DatasetConfig::new(kind, ScaleProfile::Tiny).build(11);
    let mut cfg = Ps3Config::default().with_seed(11);
    cfg.gbdt.n_trees = 8;
    cfg.feature_selection = feature_selection;
    let system = ds.train_system(cfg);
    (ds, system)
}

/// Two sketch specs per scalar test query, sharing its predicate: a median
/// over the table's first numeric column and a distinct count over the
/// query's first used column.
fn sketch_specs(ds: &Dataset, q: &Query) -> [SketchQuery; 2] {
    let table = ds.pt.table();
    let numeric = (0..table.schema().len())
        .map(ColId)
        .find(|&c| table.column(c).as_numeric().is_some())
        .expect("a numeric column");
    let used = q.used_columns().first().copied().expect("uses a column");
    let with_pred = |s: SketchQuery| match &q.predicate {
        Some(p) => s.filtered(p.clone()),
        None => s,
    };
    [
        with_pred(SketchQuery::percentile(numeric, 0.5)),
        with_pred(SketchQuery::distinct(used)),
    ]
}

fn sweep(ds: &Dataset, system: &Ps3System) -> Golden {
    let mut scalar = Digest::new();
    let mut sketch = Digest::new();
    let mut picks = Digest::new();
    let mut answers = Digest::new();
    for qi in 0..QUERIES {
        let q = ds.sample_test_query(qi);
        for method in Method::ALL {
            for frac in FRACS {
                for seed in SEEDS {
                    let out = system.answer_seeded(&q, method, frac, seed);
                    scalar.selection(&out.selection);
                    let mut groups: Vec<_> = out.answer.groups.iter().collect();
                    groups.sort_by(|a, b| a.0.cmp(b.0));
                    for (key, vals) in groups {
                        key.0.iter().for_each(|&k| answers.word(k));
                        vals.iter().for_each(|v| answers.word(v.to_bits()));
                    }
                    for e in &out.meta.error_estimate.per_agg {
                        answers.word(e.ci_half_width.to_bits());
                        answers.word(e.rel_err.to_bits());
                    }
                    answers.word(u64::from(out.meta.exact));
                    for sq in sketch_specs(ds, &q) {
                        let spec = QuerySpec::from(sq);
                        let out = system.answer_seeded(spec, method, frac, seed);
                        sketch.selection(&out.selection);
                    }
                }
            }
        }
        for frac in FRACS {
            for seed in SEEDS {
                let mut rng = StdRng::seed_from_u64(seed);
                let out = system.pick_outcome(&q, frac, &mut rng);
                picks.selection(&out.selection);
                picks.word(out.num_outliers as u64);
                out.group_sizes.iter().for_each(|&g| picks.word(g as u64));
            }
        }
    }
    Golden {
        scalar_selections: scalar.0,
        sketch_selections: sketch.0,
        pick_outcomes: picks.0,
        scalar_answers: answers.0,
    }
}

#[test]
fn aria_tiny_selections_match_the_recorded_digests() {
    let (ds, system) = system_for(DatasetKind::Aria, false);
    assert_eq!(
        sweep(&ds, &system),
        Golden {
            scalar_selections: 321300734785528077,
            sketch_selections: 3265338269730752352,
            pick_outcomes: 12064957929946140288,
            scalar_answers: 5897716260507740098,
        }
    );
}

/// TPC-H trains with Algorithm-3 feature selection on, so the clustering
/// projection also drops the excluded feature types.
#[test]
fn tpch_tiny_selections_match_the_recorded_digests() {
    let (ds, system) = system_for(DatasetKind::TpcH, true);
    assert!(
        !system.trained.excluded.is_empty(),
        "fixture must exercise the exclusion projection"
    );
    assert_eq!(
        sweep(&ds, &system),
        Golden {
            scalar_selections: 7288504359446495617,
            sketch_selections: 3123759518039867380,
            pick_outcomes: 10466027412358259894,
            scalar_answers: 9687338974798871791,
        }
    );
}

/// The 512-partition shape `serve_concurrency.rs` builds, where a pick can
/// cluster one group holding the whole table — a size no Tiny digest sees.
#[test]
fn aria_512_partition_picks_match_the_recorded_digest() {
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
    let mut picks = Digest::new();
    let mut clustered_whole_table = false;
    // Test queries 6–9: the filter passes every partition of number 8, so
    // its one importance group is the whole table.
    for qi in 6..10 {
        let q = ds.sample_test_query(qi);
        for frac in [0.05, 0.1] {
            for seed in [0u64, 7] {
                let out = system.pick_outcome(&q, frac, &mut StdRng::seed_from_u64(seed));
                picks.selection(&out.selection);
                // A 512-row group leaves every other group empty, so a pick
                // that clustered anything clustered that group.
                clustered_whole_table |=
                    out.clustering_ms > 0.0 && out.group_sizes.iter().any(|&g| g >= 512);
            }
        }
    }
    assert!(
        clustered_whole_table,
        "no pick clustered a 512-row group: the digest misses the size it is here for"
    );
    assert_eq!(picks.0, 16594829453887537666);
}
