//! Builds [`TableStats`]: every partition's sketch bundles, and what is
//! derived from them — the global heavy-hitter lists, the occurrence
//! bitmaps, the precomputed static feature blocks and the selectivity
//! index (`crate::index`).
//!
//! The sketches are the only statistics the artifact persists.
//! [`TableStats::from_sketches`] is the one derivation of everything else:
//! [`TableStats::build`] calls it after sketching the table, and thawing
//! (`crate::persist`) after decoding the sketches, so a thawed catalog's
//! derived values cannot disagree with its sketches. The selectivity
//! index — every column's selectivity probe inputs across all partitions,
//! laid out flat, which
//! [`SelectivityPlan::estimate_all`](crate::SelectivityPlan::estimate_all)
//! reads instead of the sketch bundles — is resident only, and
//! [`TableStats::storage_breakdown`] does not count it.
//!
//! Sketch construction is embarrassingly parallel across partitions (§3.1);
//! we fan out over the workspace's shared thread pool
//! ([`ps3_runtime::fan_out`]), which preserves partition order so parallel
//! and serial builds are identical.

use std::collections::HashMap;

use ps3_storage::{ColId, PartitionedTable};

use crate::column_stats::{ColumnStats, ColumnStatsParams};
use crate::features::{FeatureSchema, BITMAP_BITS, PER_COL, SCALARS_PER_COL};
use crate::index::SelectivityIndex;

/// Configuration for statistics construction.
#[derive(Debug, Clone, Copy, Default)]
pub struct StatsConfig {
    /// Per-column sketch parameters.
    pub column_params: ColumnStatsParams,
    /// Fan-out policy: `1` builds serially on the caller, anything else
    /// (including the 0 default) uses the shared workspace pool.
    pub threads: usize,
}

/// All summary statistics for one partitioned table.
#[derive(Debug, Clone)]
pub struct TableStats {
    /// `partitions[p][c]` = sketches of column `c` in partition `p`.
    partitions: Vec<Vec<ColumnStats>>,
    /// `global_hh[c]` = the table-wide top heavy-hitter keys of column `c`,
    /// most frequent first, at most [`BITMAP_BITS`] entries (§3.2: the paper
    /// caps the occurrence bitmap at 25 keys).
    global_hh: Vec<Vec<u64>>,
    /// `bitmaps[c][p]` = bit `i` set iff `global_hh[c][i]` is also a heavy
    /// hitter of partition `p` (§3.2 occurrence bitmap).
    bitmaps: Vec<Vec<u32>>,
    /// Precomputed per-partition feature rows (bitmaps filled for every
    /// column; selectivity slots zero until query time).
    static_features: Vec<Vec<f64>>,
    feature_schema: FeatureSchema,
    /// Derived from `partitions`: what selectivity estimation reads.
    index: SelectivityIndex,
}

impl TableStats {
    /// Build statistics for every partition of `pt`.
    pub fn build(pt: &PartitionedTable, cfg: &StatsConfig) -> Self {
        let table = pt.table();
        let schema = table.schema();

        // Fan the partitions out over the shared pool, one task per
        // partition (work stealing balances skewed partition sizes).
        let params = cfg.column_params;
        let partitions = ps3_runtime::fan_out(cfg.threads, pt.num_partitions(), |p| {
            let rows = pt.rows(ps3_storage::PartitionId(p));
            schema
                .iter()
                .map(|(id, meta)| {
                    ColumnStats::build(table.column(id), meta.ctype, rows.clone(), &params)
                })
                .collect::<Vec<_>>()
        });
        Self::from_sketches(partitions, schema.len())
            .expect("sketches built from a table fit the selectivity index")
    }

    /// Assemble a catalog from its sketch bundles (`partitions[p][c]`) and
    /// derive everything else from them: the global heavy-hitter keys, the
    /// occurrence bitmaps, the static feature rows and the selectivity
    /// index. Fails (rather than panicking later) when a partition does not
    /// hold `num_cols` columns, or the sketches do not fit the index: a
    /// column with a histogram in only some partitions, a categorical key
    /// wider than a dictionary code, or an exact dictionary of more than
    /// `u32::MAX` rows.
    pub fn from_sketches(
        partitions: Vec<Vec<ColumnStats>>,
        num_cols: usize,
    ) -> Result<Self, &'static str> {
        if partitions.iter().any(|p| p.len() != num_cols) {
            return Err("stats partition column count disagrees with schema");
        }
        let index = SelectivityIndex::new(&partitions, num_cols)?;

        // Global heavy hitters per column: merge the per-partition lists,
        // weighting frequencies by partition row counts (§3.2).
        let mut global_hh = Vec::with_capacity(num_cols);
        for c in 0..num_cols {
            let mut mass: HashMap<u64, f64> = HashMap::new();
            for part in &partitions {
                let stats = &part[c];
                for h in &stats.heavy_hitters {
                    *mass.entry(h.key).or_insert(0.0) += h.frequency * stats.rows as f64;
                }
            }
            let mut ranked: Vec<(u64, f64)> = mass.into_iter().collect();
            ranked.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
            ranked.truncate(BITMAP_BITS);
            global_hh.push(ranked.into_iter().map(|(k, _)| k).collect::<Vec<u64>>());
        }

        // Occurrence bitmaps.
        let mut bitmaps = Vec::with_capacity(num_cols);
        for (c, hh_keys) in global_hh.iter().enumerate() {
            let col_bitmaps: Vec<u32> = partitions
                .iter()
                .map(|part| {
                    let mut bits = 0u32;
                    for (i, &key) in hh_keys.iter().enumerate() {
                        if part[c].is_heavy_hitter(key) {
                            bits |= 1 << i;
                        }
                    }
                    bits
                })
                .collect();
            bitmaps.push(col_bitmaps);
        }

        let feature_schema = FeatureSchema::new(num_cols);
        let static_features = (0..partitions.len())
            .map(|p| static_row(&partitions[p], &bitmaps, p, &feature_schema))
            .collect();

        Ok(Self {
            partitions,
            global_hh,
            bitmaps,
            static_features,
            feature_schema,
            index,
        })
    }

    /// Number of partitions.
    pub fn num_partitions(&self) -> usize {
        self.partitions.len()
    }

    /// The sketch bundles of partition `p`, indexed by column.
    pub fn partition(&self, p: usize) -> &[ColumnStats] {
        &self.partitions[p]
    }

    /// Sketches of `(partition, column)`.
    pub fn column(&self, p: usize, c: ColId) -> &ColumnStats {
        &self.partitions[p][c.index()]
    }

    /// Global heavy-hitter keys of column `c`.
    pub fn global_heavy_hitters(&self, c: ColId) -> &[u64] {
        &self.global_hh[c.index()]
    }

    /// Occurrence bitmap of partition `p` for column `c`.
    pub fn bitmap(&self, c: ColId, p: usize) -> u32 {
        self.bitmaps[c.index()][p]
    }

    /// Precomputed static feature rows (selectivity slots zeroed).
    pub fn static_features(&self) -> &[Vec<f64>] {
        &self.static_features
    }

    /// The feature layout.
    pub fn feature_schema(&self) -> &FeatureSchema {
        &self.feature_schema
    }

    /// What selectivity estimation reads (see the module docs).
    pub(crate) fn selectivity_index(&self) -> &SelectivityIndex {
        &self.index
    }

    /// Heap bytes of the selectivity index: resident alongside the
    /// sketches, and counted by neither [`Self::storage_breakdown`] nor the
    /// artifact.
    pub fn selectivity_index_bytes(&self) -> usize {
        self.index.heap_bytes()
    }

    /// Average per-partition storage cost, in KB by sketch family (Table 4).
    /// The exact small-domain dictionary is accounted under `histogram`,
    /// where the paper's special case lives.
    pub fn storage_breakdown(&self) -> StorageBreakdown {
        let mut acc = StorageBreakdown::default();
        for part in &self.partitions {
            for col in part {
                let (m, h, a, hh, e) = col.storage_bytes();
                acc.measures_kb += m as f64;
                acc.histogram_kb += (h + e) as f64;
                acc.akmv_kb += a as f64;
                acc.hh_kb += hh as f64;
            }
        }
        let n = self.partitions.len().max(1) as f64 * 1024.0;
        acc.measures_kb /= n;
        acc.histogram_kb /= n;
        acc.akmv_kb /= n;
        acc.hh_kb /= n;
        acc
    }
}

/// Average per-partition statistics footprint in KB (Table 4): the sketch
/// payload fields of every column, which is all the artifact's statistics
/// section holds per partition. The encoded section adds about 1% of flags
/// and length prefixes (`tests/artifact_corruption.rs` holds the two
/// within 2%).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StorageBreakdown {
    /// Histogram + exact-dictionary bytes.
    pub histogram_kb: f64,
    /// Heavy-hitter dictionary bytes.
    pub hh_kb: f64,
    /// AKMV bytes.
    pub akmv_kb: f64,
    /// Measures bytes.
    pub measures_kb: f64,
}

impl StorageBreakdown {
    /// Total KB per partition.
    pub fn total_kb(&self) -> f64 {
        self.histogram_kb + self.hh_kb + self.akmv_kb + self.measures_kb
    }
}

/// Assemble the static feature block of one partition.
fn static_row(
    cols: &[ColumnStats],
    bitmaps: &[Vec<u32>],
    p: usize,
    schema: &FeatureSchema,
) -> Vec<f64> {
    let mut row = vec![0.0; schema.dim()];
    for (c, stats) in cols.iter().enumerate() {
        let off = c * PER_COL;
        if let Some(m) = &stats.measures {
            row[off] = m.mean();
            row[off + 1] = m.min();
            row[off + 2] = m.max();
            row[off + 3] = m.second_moment();
            row[off + 4] = m.std();
            if let Some((lm, lm2, lmin, lmax)) = m.log_stats() {
                row[off + 5] = lm;
                row[off + 6] = lm2;
                row[off + 7] = lmin;
                row[off + 8] = lmax;
            }
        }
        row[off + 9] = stats.akmv.distinct_estimate();
        if let Some(f) = stats.akmv.freq_stats() {
            row[off + 10] = f.avg;
            row[off + 11] = f.max;
            row[off + 12] = f.min;
            row[off + 13] = f.sum;
        }
        row[off + 14] = stats.heavy_hitters.len() as f64;
        if !stats.heavy_hitters.is_empty() {
            let sum: f64 = stats.heavy_hitters.iter().map(|h| h.frequency).sum();
            row[off + 15] = sum / stats.heavy_hitters.len() as f64;
            row[off + 16] = stats
                .heavy_hitters
                .iter()
                .map(|h| h.frequency)
                .fold(0.0, f64::max);
        }
        let bits = bitmaps[c][p];
        for b in 0..BITMAP_BITS {
            row[off + SCALARS_PER_COL + b] = f64::from((bits >> b) & 1);
        }
    }
    row
}

#[cfg(test)]
mod tests {
    use super::*;
    use ps3_storage::table::TableBuilder;
    use ps3_storage::{ColumnMeta, ColumnType, PartitionedTable, Schema};

    fn make() -> PartitionedTable {
        let schema = Schema::new(vec![
            ColumnMeta::new("x", ColumnType::Numeric),
            ColumnMeta::new("tag", ColumnType::Categorical),
        ]);
        let mut b = TableBuilder::new(schema);
        for i in 0..400 {
            // tag "hot" dominates the first half of rows only.
            let tag = if i < 200 {
                "hot"
            } else {
                ["a", "b", "c", "d"][i % 4]
            };
            b.push_row(&[f64::from(i as u32)], &[tag]);
        }
        PartitionedTable::with_equal_partitions(b.finish(), 4)
    }

    #[test]
    fn builds_all_partitions_and_columns() {
        let stats = TableStats::build(&make(), &StatsConfig::default());
        assert_eq!(stats.num_partitions(), 4);
        assert_eq!(stats.partition(0).len(), 2);
        // Partition 0 holds x in 0..100.
        let m = stats.column(0, ColId(0)).measures.as_ref().unwrap();
        assert_eq!(m.min(), 0.0);
        assert_eq!(m.max(), 99.0);
    }

    #[test]
    fn parallel_and_serial_builds_agree() {
        let pt = make();
        let serial = TableStats::build(
            &pt,
            &StatsConfig {
                threads: 1,
                ..Default::default()
            },
        );
        let parallel = TableStats::build(
            &pt,
            &StatsConfig {
                threads: 4,
                ..Default::default()
            },
        );
        assert_eq!(serial.static_features(), parallel.static_features());
        assert_eq!(serial.global_hh, parallel.global_hh);
    }

    #[test]
    fn global_heavy_hitters_ranked_by_mass() {
        let pt = make();
        let stats = TableStats::build(&pt, &StatsConfig::default());
        let (_, dict) = pt.table().categorical(ColId(1));
        let hot = u64::from(dict.code("hot").unwrap());
        // "hot" holds 50% of all rows — must rank first globally.
        assert_eq!(stats.global_heavy_hitters(ColId(1))[0], hot);
    }

    #[test]
    fn bitmaps_reflect_local_presence() {
        let pt = make();
        let stats = TableStats::build(&pt, &StatsConfig::default());
        let hh = stats.global_heavy_hitters(ColId(1));
        let (_, dict) = pt.table().categorical(ColId(1));
        let hot_bit = hh
            .iter()
            .position(|&k| k == u64::from(dict.code("hot").unwrap()))
            .unwrap();
        // "hot" is local-heavy in partitions 0,1 (rows 0..200) and absent
        // from partitions 2,3.
        assert_ne!(stats.bitmap(ColId(1), 0) & (1 << hot_bit), 0);
        assert_ne!(stats.bitmap(ColId(1), 1) & (1 << hot_bit), 0);
        assert_eq!(stats.bitmap(ColId(1), 2) & (1 << hot_bit), 0);
        assert_eq!(stats.bitmap(ColId(1), 3) & (1 << hot_bit), 0);
    }

    #[test]
    fn static_rows_have_expected_shape() {
        let stats = TableStats::build(&make(), &StatsConfig::default());
        let schema = stats.feature_schema();
        for row in stats.static_features() {
            assert_eq!(row.len(), schema.dim());
            // Selectivity slots stay zero until query time.
            let off = schema.selectivity_offset();
            assert_eq!(&row[off..off + 4], &[0.0; 4]);
        }
        // Column x's mean feature differs across partitions (sorted layout).
        let mean0 = stats.static_features()[0][0];
        let mean3 = stats.static_features()[3][0];
        assert!(mean3 > mean0);
    }

    #[test]
    fn storage_breakdown_is_positive() {
        let stats = TableStats::build(&make(), &StatsConfig::default());
        let b = stats.storage_breakdown();
        assert!(b.total_kb() > 0.0);
        assert!(b.akmv_kb > 0.0);
        assert!(b.measures_kb > 0.0);
        assert!(b.hh_kb > 0.0);
        assert!(b.histogram_kb > 0.0);
        // Well under the paper's ≤103KB/partition figure at this scale.
        assert!(b.total_kb() < 200.0);
    }
}
