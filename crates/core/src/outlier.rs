//! Outlier partitions (§4.4): partitions containing a *rare distribution of
//! groups* for the query's GROUP BY columns.
//!
//! Partitions are grouped by the concatenation of their heavy-hitter
//! occurrence bitmaps over the group-by columns. A bitmap group is outlying
//! when it is small both absolutely (< 10 partitions) and relatively (< 10%
//! of the largest group) — the paper's two-sided test prevents declaring
//! everything an outlier when *all* groups are small.

use std::collections::HashMap;

use ps3_stats::TableStats;
use ps3_storage::ColId;

/// Share of a pick's budget that outlier partitions may take.
pub const OUTLIER_BUDGET_FRAC: f64 = 0.1;

/// A bitmap group is outlying only if it has fewer partitions than this …
pub const OUTLIER_ABS_LIMIT: usize = 10;

/// … and fewer than this share of the largest group's.
pub const OUTLIER_REL_LIMIT: f64 = 0.1;

/// Find outlier partitions among `candidates`, ordered so that members of
/// the *smallest* bitmap groups come first (budget caps truncate fairly). A
/// group is outlying when it is smaller than `abs_limit` and than
/// `rel_limit` × the largest group; the picker passes
/// [`OUTLIER_ABS_LIMIT`] and [`OUTLIER_REL_LIMIT`].
pub fn find_outliers(
    stats: &TableStats,
    group_by: &[ColId],
    candidates: &[usize],
    abs_limit: usize,
    rel_limit: f64,
) -> Vec<usize> {
    if group_by.is_empty() || candidates.len() < 2 {
        return Vec::new();
    }
    // Each candidate's group: an id per distinct run of bitmaps, interned
    // one column at a time from (id so far, next bitmap) — a fixed-width
    // key however many columns there are. Ids count up in order of first
    // appearance.
    let mut ids = vec![0u32; candidates.len()];
    let mut intern: HashMap<u64, u32> = HashMap::with_capacity(candidates.len());
    for &c in group_by {
        intern.clear();
        for (id, &p) in ids.iter_mut().zip(candidates) {
            let key = u64::from(*id) << 32 | u64::from(stats.bitmap(c, p));
            let fresh = u32::try_from(intern.len()).expect("fewer than 2^32 candidates");
            *id = *intern.entry(key).or_insert(fresh);
        }
    }
    let groups = intern.len();
    let (mut sizes, mut first) = (vec![0usize; groups], vec![0usize; groups]);
    for (&id, &p) in ids.iter().zip(candidates).rev() {
        sizes[id as usize] += 1;
        first[id as usize] = p;
    }
    let largest = sizes.iter().copied().max().unwrap_or(0);
    let mut outlying: Vec<usize> = (0..groups)
        .filter(|&g| sizes[g] < abs_limit && (sizes[g] as f64) < rel_limit * largest as f64)
        .collect();
    outlying.sort_by_key(|&g| (sizes[g], first[g]));
    // Each outlying group's members in candidate order, groups in that order.
    let mut next = vec![usize::MAX; groups];
    let mut total = 0;
    for &g in &outlying {
        next[g] = total;
        total += sizes[g];
    }
    let mut out = vec![0; total];
    for (&id, &p) in ids.iter().zip(candidates) {
        let slot = &mut next[id as usize];
        if *slot != usize::MAX {
            out[*slot] = p;
            *slot += 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ps3_stats::StatsConfig;
    use ps3_storage::table::TableBuilder;
    use ps3_storage::{ColumnMeta, ColumnType, PartitionedTable, Schema};

    /// 20 partitions of 100 rows. Partitions 0..18 are dominated by groups
    /// "a"/"b"; partition 19 holds the rare group "z".
    fn fixture() -> (PartitionedTable, TableStats) {
        let schema = Schema::new(vec![
            ColumnMeta::new("x", ColumnType::Numeric),
            ColumnMeta::new("g", ColumnType::Categorical),
        ]);
        let mut b = TableBuilder::new(schema);
        for p in 0..20 {
            for i in 0..100 {
                let g = if p == 19 {
                    "z"
                } else if i % 2 == 0 {
                    "a"
                } else {
                    "b"
                };
                b.push_row(&[f64::from(p * 100 + i)], &[g]);
            }
        }
        let pt = PartitionedTable::with_equal_partitions(b.finish(), 20);
        let stats = ps3_stats::TableStats::build(&pt, &StatsConfig::default());
        (pt, stats)
    }

    #[test]
    fn rare_group_partition_is_outlying() {
        let (_, stats) = fixture();
        let candidates: Vec<usize> = (0..20).collect();
        let out = find_outliers(&stats, &[ColId(1)], &candidates, 10, 0.1);
        assert_eq!(out, vec![19]);
    }

    #[test]
    fn no_group_by_means_no_outliers() {
        let (_, stats) = fixture();
        let candidates: Vec<usize> = (0..20).collect();
        assert!(find_outliers(&stats, &[], &candidates, 10, 0.1).is_empty());
    }

    #[test]
    fn relative_test_blocks_uniformly_small_groups() {
        // All partitions distinct bitmap groups of size 1: the largest group
        // is also 1, so nothing is < 10% of it.
        let (_, stats) = fixture();
        // Simulate via candidates from a single partition each: with one
        // candidate per call, the guard returns empty.
        assert!(find_outliers(&stats, &[ColId(1)], &[3], 10, 0.1).is_empty());
    }

    #[test]
    fn respects_candidate_subset() {
        let (_, stats) = fixture();
        // Partition 19 not among candidates → no outliers to find.
        let candidates: Vec<usize> = (0..19).collect();
        let out = find_outliers(&stats, &[ColId(1)], &candidates, 10, 0.1);
        assert!(out.is_empty());
    }

    /// The grouping as first written, one `Vec<u32>` key per candidate:
    /// what the interned ids must reproduce.
    fn outliers_by_vec_keys(
        stats: &TableStats,
        group_by: &[ColId],
        candidates: &[usize],
        abs_limit: usize,
        rel_limit: f64,
    ) -> Vec<usize> {
        if group_by.is_empty() || candidates.len() < 2 {
            return Vec::new();
        }
        let mut groups: HashMap<Vec<u32>, Vec<usize>> = HashMap::new();
        for &p in candidates {
            let key: Vec<u32> = group_by.iter().map(|&c| stats.bitmap(c, p)).collect();
            groups.entry(key).or_default().push(p);
        }
        let largest = groups.values().map(Vec::len).max().unwrap_or(0);
        let mut outlying: Vec<&Vec<usize>> = groups
            .values()
            .filter(|g| g.len() < abs_limit && (g.len() as f64) < rel_limit * largest as f64)
            .collect();
        outlying.sort_by_key(|g| (g.len(), g[0]));
        outlying.into_iter().flatten().copied().collect()
    }

    /// 48 partitions over three group-by columns whose values mix with
    /// different periods, so partitions share a bitmap on one or two
    /// columns and differ on the third; a few hold rare values.
    #[test]
    fn three_group_by_columns_match_vec_keys() {
        let schema = Schema::new(vec![
            ColumnMeta::new("x", ColumnType::Numeric),
            ColumnMeta::new("g1", ColumnType::Categorical),
            ColumnMeta::new("g2", ColumnType::Categorical),
            ColumnMeta::new("g3", ColumnType::Categorical),
        ]);
        let mut b = TableBuilder::new(schema);
        for p in 0..48u32 {
            for i in 0..50u32 {
                let g1 = ["a", "b", "c"][(p % 3) as usize];
                let g2 = if p % 11 == 7 {
                    "rare"
                } else {
                    ["x", "y"][(i % 2) as usize]
                };
                let g3 = match (p / 4) % 4 {
                    0 => "u",
                    1 => ["u", "v"][(i % 2) as usize],
                    2 => "w",
                    _ if p == 45 => "z",
                    _ => "v",
                };
                b.push_row(&[f64::from(p * 50 + i)], &[g1, g2, g3]);
            }
        }
        let pt = PartitionedTable::with_equal_partitions(b.finish(), 48);
        let stats = ps3_stats::TableStats::build(&pt, &StatsConfig::default());
        let every: Vec<usize> = (0..48).collect();
        let reversed: Vec<usize> = (0..48).rev().collect();
        let odd: Vec<usize> = (0..48).filter(|p| p % 2 == 1).collect();
        let cols = [ColId(1), ColId(2), ColId(3)];
        let mut found = 0;
        for candidates in [&every, &reversed, &odd] {
            for group_by in [&cols[..], &cols[1..], &[ColId(3), ColId(1), ColId(2)][..]] {
                for (abs_limit, rel_limit) in [(10, 0.1), (5, 0.5), (48, 1.0), (2, 0.9)] {
                    let got = find_outliers(&stats, group_by, candidates, abs_limit, rel_limit);
                    let want =
                        outliers_by_vec_keys(&stats, group_by, candidates, abs_limit, rel_limit);
                    assert_eq!(got, want, "{group_by:?}, limits {abs_limit}/{rel_limit}");
                    found += got.len();
                }
            }
        }
        assert!(found > 0, "the fixture is meant to have outliers");
    }

    #[test]
    fn absolute_limit_applies() {
        let (_, stats) = fixture();
        let candidates: Vec<usize> = (0..20).collect();
        // abs_limit 1 means even the size-1 rare group fails `size < 1`.
        let out = find_outliers(&stats, &[ColId(1)], &candidates, 1, 0.9);
        assert!(out.is_empty());
    }
}
