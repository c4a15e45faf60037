//! Data layouts: the row order a dataset was ingested in.
//!
//! PS3 is explicitly *layout agnostic* (§2.1) — it never re-partitions data —
//! but the evaluation studies how performance varies with the layout
//! (§5.5.1): sorted by one or more columns, or fully random. This module
//! materializes those layouts by permuting a table's rows; partition
//! boundaries stay fixed.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::schema::ColId;
use crate::table::Table;

/// A row ordering for a table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Layout {
    /// Keep rows exactly as generated/ingested.
    Ingest,
    /// Stable sort by the given columns, most significant first
    /// (e.g. TPC-DS* sorted by `(year, month, day)`).
    SortedBy(Vec<ColId>),
    /// Uniform random shuffle with a fixed seed.
    Random { seed: u64 },
}

impl Layout {
    /// Sorted-by-one-column convenience.
    pub fn sorted(col: ColId) -> Self {
        Layout::SortedBy(vec![col])
    }

    /// Apply the layout, returning a re-ordered copy of the table.
    pub fn apply(&self, table: &Table) -> Table {
        match self {
            Layout::Ingest => table.clone(),
            Layout::SortedBy(cols) => {
                assert!(!cols.is_empty(), "SortedBy needs at least one column");
                let mut perm: Vec<usize> = (0..table.num_rows()).collect();
                // Least significant column first, each pass a stable sort on
                // the column's keys: a pass keeps the order of the passes
                // before it among its ties, so rows end up ordered by the
                // columns, most significant first, and ties keep ingest
                // order, matching how a bulk load into a sorted store
                // behaves.
                for &c in cols.iter().rev() {
                    let keys = table.column(c).sort_keys();
                    perm.sort_by_key(|&row| keys[row]);
                }
                table.permute(&perm)
            }
            Layout::Random { seed } => {
                let mut perm: Vec<usize> = (0..table.num_rows()).collect();
                perm.shuffle(&mut StdRng::seed_from_u64(*seed));
                table.permute(&perm)
            }
        }
    }

    /// A short human-readable label for reports.
    pub fn label(&self, table: &Table) -> String {
        match self {
            Layout::Ingest => "ingest".to_owned(),
            Layout::SortedBy(cols) => {
                let names: Vec<&str> = cols
                    .iter()
                    .map(|&c| table.schema().col(c).name.as_str())
                    .collect();
                format!("sorted:{}", names.join(","))
            }
            Layout::Random { seed } => format!("random:{seed}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ColumnMeta, ColumnType, Schema};
    use crate::table::TableBuilder;

    fn sample() -> Table {
        let schema = Schema::new(vec![
            ColumnMeta::new("x", ColumnType::Numeric),
            ColumnMeta::new("tag", ColumnType::Categorical),
        ]);
        let mut b = TableBuilder::new(schema);
        b.push_row(&[3.0], &["b"]);
        b.push_row(&[1.0], &["a"]);
        b.push_row(&[2.0], &["b"]);
        b.push_row(&[1.0], &["c"]);
        b.finish()
    }

    #[test]
    fn sorted_by_numeric() {
        let t = Layout::sorted(ColId(0)).apply(&sample());
        assert_eq!(t.numeric(ColId(0)), &[1.0, 1.0, 2.0, 3.0]);
        // Stability: the two x=1 rows keep ingest order (tags "a" then "c").
        let (codes, dict) = t.categorical(ColId(1));
        assert_eq!(dict.value(codes[0]), "a");
        assert_eq!(dict.value(codes[1]), "c");
    }

    #[test]
    fn sorted_by_categorical_then_numeric() {
        let t = Layout::SortedBy(vec![ColId(1), ColId(0)]).apply(&sample());
        let (codes, dict) = t.categorical(ColId(1));
        let tags: Vec<&str> = codes.iter().map(|&c| dict.value(c)).collect();
        assert_eq!(tags, vec!["a", "b", "b", "c"]);
        assert_eq!(t.numeric(ColId(0)), &[1.0, 2.0, 3.0, 1.0]);
    }

    #[test]
    fn random_is_seeded_and_a_permutation() {
        let a = Layout::Random { seed: 9 }.apply(&sample());
        let b = Layout::Random { seed: 9 }.apply(&sample());
        assert_eq!(a.numeric(ColId(0)), b.numeric(ColId(0)));
        let mut vals = a.numeric(ColId(0)).to_vec();
        vals.sort_by(f64::total_cmp);
        assert_eq!(vals, vec![1.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn ingest_is_identity() {
        let t = Layout::Ingest.apply(&sample());
        assert_eq!(t.numeric(ColId(0)), sample().numeric(ColId(0)));
    }

    #[test]
    fn labels() {
        let t = sample();
        assert_eq!(Layout::Ingest.label(&t), "ingest");
        assert_eq!(Layout::sorted(ColId(1)).label(&t), "sorted:tag");
        assert_eq!(Layout::Random { seed: 3 }.label(&t), "random:3");
    }
}
