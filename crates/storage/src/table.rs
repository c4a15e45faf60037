//! The [`Table`]: a schema plus equally-long columns.

use std::sync::Arc;

use crate::column::{ColumnData, Dictionary};
use crate::schema::{ColId, ColumnType, Schema};

/// An immutable columnar table.
#[derive(Debug, Clone)]
pub struct Table {
    schema: Arc<Schema>,
    columns: Vec<ColumnData>,
    num_rows: usize,
}

impl Table {
    /// Assemble a table from a schema and matching columns.
    ///
    /// # Panics
    /// Panics if the number of columns or any column length disagrees with
    /// the schema, if a column's physical representation does not match
    /// its declared type, or if a categorical column holds a code at or
    /// past its dictionary's length (the grouped kernels index group cells
    /// by code).
    pub fn new(schema: Schema, columns: Vec<ColumnData>) -> Self {
        assert_eq!(schema.len(), columns.len(), "schema/column count mismatch");
        let num_rows = columns.first().map_or(0, ColumnData::len);
        for (id, meta) in schema.iter() {
            let col = &columns[id.index()];
            assert_eq!(col.len(), num_rows, "column {} length mismatch", meta.name);
            let physical_ok = match meta.ctype {
                ColumnType::Numeric | ColumnType::Date => col.as_numeric().is_some(),
                ColumnType::Categorical => col.as_categorical().is_some(),
            };
            assert!(physical_ok, "column {} physical type mismatch", meta.name);
            if let Some((codes, dict)) = col.as_categorical() {
                assert!(
                    codes.iter().all(|&code| (code as usize) < dict.len()),
                    "column {} holds a code past its dictionary",
                    meta.name
                );
            }
        }
        Self {
            schema: Arc::new(schema),
            columns,
            num_rows,
        }
    }

    /// The table's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.num_rows
    }

    /// Data of column `id`.
    pub fn column(&self, id: ColId) -> &ColumnData {
        &self.columns[id.index()]
    }

    /// Numeric data of column `id`.
    ///
    /// # Panics
    /// Panics if the column is categorical; callers consult the schema first.
    pub fn numeric(&self, id: ColId) -> &[f64] {
        self.columns[id.index()]
            .as_numeric()
            .unwrap_or_else(|| panic!("column {} is not numeric", self.schema.col(id).name))
    }

    /// Codes + dictionary of categorical column `id`.
    ///
    /// # Panics
    /// Panics if the column is numeric.
    pub fn categorical(&self, id: ColId) -> (&[u32], &Dictionary) {
        self.columns[id.index()]
            .as_categorical()
            .unwrap_or_else(|| panic!("column {} is not categorical", self.schema.col(id).name))
    }

    /// Produce a new table whose row `i` is this table's row `perm[i]`.
    pub fn permute(&self, perm: &[usize]) -> Table {
        assert_eq!(perm.len(), self.num_rows, "permutation length mismatch");
        let columns = self.columns.iter().map(|c| c.permute(perm)).collect();
        Table {
            schema: Arc::clone(&self.schema),
            columns,
            num_rows: self.num_rows,
        }
    }
}

/// Row-oriented convenience builder, used by tests and small examples.
///
/// Dataset generators build columns directly; this builder trades speed for
/// ergonomics.
#[derive(Debug)]
pub struct TableBuilder {
    schema: Schema,
    numeric: Vec<Vec<f64>>,
    categorical: Vec<(Vec<u32>, Dictionary)>,
    /// For each schema column: (is_numeric, index into the matching vec above).
    slots: Vec<(bool, usize)>,
    rows: usize,
}

impl TableBuilder {
    /// Start building a table with the given schema.
    pub fn new(schema: Schema) -> Self {
        let mut numeric = Vec::new();
        let mut categorical = Vec::new();
        let mut slots = Vec::with_capacity(schema.len());
        for (_, meta) in schema.iter() {
            if meta.ctype.is_numeric_like() {
                slots.push((true, numeric.len()));
                numeric.push(Vec::new());
            } else {
                slots.push((false, categorical.len()));
                categorical.push((Vec::new(), Dictionary::new()));
            }
        }
        Self {
            schema,
            numeric,
            categorical,
            slots,
            rows: 0,
        }
    }

    /// Append one row given as `(numeric values in schema order, categorical
    /// strings in schema order)`.
    pub fn push_row(&mut self, numerics: &[f64], categoricals: &[&str]) {
        let (mut ni, mut ci) = (0, 0);
        for &(is_num, slot) in &self.slots {
            if is_num {
                self.numeric[slot].push(numerics[ni]);
                ni += 1;
            } else {
                let (codes, dict) = &mut self.categorical[slot];
                codes.push(dict.intern(categoricals[ci]));
                ci += 1;
            }
        }
        assert_eq!(ni, numerics.len(), "too many numeric values for row");
        assert_eq!(
            ci,
            categoricals.len(),
            "too many categorical values for row"
        );
        self.rows += 1;
    }

    /// Finish and produce the immutable [`Table`].
    pub fn finish(self) -> Table {
        let mut numeric = self.numeric.into_iter();
        let mut categorical = self.categorical.into_iter();
        let columns = self
            .slots
            .iter()
            .map(|&(is_num, _)| {
                if is_num {
                    ColumnData::Numeric(numeric.next().expect("numeric slot").into())
                } else {
                    let (codes, dict) = categorical.next().expect("categorical slot");
                    ColumnData::Categorical {
                        codes: codes.into(),
                        dict: Arc::new(dict),
                    }
                }
            })
            .collect();
        Table::new(self.schema, columns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ColumnMeta;

    fn schema() -> Schema {
        Schema::new(vec![
            ColumnMeta::new("qty", ColumnType::Numeric),
            ColumnMeta::new("flag", ColumnType::Categorical),
            ColumnMeta::new("when", ColumnType::Date),
        ])
    }

    fn sample() -> Table {
        let mut b = TableBuilder::new(schema());
        b.push_row(&[1.0, 100.0], &["A"]);
        b.push_row(&[2.0, 101.0], &["B"]);
        b.push_row(&[3.0, 102.0], &["A"]);
        b.finish()
    }

    #[test]
    #[should_panic(expected = "holds a code past its dictionary")]
    fn a_code_past_the_dictionary_is_refused() {
        let schema = Schema::new(vec![ColumnMeta::new("tag", ColumnType::Categorical)]);
        let dict = Dictionary::from_values(vec!["a".into(), "b".into()]).unwrap();
        let codes: Vec<u32> = vec![0, 1, 2];
        Table::new(
            schema,
            vec![ColumnData::Categorical {
                codes: codes.into(),
                dict: Arc::new(dict),
            }],
        );
    }

    #[test]
    fn builder_roundtrip() {
        let t = sample();
        assert_eq!(t.num_rows(), 3);
        assert_eq!(t.numeric(ColId(0)), &[1.0, 2.0, 3.0]);
        assert_eq!(t.numeric(ColId(2)), &[100.0, 101.0, 102.0]);
        let (codes, dict) = t.categorical(ColId(1));
        assert_eq!(codes, &[0, 1, 0]);
        assert_eq!(dict.value(0), "A");
    }

    #[test]
    fn permute_reorders_all_columns() {
        let t = sample().permute(&[2, 1, 0]);
        assert_eq!(t.numeric(ColId(0)), &[3.0, 2.0, 1.0]);
        let (codes, _) = t.categorical(ColId(1));
        assert_eq!(codes, &[0, 1, 0]);
        assert_eq!(t.numeric(ColId(2)), &[102.0, 101.0, 100.0]);
    }

    #[test]
    fn permute_shares_dictionary_allocation() {
        // Layout exploration permutes tables freely; a deep dictionary
        // copy per candidate layout would dominate. Assert the *same*
        // allocation rides along, not an equal one.
        let original = sample();
        let permuted = original.permute(&[2, 1, 0]);
        let dict_of = |t: &Table| match t.column(ColId(1)) {
            ColumnData::Categorical { dict, .. } => Arc::clone(dict),
            _ => unreachable!("column 1 is categorical"),
        };
        assert!(
            Arc::ptr_eq(&dict_of(&original), &dict_of(&permuted)),
            "permute must share the dictionary Arc, not deep-copy it"
        );
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_columns_rejected() {
        Table::new(
            schema(),
            vec![
                ColumnData::Numeric(vec![1.0].into()),
                ColumnData::Categorical {
                    codes: vec![0, 1].into(),
                    dict: Arc::new(Dictionary::new()),
                },
                ColumnData::Numeric(vec![1.0].into()),
            ],
        );
    }

    #[test]
    #[should_panic(expected = "is not numeric")]
    fn typed_access_checks() {
        sample().numeric(ColId(1));
    }
}
