//! Compact table storage.
//!
//! A table keeps its primary keys in a `Vec<String>` beside the
//! [`KeyIndex`], and every attribute cell in one row-major array of 8-byte
//! words with one kind byte per cell: a float cell is its `f64` bits, an
//! int cell its `i64` bits, a null cell a zero word. The rare text cell (a
//! non-key string column built through [`Schema::new`]) keeps its string in
//! a side list ordered by cell position. So a numeric or null cell costs 9
//! bytes, and [`Table::get`] returns exactly the [`Value`] that
//! [`Table::push_row`] accepted.

use crate::error::DataError;
use crate::index::KeyIndex;
use crate::schema::{DataType, Schema};
use crate::value::Value;
use crate::Result;
use std::sync::Arc;

/// What the 8-byte word of a cell holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CellKind {
    /// Missing value; the word is zero.
    Null,
    /// The word is the `f64`'s bits.
    Float,
    /// The word is the `i64`'s bits.
    Int,
    /// The string lives in the table's text side list; the word is zero.
    Text,
}

/// A borrowed numeric view of one column, returned by
/// [`Table::numeric_view`].
///
/// Prepared-query execution and query generation read cells through it as
/// `f64` without materializing a [`Value`].
#[derive(Debug, Clone, Copy)]
pub struct NumericView<'t> {
    table: &'t Table,
    /// Attribute slot of the column; `None` for the key column.
    slot: Option<usize>,
}

impl NumericView<'_> {
    /// The cell's numeric value, `None` when the cell is not numeric or
    /// `row` is out of range.
    ///
    /// A float cell comes back as stored (a `NaN` *is* numeric and reads
    /// `Some(NaN)`), an int cell as `i as f64`: exactly [`Value::as_f64`]
    /// on the cell. Null and text cells and the key column read `None`.
    #[inline]
    pub fn get(&self, row: usize) -> Option<f64> {
        let slot = self.slot?;
        if row >= self.table.row_count() {
            return None;
        }
        let position = row * self.table.width + slot;
        let word = self.table.words[position];
        match self.table.kinds[position] {
            CellKind::Float => Some(f64::from_bits(word)),
            CellKind::Int => Some(word as i64 as f64),
            CellKind::Null | CellKind::Text => None,
        }
    }
}

/// An in-memory table with a primary-key index and row-major attribute
/// cells.
///
/// A check touches one or two rows through point lookups, so one
/// contiguous array of cells with a hash index on the key serves it; the
/// corpus crate fills whole tables row by row.
#[derive(Debug, Clone)]
pub struct Table {
    name: String,
    schema: Arc<Schema>,
    /// Number of attribute (non-key) columns: the row stride of `words`.
    width: usize,
    keys: Vec<String>,
    index: KeyIndex,
    /// Cell words, indexed by `row * width + slot`.
    words: Vec<u64>,
    /// One kind per cell, indexed like `words`.
    kinds: Vec<CellKind>,
    /// `(cell position, string)` of every text cell, in position order.
    texts: Vec<(usize, String)>,
}

impl Table {
    /// Creates an empty table. Tables of the same shape may share one
    /// schema: pass an `Arc<Schema>` clone.
    pub fn new(name: impl Into<String>, schema: impl Into<Arc<Schema>>) -> Self {
        let schema = schema.into();
        Table {
            name: name.into(),
            width: schema.arity() - 1,
            schema,
            keys: Vec::new(),
            index: KeyIndex::default(),
            words: Vec::new(),
            kinds: Vec::new(),
            texts: Vec::new(),
        }
    }

    /// Reserves room for `additional` more rows.
    pub fn reserve(&mut self, additional: usize) {
        self.keys.reserve(additional);
        self.index.reserve(additional);
        self.words.reserve(additional * self.width);
        self.kinds.reserve(additional * self.width);
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Table schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows.
    pub fn row_count(&self) -> usize {
        self.keys.len()
    }

    /// Number of attribute cells: rows times non-key columns.
    pub fn cell_count(&self) -> usize {
        self.row_count() * self.width
    }

    /// Attribute slot of schema column `col`, `None` for the key column.
    #[inline]
    fn slot(&self, col: usize) -> Option<usize> {
        let key = self.schema.key_index();
        match col.cmp(&key) {
            std::cmp::Ordering::Less => Some(col),
            std::cmp::Ordering::Equal => None,
            std::cmp::Ordering::Greater => Some(col - 1),
        }
    }

    /// The value of the cell at `row`, attribute `slot`.
    fn cell(&self, row: usize, slot: usize) -> Value {
        let position = row * self.width + slot;
        let word = self.words[position];
        match self.kinds[position] {
            CellKind::Null => Value::Null,
            CellKind::Float => Value::Float(f64::from_bits(word)),
            CellKind::Int => Value::Int(word as i64),
            CellKind::Text => {
                let at = self
                    .texts
                    .binary_search_by_key(&position, |(p, _)| *p)
                    .expect("every text cell is in the side list");
                Value::Str(self.texts[at].1.clone())
            }
        }
    }

    /// Appends a row given in schema order.
    ///
    /// Validates arity, column types, and primary-key uniqueness/non-nullness
    /// before touching storage, so a rejected row changes nothing.
    pub fn push_row(&mut self, row: Vec<Value>) -> Result<()> {
        if row.len() != self.schema.arity() {
            return Err(DataError::ArityMismatch {
                expected: self.schema.arity(),
                actual: row.len(),
            });
        }
        for (value, column) in row.iter().zip(self.schema.columns()) {
            if !column.dtype.admits(value) {
                return Err(DataError::TypeMismatch {
                    column: column.name.clone(),
                    expected: match column.dtype {
                        DataType::Int => "int",
                        DataType::Float => "float",
                        DataType::Str => "string",
                    },
                    actual: format!("{} `{}`", value.type_name(), value),
                });
            }
        }
        let key_index = self.schema.key_index();
        let key_value = &row[key_index];
        let key = key_value.as_str().ok_or_else(|| DataError::TypeMismatch {
            column: self.schema.key_name().to_string(),
            expected: "non-null string key",
            actual: key_value.type_name().to_string(),
        })?;
        let position = self.row_count() as u32;
        if !self.index.insert(key, position) {
            return Err(DataError::DuplicateKey(key.to_string()));
        }
        for (col, value) in row.into_iter().enumerate() {
            if col == key_index {
                let Value::Str(key) = value else {
                    unreachable!("the key was checked to be a string")
                };
                self.keys.push(key);
                continue;
            }
            let (kind, word) = match value {
                Value::Null => (CellKind::Null, 0),
                Value::Float(f) => (CellKind::Float, f.to_bits()),
                Value::Int(i) => (CellKind::Int, i as u64),
                Value::Str(text) => {
                    self.texts.push((self.words.len(), text));
                    (CellKind::Text, 0)
                }
            };
            self.words.push(word);
            self.kinds.push(kind);
        }
        Ok(())
    }

    /// Point lookup: value at (`key`, `attribute`).
    ///
    /// This is the `GetValue(r, k, a)` primitive of Algorithm 2. Only a
    /// string cell (the key column, or a text attribute) allocates.
    pub fn get(&self, key: &str, attribute: &str) -> Result<Value> {
        let row = self
            .index
            .get(key)
            .ok_or_else(|| DataError::UnknownKey(key.to_string()))? as usize;
        let col = self
            .schema
            .column_index(attribute)
            .ok_or_else(|| DataError::UnknownColumn {
                table: self.name.clone(),
                column: attribute.to_string(),
            })?;
        Ok(match self.slot(col) {
            Some(slot) => self.cell(row, slot),
            None => Value::Str(self.keys[row].clone()),
        })
    }

    /// Whether the table has a row with this primary key.
    pub fn contains_key(&self, key: &str) -> bool {
        self.index.contains(key)
    }

    /// Row position of `key`, if present — the numeric handle prepared
    /// queries bind instead of cloning key strings.
    #[inline]
    pub fn key_row(&self, key: &str) -> Option<u32> {
        self.index.get(key)
    }

    /// The primary-key string stored at row `row`, if in range.
    #[inline]
    pub fn key_at(&self, row: u32) -> Option<&str> {
        self.keys.get(row as usize).map(String::as_str)
    }

    /// The numeric view of column `col` (by schema position).
    ///
    /// # Panics
    /// Panics when `col` is out of range — column positions come from
    /// [`Schema::column_index`], so an out-of-range position is a
    /// programming error.
    #[inline]
    pub fn numeric_view(&self, col: usize) -> NumericView<'_> {
        assert!(col < self.schema.arity(), "column {col} out of range");
        NumericView {
            table: self,
            slot: self.slot(col),
        }
    }

    /// Whether the table has an attribute column with this name.
    pub fn has_attribute(&self, attribute: &str) -> bool {
        self.schema
            .column_index(attribute)
            .is_some_and(|i| i != self.schema.key_index())
    }

    /// All primary-key values in row order.
    pub fn keys(&self) -> impl Iterator<Item = &str> {
        self.keys.iter().map(String::as_str)
    }

    /// Materializes row `position` in schema order (clones cells).
    pub fn row(&self, position: usize) -> Option<Vec<Value>> {
        if position >= self.row_count() {
            return None;
        }
        Some(
            (0..self.schema.arity())
                .map(|col| match self.slot(col) {
                    Some(slot) => self.cell(position, slot),
                    None => Value::Str(self.keys[position].clone()),
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;

    fn ged() -> Table {
        // The Figure 1 fragment.
        let mut t = Table::new(
            "GED",
            Schema::keyed("Index", &["2016", "2017", "2030", "2040"]),
        );
        t.push_row(vec![
            "PGElecDemand".into(),
            Value::Int(21_566),
            Value::Int(22_209),
            Value::Int(29_349),
            Value::Int(35_526),
        ])
        .unwrap();
        t.push_row(vec![
            "PGINCoal".into(),
            Value::Int(2_380),
            Value::Int(2_390),
            Value::Int(2_341),
            Value::Int(2_353),
        ])
        .unwrap();
        t
    }

    #[test]
    fn point_lookup() {
        let t = ged();
        assert_eq!(t.get("PGElecDemand", "2017").unwrap(), Value::Int(22_209));
        assert_eq!(t.get("PGINCoal", "2040").unwrap(), Value::Int(2_353));
    }

    #[test]
    fn unknown_key_and_column_error() {
        let t = ged();
        assert!(matches!(
            t.get("Nope", "2017"),
            Err(DataError::UnknownKey(_))
        ));
        assert!(matches!(
            t.get("PGINCoal", "1999"),
            Err(DataError::UnknownColumn { .. })
        ));
    }

    #[test]
    fn duplicate_key_rejected_atomically() {
        let mut t = ged();
        let before = t.row_count();
        let err = t
            .push_row(vec![
                "PGElecDemand".into(),
                Value::Int(0),
                Value::Int(0),
                Value::Int(0),
                Value::Int(0),
            ])
            .unwrap_err();
        assert!(matches!(err, DataError::DuplicateKey(_)));
        assert_eq!(t.row_count(), before, "failed insert must not grow columns");
        // all columns stay aligned
        assert_eq!(t.get("PGElecDemand", "2016").unwrap(), Value::Int(21_566));
    }

    #[test]
    fn arity_and_type_checked() {
        let mut t = ged();
        assert!(matches!(
            t.push_row(vec!["X".into(), Value::Int(1)]),
            Err(DataError::ArityMismatch { .. })
        ));
        assert!(matches!(
            t.push_row(vec![
                Value::Int(7),
                Value::Int(1),
                Value::Int(1),
                Value::Int(1),
                Value::Int(1)
            ]),
            Err(DataError::TypeMismatch { .. })
        ));
    }

    #[test]
    fn null_key_rejected() {
        let mut t = ged();
        let err = t
            .push_row(vec![
                Value::Null,
                Value::Int(1),
                Value::Int(1),
                Value::Int(1),
                Value::Int(1),
            ])
            .unwrap_err();
        assert!(matches!(err, DataError::TypeMismatch { .. }));
    }

    #[test]
    fn keys_and_columns() {
        let t = ged();
        let keys: Vec<&str> = t.keys().collect();
        assert_eq!(keys, vec!["PGElecDemand", "PGINCoal"]);
        // the `2017` column holds one cell per row
        let col = t.schema().column_index("2017").unwrap();
        assert_eq!(t.get("PGINCoal", "2017").unwrap(), Value::Int(2_390));
        assert!(t.numeric_view(col).get(1).is_some());
        assert!(t.numeric_view(col).get(2).is_none());
        assert!(t.has_attribute("2030"));
        assert!(!t.has_attribute("Index"), "key column is not an attribute");
    }

    #[test]
    fn numeric_views_track_inserts() {
        let t = ged();
        let col = t.schema().column_index("2017").unwrap();
        let view = t.numeric_view(col);
        assert_eq!(view.get(0), Some(22_209.0));
        assert_eq!(view.get(1), Some(2_390.0));
        assert_eq!(view.get(2), None, "out of range");
        // the key column is strings: its numeric view reads nothing
        let key_view = t.numeric_view(t.schema().key_index());
        assert_eq!(key_view.get(0), None);
        assert_eq!(key_view.get(1), None);
    }

    #[test]
    fn key_row_and_key_at_roundtrip() {
        let t = ged();
        assert_eq!(t.key_row("PGINCoal"), Some(1));
        assert_eq!(t.key_at(1), Some("PGINCoal"));
        assert_eq!(t.key_row("Nope"), None);
        assert_eq!(t.key_at(9), None);
    }

    #[test]
    fn row_materialization() {
        let t = ged();
        let row = t.row(1).unwrap();
        assert_eq!(row[0], Value::Str("PGINCoal".into()));
        assert_eq!(row.len(), 5);
        assert!(t.row(2).is_none());
    }
}
