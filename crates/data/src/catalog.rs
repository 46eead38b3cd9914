//! The corpus catalog: the set `D` of relations claims are verified against.

use crate::error::DataError;
use crate::hash::FxHashMap;
use crate::table::Table;
use crate::Result;

/// Stable numeric handle for a table inside one [`Catalog`].
///
/// Handles are positions in insertion order: once a table is added its id
/// never changes (the catalog has no removal), so prepared queries can
/// resolve a table name to a `TableId` once and index by it thereafter.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TableId(u32);

impl TableId {
    /// The handle as a dense index (insertion position).
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for TableId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// A fully resolved cell address: table handle, row position, column
/// position. This is the numeric form of a `(relation, key, attribute)`
/// lookup triple — what prepared plans bind instead of cloned strings.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CellRef {
    /// The table.
    pub table: TableId,
    /// Row position (primary-key index slot).
    pub row: u32,
    /// Column position in schema order.
    pub col: u32,
}

/// A named collection of tables.
///
/// The paper's IEA corpus has 1791 relations with nothing but table and
/// attribute names as metadata (§1.1 "Large corpus of datasets"), so the
/// catalog exposes exactly that: name lookup plus schema-level scans used by
/// the classifiers' label spaces.
#[derive(Debug, Default, Clone)]
pub struct Catalog {
    tables: Vec<Table>,
    by_name: FxHashMap<String, usize>,
}

impl Catalog {
    /// Creates an empty catalog.
    pub fn new() -> Self {
        Catalog::default()
    }

    /// Adds a table; the name must be unused.
    pub fn add(&mut self, table: Table) -> Result<()> {
        if self.by_name.contains_key(table.name()) {
            return Err(DataError::DuplicateTable(table.name().to_string()));
        }
        self.by_name
            .insert(table.name().to_string(), self.tables.len());
        self.tables.push(table);
        Ok(())
    }

    /// Table by name.
    pub fn get(&self, name: &str) -> Result<&Table> {
        self.by_name
            .get(name)
            .map(|&i| &self.tables[i])
            .ok_or_else(|| DataError::UnknownTable(name.to_string()))
    }

    /// Resolves a table name to its stable handle.
    #[inline]
    pub fn resolve(&self, name: &str) -> Option<TableId> {
        self.by_name.get(name).map(|&i| TableId(i as u32))
    }

    /// Table by handle.
    ///
    /// # Panics
    /// Panics when `id` does not come from this catalog (handles are plain
    /// positions; resolving against one catalog and indexing another is a
    /// programming error).
    #[inline]
    pub fn table(&self, id: TableId) -> &Table {
        &self.tables[id.index()]
    }

    /// Resolves a `(relation, key, attribute)` lookup triple to a cell
    /// handle, or `None` when any component is missing.
    pub fn resolve_cell(&self, relation: &str, key: &str, attribute: &str) -> Option<CellRef> {
        let table_id = self.resolve(relation)?;
        let table = self.table(table_id);
        let row = table.key_row(key)?;
        let col = table.schema().column_index(attribute)? as u32;
        Some(CellRef {
            table: table_id,
            row,
            col,
        })
    }

    /// Whether a table with this name exists.
    pub fn contains(&self, name: &str) -> bool {
        self.by_name.contains_key(name)
    }

    /// Number of tables.
    pub fn len(&self) -> usize {
        self.tables.len()
    }

    /// True when the catalog holds no tables.
    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }

    /// Iterates over all tables in insertion order.
    pub fn tables(&self) -> impl Iterator<Item = &Table> {
        self.tables.iter()
    }

    /// All table names in insertion order.
    pub fn table_names(&self) -> impl Iterator<Item = &str> {
        self.tables.iter().map(Table::name)
    }

    /// Sorted, deduplicated list of every primary-key value across the corpus.
    /// This is the label space of the row/key classifier.
    pub fn all_keys(&self) -> Vec<String> {
        let mut keys: Vec<String> = self
            .tables
            .iter()
            .flat_map(|t| t.keys().map(str::to_string))
            .collect();
        keys.sort_unstable();
        keys.dedup();
        keys
    }

    /// Sorted, deduplicated list of every attribute label across the corpus.
    /// This is the label space of the attribute classifier.
    pub fn all_attributes(&self) -> Vec<String> {
        let mut attrs: Vec<String> = self
            .tables
            .iter()
            .flat_map(|t| t.schema().attribute_names().map(str::to_string))
            .collect();
        attrs.sort_unstable();
        attrs.dedup();
        attrs
    }

    /// Tables that contain `key` as a primary-key value and have all the
    /// given attributes — the candidate relations of Algorithm 2's
    /// instantiation loop.
    pub fn tables_with(&self, key: &str, attributes: &[&str]) -> Vec<&Table> {
        self.tables
            .iter()
            .filter(|t| t.contains_key(key) && attributes.iter().all(|a| t.has_attribute(a)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::TableBuilder;

    fn sample() -> Catalog {
        let mut cat = Catalog::new();
        cat.add(
            TableBuilder::new("GED_Global", "Index", &["2016", "2017"])
                .row("PGElecDemand", &[21_566.0, 22_209.0])
                .unwrap()
                .build(),
        )
        .unwrap();
        cat.add(
            TableBuilder::new("GED_Europe", "Index", &["2016", "2017", "2030"])
                .row("PGElecDemand", &[3_300.0, 3_350.0, 3_600.0])
                .unwrap()
                .row("CapAddTotal_Wind", &[12.0, 16.0, 30.0])
                .unwrap()
                .build(),
        )
        .unwrap();
        cat
    }

    #[test]
    fn add_and_lookup() {
        let cat = sample();
        assert_eq!(cat.len(), 2);
        assert!(cat.contains("GED_Global"));
        assert!(cat.get("GED_Global").is_ok());
        assert!(matches!(cat.get("Nope"), Err(DataError::UnknownTable(_))));
    }

    #[test]
    fn duplicate_table_rejected() {
        let mut cat = sample();
        let dup = TableBuilder::new("GED_Global", "Index", &["2016"]).build();
        assert!(matches!(cat.add(dup), Err(DataError::DuplicateTable(_))));
    }

    #[test]
    fn label_spaces_are_sorted_and_deduped() {
        let cat = sample();
        assert_eq!(
            cat.all_keys(),
            vec!["CapAddTotal_Wind".to_string(), "PGElecDemand".into()]
        );
        assert_eq!(
            cat.all_attributes(),
            vec!["2016".to_string(), "2017".into(), "2030".into()]
        );
    }

    #[test]
    fn handles_are_stable_positions() {
        let cat = sample();
        let global = cat.resolve("GED_Global").unwrap();
        let europe = cat.resolve("GED_Europe").unwrap();
        assert_ne!(global, europe);
        assert_eq!(cat.table(global).name(), "GED_Global");
        assert_eq!(cat.table(europe).name(), "GED_Europe");
        assert_eq!(global.index(), 0);
        assert!(cat.resolve("Nope").is_none());
    }

    #[test]
    fn resolve_cell_finds_numeric_handles() {
        let cat = sample();
        let cell = cat
            .resolve_cell("GED_Europe", "CapAddTotal_Wind", "2030")
            .unwrap();
        assert_eq!(cell.table, cat.resolve("GED_Europe").unwrap());
        let table = cat.table(cell.table);
        assert_eq!(table.key_at(cell.row), Some("CapAddTotal_Wind"));
        assert_eq!(
            table.numeric_view(cell.col as usize).get(cell.row as usize),
            Some(30.0)
        );
        assert!(cat.resolve_cell("GED_Europe", "Nope", "2030").is_none());
        assert!(cat
            .resolve_cell("GED_Europe", "CapAddTotal_Wind", "1999")
            .is_none());
        assert!(cat
            .resolve_cell("Nope", "CapAddTotal_Wind", "2030")
            .is_none());
    }

    #[test]
    fn tables_with_filters_candidates() {
        let cat = sample();
        let both = cat.tables_with("PGElecDemand", &["2016", "2017"]);
        assert_eq!(both.len(), 2);
        let only_europe = cat.tables_with("PGElecDemand", &["2030"]);
        assert_eq!(only_europe.len(), 1);
        assert_eq!(only_europe[0].name(), "GED_Europe");
        assert!(cat.tables_with("Nothing", &[]).is_empty());
    }
}
