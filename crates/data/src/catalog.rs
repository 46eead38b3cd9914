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
}
