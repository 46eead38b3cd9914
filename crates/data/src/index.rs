//! Primary-key hash index.

use crate::hash::FxHashMap;

/// Maps primary-key strings to row positions.
///
/// The statistical-check fragment (Definition 3) only ever filters with unary
/// equality predicates on key attributes, so a point-lookup hash index is the
/// single access path the executor needs.
#[derive(Debug, Default, Clone)]
pub struct KeyIndex {
    slots: FxHashMap<String, u32>,
}

impl KeyIndex {
    /// Creates an empty index with room for `capacity` keys.
    pub fn with_capacity(capacity: usize) -> Self {
        KeyIndex {
            slots: FxHashMap::with_capacity_and_hasher(capacity, Default::default()),
        }
    }

    /// Reserves room for `additional` more keys.
    pub fn reserve(&mut self, additional: usize) {
        self.slots.reserve(additional);
    }

    /// Registers `key` at `row`. Returns `false` when the key already existed
    /// (the insert is then ignored — first writer wins, caller raises the error).
    pub fn insert(&mut self, key: &str, row: u32) -> bool {
        if self.slots.contains_key(key) {
            return false;
        }
        self.slots.insert(key.to_string(), row);
        true
    }

    /// Row position for `key`, if present.
    #[inline]
    pub fn get(&self, key: &str) -> Option<u32> {
        self.slots.get(key).copied()
    }

    /// Whether `key` is present.
    #[inline]
    pub fn contains(&self, key: &str) -> bool {
        self.slots.contains_key(key)
    }

    /// Number of indexed keys.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when no key is indexed.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Iterates over `(key, row)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, u32)> {
        self.slots.iter().map(|(k, v)| (k.as_str(), *v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_lookup() {
        let mut idx = KeyIndex::with_capacity(4);
        assert!(idx.insert("PGElecDemand", 0));
        assert!(idx.insert("PGINCoal", 1));
        assert_eq!(idx.get("PGElecDemand"), Some(0));
        assert_eq!(idx.get("PGINCoal"), Some(1));
        assert_eq!(idx.get("Missing"), None);
        assert_eq!(idx.len(), 2);
    }

    #[test]
    fn duplicate_insert_rejected_and_ignored() {
        let mut idx = KeyIndex::default();
        assert!(idx.insert("k", 0));
        assert!(!idx.insert("k", 9));
        assert_eq!(idx.get("k"), Some(0), "first writer wins");
    }
}
