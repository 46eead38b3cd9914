//! # scrutinizer-data
//!
//! In-memory relational storage for the Scrutinizer claim-verification system.
//!
//! The paper's corpus is a set of statistics tables like the Global Energy
//! Demand table of Figure 1: a textual primary-key column (`Index`) plus tens
//! of numeric attribute columns (years such as `2017`, or aggregates such as
//! `Total`). This crate provides:
//!
//! * [`Value`] — the scalar value model (null / integer / float / string) with
//!   tolerant numeric comparison (Definition 2's admissible error rate),
//! * [`Schema`] / [`Column`] — table schemas,
//! * [`Table`] — compact storage: keys beside a hash index on them, and the
//!   attribute cells in one row-major array of 8-byte words with a kind byte
//!   per cell,
//! * [`Catalog`] — a named collection of tables (the corpus `D`),
//! * [`csv`] — plain CSV import/export used by examples and the corpus crate,
//! * [`hash`] — a vendored FxHash-style hasher for hot string/interning maps.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builder;
pub mod catalog;
pub mod csv;
pub mod error;
pub mod hash;
pub mod index;
pub mod schema;
pub mod table;
pub mod value;

pub use builder::TableBuilder;
pub use catalog::{Catalog, TableId};
pub use error::DataError;
pub use schema::{Column, DataType, Schema};
pub use table::{NumericView, Table};
pub use value::Value;

/// Result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, DataError>;
