//! # Scrutinizer
//!
//! A mixed-initiative, data-driven claim verification system — a from-scratch
//! Rust reproduction of *"Scrutinizer: A Mixed-Initiative Approach to
//! Large-Scale, Data-Driven Claim Verification"* (VLDB 2020).
//!
//! Scrutinizer helps teams of fact checkers verify statistical claims in text
//! documents against a corpus of relational tables. It translates claims into
//! SQL queries using four text classifiers (relation, row key, attribute,
//! formula), generates candidate queries by instantiating learned formulas
//! (Algorithm 2), and plans the interaction with the crowd using cost-based
//! optimization: greedy sub-modular question selection per claim (Theorems
//! 3–5) and ILP-based claim-batch ordering across a report (Definition 9).
//!
//! This facade crate re-exports all subsystems; see the README for a tour and
//! `examples/quickstart.rs` for a five-minute introduction.
//!
//! ```
//! use scrutinizer::data::TableBuilder;
//! use scrutinizer::query::run_sql;
//!
//! let mut catalog = scrutinizer::data::Catalog::new();
//! catalog
//!     .add(
//!         TableBuilder::new("GED", "Index", &["2016", "2017"])
//!             .row("PGElecDemand", &[21_566.0, 22_209.0])
//!             .unwrap()
//!             .build(),
//!     )
//!     .unwrap();
//! let value = run_sql(
//!     &catalog,
//!     "SELECT POWER(a.2017 / b.2016, 1 / (2017 - 2016)) - 1 \
//!      FROM GED a, GED b \
//!      WHERE a.Index = 'PGElecDemand' AND b.Index = 'PGElecDemand'",
//! )
//! .unwrap();
//! // global electricity demand grew by 3% in 2017
//! assert!((value.as_f64().unwrap() - 0.0298).abs() < 1e-3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// The Scrutinizer system itself: translation, query generation, question
/// planning, claim ordering, the main verification loop, and simulators.
pub use scrutinizer_core as core;
/// Synthetic IEA-style corpus generator.
pub use scrutinizer_corpus as corpus;
/// Simulated crowd of domain experts and the verification cost model.
pub use scrutinizer_crowd as crowd;
/// Relational storage: values, tables, catalog, CSV.
pub use scrutinizer_data as data;
/// The serving layer: a long-lived concurrent engine hosting many checker
/// sessions over shared models, with concurrent batch verification, a background trainer, metrics, durability (WAL records + crash recovery), and the
/// `scrutinizer-serve` TCP binary.
pub use scrutinizer_engine as engine;
/// Formula language: generalization and instantiation of checks.
pub use scrutinizer_formula as formula;
/// ILP solver (simplex + branch & bound) used for claim-batch selection.
pub use scrutinizer_ilp as ilp;
/// Classifiers and active learning.
pub use scrutinizer_learn as learn;
/// Observability substrate: structured tracing (spans + flight recorder),
/// the unified metrics registry with Prometheus exposition, and the
/// structured stderr logger used by `scrutinizer-serve`.
pub use scrutinizer_obs as obs;
/// The statistical-check SQL fragment: parser, functions, executor.
pub use scrutinizer_query as query;
/// Claim preprocessing: tokenization, TF-IDF, embeddings, parameter extraction.
pub use scrutinizer_text as text;
/// The append-only checksummed write-ahead log the engine's durability
/// layer builds on: rotating segments, group commit, epoch checkpoints.
pub use scrutinizer_wal as wal;
