//! # scrutinizer-formula
//!
//! The formula language of §4.2: generic checks with variables.
//!
//! A **formula** is a SELECT-clause expression in which concrete lookups have
//! been replaced by *value variables* `a, b, c, …` and concrete attribute
//! labels by *attribute variables* `A1, A2, …`:
//!
//! ```text
//! SELECT POWER(a.2017/b.2016, 1/(2017-2016)) - 1   (concrete query)
//!        POWER(a/b, 1/(A1-A2)) - 1                 (generalized formula)
//! ```
//!
//! Formulas preserve function names, operations and constants, which makes a
//! past check reusable on unseen claims (Example 8). `A_i` denotes the
//! numeric attribute label (year) bound to value variable number `i`, so a
//! single binding of variables to lookups instantiates both.
//!
//! This crate provides the AST ([`Formula`]), a parser, **generalization**
//! from concrete queries ([`generalize()`]), **instantiation** back into
//! executable queries ([`instantiate()`]), direct evaluation against a catalog
//! ([`eval_formula`]) used by Algorithm 2's inner loop, and the
//! claim-complexity measure of Figure 6.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
pub mod complexity;
pub mod error;
pub mod eval;
pub mod generalize;
pub mod instantiate;
pub mod parser;

pub use ast::{Formula, Lookup};
pub use complexity::claim_complexity;
pub use error::FormulaError;
pub use eval::eval_formula;
pub use generalize::generalize;
pub use instantiate::instantiate;
pub use parser::parse_formula;

/// Result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, FormulaError>;
