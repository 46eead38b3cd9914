//! # scrutinizer-ilp
//!
//! A small exact optimization stack replacing the Gurobi dependency of the
//! paper's claim-ordering component (§5.2):
//!
//! * [`model`] — a Gurobi-like model builder: variables (continuous or
//!   binary), linear constraints, minimize/maximize objective;
//! * [`simplex`] — dense two-phase primal simplex for the LP relaxation;
//!   [`simplex::solve_lp`] is the one LP entry point;
//! * [`branch`] — the one solver: serial best-first branch & bound over
//!   the binary variables that solves every node's relaxation cold, with
//!   hint and [`heuristic`] incumbent seeding, node and gap limits, and
//!   [`SolveStats`] counters;
//! * [`heuristic`] — LP-relaxation rounding that turns the root relaxation
//!   into a feasible incumbent so the gap test prunes early;
//! * [`knapsack`] — dynamic-programming 0/1 knapsack, an independent
//!   cross-check of branch & bound on knapsack instances (Theorem 7's
//!   reduction) in tests.
//!
//! The batch-selection ILPs are small — `O(claims + sections)` variables and
//! constraints (Theorem 8) — but the mixed-initiative loop re-solves one
//! after *every* retrain over thousands of claims, so each solve must stay
//! cheap: the caller bounds it with a node budget and a gap, and seeds its
//! incumbent with a known feasible hint.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod branch;
pub mod error;
pub mod heuristic;
pub mod knapsack;
pub mod model;
pub mod simplex;

pub use branch::{solve_ilp, BranchConfig, Solve, SolveStats};
pub use error::IlpError;
pub use knapsack::knapsack_01;
pub use model::{Constraint, Model, Sense, Solution, SolveStatus, VarId, VarKind};

/// Result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, IlpError>;
