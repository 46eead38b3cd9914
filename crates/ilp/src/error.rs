//! Error types for the optimization stack.

use std::fmt;

/// Errors produced while building or solving models.
#[derive(Debug, Clone, PartialEq)]
pub enum IlpError {
    /// The model has no feasible solution.
    Infeasible,
    /// The LP relaxation is unbounded in the optimization direction.
    Unbounded,
    /// A constraint references a variable id not in the model.
    UnknownVariable(usize),
    /// The simplex iteration limit was exceeded (numerical trouble).
    IterationLimit,
    /// Branch & bound exhausted its node budget before finding any
    /// feasible incumbent.
    NodeLimit,
    /// A bound pair is inconsistent (lower > upper).
    BadBounds {
        /// Variable index.
        var: usize,
        /// Lower bound.
        lower: f64,
        /// Upper bound.
        upper: f64,
    },
}

impl fmt::Display for IlpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IlpError::Infeasible => write!(f, "model is infeasible"),
            IlpError::Unbounded => write!(f, "model is unbounded"),
            IlpError::UnknownVariable(id) => write!(f, "unknown variable id {id}"),
            IlpError::IterationLimit => write!(f, "simplex iteration limit exceeded"),
            IlpError::NodeLimit => {
                write!(f, "branch & bound node limit reached (no incumbent)")
            }
            IlpError::BadBounds { var, lower, upper } => {
                write!(
                    f,
                    "variable {var} has inconsistent bounds [{lower}, {upper}]"
                )
            }
        }
    }
}

impl std::error::Error for IlpError {}
