//! Dense two-phase primal simplex with bounded variables.
//!
//! Batch-selection LPs are small (Theorem 8: `O(claims + sections)`), so a
//! dense tableau with Bland's anti-cycling rule is fast enough and — more
//! importantly for a solver that backs a branch & bound — simple enough to
//! trust. Variable bounds are handled by shifting to `[0, u−l]` and adding
//! explicit upper-bound rows.
//!
//! [`solve_lp`] is the only entry point, and every solve is cold: branch &
//! bound passes each node's tightened bounds and the tableau is built from
//! scratch, so a node's relaxation depends on the model and its bounds
//! alone.

use crate::error::IlpError;
use crate::model::{Direction, Model, Sense};
use crate::Result;

/// Relaxed LP solution.
#[derive(Debug, Clone)]
pub struct LpSolution {
    /// One value per model variable.
    pub values: Vec<f64>,
    /// Objective under the model's direction.
    pub objective: f64,
}

const TOL: f64 = 1e-9;

/// The assembled tableau plus everything needed to run and read it.
struct Prepared {
    n: usize,
    m: usize,
    total: usize,
    tableau: Vec<Vec<f64>>,
    basis: Vec<usize>,
    artificial_cols: Vec<usize>,
    costs: Vec<f64>,
    width: Vec<f64>,
    max_iterations: usize,
}

/// Solves the LP relaxation of `model` with overridden variable bounds
/// (`lower[i]`, `upper[i]` replace the model's bounds — branch & bound
/// tightens binaries this way). Integrality is ignored.
pub fn solve_lp(model: &Model, lower: &[f64], upper: &[f64]) -> Result<LpSolution> {
    let n = model.num_variables();
    assert_eq!(lower.len(), n, "bounds arity");
    assert_eq!(upper.len(), n, "bounds arity");
    for i in 0..n {
        if lower[i] > upper[i] + TOL {
            return Err(IlpError::Infeasible);
        }
    }

    let mut prep = build_tableau(model, lower, upper);

    // ---- phase 1: minimize sum of artificials ----
    if !prep.artificial_cols.is_empty() {
        let mut phase1 = vec![0.0; prep.total];
        for &c in &prep.artificial_cols {
            phase1[c] = 1.0;
        }
        let value = run_simplex(
            &mut prep.tableau,
            &mut prep.basis,
            &phase1,
            prep.total,
            prep.max_iterations,
        )?;
        if value > 1e-6 {
            return Err(IlpError::Infeasible);
        }
        // pivot remaining artificials out of the basis where possible
        for r in 0..prep.m {
            if prep.artificial_cols.contains(&prep.basis[r]) {
                if let Some(col) = (0..prep.n + prep.m).find(|&c| prep.tableau[r][c].abs() > 1e-7) {
                    pivot(&mut prep.tableau, &mut prep.basis, r, col, prep.total);
                }
                // else: redundant row; harmless to leave (rhs ~ 0)
            }
        }
        // zero the artificial columns so phase 2 can never pivot them back in
        for row in prep.tableau.iter_mut() {
            for &c in &prep.artificial_cols {
                row[c] = 0.0;
            }
        }
    }

    // ---- phase 2: original objective ----
    let mut phase2 = vec![0.0; prep.total];
    phase2[..prep.n].copy_from_slice(&prep.costs);
    run_simplex(
        &mut prep.tableau,
        &mut prep.basis,
        &phase2,
        prep.total,
        prep.max_iterations,
    )?;

    // read off shifted values
    let mut shifted = vec![0.0; n];
    for (r, &b) in prep.basis.iter().enumerate() {
        if b < n {
            shifted[b] = prep.tableau[r][prep.total];
        }
    }
    let values: Vec<f64> = (0..n)
        .map(|i| {
            lower[i]
                + if prep.width[i] <= TOL {
                    0.0
                } else {
                    shifted[i]
                }
        })
        .collect();
    let objective = model.objective_value(&values);
    Ok(LpSolution { values, objective })
}

/// Builds the phase-1-ready tableau: shifted bounds, normalized rhs, slack
/// and artificial columns, initial (all-slack/artificial) basis.
fn build_tableau(model: &Model, lower: &[f64], upper: &[f64]) -> Prepared {
    let n = model.num_variables();
    // shifted widths; fixed variables keep width 0 and leave the tableau
    let width: Vec<f64> = (0..n).map(|i| upper[i] - lower[i]).collect();

    // objective in "minimize" convention over shifted vars
    let sign = match model.direction() {
        Direction::Minimize => 1.0,
        Direction::Maximize => -1.0,
    };
    // fixed variables (width 0) leave the tableau entirely: their column is
    // zeroed below and their objective contribution is a constant, so their
    // cost must be zeroed too or the simplex sees a phantom improving column
    let costs: Vec<f64> = model
        .variables
        .iter()
        .enumerate()
        .map(|(i, v)| {
            if width[i] <= TOL {
                0.0
            } else {
                sign * v.objective
            }
        })
        .collect();

    // rows: model constraints with rhs adjusted by lower bounds,
    // plus upper-bound rows x'_i ≤ width_i for non-fixed vars
    struct Row {
        coeffs: Vec<f64>, // length n (structural only)
        sense: Sense,
        rhs: f64,
    }
    let mut rows: Vec<Row> = Vec::with_capacity(model.num_constraints() + n);
    for c in &model.constraints {
        let mut coeffs = vec![0.0; n];
        let mut rhs = c.rhs;
        for (var, coeff) in &c.terms {
            coeffs[var.0] += *coeff;
        }
        for i in 0..n {
            rhs -= coeffs[i] * lower[i];
            if width[i] <= TOL {
                coeffs[i] = 0.0; // fixed variable contributes via rhs only
            }
        }
        rows.push(Row {
            coeffs,
            sense: c.sense,
            rhs,
        });
    }
    for i in 0..n {
        if width[i] > TOL && width[i].is_finite() {
            let mut coeffs = vec![0.0; n];
            coeffs[i] = 1.0;
            rows.push(Row {
                coeffs,
                sense: Sense::Le,
                rhs: width[i],
            });
        }
    }

    // normalize rhs ≥ 0
    for row in &mut rows {
        if row.rhs < 0.0 {
            for c in &mut row.coeffs {
                *c = -*c;
            }
            row.rhs = -row.rhs;
            row.sense = match row.sense {
                Sense::Le => Sense::Ge,
                Sense::Ge => Sense::Le,
                Sense::Eq => Sense::Eq,
            };
        }
    }

    let m = rows.len();
    // column layout: [0..n structural][n..n+m slack/surplus][artificials][rhs]
    let mut n_artificial = 0usize;
    for row in &rows {
        if !matches!(row.sense, Sense::Le) {
            n_artificial += 1;
        }
    }
    let total = n + m + n_artificial;
    let mut tableau: Vec<Vec<f64>> = Vec::with_capacity(m);
    let mut basis: Vec<usize> = Vec::with_capacity(m);
    let mut artificial_cols: Vec<usize> = Vec::with_capacity(n_artificial);
    let mut next_artificial = n + m;
    for (r, row) in rows.iter().enumerate() {
        let mut line = vec![0.0; total + 1];
        line[..n].copy_from_slice(&row.coeffs);
        line[total] = row.rhs;
        match row.sense {
            Sense::Le => {
                line[n + r] = 1.0;
                basis.push(n + r);
            }
            Sense::Ge => {
                line[n + r] = -1.0;
                line[next_artificial] = 1.0;
                basis.push(next_artificial);
                artificial_cols.push(next_artificial);
                next_artificial += 1;
            }
            Sense::Eq => {
                line[next_artificial] = 1.0;
                basis.push(next_artificial);
                artificial_cols.push(next_artificial);
                next_artificial += 1;
            }
        }
        tableau.push(line);
    }

    let max_iterations = 200 * (m + total) + 1000;

    Prepared {
        n,
        m,
        total,
        tableau,
        basis,
        artificial_cols,
        costs,
        width,
        max_iterations,
    }
}

/// Runs minimizing simplex iterations for cost vector `costs`; returns the
/// phase objective value. Bland's rule throughout (anti-cycling).
fn run_simplex(
    tableau: &mut [Vec<f64>],
    basis: &mut [usize],
    costs: &[f64],
    total: usize,
    max_iterations: usize,
) -> Result<f64> {
    let m = tableau.len();
    let mut z = compute_reduced_costs(tableau, basis, costs, total);
    for _ in 0..max_iterations {
        // Bland: smallest-index column with negative reduced cost
        let Some(entering) = (0..total).find(|&c| z[c] < -TOL) else {
            return Ok(-z[total]); // phase value (z holds −obj in rhs slot)
        };
        // ratio test, Bland tie-break on basis index
        let mut leaving: Option<(usize, f64)> = None;
        for r in 0..m {
            let a = tableau[r][entering];
            if a > TOL {
                let ratio = tableau[r][total] / a;
                let better = match leaving {
                    None => true,
                    Some((lr, lratio)) => {
                        ratio < lratio - TOL || (ratio < lratio + TOL && basis[r] < basis[lr])
                    }
                };
                if better {
                    leaving = Some((r, ratio));
                }
            }
        }
        let Some((row, _)) = leaving else {
            return Err(IlpError::Unbounded);
        };
        pivot_with_z(tableau, basis, &mut z, row, entering, total);
    }
    Err(IlpError::IterationLimit)
}

/// The reduced-cost row: `z_j = costs_j − Σ_i costs_{basis_i} · a_ij`,
/// with the (negated) phase objective in the rhs slot.
fn compute_reduced_costs(
    tableau: &[Vec<f64>],
    basis: &[usize],
    costs: &[f64],
    total: usize,
) -> Vec<f64> {
    let mut z = vec![0.0; total + 1];
    z[..total].copy_from_slice(costs);
    for (r, row) in tableau.iter().enumerate() {
        let cb = costs[basis[r]];
        if cb != 0.0 {
            for c in 0..=total {
                z[c] -= cb * row[c];
            }
        }
    }
    z
}

fn pivot_with_z(
    tableau: &mut [Vec<f64>],
    basis: &mut [usize],
    z: &mut [f64],
    row: usize,
    col: usize,
    total: usize,
) {
    pivot(tableau, basis, row, col, total);
    let factor = z[col];
    if factor != 0.0 {
        for c in 0..=total {
            z[c] -= factor * tableau[row][c];
        }
    }
}

/// Makes `col` basic in `row`: scales the row to a unit pivot and
/// eliminates `col` from every other row.
fn pivot(tableau: &mut [Vec<f64>], basis: &mut [usize], row: usize, col: usize, total: usize) {
    let pivot_value = tableau[row][col];
    debug_assert!(pivot_value.abs() > 1e-12, "zero pivot");
    for cell in tableau[row].iter_mut().take(total + 1) {
        *cell /= pivot_value;
    }
    let pivot_row = tableau[row].clone();
    for (r, line) in tableau.iter_mut().enumerate() {
        if r == row {
            continue;
        }
        let factor = line[col];
        if factor != 0.0 {
            for c in 0..=total {
                line[c] -= factor * pivot_row[c];
            }
        }
    }
    basis[row] = col;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Model;

    fn bounds(model: &Model) -> (Vec<f64>, Vec<f64>) {
        (
            model.variables.iter().map(|v| v.lower).collect(),
            model.variables.iter().map(|v| v.upper).collect(),
        )
    }

    #[test]
    fn textbook_maximization() {
        // max 3x + 5y s.t. x ≤ 4, 2y ≤ 12, 3x + 2y ≤ 18 → (2, 6), obj 36
        let mut m = Model::maximize();
        let x = m.add_continuous("x", 0.0, f64::INFINITY, 3.0).unwrap();
        let y = m.add_continuous("y", 0.0, f64::INFINITY, 5.0).unwrap();
        m.add_constraint(vec![(x, 1.0)], Sense::Le, 4.0).unwrap();
        m.add_constraint(vec![(y, 2.0)], Sense::Le, 12.0).unwrap();
        m.add_constraint(vec![(x, 3.0), (y, 2.0)], Sense::Le, 18.0)
            .unwrap();
        let (l, u) = bounds(&m);
        let sol = solve_lp(&m, &l, &u).unwrap();
        assert!((sol.objective - 36.0).abs() < 1e-6);
        assert!((sol.values[x.index()] - 2.0).abs() < 1e-6);
        assert!((sol.values[y.index()] - 6.0).abs() < 1e-6);
    }

    #[test]
    fn minimization_with_ge() {
        // min 2x + 3y s.t. x + y ≥ 10, x ≥ 2 → (8, 2)? obj: prefer x (cost 2):
        // x=10,y=0 gives 20; constraint x≥2 already holds → obj 20
        let mut m = Model::minimize();
        let x = m.add_continuous("x", 0.0, f64::INFINITY, 2.0).unwrap();
        let y = m.add_continuous("y", 0.0, f64::INFINITY, 3.0).unwrap();
        m.add_constraint(vec![(x, 1.0), (y, 1.0)], Sense::Ge, 10.0)
            .unwrap();
        m.add_constraint(vec![(x, 1.0)], Sense::Ge, 2.0).unwrap();
        let (l, u) = bounds(&m);
        let sol = solve_lp(&m, &l, &u).unwrap();
        assert!((sol.objective - 20.0).abs() < 1e-6);
        assert!((sol.values[x.index()] - 10.0).abs() < 1e-6);
    }

    #[test]
    fn equality_constraints() {
        // max x + y s.t. x + y = 5, x − y = 1 → (3, 2), obj 5
        let mut m = Model::maximize();
        let x = m.add_continuous("x", 0.0, f64::INFINITY, 1.0).unwrap();
        let y = m.add_continuous("y", 0.0, f64::INFINITY, 1.0).unwrap();
        m.add_constraint(vec![(x, 1.0), (y, 1.0)], Sense::Eq, 5.0)
            .unwrap();
        m.add_constraint(vec![(x, 1.0), (y, -1.0)], Sense::Eq, 1.0)
            .unwrap();
        let (l, u) = bounds(&m);
        let sol = solve_lp(&m, &l, &u).unwrap();
        assert!((sol.objective - 5.0).abs() < 1e-6);
        assert!((sol.values[x.index()] - 3.0).abs() < 1e-6);
        assert!((sol.values[y.index()] - 2.0).abs() < 1e-6);
    }

    #[test]
    fn infeasible_detected() {
        let mut m = Model::maximize();
        let x = m.add_continuous("x", 0.0, 1.0, 1.0).unwrap();
        m.add_constraint(vec![(x, 1.0)], Sense::Ge, 5.0).unwrap();
        let (l, u) = bounds(&m);
        assert!(matches!(solve_lp(&m, &l, &u), Err(IlpError::Infeasible)));
    }

    #[test]
    fn unbounded_detected() {
        let mut m = Model::maximize();
        let _x = m.add_continuous("x", 0.0, f64::INFINITY, 1.0).unwrap();
        let (l, u) = bounds(&m);
        assert!(matches!(solve_lp(&m, &l, &u), Err(IlpError::Unbounded)));
    }

    #[test]
    fn variable_bounds_respected() {
        // max x + y with x ∈ [1, 3], y ∈ [0, 2], x + y ≤ 4 → (3, 1) or (2, 2): obj 4... wait
        // optimum 4 tight on constraint; but y ≤ 2 and x ≤ 3; obj = 4.
        let mut m = Model::maximize();
        let x = m.add_continuous("x", 1.0, 3.0, 1.0).unwrap();
        let y = m.add_continuous("y", 0.0, 2.0, 1.0).unwrap();
        m.add_constraint(vec![(x, 1.0), (y, 1.0)], Sense::Le, 4.0)
            .unwrap();
        let (l, u) = bounds(&m);
        let sol = solve_lp(&m, &l, &u).unwrap();
        assert!((sol.objective - 4.0).abs() < 1e-6);
        assert!(sol.values[x.index()] >= 1.0 - 1e-9);
        assert!(sol.values[y.index()] <= 2.0 + 1e-9);
    }

    #[test]
    fn fixed_variables_substituted() {
        // y fixed at 2 by bounds; max x s.t. x + y ≤ 5 → x = 3
        let mut m = Model::maximize();
        let x = m.add_continuous("x", 0.0, f64::INFINITY, 1.0).unwrap();
        let y = m.add_continuous("y", 2.0, 2.0, 0.0).unwrap();
        m.add_constraint(vec![(x, 1.0), (y, 1.0)], Sense::Le, 5.0)
            .unwrap();
        let (l, u) = bounds(&m);
        let sol = solve_lp(&m, &l, &u).unwrap();
        assert!((sol.values[x.index()] - 3.0).abs() < 1e-6);
        assert!((sol.values[y.index()] - 2.0).abs() < 1e-9);
    }

    #[test]
    fn negative_lower_bounds() {
        // min x with x ∈ [−5, 5], x ≥ −3 → x = −3
        let mut m = Model::minimize();
        let x = m.add_continuous("x", -5.0, 5.0, 1.0).unwrap();
        m.add_constraint(vec![(x, 1.0)], Sense::Ge, -3.0).unwrap();
        let (l, u) = bounds(&m);
        let sol = solve_lp(&m, &l, &u).unwrap();
        assert!((sol.values[x.index()] + 3.0).abs() < 1e-6);
    }

    #[test]
    fn binary_relaxation_is_fractional() {
        // max x + y s.t. x + y ≤ 1.5 with binaries → LP optimum 1.5
        let mut m = Model::maximize();
        let x = m.add_binary("x", 1.0);
        let y = m.add_binary("y", 1.0);
        m.add_constraint(vec![(x, 1.0), (y, 1.0)], Sense::Le, 1.5)
            .unwrap();
        let (l, u) = bounds(&m);
        let sol = solve_lp(&m, &l, &u).unwrap();
        assert!((sol.objective - 1.5).abs() < 1e-6);
    }

    #[test]
    fn degenerate_lp_terminates() {
        // multiple redundant constraints through the same vertex
        let mut m = Model::maximize();
        let x = m.add_continuous("x", 0.0, f64::INFINITY, 1.0).unwrap();
        let y = m.add_continuous("y", 0.0, f64::INFINITY, 1.0).unwrap();
        for rhs in [2.0, 2.0, 2.0] {
            m.add_constraint(vec![(x, 1.0), (y, 1.0)], Sense::Le, rhs)
                .unwrap();
        }
        m.add_constraint(vec![(x, 1.0)], Sense::Le, 2.0).unwrap();
        m.add_constraint(vec![(y, 1.0)], Sense::Le, 2.0).unwrap();
        let (l, u) = bounds(&m);
        let sol = solve_lp(&m, &l, &u).unwrap();
        assert!((sol.objective - 2.0).abs() < 1e-6);
    }
}
