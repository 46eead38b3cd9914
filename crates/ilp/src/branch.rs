//! Best-first branch & bound for 0/1 integer programs.
//!
//! One serial search over a planner's small ILP, re-solved after every
//! retrain:
//!
//! * **cold LP relaxations** — the root and every node solve their
//!   relaxation with [`solve_lp`] under the node's tightened bounds, so a
//!   node's bound depends on the model and its bounds alone;
//! * **incumbent seeding** — caller hints (known feasible assignments) are
//!   offered first, then the root relaxation is rounded
//!   ([`crate::heuristic::round_to_incumbent`]) into a feasible incumbent,
//!   so the gap test prunes from node one;
//! * **gap pruning** — a node survives only if its bound beats the
//!   incumbent by more than the relative gap, which is also the
//!   early-termination test.
//!
//! The search is deterministic: the same model, configuration and hints
//! give the same solution and the same [`SolveStats`]. Incumbent ties
//! (within `1e-12`) go to the lexicographically smaller value vector.

use crate::error::IlpError;
use crate::heuristic::round_to_incumbent;
use crate::model::{Direction, Model, Solution, SolveStatus};
use crate::simplex::solve_lp;
use crate::Result;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Branch & bound configuration.
#[derive(Debug, Clone, Copy)]
pub struct BranchConfig {
    /// Maximum number of explored nodes before giving up with the incumbent.
    pub node_limit: usize,
    /// Relative optimality gap at which a node is pruned against the
    /// incumbent (also the early-termination gap).
    pub gap: f64,
    /// Integrality tolerance.
    pub int_tol: f64,
}

impl Default for BranchConfig {
    fn default() -> Self {
        BranchConfig {
            node_limit: 20_000,
            gap: 1e-6,
            int_tol: 1e-6,
        }
    }
}

/// Counters describing one solve, surfaced up to the planner and the
/// engine's metrics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolveStats {
    /// Nodes branched on or popped and processed.
    pub nodes_explored: usize,
    /// LP relaxations solved, the root included.
    pub lp_solves: usize,
    /// Whether the rounding heuristic produced a seed incumbent.
    pub heuristic_seeded: bool,
    /// Whether the node budget ran out (the solution is the best incumbent,
    /// not a proven optimum).
    pub node_limit_hit: bool,
}

/// A completed solve: the solution plus its search counters.
#[derive(Debug, Clone)]
pub struct Solve {
    /// The optimal (or, under a nonzero gap, gap-optimal) solution.
    pub solution: Solution,
    /// Search counters.
    pub stats: SolveStats,
}

struct Node {
    /// LP bound of this node (maximize convention).
    bound: f64,
    lower: Vec<f64>,
    upper: Vec<f64>,
}

impl PartialEq for Node {
    fn eq(&self, other: &Self) -> bool {
        self.bound == other.bound
    }
}
impl Eq for Node {}
impl PartialOrd for Node {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Node {
    fn cmp(&self, other: &Self) -> Ordering {
        // best-first: larger bound explored first
        self.bound.total_cmp(&other.bound)
    }
}

struct Incumbent<'m> {
    model: &'m Model,
    sign: f64,
    gap: f64,
    /// Best value in maximize convention; −∞ when none.
    value: f64,
    solution: Option<Solution>,
}

impl Incumbent<'_> {
    /// Keeps `values` if it beats the incumbent; ties (within 1e-12) go to
    /// the lexicographically smaller value vector.
    fn offer(&mut self, values: Vec<f64>) {
        let objective = self.model.objective_value(&values);
        let value = self.sign * objective;
        let better = value > self.value + 1e-12
            || ((value - self.value).abs() <= 1e-12
                && self
                    .solution
                    .as_ref()
                    .is_none_or(|s| lexicographically_less(&values, &s.values)));
        if better {
            self.value = value;
            self.solution = Some(Solution {
                values,
                objective,
                status: SolveStatus::Optimal,
            });
        }
    }

    /// Offers an integral relaxation with its binaries rounded exactly.
    fn offer_rounded(&mut self, mut values: Vec<f64>, binaries: &[usize]) {
        for &i in binaries {
            values[i] = values[i].round();
        }
        if self.model.is_feasible(&values, 1e-6) {
            self.offer(values);
        }
    }

    /// Whether a node at `bound` can still beat the incumbent by more than
    /// the gap.
    fn improves(&self, bound: f64) -> bool {
        self.solution.is_none() || bound > self.value + self.gap * self.value.abs().max(1.0) - 1e-12
    }
}

fn lexicographically_less(a: &[f64], b: &[f64]) -> bool {
    for (x, y) in a.iter().zip(b) {
        match x.total_cmp(y) {
            Ordering::Less => return true,
            Ordering::Greater => return false,
            Ordering::Equal => {}
        }
    }
    false
}

/// Solves a model whose integer variables are all binary.
///
/// `hints` seed the incumbent with known feasible assignments (e.g. a
/// greedy answer, or the previous planning round's solution); infeasible
/// hints are ignored, and the returned objective can only improve on a
/// feasible hint. When the node budget runs out with an incumbent, the
/// incumbent is returned as a [`SolveStatus::Feasible`] solution with
/// [`SolveStats::node_limit_hit`] set; exhaustion with no incumbent is
/// [`IlpError::NodeLimit`].
pub fn solve_ilp(model: &Model, config: BranchConfig, hints: &[&[f64]]) -> Result<Solve> {
    let binaries: Vec<usize> = model.binary_vars().iter().map(|v| v.index()).collect();
    let sign = match model.direction() {
        Direction::Maximize => 1.0,
        Direction::Minimize => -1.0,
    };

    let root_lower: Vec<f64> = model.variables.iter().map(|v| v.lower).collect();
    let root_upper: Vec<f64> = model.variables.iter().map(|v| v.upper).collect();
    let root = solve_lp(model, &root_lower, &root_upper)?;
    let mut stats = SolveStats {
        lp_solves: 1,
        ..SolveStats::default()
    };

    let mut incumbent = Incumbent {
        model,
        sign,
        gap: config.gap,
        value: f64::NEG_INFINITY,
        solution: None,
    };
    for &values in hints {
        if values.len() == model.num_variables() && model.is_feasible(values, 1e-6) {
            incumbent.offer(values.to_vec());
        }
    }
    if let Some(seed) = round_to_incumbent(model, &root) {
        stats.heuristic_seeded = true;
        incumbent.offer(seed.values);
    }

    // the root is handled inline: an integral root never enters the heap
    let mut heap = BinaryHeap::new();
    let root_bound = sign * root.objective;
    match most_fractional(&binaries, &root.values, config.int_tol) {
        None => incumbent.offer_rounded(root.values, &binaries),
        Some(var) if incumbent.improves(root_bound) => {
            stats.nodes_explored += 1;
            push_children(&mut heap, var, root_bound, root_lower, root_upper);
        }
        // the seeds already meet the root bound within the gap
        Some(_) => {}
    }

    while let Some(node) = heap.pop() {
        if !incumbent.improves(node.bound) {
            continue;
        }
        stats.nodes_explored += 1;
        if stats.nodes_explored > config.node_limit {
            stats.node_limit_hit = true;
            break;
        }
        stats.lp_solves += 1;
        let relaxed = match solve_lp(model, &node.lower, &node.upper) {
            Ok(relaxed) => relaxed,
            Err(IlpError::Infeasible) => continue,
            Err(error) => return Err(error),
        };
        let bound = sign * relaxed.objective;
        if !incumbent.improves(bound) {
            continue;
        }
        match most_fractional(&binaries, &relaxed.values, config.int_tol) {
            None => incumbent.offer_rounded(relaxed.values, &binaries),
            Some(var) => push_children(&mut heap, var, bound, node.lower, node.upper),
        }
    }

    let Some(mut solution) = incumbent.solution else {
        return Err(if stats.node_limit_hit {
            IlpError::NodeLimit
        } else {
            IlpError::Infeasible
        });
    };
    if stats.node_limit_hit {
        solution.status = SolveStatus::Feasible;
    }
    Ok(Solve { solution, stats })
}

fn most_fractional(binaries: &[usize], values: &[f64], int_tol: f64) -> Option<usize> {
    binaries
        .iter()
        .copied()
        .map(|i| (i, (values[i] - values[i].round()).abs()))
        .filter(|(_, f)| *f > int_tol)
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .map(|(i, _)| i)
}

/// Queues both children of a node branched on `var`: down (`var = 0`)
/// first, then up (`var = 1`).
fn push_children(
    heap: &mut BinaryHeap<Node>,
    var: usize,
    bound: f64,
    lower: Vec<f64>,
    upper: Vec<f64>,
) {
    let mut down_upper = upper.clone();
    down_upper[var] = 0.0;
    let mut up_lower = lower.clone();
    up_lower[var] = 1.0;
    heap.push(Node {
        bound,
        lower,
        upper: down_upper,
    });
    heap.push(Node {
        bound,
        lower: up_lower,
        upper,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Model, Sense};

    fn solve(m: &Model) -> Result<Solution> {
        solve_ilp(m, BranchConfig::default(), &[]).map(|s| s.solution)
    }

    #[test]
    fn knapsack_style() {
        // max 10a + 13b + 7c s.t. 3a + 4b + 2c ≤ 6 → b + c = 20? check:
        // a+c: w 5 v 17; b+c: w 6 v 20; a+b: w 7 infeasible → optimum 20
        let mut m = Model::maximize();
        let a = m.add_binary("a", 10.0);
        let b = m.add_binary("b", 13.0);
        let c = m.add_binary("c", 7.0);
        m.add_constraint(vec![(a, 3.0), (b, 4.0), (c, 2.0)], Sense::Le, 6.0)
            .unwrap();
        let sol = solve(&m).unwrap();
        assert!((sol.objective - 20.0).abs() < 1e-6);
        assert!(sol.is_set(b) && sol.is_set(c) && !sol.is_set(a));
        assert_eq!(sol.status, SolveStatus::Optimal);
    }

    #[test]
    fn integrality_matters() {
        // LP relaxation gives 1.5; ILP must give 1
        let mut m = Model::maximize();
        let x = m.add_binary("x", 1.0);
        let y = m.add_binary("y", 1.0);
        m.add_constraint(vec![(x, 1.0), (y, 1.0)], Sense::Le, 1.5)
            .unwrap();
        let sol = solve(&m).unwrap();
        assert!((sol.objective - 1.0).abs() < 1e-6);
    }

    #[test]
    fn equality_and_linking_constraints() {
        // choose exactly 2 of 3 items; y must cover chosen sections
        let mut m = Model::maximize();
        let items: Vec<_> = (0..3)
            .map(|i| m.add_binary(format!("c{i}"), (i + 1) as f64))
            .collect();
        let section = m.add_binary("s0", -0.5); // section cost
                                                // all items live in section 0: s0 ≥ ci
        for &c in &items {
            m.add_constraint(vec![(section, 1.0), (c, -1.0)], Sense::Ge, 0.0)
                .unwrap();
        }
        let terms: Vec<_> = items.iter().map(|&c| (c, 1.0)).collect();
        m.add_constraint(terms, Sense::Eq, 2.0).unwrap();
        let sol = solve(&m).unwrap();
        // best two items: values 2 + 3 = 5, minus section 0.5 → 4.5
        assert!((sol.objective - 4.5).abs() < 1e-6);
        assert!(sol.is_set(section));
        assert!(sol.is_set(items[1]) && sol.is_set(items[2]));
    }

    #[test]
    fn minimization_direction() {
        // min x + 2y s.t. x + y ≥ 1 → x=1, y=0, obj 1
        let mut m = Model::minimize();
        let x = m.add_binary("x", 1.0);
        let y = m.add_binary("y", 2.0);
        m.add_constraint(vec![(x, 1.0), (y, 1.0)], Sense::Ge, 1.0)
            .unwrap();
        let sol = solve(&m).unwrap();
        assert!((sol.objective - 1.0).abs() < 1e-6);
        assert!(sol.is_set(x) && !sol.is_set(y));
    }

    #[test]
    fn infeasible_ilp() {
        let mut m = Model::maximize();
        let x = m.add_binary("x", 1.0);
        m.add_constraint(vec![(x, 1.0)], Sense::Ge, 2.0).unwrap();
        assert!(matches!(solve(&m), Err(IlpError::Infeasible)));
    }

    #[test]
    fn infeasible_detected_with_hints() {
        // hints can only seed an incumbent, never make an infeasible model solvable
        let mut m = Model::maximize();
        let x = m.add_binary("x", 1.0);
        m.add_constraint(vec![(x, 1.0)], Sense::Ge, 2.0).unwrap();
        let hints: [&[f64]; 2] = [&[0.0], &[1.0]];
        assert!(matches!(
            solve_ilp(&m, BranchConfig::default(), &hints),
            Err(IlpError::Infeasible)
        ));
    }

    #[test]
    fn node_limit_returns_incumbent() {
        // a model with many symmetric optima; tiny node limit
        let mut m = Model::maximize();
        let vars: Vec<_> = (0..12)
            .map(|i| m.add_binary(format!("x{i}"), 1.0))
            .collect();
        let terms: Vec<_> = vars.iter().map(|&v| (v, 1.0)).collect();
        m.add_constraint(terms, Sense::Le, 6.0).unwrap();
        match solve_ilp(
            &m,
            BranchConfig {
                node_limit: 1,
                ..Default::default()
            },
            &[],
        ) {
            Ok(solve) if solve.stats.node_limit_hit => {
                assert!(solve.solution.objective <= 6.0 + 1e-9);
            }
            // solved at root
            Ok(solve) => assert!((solve.solution.objective - 6.0).abs() < 1e-6),
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn node_limit_hit_keeps_the_seeded_incumbent() {
        // symmetric optima under a fractional cap, with a tiny node budget
        let mut m = Model::maximize();
        let vars: Vec<_> = (0..12)
            .map(|i| m.add_binary(format!("x{i}"), 1.0 + (i as f64) * 1e-7))
            .collect();
        let terms: Vec<_> = vars.iter().map(|&v| (v, 1.0)).collect();
        m.add_constraint(terms, Sense::Le, 6.5).unwrap();
        let tight = BranchConfig {
            node_limit: 1,
            ..Default::default()
        };
        // the rounding heuristic seeds six ones; the root bound 6.5 still
        // branches, and the first child exhausts the budget
        let solve = solve_ilp(&m, tight, &[]).unwrap();
        assert!(solve.stats.node_limit_hit, "{:?}", solve.stats);
        assert_eq!(solve.solution.status, SolveStatus::Feasible);
        assert!(solve.solution.objective <= 6.5 + 1e-9);
        assert!(m.is_feasible(&solve.solution.values, 1e-6));
    }

    #[test]
    fn mixed_continuous_and_binary() {
        // max 2x + y with binary x, continuous y ≤ 3.5, x + y ≤ 4
        let mut m = Model::maximize();
        let x = m.add_binary("x", 2.0);
        let y = m.add_continuous("y", 0.0, 3.5, 1.0).unwrap();
        m.add_constraint(vec![(x, 1.0), (y, 1.0)], Sense::Le, 4.0)
            .unwrap();
        let sol = solve(&m).unwrap();
        // x=1, y=3 → 5
        assert!((sol.objective - 5.0).abs() < 1e-6);
        assert!(sol.is_set(x));
        assert!((sol.value(y) - 3.0).abs() < 1e-6);
    }

    #[test]
    fn mixed_continuous_and_binary_solves_to_optimality() {
        let mut m = Model::maximize();
        let x = m.add_binary("x", 2.0);
        let y = m.add_continuous("y", 0.0, 3.5, 1.0).unwrap();
        m.add_constraint(vec![(x, 1.0), (y, 1.0)], Sense::Le, 4.0)
            .unwrap();
        let solve = solve_ilp(&m, BranchConfig::default(), &[]).unwrap();
        assert!((solve.solution.objective - 5.0).abs() < 1e-6);
        assert!(solve.solution.is_set(x));
        assert!((solve.solution.value(y) - 3.0).abs() < 1e-6);
        assert_eq!(solve.solution.status, SolveStatus::Optimal);
        assert!(!solve.stats.node_limit_hit, "{:?}", solve.stats);
    }

    #[test]
    fn hint_seeds_incumbent() {
        let mut m = Model::maximize();
        let a = m.add_binary("a", 2.0);
        let b = m.add_binary("b", 3.0);
        m.add_constraint(vec![(a, 1.0), (b, 1.0)], Sense::Le, 1.0)
            .unwrap();
        // feasible hint: take `a` (suboptimal); the search must still find `b`
        let hint = [1.0, 0.0];
        let solve = solve_ilp(&m, BranchConfig::default(), &[&hint]).unwrap();
        assert!((solve.solution.objective - 3.0).abs() < 1e-6);
    }

    #[test]
    fn infeasible_hint_is_ignored() {
        let mut m = Model::maximize();
        let a = m.add_binary("a", 2.0);
        let b = m.add_binary("b", 3.0);
        m.add_constraint(vec![(a, 1.0), (b, 1.0)], Sense::Le, 1.0)
            .unwrap();
        let bad_hint = [1.0, 1.0];
        let solve = solve_ilp(&m, BranchConfig::default(), &[&bad_hint]).unwrap();
        assert!((solve.solution.objective - 3.0).abs() < 1e-6);
    }

    #[test]
    fn stats_report_search_effort() {
        // a model that forces branching
        let mut m = Model::maximize();
        let vars: Vec<_> = (0..10)
            .map(|i| m.add_binary(format!("x{i}"), 3.0 + ((i * 5) % 7) as f64))
            .collect();
        let terms: Vec<_> = vars
            .iter()
            .enumerate()
            .map(|(i, &v)| (v, 2.0 + ((i * 3) % 5) as f64))
            .collect();
        m.add_constraint(terms, Sense::Le, 11.0).unwrap();
        let solve = solve_ilp(&m, BranchConfig::default(), &[]).unwrap();
        assert!(solve.stats.lp_solves >= 1);
        assert!(solve.stats.heuristic_seeded);
    }
}
