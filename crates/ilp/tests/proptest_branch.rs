//! Property tests for branch & bound against a brute-force reference:
//! over random Definition-9 instances (claims with costs/utilities,
//! section coverage variables, a budget, cardinality bounds), the solver's
//! objective must equal exhaustive enumeration of every 0/1 assignment,
//! the two must agree on feasibility, and hints — feasible or not — must
//! never change the optimum.

use proptest::prelude::*;
use scrutinizer_ilp::{solve_ilp, BranchConfig, IlpError, Model, Sense, VarId};

/// A random Definition-9 instance small enough to solve exactly.
#[derive(Debug, Clone)]
struct Instance {
    costs: Vec<f64>,
    utilities: Vec<f64>,
    sections: Vec<usize>,
    reads: Vec<f64>,
    budget: f64,
    batch_size: usize,
}

impl Instance {
    fn build(&self) -> (Model, Vec<VarId>) {
        let n_sections = self.reads.len();
        let mut m = Model::maximize();
        let claim_vars: Vec<_> = self
            .utilities
            .iter()
            .enumerate()
            .map(|(i, &u)| m.add_binary(format!("cs{i}"), u))
            .collect();
        let section_vars: Vec<_> = (0..n_sections)
            .map(|s| m.add_binary(format!("sr{s}"), 0.0))
            .collect();
        for (i, &cv) in claim_vars.iter().enumerate() {
            m.add_constraint(
                vec![(section_vars[self.sections[i]], 1.0), (cv, -1.0)],
                Sense::Ge,
                0.0,
            )
            .unwrap();
        }
        let mut budget_terms: Vec<_> = claim_vars
            .iter()
            .zip(&self.costs)
            .map(|(&v, &c)| (v, c))
            .collect();
        for (s, &sv) in section_vars.iter().enumerate() {
            budget_terms.push((sv, self.reads[s]));
        }
        m.add_constraint(budget_terms, Sense::Le, self.budget)
            .unwrap();
        let cardinality: Vec<_> = claim_vars.iter().map(|&v| (v, 1.0)).collect();
        m.add_constraint(cardinality.clone(), Sense::Le, self.batch_size as f64)
            .unwrap();
        m.add_constraint(cardinality, Sense::Ge, 1.0).unwrap();
        (m, claim_vars)
    }
}

fn instances() -> impl Strategy<Value = Instance> {
    (
        prop::collection::vec((5u32..80, 1u32..20, 0usize..4), 2..12),
        prop::collection::vec(5u32..60, 4),
        20u32..250,
        1usize..6,
    )
        .prop_map(|(claims, reads, budget, batch_size)| Instance {
            costs: claims.iter().map(|(c, _, _)| *c as f64).collect(),
            utilities: claims.iter().map(|(_, u, _)| *u as f64).collect(),
            sections: claims.iter().map(|(_, _, s)| *s).collect(),
            reads: reads.iter().map(|&r| r as f64).collect(),
            budget: budget as f64,
            batch_size,
        })
}

/// Exhaustive reference optimum over every 0/1 assignment, `None` when
/// no assignment is feasible. Instances hold at most 11 claims plus 4
/// sections, so at most 2^15 masks.
fn brute_force_objective(model: &Model) -> Option<f64> {
    let n = model.num_variables();
    let mut values = vec![0.0; n];
    let mut best: Option<f64> = None;
    for mask in 0u32..(1 << n) {
        for (i, value) in values.iter_mut().enumerate() {
            *value = f64::from((mask >> i) & 1);
        }
        if model.is_feasible(&values, 1e-6) {
            let objective = model.objective_value(&values);
            best = Some(best.map_or(objective, |b| b.max(objective)));
        }
    }
    best
}

/// The solver's objective under an effectively unbounded node budget,
/// `None` when infeasible.
fn solved_objective(model: &Model, hints: &[&[f64]]) -> Option<f64> {
    let unbounded = BranchConfig {
        node_limit: 1_000_000,
        ..Default::default()
    };
    match solve_ilp(model, unbounded, hints) {
        Ok(solve) => {
            assert!(
                !solve.stats.node_limit_hit,
                "budget was effectively unbounded"
            );
            assert!(model.is_feasible(&solve.solution.values, 1e-6));
            Some(solve.solution.objective)
        }
        Err(IlpError::Infeasible) => None,
        Err(error) => panic!("solver failed: {error}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn matches_brute_force(instance in instances()) {
        let (model, _) = instance.build();
        match (brute_force_objective(&model), solved_objective(&model, &[])) {
            (None, None) => {}
            (Some(b), Some(s)) => prop_assert!(
                (b - s).abs() < 1e-6,
                "brute force {b} vs branch & bound {s}"
            ),
            other => prop_assert!(false, "feasibility disagreement: {other:?}"),
        }
    }

    #[test]
    fn hints_never_change_the_optimum(instance in instances()) {
        let (model, claim_vars) = instance.build();
        let exact = brute_force_objective(&model);
        // hint: cheapest single claim plus its section (feasible whenever
        // the instance is), plus a deliberately infeasible all-ones hint
        let cheapest = (0..instance.costs.len())
            .min_by(|&a, &b| instance.costs[a].total_cmp(&instance.costs[b]))
            .unwrap();
        let mut hint = vec![0.0; model.num_variables()];
        hint[claim_vars[cheapest].index()] = 1.0;
        hint[instance.costs.len() + instance.sections[cheapest]] = 1.0;
        let all_ones = vec![1.0; model.num_variables()];
        for hints in [&[&hint[..]][..], &[&all_ones[..]], &[&hint[..], &all_ones[..]]] {
            match (exact, solved_objective(&model, hints)) {
                (None, None) => {}
                (Some(b), Some(s)) => prop_assert!(
                    (b - s).abs() < 1e-6,
                    "hinted: brute force {b} vs branch & bound {s}"
                ),
                other => prop_assert!(false, "feasibility disagreement: {other:?}"),
            }
        }
    }
}
