//! Cross-checks between the three solution methods: branch & bound must
//! agree with the DP knapsack and with brute-force enumeration on random
//! small instances.

use proptest::prelude::*;
use scrutinizer_ilp::{knapsack_01, solve_ilp, BranchConfig, Model, Sense};

/// Brute-force optimum of a knapsack instance.
fn brute_force(weights: &[u64], values: &[f64], capacity: u64) -> f64 {
    let n = weights.len();
    let mut best = 0.0f64;
    for mask in 0..(1u32 << n) {
        let mut w = 0u64;
        let mut v = 0.0;
        for i in 0..n {
            if mask & (1 << i) != 0 {
                w += weights[i];
                v += values[i];
            }
        }
        if w <= capacity && v > best {
            best = v;
        }
    }
    best
}

fn knapsack_as_ilp(weights: &[u64], values: &[f64], capacity: u64) -> f64 {
    let mut m = Model::maximize();
    let vars: Vec<_> = values
        .iter()
        .enumerate()
        .map(|(i, &v)| m.add_binary(format!("x{i}"), v))
        .collect();
    let terms: Vec<_> = vars
        .iter()
        .zip(weights)
        .map(|(&v, &w)| (v, w as f64))
        .collect();
    m.add_constraint(terms, Sense::Le, capacity as f64).unwrap();
    solve_ilp(&m, BranchConfig::default(), &[])
        .unwrap()
        .solution
        .objective
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn ilp_matches_brute_force_and_dp(
        items in prop::collection::vec((1u64..12, 1u64..50), 1..10),
        capacity in 1u64..40,
    ) {
        let weights: Vec<u64> = items.iter().map(|(w, _)| *w).collect();
        let values: Vec<f64> = items.iter().map(|(_, v)| *v as f64).collect();

        let exact = brute_force(&weights, &values, capacity);
        let (dp, chosen) = knapsack_01(&weights, &values, capacity);
        let ilp = knapsack_as_ilp(&weights, &values, capacity);

        prop_assert!((dp - exact).abs() < 1e-9, "DP {dp} vs brute {exact}");
        prop_assert!((ilp - exact).abs() < 1e-6, "ILP {ilp} vs brute {exact}");
        // chosen set must be feasible and achieve the DP value
        let w: u64 = chosen.iter().map(|&i| weights[i]).sum();
        let v: f64 = chosen.iter().map(|&i| values[i]).sum();
        prop_assert!(w <= capacity);
        prop_assert!((v - dp).abs() < 1e-9);
    }

    #[test]
    fn ilp_with_cardinality_constraints(
        items in prop::collection::vec((1u64..10, 1u64..30), 2..8),
        capacity in 5u64..30,
    ) {
        // add a |B| ≤ 2 cardinality bound, check vs brute force
        let weights: Vec<u64> = items.iter().map(|(w, _)| *w).collect();
        let values: Vec<f64> = items.iter().map(|(_, v)| *v as f64).collect();
        let n = weights.len();

        let mut best = 0.0f64;
        for mask in 0..(1u32 << n) {
            if mask.count_ones() > 2 { continue; }
            let mut w = 0u64;
            let mut v = 0.0;
            for i in 0..n {
                if mask & (1 << i) != 0 { w += weights[i]; v += values[i]; }
            }
            if w <= capacity && v > best { best = v; }
        }

        let mut m = Model::maximize();
        let vars: Vec<_> = values.iter().enumerate()
            .map(|(i, &v)| m.add_binary(format!("x{i}"), v)).collect();
        let weight_terms: Vec<_> =
            vars.iter().zip(&weights).map(|(&v, &w)| (v, w as f64)).collect();
        m.add_constraint(weight_terms, Sense::Le, capacity as f64).unwrap();
        let card_terms: Vec<_> = vars.iter().map(|&v| (v, 1.0)).collect();
        m.add_constraint(card_terms, Sense::Le, 2.0).unwrap();
        let sol = solve_ilp(&m, BranchConfig::default(), &[]).unwrap().solution;
        prop_assert!((sol.objective - best).abs() < 1e-6,
            "ILP {} vs brute {best}", sol.objective);
    }
}
