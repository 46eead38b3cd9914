//! Dynamic-programming 0/1 knapsack.
//!
//! Theorem 7 reduces knapsack to claim selection; the converse direction is
//! useful too: when every claim sits in its own section, batch selection *is*
//! a knapsack, and this exact DP is an independent oracle for testing the
//! ILP solver. No production path calls it.

/// Solves 0/1 knapsack with integer weights: maximize Σ value over item
/// subsets with Σ weight ≤ capacity. Returns `(best_value, chosen_indices)`;
/// indices are ascending.
pub fn knapsack_01(weights: &[u64], values: &[f64], capacity: u64) -> (f64, Vec<usize>) {
    assert_eq!(
        weights.len(),
        values.len(),
        "weights/values length mismatch"
    );
    let n = weights.len();
    let cap = capacity as usize;
    // dp[w] = best value with capacity w; keep[i][w] = item i taken at w
    let mut dp = vec![0.0f64; cap + 1];
    let mut keep = vec![false; n * (cap + 1)];
    for i in 0..n {
        let wi = weights[i] as usize;
        if wi > cap {
            continue;
        }
        // descending so each item is used at most once
        for w in (wi..=cap).rev() {
            let candidate = dp[w - wi] + values[i];
            if candidate > dp[w] + 1e-12 {
                dp[w] = candidate;
                keep[i * (cap + 1) + w] = true;
            }
        }
    }
    // best capacity (dp is monotone, but be explicit)
    let mut best_w = 0;
    for w in 0..=cap {
        if dp[w] > dp[best_w] {
            best_w = w;
        }
    }
    // backtrack
    let mut chosen = Vec::new();
    let mut w = best_w;
    for i in (0..n).rev() {
        if keep[i * (cap + 1) + w] {
            chosen.push(i);
            w -= weights[i] as usize;
        }
    }
    chosen.reverse();
    (dp[best_w], chosen)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classic_instance() {
        let weights = [3, 4, 2];
        let values = [10.0, 13.0, 7.0];
        let (best, chosen) = knapsack_01(&weights, &values, 6);
        assert_eq!(best, 20.0);
        assert_eq!(chosen, vec![1, 2]);
    }

    #[test]
    fn zero_capacity() {
        let (best, chosen) = knapsack_01(&[1, 2], &[5.0, 6.0], 0);
        assert_eq!(best, 0.0);
        assert!(chosen.is_empty());
    }

    #[test]
    fn oversized_items_skipped() {
        let (best, chosen) = knapsack_01(&[100, 1], &[1000.0, 1.0], 10);
        assert_eq!(best, 1.0);
        assert_eq!(chosen, vec![1]);
    }

    #[test]
    fn all_items_fit() {
        let (best, chosen) = knapsack_01(&[1, 1, 1], &[1.0, 2.0, 3.0], 10);
        assert_eq!(best, 6.0);
        assert_eq!(chosen, vec![0, 1, 2]);
    }

    #[test]
    fn empty_instance() {
        let (best, chosen) = knapsack_01(&[], &[], 5);
        assert_eq!(best, 0.0);
        assert!(chosen.is_empty());
    }

    #[test]
    fn chosen_weight_within_capacity() {
        let weights = [5, 4, 6, 3, 7];
        let values = [10.0, 40.0, 30.0, 50.0, 35.0];
        let (best, chosen) = knapsack_01(&weights, &values, 10);
        let total_w: u64 = chosen.iter().map(|&i| weights[i]).sum();
        let total_v: f64 = chosen.iter().map(|&i| values[i]).sum();
        assert!(total_w <= 10);
        assert_eq!(total_v, best);
        assert_eq!(best, 90.0); // items 1 (w4 v40) + 3 (w3 v50)
    }
}
