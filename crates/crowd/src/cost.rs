//! The verification cost model (§5.1).

/// Per-action time costs in seconds.
///
/// Defaults are calibrated so the simulated user study reproduces the
/// paper's aggregates (≈7 claims manually vs ≈23 with the system per
/// 20 minutes): reading and judging a short property option takes a few
/// seconds, judging a full query a quarter minute, proposing a property
/// answer a dozen seconds, and writing a query from scratch two minutes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Cost of verifying one property answer option (`v_p`).
    pub vp: f64,
    /// Cost of verifying one full query option (`v_f`).
    pub vf: f64,
    /// Cost of suggesting a property answer (`s_p`).
    pub sp: f64,
    /// Cost of suggesting a full query (`s_f`).
    pub sf: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            vp: 4.0,
            vf: 15.0,
            sp: 12.0,
            sf: 120.0,
        }
    }
}

impl CostModel {
    /// Creates a model, checking the paper's orderings `v_p ≪ v_f` and
    /// `s_p ≪ s_f`.
    ///
    /// # Panics
    /// Panics when the orderings are violated — the planner's guarantees
    /// (Theorem 1) assume them.
    pub fn new(vp: f64, vf: f64, sp: f64, sf: f64) -> Self {
        assert!(
            vp > 0.0 && vf > 0.0 && sp > 0.0 && sf > 0.0,
            "costs must be positive"
        );
        assert!(vp < vf, "v_p must be below v_f");
        assert!(sp < sf, "s_p must be below s_f");
        CostModel { vp, vf, sp, sf }
    }

    /// Corollary 1: the option budget `n_op = s_f / v_f` that bounds
    /// overhead at factor three (together with [`CostModel::max_screens`]).
    pub fn max_options(&self) -> usize {
        (self.sf / self.vf).floor().max(1.0) as usize
    }

    /// Corollary 1: the screen budget `n_sc = s_f / (v_p + s_p)`.
    pub fn max_screens(&self) -> usize {
        (self.sf / (self.vp + self.sp)).floor().max(1.0) as usize
    }

    /// Theorem 2: expected cost of verifying an ordered option list whose
    /// `i`-th option is correct with probability `probs[i]`:
    /// `v_p · Σ_i (1 − Σ_{j<i} p_j)`.
    ///
    /// The same formula with `v_f` applies to the final (query) screen;
    /// pass the appropriate `per_option` cost.
    pub fn expected_list_cost(per_option: f64, probs: &[f32]) -> f64 {
        let mut remaining = 1.0f64; // probability none of the previous applied
        let mut total = 0.0f64;
        for &p in probs {
            total += per_option * remaining;
            remaining = (remaining - f64::from(p)).max(0.0);
        }
        total
    }

    /// Expected cost of one property screen: reading the ordered options,
    /// plus the suggestion cost weighted by the probability that no shown
    /// option is correct.
    pub fn expected_screen_cost(&self, probs: &[f32]) -> f64 {
        let shown: f64 = probs.iter().map(|&p| f64::from(p)).sum();
        Self::expected_list_cost(self.vp, probs) + self.sp * (1.0 - shown.min(1.0))
    }

    /// Expected cost of the final query screen (full query options).
    pub fn expected_final_cost(&self, probs: &[f32]) -> f64 {
        let shown: f64 = probs.iter().map(|&p| f64::from(p)).sum();
        Self::expected_list_cost(self.vf, probs) + self.sf * (1.0 - shown.min(1.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_satisfies_orderings() {
        let c = CostModel::default();
        assert!(c.vp < c.vf);
        assert!(c.sp < c.sf);
    }

    #[test]
    fn corollary1_budgets_bound_overhead_by_three() {
        let c = CostModel::default();
        // Theorem 1's worst-case overhead (nop·v_f + nsc·(v_p + s_p)) / s_f
        let (nop, nsc) = (c.max_options() as f64, c.max_screens() as f64);
        let bound = (nop * c.vf + nsc * (c.vp + c.sp)) / c.sf;
        assert!(bound <= 3.0 + 1e-9, "Corollary 1 violated: {bound}");
        // and the budgets are the stated ratios
        assert_eq!(c.max_options(), (c.sf / c.vf) as usize);
        assert_eq!(c.max_screens(), (c.sf / (c.vp + c.sp)) as usize);
    }

    #[test]
    fn expected_list_cost_theorem2() {
        // options with probs 0.5, 0.3, 0.2: cost = v·(1 + 0.5 + 0.2)
        let cost = CostModel::expected_list_cost(4.0, &[0.5, 0.3, 0.2]);
        assert!((cost - 4.0 * 1.7).abs() < 1e-6, "f32 inputs round slightly");
    }

    #[test]
    fn descending_order_minimizes_cost() {
        // Corollary 2
        let descending = CostModel::expected_list_cost(1.0, &[0.6, 0.3, 0.1]);
        let ascending = CostModel::expected_list_cost(1.0, &[0.1, 0.3, 0.6]);
        let shuffled = CostModel::expected_list_cost(1.0, &[0.3, 0.6, 0.1]);
        assert!(descending <= ascending);
        assert!(descending <= shuffled);
    }

    #[test]
    fn screen_cost_includes_suggestion_mass() {
        let c = CostModel::default();
        // all mass shown → no suggestion cost
        let full = c.expected_screen_cost(&[0.7, 0.3]);
        assert!((full - CostModel::expected_list_cost(c.vp, &[0.7, 0.3])).abs() < 1e-9);
        // half the mass shown → half a suggestion expected
        let half = c.expected_screen_cost(&[0.5]);
        assert!((half - (c.vp + 0.5 * c.sp)).abs() < 1e-9);
    }

    #[test]
    fn more_probable_options_cheaper_screens() {
        let c = CostModel::default();
        let confident = c.expected_screen_cost(&[0.95, 0.04]);
        let uncertain = c.expected_screen_cost(&[0.2, 0.15]);
        assert!(confident < uncertain);
    }

    #[test]
    #[should_panic(expected = "v_p must be below v_f")]
    fn ordering_enforced() {
        CostModel::new(20.0, 15.0, 12.0, 120.0);
    }

    #[test]
    fn empty_option_list_costs_one_suggestion() {
        let c = CostModel::default();
        assert!((c.expected_screen_cost(&[]) - c.sp).abs() < 1e-9);
        assert!((c.expected_final_cost(&[]) - c.sf).abs() < 1e-9);
    }
}
