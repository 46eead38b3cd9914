//! Verification screens (§5.1).
//!
//! Each screen shows ranked answer options for one query property; the final
//! screen shows full candidate queries with their values (Figure 3). Options
//! are ordered by descending probability — Corollary 2 proves this order
//! minimizes expected verification cost.

use crate::models::PropertyKind;
use crate::qgen::QueryCandidate;

/// One property screen.
#[derive(Debug, Clone)]
pub struct Screen {
    /// Property this screen verifies.
    pub kind: PropertyKind,
    /// `(label, probability)` options, probability-descending, truncated to
    /// the option budget.
    pub options: Vec<(String, f32)>,
}

impl Screen {
    /// Builds a screen from classifier candidates (already ranked).
    pub fn new(kind: PropertyKind, mut options: Vec<(String, f32)>, budget: usize) -> Self {
        debug_assert!(
            options.windows(2).all(|w| w[0].1 >= w[1].1),
            "options must arrive probability-descending (Corollary 2)"
        );
        options.truncate(budget);
        Screen { kind, options }
    }

    /// Probabilities of the shown options (input to Theorem 2's cost).
    pub fn probabilities(&self) -> Vec<f32> {
        self.options.iter().map(|(_, p)| *p).collect()
    }

    /// Option labels only.
    pub fn labels(&self) -> Vec<String> {
        self.options.iter().map(|(l, _)| l.clone()).collect()
    }
}

/// The final screen: candidate queries with their evaluated results.
#[derive(Debug, Clone)]
pub struct FinalScreen {
    /// Candidates shown, best first.
    pub candidates: Vec<QueryCandidate>,
    /// Probability estimate per candidate (from the formula classifier,
    /// renormalized over the shown set).
    pub probabilities: Vec<f32>,
}

impl FinalScreen {
    /// Builds the final screen from generated queries and the formula
    /// classifier's distribution.
    pub fn new(
        candidates: Vec<QueryCandidate>,
        formula_probabilities: &[(String, f32)],
        budget: usize,
    ) -> Self {
        let (candidates, probabilities) = pick_shown(
            candidates,
            |c| c.matches_parameter,
            |c| formula_probability(formula_probabilities, &c.formula_text),
            budget,
        );
        FinalScreen {
            candidates,
            probabilities,
        }
    }

    /// Rendered rows "SQL → value" exactly as checkers see them (Figure 3).
    pub fn rendered(candidates: &[QueryCandidate]) -> Vec<String> {
        candidates
            .iter()
            .map(|c| format!("{} \u{2192} {:.4}", c.stmt, c.value))
            .collect()
    }
}

/// The classifier's probability of the formula `text`, or 0 when it is
/// not among `formula_probabilities`.
pub(crate) fn formula_probability(formula_probabilities: &[(String, f32)], text: &str) -> f32 {
    formula_probabilities
        .iter()
        .find(|(label, _)| label == text)
        .map(|(_, p)| *p)
        .unwrap_or(0.0)
}

/// The final screen's rows: `items` stably sorted matching queries first,
/// then by descending formula probability, cut to `budget`, with the
/// probabilities renormalized over the rows shown.
pub(crate) fn pick_shown<T>(
    items: Vec<T>,
    matches: impl Fn(&T) -> bool,
    probability: impl Fn(&T) -> f32,
    budget: usize,
) -> (Vec<T>, Vec<f32>) {
    let mut scored: Vec<(T, f32)> = items
        .into_iter()
        .map(|item| {
            let p = probability(&item);
            (item, p)
        })
        .collect();
    // stable by descending probability, matching queries first
    scored.sort_by(|a, b| matches(&b.0).cmp(&matches(&a.0)).then(b.1.total_cmp(&a.1)));
    scored.truncate(budget);
    let total: f32 = scored.iter().map(|(_, p)| *p).sum();
    let probabilities = scored
        .iter()
        .map(|(_, p)| {
            if total > 0.0 {
                p / total
            } else {
                1.0 / scored.len().max(1) as f32
            }
        })
        .collect();
    (
        scored.into_iter().map(|(item, _)| item).collect(),
        probabilities,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use scrutinizer_formula::{instantiate, parse_formula, Lookup};

    fn candidate(formula: &str, value: f64, matches: bool) -> QueryCandidate {
        let f = parse_formula(formula).unwrap();
        let lookups: Vec<Lookup> = (0..f.value_var_count())
            .map(|i| Lookup::new("T", format!("K{i}"), "2017"))
            .collect();
        QueryCandidate {
            stmt: instantiate(&f, &lookups).unwrap(),
            formula_text: formula.to_string(),
            lookups,
            value,
            matches_parameter: matches,
        }
    }

    #[test]
    fn screen_truncates_to_budget() {
        let screen = Screen::new(
            PropertyKind::Relation,
            vec![("A".into(), 0.6), ("B".into(), 0.3), ("C".into(), 0.1)],
            2,
        );
        assert_eq!(screen.labels(), vec!["A", "B"]);
        assert_eq!(screen.probabilities(), vec![0.6, 0.3]);
    }

    #[test]
    fn final_screen_prefers_matching_queries() {
        let screen = FinalScreen::new(
            vec![
                candidate("a + b", 5.0, false),
                candidate("a / b", 3.0, true),
            ],
            &[("a + b".into(), 0.9), ("a / b".into(), 0.1)],
            5,
        );
        assert!(
            screen.candidates[0].matches_parameter,
            "match outranks probability"
        );
    }

    #[test]
    fn final_screen_probabilities_normalized() {
        let screen = FinalScreen::new(
            vec![candidate("a", 1.0, true), candidate("a / b", 2.0, true)],
            &[("a".into(), 0.6), ("a / b".into(), 0.2)],
            5,
        );
        let total: f32 = screen.probabilities.iter().sum();
        assert!((total - 1.0).abs() < 1e-6);
        assert!(screen.probabilities[0] > screen.probabilities[1]);
    }

    #[test]
    fn unknown_formulas_get_uniform_fallback() {
        let screen = FinalScreen::new(
            vec![candidate("a", 1.0, false), candidate("a / b", 2.0, false)],
            &[],
            5,
        );
        assert!((screen.probabilities[0] - 0.5).abs() < 1e-6);
    }

    #[test]
    fn rendered_rows_contain_sql_and_value() {
        let screen = FinalScreen::new(vec![candidate("a / b", 0.0298, true)], &[], 5);
        let rows = FinalScreen::rendered(&screen.candidates);
        assert_eq!(rows.len(), 1);
        assert!(rows[0].contains("SELECT"));
        assert!(rows[0].contains("0.0298"));
    }
}
