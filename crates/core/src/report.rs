//! The verification report: the system's output artifact.

use std::fmt;

/// The system's verdict on one claim.
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    /// A verifying query was found and confirmed.
    Correct {
        /// The confirming SQL.
        query: String,
    },
    /// No verifying query exists; the claim is erroneous.
    Incorrect {
        /// The closest query's SQL (evidence).
        closest_query: Option<String>,
        /// Suggested replacement value (Example 4: "we suggest 3%").
        suggested_value: Option<f64>,
    },
    /// The checker skipped the claim.
    Skipped,
}

/// Outcome of verifying one claim.
#[derive(Debug, Clone)]
pub struct ClaimOutcome {
    /// Claim id.
    pub claim_id: usize,
    /// Verdict.
    pub verdict: Verdict,
    /// Crowd seconds spent.
    pub crowd_seconds: f64,
    /// Whether the verdict agrees with ground truth (simulation only).
    pub verdict_matches_truth: bool,
}

impl ClaimOutcome {
    /// The outcome of a claim its checker skipped.
    pub fn skipped(claim_id: usize) -> Self {
        ClaimOutcome {
            claim_id,
            verdict: Verdict::Skipped,
            crowd_seconds: 0.0,
            verdict_matches_truth: false,
        }
    }
}

/// A complete verification report for a document.
#[derive(Debug, Clone, Default)]
pub struct VerificationReport {
    /// Per-claim outcomes in verification order.
    pub outcomes: Vec<ClaimOutcome>,
    /// Total crowd time (person-seconds) including section reading.
    pub total_crowd_seconds: f64,
    /// Total computation time (planning + ILP + retraining), seconds.
    pub computation_seconds: f64,
    /// Classifier accuracy trace: `(claims_verified_so_far, [acc; 4])`
    /// measured on each upcoming batch before verification.
    pub accuracy_trace: Vec<(usize, [f64; 4])>,
    /// Accumulated crowd seconds after each verified claim (Figure 7).
    pub time_trace: Vec<f64>,
}

impl VerificationReport {
    /// Number of claims the system judged erroneous.
    pub fn incorrect_count(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| matches!(o.verdict, Verdict::Incorrect { .. }))
            .count()
    }

    /// Fraction of verdicts agreeing with ground truth.
    pub fn verdict_accuracy(&self) -> f64 {
        let judged: Vec<&ClaimOutcome> = self
            .outcomes
            .iter()
            .filter(|o| !matches!(o.verdict, Verdict::Skipped))
            .collect();
        if judged.is_empty() {
            return 0.0;
        }
        judged.iter().filter(|o| o.verdict_matches_truth).count() as f64 / judged.len() as f64
    }

    /// Mean over the accuracy trace of the average classifier accuracy —
    /// Table 2's "Avg. Accuracy".
    pub fn average_classifier_accuracy(&self) -> f64 {
        if self.accuracy_trace.is_empty() {
            return 0.0;
        }
        self.accuracy_trace
            .iter()
            .map(|(_, a)| a.iter().sum::<f64>() / 4.0)
            .sum::<f64>()
            / self.accuracy_trace.len() as f64
    }

    /// Max over the accuracy trace — Table 2's "Max Accuracy".
    pub fn max_classifier_accuracy(&self) -> f64 {
        self.accuracy_trace
            .iter()
            .map(|(_, a)| a.iter().sum::<f64>() / 4.0)
            .fold(0.0, f64::max)
    }
}

impl fmt::Display for VerificationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "verification report: {} claims", self.outcomes.len())?;
        writeln!(
            f,
            "  crowd time: {:.1} h | computation: {:.1} min | verdict accuracy: {:.1}%",
            self.total_crowd_seconds / 3600.0,
            self.computation_seconds / 60.0,
            100.0 * self.verdict_accuracy()
        )?;
        writeln!(f, "  claims judged erroneous: {}", self.incorrect_count())?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(id: usize, verdict: Verdict, matches: bool) -> ClaimOutcome {
        ClaimOutcome {
            claim_id: id,
            verdict,
            crowd_seconds: 30.0,
            verdict_matches_truth: matches,
        }
    }

    #[test]
    fn counters() {
        let report = VerificationReport {
            outcomes: vec![
                outcome(
                    0,
                    Verdict::Correct {
                        query: "SELECT ...".into(),
                    },
                    true,
                ),
                outcome(
                    1,
                    Verdict::Incorrect {
                        closest_query: None,
                        suggested_value: Some(3.0),
                    },
                    true,
                ),
                outcome(2, Verdict::Skipped, false),
                outcome(
                    3,
                    Verdict::Correct {
                        query: "SELECT ...".into(),
                    },
                    false,
                ),
            ],
            ..Default::default()
        };
        assert_eq!(report.incorrect_count(), 1);
        // skipped excluded: 2 of 3 judged match truth
        assert!((report.verdict_accuracy() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn accuracy_aggregates() {
        let report = VerificationReport {
            accuracy_trace: vec![(0, [0.2; 4]), (100, [0.4; 4]), (200, [0.6; 4])],
            ..Default::default()
        };
        assert!((report.average_classifier_accuracy() - 0.4).abs() < 1e-12);
        assert!((report.max_classifier_accuracy() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn empty_report_is_sane() {
        let report = VerificationReport::default();
        assert_eq!(report.verdict_accuracy(), 0.0);
        assert_eq!(report.average_classifier_accuracy(), 0.0);
        assert!(report.to_string().contains("0 claims"));
    }
}
