//! System-wide configuration.

use scrutinizer_crowd::CostModel;
use scrutinizer_learn::TrainConfig;
use scrutinizer_text::FeaturizerConfig;

/// All the knobs of the Scrutinizer system, with the defaults the paper's
/// experiments use.
#[derive(Debug, Clone, Copy)]
pub struct SystemConfig {
    /// Crowd cost model (v_p, v_f, s_p, s_f).
    pub cost: CostModel,
    /// Claim featurizer parameters.
    pub featurizer: FeaturizerConfig,
    /// Classifier training parameters.
    pub training: TrainConfig,
    /// Answer options shown per property screen (§6.2 uses ten).
    pub options_per_screen: usize,
    /// Query candidates shown on the final screen.
    pub final_options: usize,
    /// Claims per batch between retrains (§6.2 uses 100).
    pub batch_size: usize,
    /// Admissible relative error `e` for explicit claims (Definition 2).
    pub tolerance: f64,
    /// Cap on value-assignment enumeration inside query generation —
    /// Algorithm 2's brute-force loop is bounded to keep the sub-second
    /// budget of §6.1.
    pub max_assignments: usize,
    /// Candidate window for batch selection: the ILP selects from this many
    /// highest-utility unverified claims (keeps the model at the size
    /// Theorem 8 promises while claims number in the thousands).
    pub ordering_window: usize,
    /// Skim cost per sentence when a checker reads a section (Definition 8).
    pub read_seconds_per_sentence: f64,
    /// Weight `w_u` of training utility against cost in the batch objective
    /// (Definition 9's weighted variant).
    pub utility_weight: f64,
    /// Skip a property screen when the classifier's top prediction exceeds
    /// this probability — §5.1's ideal case where "crowd workers only need
    /// to verify the proposed translation". The skipped property's top
    /// prediction enters the context unasked.
    pub screen_skip_confidence: f32,
    /// Master seed for the crowd and any tie-breaking.
    pub seed: u64,
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig {
            cost: CostModel::default(),
            featurizer: FeaturizerConfig::default(),
            training: TrainConfig::default(),
            options_per_screen: 10,
            final_options: 5,
            batch_size: 100,
            tolerance: 0.05,
            max_assignments: 50_000,
            ordering_window: 150,
            read_seconds_per_sentence: 1.5,
            utility_weight: 60.0,
            screen_skip_confidence: 0.85,
            seed: 17,
        }
    }
}

impl SystemConfig {
    /// Smaller, faster settings for unit tests.
    pub fn test() -> Self {
        SystemConfig {
            options_per_screen: 5,
            final_options: 3,
            batch_size: 20,
            ordering_window: 60,
            max_assignments: 10_000,
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = SystemConfig::default();
        assert_eq!(c.options_per_screen, 10, "§6.2: ten answer options");
        assert_eq!(c.batch_size, 100, "§6.2: batches of 100");
        assert!((c.tolerance - 0.05).abs() < 1e-12);
    }

    #[test]
    fn option_budget_within_corollary1() {
        let c = SystemConfig::default();
        // ten options per screen stays within Corollary 1's n_op = s_f/v_f
        assert!(c.options_per_screen <= c.cost.max_options() + 2);
    }
}
