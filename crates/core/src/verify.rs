//! Claim-text helpers of Algorithm 1 that need no models: the explicit
//! parameter of Definition 2. The loop itself runs on the engine
//! (`scrutinizer_engine::experiments::report::run_report`).

use scrutinizer_text::{extract_parameters, ParameterKind};

/// Namespace for the model-free claim helpers.
pub struct Verifier;

impl Verifier {
    /// Extracts the explicit parameter from a claim's text — the `p` of
    /// Definition 2, in formula scale. Years are ignored; percent and fold
    /// mentions are preferred over raw quantities; the last raw quantity
    /// wins otherwise (parameters close the sentence: "reaching 22 200 TWh").
    pub fn extract_parameter(text: &str) -> Option<f64> {
        let params = extract_parameters(text);
        let non_year: Vec<_> = params
            .iter()
            .filter(|p| {
                !(p.kind == ParameterKind::Absolute
                    && p.value.fract() == 0.0
                    && (1900.0..=2100.0).contains(&p.value))
            })
            .collect();
        non_year
            .iter()
            .find(|p| matches!(p.kind, ParameterKind::Percent | ParameterKind::Fold))
            .or_else(|| non_year.last())
            .map(|p| p.value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parameter_extraction_prefers_rates_and_skips_years() {
        assert_eq!(
            Verifier::extract_parameter("In 2017, demand grew by 3%"),
            Some(0.03)
        );
        assert_eq!(
            Verifier::extract_parameter("increased nine-fold from 2000 to 2017"),
            Some(9.0)
        );
        assert_eq!(
            Verifier::extract_parameter("reached 22 200 TWh in 2017"),
            Some(22_200.0)
        );
        assert_eq!(Verifier::extract_parameter("expanded aggressively"), None);
    }
}
