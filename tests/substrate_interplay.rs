//! Integration tests at the substrate boundaries: SQL ↔ formula ↔ data,
//! crowd cost model ↔ planner, ILP ↔ ordering — the seams the unit tests of
//! each crate cannot see.

use scrutinizer::core::planner::{plan_claim, CROWD_PROPERTIES};
use scrutinizer::core::{PropertyKind, SystemConfig, SystemModels, TrainingState, Translation};
use scrutinizer::corpus::annotations::{annotate, AnnotationStyle};
use scrutinizer::corpus::{Corpus, CorpusConfig};
use scrutinizer::crowd::CostModel;
use scrutinizer::data::csv;
use scrutinizer::formula::{claim_complexity, generalize, parse_formula};
use scrutinizer::query::{execute_all, parse};

/// CSV round trip through the catalog feeds the executor correctly.
#[test]
fn csv_to_query_pipeline() {
    let csv_text = "Index,2016,2017\nPGElecDemand,21566,22209\nCapAdd_Wind,5.8,52.2\n";
    let table = csv::read_table("GED", csv_text.as_bytes()).unwrap();
    let mut catalog = scrutinizer::data::Catalog::new();
    catalog.add(table).unwrap();
    let stmt = parse("SELECT a.2017 / a.2016 FROM GED a WHERE a.Index = 'CapAdd_Wind'").unwrap();
    let results = execute_all(&catalog, &stmt).unwrap();
    assert_eq!(results.len(), 1);
    assert!((results[0].1.as_f64().unwrap() - 9.0).abs() < 0.01);

    // write → read is stable
    let mut buffer = Vec::new();
    csv::write_table(catalog.get("GED").unwrap(), &mut buffer).unwrap();
    let again = csv::read_table("GED2", buffer.as_slice()).unwrap();
    assert_eq!(again.row_count(), 2);
}

/// Messy §4.2 annotations still yield usable formulas through generalization.
#[test]
fn annotation_styles_feed_formula_extraction() {
    let corpus = Corpus::generate(CorpusConfig::small());
    let mut recovered = 0;
    let mut incomplete = 0;
    for claim in corpus.claims.iter().take(30) {
        for ann in annotate(claim, 3, 77) {
            let stmt = parse(&ann.sql).expect("all annotation styles parse");
            let g = generalize(&stmt).expect("all annotation styles generalize");
            match ann.style {
                AnnotationStyle::CleanSql => {
                    // clean annotations recover the original formula exactly
                    let original = parse_formula(&claim.formula_text).unwrap();
                    if g.formula == original {
                        recovered += 1;
                    }
                }
                AnnotationStyle::IncompleteLookup => {
                    // incomplete ones lose the check structure: bare lookup
                    assert_eq!(g.formula.to_string(), "a");
                    incomplete += 1;
                }
                AnnotationStyle::BooleanQuery => {}
            }
        }
    }
    assert!(recovered >= 10, "clean recoveries: {recovered}");
    assert!(incomplete >= 2, "incomplete seen: {incomplete}");
}

/// The planner's expected cost honors Theorem 1's bound against the manual
/// baseline for every claim in a corpus.
#[test]
fn theorem1_bound_holds_corpus_wide() {
    let corpus = Corpus::generate(CorpusConfig::small());
    let config = SystemConfig::default();
    let models = SystemModels::bootstrap(&corpus, &config);
    let bound = 3.0 * config.cost.sf; // Corollary 1: overhead ≤ factor 3
    for claim in corpus.claims.iter().take(40) {
        let features = models.features(claim);
        let translation = models.translate(&features, config.options_per_screen);
        let plan = plan_claim(&translation, &config);
        assert!(
            plan.expected_cost <= bound,
            "claim {}: expected cost {} exceeds 3·s_f = {bound}",
            claim.id,
            plan.expected_cost
        );
        assert!(plan.screens.len() <= CROWD_PROPERTIES.len());
    }
}

/// Option ordering from the classifiers is always probability-descending —
/// Corollary 2's optimality precondition — even after retraining.
#[test]
fn corollary2_option_order_after_retraining() {
    let corpus = Corpus::generate(CorpusConfig::small());
    let config = SystemConfig::test();
    let mut models = SystemModels::bootstrap(&corpus, &config);
    let refs: Vec<&scrutinizer::corpus::ClaimRecord> = corpus.claims.iter().collect();
    models.retrain(&mut TrainingState::default(), &refs, 1);
    for claim in corpus.claims.iter().take(20) {
        let features = models.features(claim);
        let translation: Translation = models.translate(&features, 10);
        for kind in PropertyKind::ALL {
            let probs: Vec<f32> = translation.of(kind).iter().map(|(_, p)| *p).collect();
            for w in probs.windows(2) {
                assert!(w[0] >= w[1], "{:?} options out of order", kind);
            }
            // and Theorem 2's cost is monotone under prefix truncation
            let c_full = CostModel::expected_list_cost(1.0, &probs);
            let c_half = CostModel::expected_list_cost(1.0, &probs[..probs.len() / 2]);
            assert!(c_half <= c_full + 1e-6);
        }
    }
}

/// Claim complexity computed via the formula crate agrees with the corpus
/// generator's recorded complexity (two implementations, one definition).
#[test]
fn complexity_definitions_agree() {
    let corpus = Corpus::generate(CorpusConfig::small());
    for claim in &corpus.claims {
        let formula = parse_formula(&claim.formula_text).unwrap();
        assert_eq!(
            claim_complexity(&formula, &claim.lookups),
            claim.complexity,
            "claim {}",
            claim.id
        );
    }
}
