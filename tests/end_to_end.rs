//! Cross-crate integration tests: the full pipeline from raw text and tables
//! to verified claims, exercising every subsystem together.

use scrutinizer::core::{generate_queries, OrderingStrategy, SystemConfig, Verdict, Verifier};
use scrutinizer::corpus::{ClaimKind, Corpus, CorpusConfig};
use scrutinizer::crowd::{Panel, WorkerConfig};
use scrutinizer::data::{Catalog, TableBuilder};
use scrutinizer::engine::experiments::report::run_report;
use scrutinizer::formula::{generalize, instantiate, parse_formula};
use scrutinizer::query::{execute, parse, FunctionRegistry};

/// The paper's running example, end to end: Figure 1 data, Example 1 claim,
/// Example 8 generalization, Example 10 instantiation, Example 4 correction.
#[test]
fn paper_running_example() {
    let mut catalog = Catalog::new();
    catalog
        .add(
            TableBuilder::new("GED", "Index", &["2016", "2017"])
                .row("PGElecDemand", &[21_566.0, 22_209.0])
                .unwrap()
                .build(),
        )
        .unwrap();

    // Example 1: execute the published verification query
    let stmt = parse(
        "SELECT POWER(a.2017/b.2016, 1/(2017-2016)) - 1 \
         FROM GED a, GED b \
         WHERE a.Index = 'PGElecDemand' AND b.Index = 'PGElecDemand'",
    )
    .unwrap();
    let value = execute(&catalog, &stmt).unwrap().as_f64().unwrap();
    assert!((value - 0.0298).abs() < 1e-3, "3% growth");

    // Example 8: generalize it into a reusable formula
    let g = generalize(&stmt).unwrap();
    assert_eq!(g.formula.to_string(), "POWER(a / b, 1 / (A1 - A2)) - 1");

    // Example 10: instantiate the formula back and get the same query
    let again = instantiate(&g.formula, &g.lookups).unwrap();
    let value_again = execute(&catalog, &again).unwrap().as_f64().unwrap();
    assert!((value - value_again).abs() < 1e-12);

    // Definition 2: the claim parameter 3% verifies within tolerance
    let p = Verifier::extract_parameter(
        "In 2017, global electricity demand grew by 3%, reaching 22 200 TWh",
    )
    .unwrap();
    assert!((value - p).abs() <= 0.05 * p, "claim verifies at e = 5%");

    // Example 4: the false 2.5% variant fails and gets a 3% suggestion
    let config = SystemConfig::default();
    let registry = FunctionRegistry::standard();
    let candidates = generate_queries(
        &catalog,
        &registry,
        &["GED".to_string()],
        &["PGElecDemand".to_string()],
        &["2016".to_string(), "2017".to_string()],
        &[(g.formula.to_string(), g.formula.clone())],
        Some(0.025),
        &config,
    );
    assert!(!candidates.is_empty());
    assert!(candidates.iter().all(|c| !c.matches_parameter));
    assert!((candidates[0].value - 0.0298).abs() < 1e-3, "suggests 3%");
}

/// Full Algorithm 1 run on the engine over a generated corpus: every
/// claim resolved, most verdicts right, corrections offered for false
/// claims.
#[test]
fn full_document_verification() {
    let corpus = Corpus::generate(CorpusConfig::small());
    let mut panel = Panel::new(3, WorkerConfig::default(), 11);
    let report = run_report(
        &corpus,
        SystemConfig::test(),
        &mut panel,
        OrderingStrategy::Ilp,
    );

    assert_eq!(report.outcomes.len(), corpus.claims.len());
    assert!(
        report.verdict_accuracy() > 0.7,
        "accuracy {}",
        report.verdict_accuracy()
    );

    // flagged claims come with evidence
    let mut with_suggestion = 0;
    for outcome in &report.outcomes {
        if let Verdict::Incorrect {
            suggested_value, ..
        } = &outcome.verdict
        {
            if suggested_value.is_some() {
                with_suggestion += 1;
            }
        }
    }
    assert!(
        with_suggestion > 0,
        "incorrect claims should carry suggestions"
    );

    // classifiers learned something during the run
    let final_acc = report.accuracy_trace.last().unwrap().1;
    let first_acc = report.accuracy_trace.first().unwrap().1;
    let improved = final_acc.iter().sum::<f64>() >= first_acc.iter().sum::<f64>();
    let peaked = report.max_classifier_accuracy() > first_acc.iter().sum::<f64>() / 4.0;
    assert!(
        improved || peaked,
        "no learning: {first_acc:?} → {final_acc:?}"
    );
}

/// Determinism: identical seeds give identical reports.
#[test]
fn runs_are_reproducible() {
    let corpus = Corpus::generate(CorpusConfig::small());
    let run = || {
        let mut panel = Panel::new(3, WorkerConfig::default(), 23);
        let report = run_report(
            &corpus,
            SystemConfig::test(),
            &mut panel,
            OrderingStrategy::Greedy,
        );
        (
            report.total_crowd_seconds,
            report.outcomes.len(),
            report.verdict_accuracy(),
        )
    };
    let a = run();
    let b = run();
    assert_eq!(a, b);
}

/// The corpus ground truth is internally consistent: every correct explicit
/// claim actually verifies through the public SQL pipeline.
#[test]
fn corpus_ground_truth_verifies_via_sql() {
    let corpus = Corpus::generate(CorpusConfig::small());
    let mut checked = 0;
    for claim in corpus
        .claims
        .iter()
        .filter(|c| c.kind == ClaimKind::Explicit)
        .take(40)
    {
        let formula = parse_formula(&claim.formula_text).unwrap();
        let stmt = instantiate(&formula, &claim.lookups).unwrap();
        let value = execute(&corpus.catalog, &stmt).unwrap().as_f64().unwrap();
        assert!(
            (value - claim.true_value).abs() <= 1e-6 * claim.true_value.abs().max(1.0),
            "claim {}: SQL gives {value}, ground truth {}",
            claim.id,
            claim.true_value
        );
        checked += 1;
    }
    assert!(checked >= 15);
}
