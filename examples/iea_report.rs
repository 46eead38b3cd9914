//! Verify a synthetic IEA-style report with a simulated team of checkers.
//!
//! ```text
//! cargo run --release --example iea_report
//! ```
//!
//! Generates a small World-Energy-Outlook-like corpus (tables + sectioned
//! document + claims, ~25% injected errors), runs the full Algorithm 1 loop
//! on the engine with ILP claim ordering against a three-person simulated
//! crowd, and prints the verification report with suggested corrections.

use scrutinizer::core::{OrderingStrategy, SystemConfig, Verdict};
use scrutinizer::corpus::{Corpus, CorpusConfig};
use scrutinizer::crowd::{Panel, WorkCalendar, WorkerConfig};
use scrutinizer::engine::experiments::report::run_report;

fn main() {
    let mut corpus_config = CorpusConfig::small();
    corpus_config.n_claims = 120;
    corpus_config.error_rate = 0.25;
    let corpus = Corpus::generate(corpus_config);
    println!(
        "corpus: {} tables, {} claims in {} sections ({} sentences)\n",
        corpus.catalog.len(),
        corpus.claims.len(),
        corpus.document.sections.len(),
        corpus.document.total_sentences
    );

    let mut panel = Panel::new(3, WorkerConfig::default(), 42);
    let report = run_report(
        &corpus,
        SystemConfig::default(),
        &mut panel,
        OrderingStrategy::Ilp,
    );

    println!("{report}");
    let calendar = WorkCalendar::default();
    println!(
        "team time: {:.2} work weeks (3 checkers × 8h × 5d)\n",
        calendar.weeks(report.total_crowd_seconds)
    );

    println!("sample of flagged claims with suggested corrections:");
    let mut shown = 0;
    for outcome in &report.outcomes {
        if let Verdict::Incorrect {
            suggested_value,
            closest_query,
        } = &outcome.verdict
        {
            let claim = &corpus.claims[outcome.claim_id];
            println!("  ✗ \"{}\"", claim.sentence_text);
            if let Some(v) = suggested_value {
                println!("    suggested value: {v:.4}");
            }
            if let Some(q) = closest_query {
                println!("    evidence: {q}");
            }
            shown += 1;
            if shown >= 5 {
                break;
            }
        }
    }

    let flagged = report.incorrect_count();
    let truly_wrong = corpus.claims.iter().filter(|c| !c.is_correct).count();
    println!("\nflagged {flagged} claims as erroneous ({truly_wrong} truly are)");
    println!(
        "verdict accuracy: {:.1}%",
        100.0 * report.verdict_accuracy()
    );
}
