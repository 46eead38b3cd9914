//! The engine's mixed-initiative session loop, driven in-process.
//!
//! ```text
//! cargo run --example session_loop
//! ```
//!
//! Builds a small corpus, starts the shared engine, and plays one checker
//! session against it: submit a report, answer the property screens a
//! (simulated) checker would see, read the top-k query suggestions, post
//! verdicts, and watch the engine re-plan what is left. Finishes with a
//! concurrent batch on the engine's batch worker threads and its metrics.

use scrutinizer::core::models::available_threads;
use scrutinizer::core::{OrderingStrategy, SystemConfig};
use scrutinizer::corpus::{Corpus, CorpusConfig};
use scrutinizer::crowd::WorkerConfig;
use scrutinizer::engine::engine::{Engine, EngineOptions};

fn main() {
    // ---- one shared engine ----
    let corpus = Corpus::generate(CorpusConfig::small());
    let engine = Engine::new(
        corpus,
        SystemConfig::test(),
        EngineOptions {
            retrain_interval: Some(10),
            ordering: OrderingStrategy::Ilp,
        },
    );
    engine.pretrain(None);
    println!(
        "engine up: {} claims, {} sessions live\n",
        engine.corpus().claims.len(),
        0
    );

    // ---- an interactive session ----
    let session = engine.open_session("S1");
    let report: Vec<usize> = (0..6).collect();
    let batch = engine
        .submit_report(session, &report)
        .expect("submit report");
    println!(
        "submitted {} claims; first batch plans {} of them:",
        report.len(),
        batch.len()
    );
    for questions in &batch {
        println!(
            "  claim {:>2}: {} screens, expected cost {:>6.1}s",
            questions.claim_id,
            questions.screens.len(),
            questions.expected_cost
        );
    }

    // The checker: answers every screen with ground truth (a perfect
    // simulated expert), then judges the suggestions.
    for &claim_id in &report {
        let claim = engine.corpus().claims[claim_id].clone();
        let questions = engine.screens(session, claim_id).expect("screens");
        for screen in &questions.screens {
            use scrutinizer::core::PropertyKind;
            let truth = match screen.kind {
                PropertyKind::Relation => claim.relation.clone(),
                PropertyKind::Key => claim.key.clone(),
                _ => claim.attributes[0].clone(),
            };
            engine
                .post_answer(session, claim_id, screen.kind, &truth)
                .expect("post answer");
        }
        let suggestions = engine.suggest(session, claim_id).expect("suggest");
        let verdict_correct = suggestions.iter().any(|s| s.matches_parameter) || claim.is_correct;
        if let Some(best) = suggestions.first() {
            println!(
                "claim {:>2}: top suggestion (of {}) → {} = {:.4}{}",
                claim_id,
                suggestions.len(),
                best.sql,
                best.value,
                if best.matches_parameter {
                    "  [confirms the claim]"
                } else {
                    ""
                }
            );
        } else {
            println!("claim {claim_id:>2}: no candidate queries — manual judgment");
        }
        let record = engine
            .post_verdict(
                session,
                claim_id,
                verdict_correct,
                suggestions.first().map(|s| s.rank),
            )
            .expect("post verdict");
        if record.retrained {
            println!("           ↳ retrain threshold crossed; models updated");
        }
    }
    let verified = engine.close_session(session).expect("close");
    println!(
        "\nsession closed; {} claims verified interactively",
        verified.len()
    );

    // ---- the batch path: simulated checkers on batch worker threads ----
    let claims: Vec<usize> = (6..30).collect();
    let outcomes = engine
        .verify_batch(
            &claims,
            WorkerConfig {
                accuracy: 1.0,
                skip_probability: 0.0,
                seed: 11,
                ..Default::default()
            },
        )
        .expect("all claim ids are in the corpus");
    let matched = outcomes.iter().filter(|o| o.verdict_matches_truth).count();
    println!(
        "batch of {} claims over {} worker threads: {}/{} verdicts match ground truth",
        claims.len(),
        available_threads().min(claims.len()),
        matched,
        outcomes.len()
    );

    // ---- metrics ----
    let stats = engine.stats();
    println!("\nengine stats:");
    println!(
        "  sessions opened/closed: {}/{}",
        stats.sessions_opened.get(),
        stats.sessions_closed.get()
    );
    println!("  claims verified:        {}", stats.claims_verified.get());
    println!(
        "  suggestions served:     {}",
        stats.suggestions_served.get()
    );
    let suggest = stats.suggest_latency.snapshot();
    println!(
        "  suggest latency:        mean {:.0}µs, p99 ≤ {}µs over {} runs",
        suggest.mean_micros(),
        suggest.quantile_micros(0.99),
        suggest.count
    );
    println!("  retrains:               {}", stats.retrains.get());
}
