//! The engine's planner counters: session re-planning runs through the
//! incremental planner, and its solver/repair/fallback activity is visible
//! in [`scrutinizer_engine::EngineStats`].

use scrutinizer_core::{OrderingStrategy, SystemConfig};
use scrutinizer_corpus::{Corpus, CorpusConfig};
use scrutinizer_engine::{Engine, EngineOptions};

#[test]
fn planner_counters_surface_in_stats() {
    let corpus = Corpus::generate(CorpusConfig::small());
    let config = SystemConfig::test();
    let engine = Engine::with_options(
        corpus,
        config,
        EngineOptions {
            ordering: OrderingStrategy::Ilp,
            retrain_interval: None,
            threads: 2,
            ..Default::default()
        },
    );
    engine.pretrain(None);

    let session = engine.open_session("metrics");
    let claims: Vec<usize> = (0..30).collect();
    let first = engine.submit_report(session, &claims).expect("submit");
    assert!(!first.is_empty(), "the first batch has questions");
    let _second = engine.next_batch(session).expect("re-plan");

    let stats = engine.stats();
    assert!(
        stats.planner_plans.get() >= 2,
        "submit + next_batch both plan"
    );
    assert!(
        stats.planner_cold_solves.get() >= 1,
        "the first plan solves cold"
    );
    assert_eq!(
        stats.planner_plans.get(),
        stats.planner_cold_solves.get()
            + stats.planner_incremental_repairs.get()
            + stats.planner_fallbacks.get(),
        "every ILP plan is a cold solve, a repair, or a fallback"
    );
    assert!(
        stats.planner_lp_solves.get() >= 1,
        "the solver reports LP work"
    );
    assert_eq!(
        stats.planner_fallbacks.get(),
        0,
        "no ILP failure expected here"
    );
    assert!(stats.planner_last_fallback.lock().unwrap().is_none());
    assert!(
        stats.planner_incremental_repairs.get() >= 1,
        "an unchanged model re-plan must repair, not re-solve: {stats:?}"
    );
}

#[test]
fn sequential_ordering_plans_without_solver_activity() {
    let corpus = Corpus::generate(CorpusConfig::small());
    let config = SystemConfig::test();
    let engine = Engine::with_options(
        corpus,
        config,
        EngineOptions {
            ordering: OrderingStrategy::Sequential,
            retrain_interval: None,
            threads: 2,
            ..Default::default()
        },
    );
    let session = engine.open_session("sequential");
    engine
        .submit_report(session, &[0, 1, 2, 3])
        .expect("submit");
    let stats = engine.stats();
    assert!(stats.planner_plans.get() >= 1);
    assert_eq!(stats.planner_cold_solves.get(), 0);
    assert_eq!(stats.planner_nodes.get(), 0);
}
