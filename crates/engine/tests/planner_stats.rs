//! The engine's planner counters: every session plan is one batch
//! selection, and its solver and fallback activity is visible in
//! [`scrutinizer_engine::EngineStats`].

use scrutinizer_core::{OrderingStrategy, SystemConfig};
use scrutinizer_corpus::{Corpus, CorpusConfig};
use scrutinizer_engine::{dispatch, Engine, EngineOptions, Request, Response};

#[test]
fn planner_counters_surface_in_stats() {
    let corpus = Corpus::generate(CorpusConfig::small());
    let config = SystemConfig::test();
    let engine = Engine::new(
        corpus,
        config,
        EngineOptions {
            ordering: OrderingStrategy::Ilp,
            retrain_interval: None,
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
        stats.planner_cold_solves.get() + stats.planner_fallbacks.get(),
        "every ILP plan is a cold solve or a fallback"
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

    // v1 stats fields are append-only: the repair counters read zero
    let Ok(Response::Stats { stats }) = dispatch(&engine, &Request::Stats) else {
        panic!("the stats op answers");
    };
    for field in ["planner_incremental_repairs", "planner_repair_rejections"] {
        assert_eq!(
            stats.get(field).and_then(|v| v.as_f64()),
            Some(0.0),
            "{field}"
        );
    }
}

#[test]
fn branching_plans_solve_every_node_cold() {
    // 240 relations spread the claims over several sections, and a long
    // document makes their read costs bind the budget, so the LP
    // relaxations are fractional and branch & bound explores nodes
    let corpus = Corpus::generate(CorpusConfig {
        n_relations: 240,
        n_sentences: 4_800,
        ..CorpusConfig::small()
    });
    let n = corpus.claims.len();
    let engine = Engine::new(
        corpus,
        SystemConfig::test(),
        EngineOptions {
            ordering: OrderingStrategy::Ilp,
            retrain_interval: None,
        },
    );
    for stride in 1..=3 {
        for offset in 0..stride {
            let session = engine.open_session("branching");
            let claims: Vec<usize> = (offset..n).step_by(stride).collect();
            engine.submit_report(session, &claims).expect("submit");
        }
    }

    let stats = engine.stats();
    let plans = stats.planner_plans.get();
    assert_eq!(stats.planner_fallbacks.get(), 0, "every plan is solved");
    assert!(
        stats.planner_nodes.get() > plans,
        "the solver branches: {} nodes over {plans} plans",
        stats.planner_nodes.get()
    );

    let Ok(Response::Stats { stats }) = dispatch(&engine, &Request::Stats) else {
        panic!("the stats op answers");
    };
    let field = |name: &str| stats.get(name).and_then(|v| v.as_f64()).expect(name);
    // every node's LP is a cold solve: nothing is ever warm-started
    assert_eq!(field("planner_warm_start_hits"), 0.0);
    assert!(
        field("planner_lp_solves") >= field("planner_cold_solves"),
        "each solved plan solves at least its root LP"
    );
}

#[test]
fn sequential_ordering_plans_without_solver_activity() {
    let corpus = Corpus::generate(CorpusConfig::small());
    let config = SystemConfig::test();
    let engine = Engine::new(
        corpus,
        config,
        EngineOptions {
            ordering: OrderingStrategy::Sequential,
            retrain_interval: None,
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
