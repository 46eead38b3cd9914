//! Engine benchmarks: the suggest path and what the batch fan-out buys.
//!
//! `suggestion_pipeline` isolates Algorithm 2 — submit + suggest over a
//! fixed slice of claims, every assignment evaluated directly — and
//! `verify_throughput/*` measures end-to-end batch verification,
//! sequential vs. `verify_batch`'s worker threads (`pooled`).

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion};
use scrutinizer_core::{OrderingStrategy, SystemConfig};
use scrutinizer_corpus::{Corpus, CorpusConfig};
use scrutinizer_crowd::{Worker, WorkerConfig};
use scrutinizer_engine::engine::{Engine, EngineOptions};

fn engine() -> Arc<Engine> {
    let corpus = Corpus::generate(CorpusConfig::small());
    let engine = Engine::new(
        corpus,
        SystemConfig::test(),
        EngineOptions {
            retrain_interval: None,
            ordering: OrderingStrategy::Sequential,
        },
    );
    engine.pretrain(None);
    engine
}

/// Drives `suggest` for a fixed slice of claims through fresh sessions.
fn suggest_all(engine: &Arc<Engine>, claims: &[usize]) -> usize {
    let session = engine.open_session("bench");
    let mut produced = 0;
    for &claim_id in claims {
        engine.submit_report(session, &[claim_id]).expect("submit");
        produced += engine.suggest(session, claim_id).expect("suggest").len();
    }
    engine.close_session(session).expect("close");
    produced
}

fn bench_suggestion_pipeline(c: &mut Criterion) {
    let engine = engine();
    let claims: Vec<usize> = (0..12).collect();
    c.bench_function("suggestion_pipeline", |b| {
        b.iter(|| suggest_all(&engine, &claims))
    });
}

fn bench_verify_throughput(c: &mut Criterion) {
    let engine = engine();
    let claims: Vec<usize> = (0..24).collect();
    let base = WorkerConfig {
        accuracy: 1.0,
        skip_probability: 0.0,
        seed: 3,
        ..Default::default()
    };
    let mut group = c.benchmark_group("verify_throughput");
    group.sample_size(10);
    group.bench_function("sequential", |b| {
        b.iter(|| {
            claims
                .iter()
                .map(|&id| {
                    let mut worker = Worker::new(
                        "seq",
                        WorkerConfig {
                            seed: base.seed ^ id as u64,
                            ..base
                        },
                    );
                    engine.verify_claim_with(id, &mut worker).crowd_seconds
                })
                .sum::<f64>()
        })
    });
    group.bench_function("pooled", |b| {
        b.iter(|| {
            engine
                .verify_batch(&claims, base)
                .expect("valid claims")
                .len()
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_suggestion_pipeline, bench_verify_throughput
}
criterion_main!(benches);
