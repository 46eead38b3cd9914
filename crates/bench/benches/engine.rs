//! Engine benchmarks: the suggest path and what the batch fan-out buys.
//!
//! `suggestion_pipeline` isolates Algorithm 2 — submit + suggest over a
//! fixed slice of claims, every assignment evaluated directly — and
//! `verify_throughput/*` measures end-to-end batch verification,
//! sequential vs. `verify_batch`'s worker threads (`pooled`).
//!
//! Before anything is timed, in `--quick` smoke mode too, the **epoch
//! copy floor** runs under the [`CountingAllocator`]: a paper-scale
//! engine, pretrained, with a reader holding its epoch-1 snapshot,
//! verifies 50 claims, and the background epoch they trigger may keep
//! at most 40 % of the published weight bytes alive beside that
//! snapshot. A retrain copies only the weight rows its batch writes (a
//! quarter of them for 50 claims); cloning all the weights for every
//! epoch would keep 100 %.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion};
use scrutinizer_bench::{live_bytes, CountingAllocator};
use scrutinizer_core::{OrderingStrategy, PropertyKind, SystemConfig};
use scrutinizer_corpus::{Corpus, CorpusConfig};
use scrutinizer_crowd::{Worker, WorkerConfig};
use scrutinizer_engine::engine::{Engine, EngineOptions};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// The share of the published weight bytes one 50-claim background epoch
/// may add to the live heap while a reader holds the epoch before it.
const EPOCH_COPY_FLOOR: f64 = 0.40;

/// Asserts the epoch copy floor (see the module docs) and prints what
/// the epoch kept.
fn assert_epoch_copy_floor() {
    let engine = Engine::new(
        Corpus::generate(CorpusConfig::paper_scale()),
        SystemConfig::default(),
        EngineOptions {
            retrain_interval: Some(50),
            ordering: OrderingStrategy::Sequential,
        },
    );
    engine.pretrain(None);
    let held = engine.models_snapshot();
    assert_eq!(held.epoch, 1, "the pretrain publishes epoch 1");
    let weight_bytes: usize = PropertyKind::ALL
        .into_iter()
        .filter_map(|kind| held.models.classifier(kind).softmax())
        .map(|model| model.dim() * model.stride() * std::mem::size_of::<f32>())
        .sum();
    let claims: Vec<usize> = (0..50).collect();
    let checker = WorkerConfig {
        accuracy: 1.0,
        skip_probability: 0.0,
        seed: 5,
        ..Default::default()
    };
    let before = live_bytes();
    engine.verify_batch(&claims, checker).expect("valid claims");
    engine.flush_retrains();
    let kept = live_bytes().saturating_sub(before);
    assert_eq!(engine.model_epoch(), 2, "50 verdicts publish one epoch");
    let share = kept as f64 / weight_bytes as f64;
    println!(
        "epoch copy floor: epoch 2 kept {:.1} MB beside the held epoch 1, {:.1} % of its \
         {:.1} MB of weights (floor {:.0} %)",
        kept as f64 / 1e6,
        share * 100.0,
        weight_bytes as f64 / 1e6,
        EPOCH_COPY_FLOOR * 100.0
    );
    assert!(
        share <= EPOCH_COPY_FLOOR,
        "a 50-claim epoch kept {:.1} % of the weights alive (floor {:.0} %)",
        share * 100.0,
        EPOCH_COPY_FLOOR * 100.0
    );
    drop(held);
}

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
    assert_epoch_copy_floor();
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
