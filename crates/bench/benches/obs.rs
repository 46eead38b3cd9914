//! Observability overhead: the representative wire workload —
//! `submit` + `suggest` requests through `api::handle_line`, crossing
//! every instrumented stage (envelope parse, root span, dispatch span,
//! translate/plan/qgen/execute/score child spans, render) — measured
//! with the flight recorder disabled and enabled.
//!
//! Before criterion times anything, the bench asserts the tracing tax:
//! the enabled path must cost ≤ 5% over the disabled path (plus a small
//! absolute epsilon so a microsecond-scale difference on a fast machine
//! cannot fail the ratio on noise). Samples for the two modes are
//! interleaved round-robin so frequency drift and cache warm-up hit both
//! sides equally, and the best (least-disturbed) samples are compared.

use std::sync::Arc;
use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion};
use scrutinizer_core::{OrderingStrategy, SystemConfig};
use scrutinizer_corpus::{Corpus, CorpusConfig};
use scrutinizer_engine::api;
use scrutinizer_engine::engine::{Engine, EngineOptions};
use scrutinizer_engine::protocol::Json;
use scrutinizer_obs as obs;

/// Claims driven per timed sample (one `submit` + one `suggest` each):
/// enough suggestion-pipeline work that the sample is milliseconds, so
/// the 5% comparison sits far above timer noise.
const CLAIMS_PER_SAMPLE: usize = 8;
/// Interleaved samples per mode.
const ROUNDS: usize = 15;
/// Absolute slack added to the 5% bound (seconds per sample).
const ABS_EPSILON: f64 = 100e-6;

fn bench_engine() -> Arc<Engine> {
    let engine = Engine::new(
        Corpus::generate(CorpusConfig::small()),
        SystemConfig::test(),
        EngineOptions {
            retrain_interval: None,
            ordering: OrderingStrategy::Sequential,
        },
    );
    engine.pretrain(None);
    engine
}

/// One wire round over the suggestion pipeline: for each claim, a
/// `submit` then a `suggest`, every line a full `handle_line` pass.
/// Returns the number of suggestions produced as the parity sink.
fn drive(engine: &Arc<Engine>, lines: &[String]) -> usize {
    let mut suggestions = 0;
    for line in lines {
        let response = api::handle_line(engine, line);
        assert_eq!(
            response.get("ok").and_then(Json::as_bool),
            Some(true),
            "bench request failed: {}",
            response.render()
        );
        if let Some(ranked) = response.get("suggestions").and_then(Json::as_arr) {
            suggestions += ranked.len();
        }
    }
    suggestions
}

fn best(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::INFINITY, f64::min)
}

fn bench_obs(c: &mut Criterion) {
    let engine = bench_engine();
    let session = engine.open_session("obs-bench").0;
    let lines: Vec<String> = (0..CLAIMS_PER_SAMPLE)
        .flat_map(|claim| {
            [
                format!(r#"{{"op":"submit","session":{session},"claims":[{claim}]}}"#),
                format!(r#"{{"op":"suggest","session":{session},"claim":{claim}}}"#),
            ]
        })
        .collect();

    // correctness before timing: both modes produce the same suggestions
    obs::set_tracing(false);
    let disabled_ok = drive(&engine, &lines);
    obs::set_tracing(true);
    let enabled_ok = drive(&engine, &lines);
    assert_eq!(
        disabled_ok, enabled_ok,
        "tracing must not change response payloads"
    );
    assert!(disabled_ok > 0, "the workload must produce suggestions");

    // ---- the ≤5% overhead claim, asserted before criterion runs ----
    // warm-up, then interleave the two
    // modes so drift is shared
    for _ in 0..3 {
        obs::set_tracing(false);
        drive(&engine, &lines);
        obs::set_tracing(true);
        drive(&engine, &lines);
    }
    let mut disabled = Vec::with_capacity(ROUNDS);
    let mut enabled = Vec::with_capacity(ROUNDS);
    for _ in 0..ROUNDS {
        obs::set_tracing(false);
        let start = Instant::now();
        drive(&engine, &lines);
        disabled.push(start.elapsed().as_secs_f64());

        obs::set_tracing(true);
        let start = Instant::now();
        drive(&engine, &lines);
        enabled.push(start.elapsed().as_secs_f64());
    }
    obs::set_tracing(false);
    // compare the best observed sample of each mode: the minimum is the
    // run least disturbed by scheduling noise, so the ratio reflects the
    // instrumentation cost rather than jitter
    let disabled = best(&disabled);
    let enabled = best(&enabled);
    let overhead = (enabled / disabled - 1.0) * 100.0;
    println!(
        "obs overhead ({CLAIMS_PER_SAMPLE} submit+suggest wire rounds/sample): \
         disabled {:.3}ms, enabled {:.3}ms ({overhead:+.2}%)",
        disabled * 1e3,
        enabled * 1e3,
    );
    assert!(
        enabled <= disabled * 1.05 + ABS_EPSILON,
        "tracing overhead must stay within 5% of the disabled path \
         (disabled {:.3}ms, enabled {:.3}ms = {overhead:+.2}%)",
        disabled * 1e3,
        enabled * 1e3,
    );

    let mut group = c.benchmark_group("obs");
    group.sample_size(10);
    group.bench_function("wire_suggest_tracing_disabled", |b| {
        obs::set_tracing(false);
        b.iter(|| drive(&engine, &lines))
    });
    group.bench_function("wire_suggest_tracing_enabled", |b| {
        obs::set_tracing(true);
        b.iter(|| drive(&engine, &lines));
        obs::set_tracing(false);
    });
    group.finish();
}

criterion_group!(benches, bench_obs);
criterion_main!(benches);
