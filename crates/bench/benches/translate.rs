//! Learning-stack benchmarks: what epoch-versioned snapshots, warm-start
//! incremental retraining and the batched feature/scoring pipeline buy.
//!
//! * `retrain/*` — the mixed-initiative loop's `Retrain(N, A)` step as a
//!   stream of verified batches: `cold_replay` retrains from scratch on
//!   the growing union after every batch (the pre-PR4 engine behavior),
//!   `warm_incremental` warm-starts on just the new batch (plus bounded
//!   rehearsal) against the shared `FeatureStore`. Acceptance target:
//!   ≥ 3× for the whole stream at matching accuracy.
//! * `utility/*` — Definition 7 over 10 000 open claims: `per_claim` is
//!   the legacy one-at-a-time `training_utility` loop, `batched` the CSR
//!   `training_utilities` pass through the classifiers' feature-major
//!   layout, `batched_reference` the same fusion through the scalar
//!   reference kernel. Acceptance targets: batched ≥ 5× per-claim; the
//!   vectorized fused sweep (aligned CSR rows + `exp_approx` entropy)
//!   ≥ 1.35× its scalar twin (both kernels stream the same ~200 KB of
//!   weight columns per claim, so past the point where the sweep is
//!   L2-fill-bound the twin ratio compresses — the per-claim ratio is
//!   the headroom measure); and the classifier batch path the aligned
//!   layout exists for (`entropy_batch_into`'s fused-multiply-add sweep
//!   of the feature-major block) ≥ 2× the scalar per-row
//!   `predict_proba` + `Σ −p ln p` loop.
//! * `translate/*` — claim translation (§3.1, top-k per property) over
//!   the utility corpus's label spaces: `per_claim` is
//!   `SystemModels::translate_view`, which ranks all four classifiers
//!   by sweeping each one's feature-major block; `per_classifier` the
//!   row-major path it replaced, rebuilt here from the exported
//!   row-major state (per classifier, a gathered dot product per class,
//!   then a ranking). Bit-identical output is asserted on every claim
//!   before timing; acceptance target: fused ≥ 4× per-classifier.
//! * the **retrain storm** — suggest latency on a live engine while a
//!   writer thread publishes back-to-back model epochs. With snapshot
//!   swaps readers never wait on the trainer; the p99 must stay near the
//!   idle p99 instead of absorbing whole retrain latencies.
//!
//! The warm≡cold model-equivalence assertion (accuracy parity on the full
//! stream), the batched≡scalar utility parity and the fused≡per-classifier
//! translation parity run **before** anything
//! is timed, in `--quick` smoke mode too. The latency-ratio assertions
//! run only in full mode: a one-shot smoke iteration has no stable tail.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use scrutinizer_core::{
    FeatureStore, ModelsState, OrderingStrategy, PropertyKind, SystemConfig, SystemModels,
    TrainingState,
};
use scrutinizer_corpus::{ClaimRecord, Corpus, CorpusConfig};
use scrutinizer_engine::engine::{Engine, EngineOptions};
use scrutinizer_learn::softmax::softmax_in_place;
use scrutinizer_text::{SparseVector, SparseView};

/// The retrain stream's shape mirrors the paper's loop: a report's worth
/// of claims verified in interval-sized batches (§6.2 retrains every 100
/// verdicts out of 1539 claims — 15 growing replays for the old path).
const BATCHES: usize = 16;

fn quick_mode() -> bool {
    std::env::args().any(|a| a == "--quick" || a == "--test")
}

/// The retrain bench's corpus: `small()` label spaces, but enough claims
/// that the stream has [`BATCHES`] meaningful intervals.
fn retrain_corpus() -> CorpusConfig {
    CorpusConfig {
        n_claims: 320,
        n_sentences: 1600,
        ..CorpusConfig::small()
    }
}

/// The utility bench's corpus: label spaces scaled toward the paper's
/// (1791 relations / 830 keys / 87 attributes / 413 formulas); per-claim
/// scoring cost grows with the class count, which is exactly the regime
/// the batched pipeline exists for.
fn utility_corpus() -> CorpusConfig {
    CorpusConfig {
        n_claims: 160,
        n_sentences: 800,
        n_relations: 120,
        n_keys: 200,
        n_attributes: 60,
        n_formulas: 80,
        ..CorpusConfig::small()
    }
}

fn setup_scaled(config: CorpusConfig) -> (Corpus, SystemModels, FeatureStore) {
    let corpus = Corpus::generate(config);
    let models = SystemModels::bootstrap(&corpus, &SystemConfig::test());
    let store = FeatureStore::build(&corpus, &models);
    (corpus, models, store)
}

/// The pre-PR4 engine behavior: after each verified batch, retrain from
/// scratch on everything verified so far. It stands for a background
/// epoch built from scratch, and background epochs run on the one
/// trainer thread, so its fits get a budget of one: on more threads the
/// replay would borrow cores the warm path never gets, and the ≥ 3×
/// floor would stop comparing the two ways of building an epoch.
fn cold_replay_stream(base: &SystemModels, corpus: &Corpus, batches: &[&[usize]]) -> SystemModels {
    let mut models = base.clone();
    let mut training = TrainingState::default();
    let mut union: Vec<usize> = Vec::new();
    for batch in batches {
        union.extend_from_slice(batch);
        let refs: Vec<&ClaimRecord> = union.iter().map(|&id| &corpus.claims[id]).collect();
        models.retrain(&mut training, &refs, 1);
    }
    models
}

/// The PR4 path: warm-start each batch against the feature store.
fn warm_incremental_stream(
    base: &SystemModels,
    corpus: &Corpus,
    store: &FeatureStore,
    batches: &[&[usize]],
) -> SystemModels {
    let mut models = base.clone();
    let mut training = TrainingState::default();
    for batch in batches {
        models.retrain_incremental(&mut training, store, &corpus.claims, batch);
    }
    models
}

fn bench_retrain(c: &mut Criterion) {
    let (corpus, base, store) = setup_scaled(retrain_corpus());
    let ids: Vec<usize> = (0..corpus.claims.len()).collect();
    let batch_size = ids.len().div_ceil(BATCHES);
    let batches: Vec<&[usize]> = ids.chunks(batch_size).collect();
    let refs: Vec<&ClaimRecord> = corpus.claims.iter().collect();

    // ---- warm ≡ cold model equivalence, asserted before timing ---------
    let cold = cold_replay_stream(&base, &corpus, &batches);
    let warm = warm_incremental_stream(&base, &corpus, &store, &batches);
    let cold_acc: f64 = cold.accuracy_on(&refs).iter().sum();
    let warm_acc: f64 = warm.accuracy_on(&refs).iter().sum();
    assert!(
        cold_acc > 1.5,
        "cold replay failed to learn its own training set: {cold_acc}"
    );
    assert!(
        warm_acc >= cold_acc - 0.25,
        "warm-start accuracy {warm_acc} fell beyond tolerance of cold {cold_acc}"
    );
    // and the streams genuinely reduced uncertainty the same way
    let probe = store.gather(&ids[..10.min(ids.len())]);
    let cold_u: f64 = cold.training_utilities(&probe).iter().sum();
    let warm_u: f64 = warm.training_utilities(&probe).iter().sum();
    let bootstrap_u: f64 = base.training_utilities(&probe).iter().sum();
    assert!(
        cold_u < bootstrap_u && warm_u < bootstrap_u,
        "training must reduce entropy: bootstrap {bootstrap_u}, cold {cold_u}, warm {warm_u}"
    );

    // ---- criterion timings ---------------------------------------------
    let mut group = c.benchmark_group("retrain");
    group.sample_size(10);
    group.bench_function("cold_replay", |b| {
        b.iter(|| black_box(cold_replay_stream(&base, &corpus, &batches)))
    });
    group.bench_function("warm_incremental", |b| {
        b.iter(|| black_box(warm_incremental_stream(&base, &corpus, &store, &batches)))
    });
    group.finish();

    // ---- headline ratio ------------------------------------------------
    let rounds = if quick_mode() { 1 } else { 3 };
    let timed = |f: &mut dyn FnMut()| {
        let start = Instant::now();
        for _ in 0..rounds {
            f();
        }
        start.elapsed().as_secs_f64() / rounds as f64
    };
    let cold_s = timed(&mut || {
        black_box(cold_replay_stream(&base, &corpus, &batches));
    });
    let warm_s = timed(&mut || {
        black_box(warm_incremental_stream(&base, &corpus, &store, &batches));
    });
    println!(
        "retrain stream ({} claims, {} batches): cold replay {:.1} ms | warm incremental {:.1} ms \
         ({:.2}x) | accuracy cold {:.2} vs warm {:.2}",
        ids.len(),
        batches.len(),
        cold_s * 1e3,
        warm_s * 1e3,
        cold_s / warm_s,
        cold_acc,
        warm_acc,
    );
    if !quick_mode() {
        assert!(
            cold_s >= 3.0 * warm_s,
            "warm-start retrain must be ≥3× the from-scratch replay: {:.1} ms vs {:.1} ms",
            warm_s * 1e3,
            cold_s * 1e3
        );
    }
}

fn bench_utilities(c: &mut Criterion) {
    let (corpus, mut models, store) = setup_scaled(utility_corpus());
    let refs: Vec<&ClaimRecord> = corpus.claims.iter().collect();
    models.retrain(&mut TrainingState::default(), &refs, 1);

    // 10 000 open claims, cycling the corpus
    let n = if quick_mode() { 1_000 } else { 10_000 };
    let ids: Vec<usize> = (0..n).map(|i| i % corpus.claims.len()).collect();
    let rows = store.gather(&ids);
    // the legacy loop's input: one owned vector per claim, pre-featurized
    // (exactly what the engine's sessions used to hold)
    let vectors: Vec<SparseVector> = ids
        .iter()
        .map(|&id| store.features(id).to_owned_vector())
        .collect();

    // ---- batched ≡ per-claim parity, asserted before timing ------------
    let batched = models.training_utilities(&rows);
    assert_eq!(batched.len(), n);
    for (i, v) in vectors.iter().enumerate().step_by(97) {
        let scalar = models.training_utility(v);
        assert!(
            (scalar - batched[i]).abs() < 1e-4,
            "row {i}: scalar {scalar} vs batched {}",
            batched[i]
        );
    }
    // ---- fused vectorized ≡ scalar reference kernel, every row ---------
    let reference = models.training_utilities_reference(&rows);
    assert_eq!(reference.len(), n);
    for (i, (fast, slow)) in batched.iter().zip(&reference).enumerate() {
        assert!(
            (fast - slow).abs() < 1e-4,
            "row {i}: vectorized {fast} vs reference {slow}"
        );
    }

    // ---- criterion timings ---------------------------------------------
    let mut group = c.benchmark_group("utility");
    group.sample_size(10);
    group.bench_function("per_claim", |b| {
        b.iter(|| -> f64 {
            vectors
                .iter()
                .map(|v| models.training_utility(black_box(v)))
                .sum()
        })
    });
    group.bench_function("batched", |b| {
        b.iter(|| black_box(models.training_utilities(black_box(&rows))))
    });
    group.bench_function("batched_reference", |b| {
        b.iter(|| black_box(models.training_utilities_reference(black_box(&rows))))
    });
    group.finish();

    // ---- headline ratio ------------------------------------------------
    let rounds = if quick_mode() { 1 } else { 3 };
    let timed = |f: &mut dyn FnMut()| {
        let start = Instant::now();
        for _ in 0..rounds {
            f();
        }
        start.elapsed().as_secs_f64() / rounds as f64
    };
    let per_claim_s = timed(&mut || {
        let total: f64 = vectors
            .iter()
            .map(|v| models.training_utility(black_box(v)))
            .sum();
        black_box(total);
    });
    let batched_s = timed(&mut || {
        black_box(models.training_utilities(&rows));
    });
    let reference_s = timed(&mut || {
        black_box(models.training_utilities_reference(&rows));
    });
    println!(
        "utility scoring ({n} claims): per-claim {:.1} ms | scalar fused {:.1} ms | \
         vectorized fused {:.1} ms ({:.2}x per-claim, {:.2}x scalar)",
        per_claim_s * 1e3,
        reference_s * 1e3,
        batched_s * 1e3,
        per_claim_s / batched_s,
        reference_s / batched_s,
    );
    if !quick_mode() {
        assert!(
            per_claim_s >= 5.0 * batched_s,
            "batched utility scoring must be ≥5× the per-claim loop: {:.1} ms vs {:.1} ms",
            batched_s * 1e3,
            per_claim_s * 1e3
        );
        // the aligned-CSR + fast-entropy claim: the vectorized fused
        // kernel must beat its own scalar twin, same fusion, same rows.
        // The floor is 1.35×, not the 2× of the other ratios, on purpose:
        // at this corpus scale each claim streams ~114 weight columns ×
        // ~1.9 KB from L2/L3, so BOTH kernels are fill-bandwidth-bound
        // for most of the sweep and the twin ratio compresses (measured
        // 1.5–1.9× across machines; a hot-cache run of the vectorized
        // kernel sits at ~0.5× its streaming time, which is where the
        // remaining gap lives). The ≥ 5× per-claim floor above and the
        // ≥ 2× batch-entropy floor below carry the vectorization claim.
        assert!(
            reference_s >= 1.35 * batched_s,
            "the vectorized fused kernel must be ≥1.35× the scalar reference: \
             {:.1} ms vs {:.1} ms",
            batched_s * 1e3,
            reference_s * 1e3
        );
    }

    // ---- classifier batch paths: aligned FMA sweep vs per-row scalar ----
    // `entropy_batch_into` is the kernel Definition 7 leans on when the
    // fusion is bypassed (single-classifier callers): fused
    // multiply-adds over the feature-major block, one reused scratch row,
    // entropy folded out of raw scores with one `ln` per row. The scalar
    // baseline is what every caller did before the batch path existed:
    // `prediction_entropy` per row (the exact scoring kernel, a fresh Vec
    // of probabilities, libm softmax, then `Σ −p ln p`).
    let clf = models.classifier(PropertyKind::Relation);
    let mut batch_entropy: Vec<f64> = Vec::new();
    clf.entropy_batch_into(&rows, &mut batch_entropy);
    for (i, v) in vectors.iter().enumerate().step_by(97) {
        let scalar = clf.prediction_entropy(v);
        assert!(
            (scalar - batch_entropy[i]).abs() < 1e-3,
            "row {i}: scalar entropy {scalar} vs batch {}",
            batch_entropy[i]
        );
    }
    let batch_entropy_s = timed(&mut || {
        batch_entropy.clear();
        clf.entropy_batch_into(&rows, &mut batch_entropy);
        black_box(&batch_entropy);
    });
    let scalar_entropy_s = timed(&mut || {
        let total: f64 = vectors
            .iter()
            .map(|v| clf.prediction_entropy(black_box(v)))
            .sum();
        black_box(total);
    });
    println!(
        "classifier entropy ({n} rows, {} classes): per-row {:.1} ms | batched {:.1} ms ({:.2}x)",
        clf.labels().len(),
        scalar_entropy_s * 1e3,
        batch_entropy_s * 1e3,
        scalar_entropy_s / batch_entropy_s,
    );
    if !quick_mode() {
        assert!(
            scalar_entropy_s >= 2.0 * batch_entropy_s,
            "batched classifier entropy must be ≥2× the per-row scalar loop: \
             {:.1} ms vs {:.1} ms",
            batch_entropy_s * 1e3,
            scalar_entropy_s * 1e3
        );
    }
}

/// The row-major translation path `translate_view` replaced, over the
/// exported (row-major) state: per classifier, `bias + x.dot_dense(row)`
/// for every class, the libm softmax, then the top `k` by probability
/// descending, ties by id, found by partial selection.
fn translate_per_classifier(
    state: &ModelsState,
    features: SparseView<'_>,
    k: usize,
) -> [Vec<(String, f32)>; 4] {
    state.classifiers.each_ref().map(|c| {
        let model = c.model.as_ref().expect("every classifier is trained");
        let mut probs: Vec<f32> = (0..model.n_classes)
            .map(|class| {
                model.biases[class]
                    + features.dot_dense(&model.weights[class * model.dim..][..model.dim])
            })
            .collect();
        softmax_in_place(&mut probs);
        let mut ranked: Vec<(u32, f32)> = probs
            .into_iter()
            .enumerate()
            .map(|(id, p)| (id as u32, p))
            .collect();
        let order = |a: &(u32, f32), b: &(u32, f32)| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0));
        let taken = k.min(ranked.len());
        if taken > 0 && taken < ranked.len() {
            ranked.select_nth_unstable_by(taken - 1, order);
        }
        ranked.truncate(taken);
        ranked.sort_unstable_by(order);
        ranked
            .into_iter()
            .map(|(id, p)| (c.labels[id as usize].clone(), p))
            .collect()
    })
}

fn bench_translation(c: &mut Criterion) {
    let (corpus, mut models, store) = setup_scaled(utility_corpus());
    let refs: Vec<&ClaimRecord> = corpus.claims.iter().collect();
    let mut training = TrainingState::default();
    models.retrain(&mut training, &refs, 1);
    let k = SystemConfig::default().options_per_screen;
    let claims = corpus.claims.len();
    let state = models.export_state(&training);

    // ---- fused ≡ per-classifier, bit for bit, every claim --------------
    for id in 0..claims {
        let features = store.features(id);
        let fused = models.translate_view(features, k);
        let expected = translate_per_classifier(&state, features, k);
        for (kind, (got, want)) in PropertyKind::ALL
            .iter()
            .zip(fused.candidates.iter().zip(&expected))
        {
            let bits = |v: &[(String, f32)]| -> Vec<(String, u32)> {
                v.iter().map(|(l, p)| (l.clone(), p.to_bits())).collect()
            };
            assert_eq!(
                bits(got),
                bits(want),
                "claim {id}, {}: fused translation diverged",
                kind.name()
            );
        }
    }

    // ---- criterion timings ---------------------------------------------
    let mut group = c.benchmark_group("translate");
    group.sample_size(10);
    group.bench_function("per_claim", |b| {
        b.iter(|| {
            for id in 0..claims {
                black_box(models.translate_view(store.features(id), k));
            }
        })
    });
    group.bench_function("per_classifier", |b| {
        b.iter(|| {
            for id in 0..claims {
                black_box(translate_per_classifier(&state, store.features(id), k));
            }
        })
    });
    group.finish();

    // ---- headline ratio ------------------------------------------------
    let rounds = if quick_mode() { 1 } else { 20 };
    let timed = |f: &dyn Fn(usize)| {
        let start = Instant::now();
        for _ in 0..rounds {
            for id in 0..claims {
                f(id);
            }
        }
        start.elapsed().as_secs_f64() / (rounds * claims) as f64
    };
    let fused_s = timed(&|id| {
        black_box(models.translate_view(store.features(id), k));
    });
    let per_classifier_s = timed(&|id| {
        black_box(translate_per_classifier(&state, store.features(id), k));
    });
    let classes: usize = PropertyKind::ALL
        .iter()
        .map(|&kind| models.classifier(kind).labels().len())
        .sum();
    println!(
        "translation ({claims} claims, {classes} classes, k={k}): per-classifier {:.1} µs | \
         fused {:.1} µs per claim ({:.2}x)",
        per_classifier_s * 1e6,
        fused_s * 1e6,
        per_classifier_s / fused_s,
    );
    if !quick_mode() {
        assert!(
            per_classifier_s >= 4.0 * fused_s,
            "fused translation must be ≥4× the per-classifier path: {:.1} µs vs {:.1} µs",
            fused_s * 1e6,
            per_classifier_s * 1e6
        );
    }
}

/// p99 of a set of measured latencies, in microseconds.
fn p99_micros(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(f64::total_cmp);
    let rank = ((samples.len() as f64) * 0.99).ceil() as usize;
    samples[rank.saturating_sub(1).min(samples.len() - 1)]
}

/// Times `suggest` for one claim through a fresh session (µs); the
/// submit/screens setup is outside the measured window.
fn timed_suggest(engine: &Arc<Engine>, claim_id: usize) -> f64 {
    let session = engine.open_session("bench");
    engine.submit_report(session, &[claim_id]).expect("submit");
    let start = Instant::now();
    let suggestions = engine.suggest(session, claim_id).expect("suggest");
    let elapsed = start.elapsed().as_secs_f64() * 1e6;
    black_box(suggestions);
    engine.close_session(session).expect("close");
    elapsed
}

fn bench_retrain_storm(_c: &mut Criterion) {
    let corpus = Corpus::generate(CorpusConfig::small());
    let engine = Engine::with_options(
        corpus,
        SystemConfig::test(),
        EngineOptions {
            retrain_interval: None,
            ordering: OrderingStrategy::Sequential,
            ..EngineOptions::default()
        },
    );
    engine.pretrain(None);

    let claims: Vec<usize> = (0..8).collect();
    let passes = if quick_mode() { 2 } else { 25 };
    // one untimed suggest per claim first, so idle and storm runs both
    // start warm
    for &id in &claims {
        timed_suggest(&engine, id);
    }

    // ---- idle baseline --------------------------------------------------
    let mut idle: Vec<f64> = Vec::new();
    for _ in 0..passes {
        for &id in &claims {
            idle.push(timed_suggest(&engine, id));
        }
    }

    // ---- the storm: back-to-back epoch publishes ------------------------
    let epoch_before = engine.model_epoch();
    let stop = Arc::new(AtomicBool::new(false));
    let writer = {
        let engine = Arc::clone(&engine);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut published = 0u64;
            while !stop.load(Ordering::Acquire) {
                engine.pretrain(None);
                published += 1;
            }
            published
        })
    };
    let mut storm: Vec<f64> = Vec::new();
    for _ in 0..passes {
        for &id in &claims {
            storm.push(timed_suggest(&engine, id));
        }
    }
    stop.store(true, Ordering::Release);
    let published = writer.join().expect("storm writer");
    let epochs_advanced = engine.model_epoch() - epoch_before;

    let idle_p99 = p99_micros(idle);
    let storm_p99 = p99_micros(storm);
    let retrain_mean = engine.stats().retrain_latency.snapshot().mean_micros();
    println!(
        "suggest under retrain storm: idle p99 {:.0} µs | storm p99 {:.0} µs ({:.2}x) | \
         {published} retrains published ({epochs_advanced} epochs), mean retrain {:.0} µs",
        idle_p99,
        storm_p99,
        storm_p99 / idle_p99,
        retrain_mean,
    );
    assert!(
        epochs_advanced >= published,
        "every storm retrain must publish an epoch"
    );
    if !quick_mode() {
        assert!(
            published >= 1,
            "the storm must actually have retrained while suggests ran"
        );
        // the non-blocking guarantee: the suggest tail never absorbs a
        // retrain stall. Pre-PR4 the models sat behind a RwLock and every
        // reader waited out the whole retrain — p99 would sit at or above
        // the mean retrain latency; with snapshots it must stay far below.
        assert!(
            storm_p99 < 0.5 * retrain_mean,
            "suggest p99 {storm_p99} µs absorbed a retrain stall (mean retrain {retrain_mean} µs)"
        );
        // and stays near the idle tail. With ≥ 2 cores the trainer runs on
        // its own core and the tail must hold the ~1.2× target; on one
        // core the OS timeslices reader and trainer (~2× wall time plus
        // scheduler jitter is physics, not lock contention — the stall
        // bound above is the load-bearing assertion there).
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let allowed = if cores >= 2 { 1.2 } else { 5.0 };
        assert!(
            storm_p99 <= allowed * idle_p99,
            "storm p99 {storm_p99} µs vs idle p99 {idle_p99} µs exceeds {allowed}x"
        );
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_retrain, bench_utilities, bench_translation, bench_retrain_storm
}
criterion_main!(benches);
