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
//!   reference kernel. All three sweep the same feature-major weight
//!   blocks, so the floors guard what the batched pass adds on top:
//!   batched ≥ 1.2× per-claim (one reused scratch row and a fused
//!   entropy instead of a probability vector, a libm softmax and a
//!   second entropy pass per claim and classifier), and the vectorized
//!   fused sweep (aligned CSR rows + `exp_approx` entropy) ≥ 1.1× its
//!   scalar twin (both stream the same ~200 KB of weight columns per
//!   claim, so the sweep is mostly L2-fill-bound and the twin ratio is
//!   small). Losing either would bring its ratio to about 1×.
//! * `translate/*` — claim translation (§3.1, top-k per property) over
//!   the utility corpus's label spaces: `per_claim` is
//!   `SystemModels::translate_view`, which ranks all four classifiers
//!   by sweeping each one's feature-major rows; `per_classifier` the
//!   row-major path it replaced, rebuilt here from the exported
//!   row-major state (per classifier, a gathered dot product per class,
//!   then a ranking). Bit-identical output is asserted on every claim
//!   before timing; acceptance target: fused ≥ 4× per-classifier.
//! * `report/*` — a submitted report's work over 10-claim reports:
//!   `one_sweep` translates each claim and keeps the training utility its
//!   sweep returns; `two_sweeps` translates each claim, then scores the
//!   report's utilities in one `training_utilities` batch, the way the
//!   engine did before translation returned the utility. Both outputs are
//!   asserted bit-identical before timing; the ratio is printed, not
//!   gated.
//! * the **retrain storm** — suggest latency on a live engine in
//!   alternating idle and storm windows; in each storm window a writer
//!   thread posts verdicts on fresh claims, every [`STORM_INTERVAL`] of
//!   which the engine retrains in the background on its one trainer
//!   thread, as in production, so epochs publish back to back (each
//!   retiring the one before while readers still hold it); the window
//!   samples once the first of them is out. With snapshot swaps readers
//!   never wait on the trainer; the median of the per-window storm/idle
//!   p99 ratios must stay near 1 instead of absorbing whole retrain
//!   latencies.
//!
//! The warm≡cold model-equivalence assertion (accuracy parity on the full
//! stream), the batched≡scalar utility parity, the fused≡per-classifier
//! translation parity and the one-sweep≡two-sweeps report parity run
//! **before** anything is timed, in `--quick` smoke mode too. The latency-ratio assertions
//! run only in full mode: a one-shot smoke iteration has no stable tail.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use scrutinizer_core::{
    FeatureStore, ModelsState, OrderingStrategy, PropertyKind, SystemConfig, SystemModels,
    TrainingState, Translation,
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
        // All three paths sweep the same feature-major blocks, so neither
        // ratio is the old row-major → feature-major gap. Full runs on a
        // 2-core container have read 1.30–2.10× per-claim and 1.23–1.72×
        // scalar; each floor sits under its lowest reading and over the
        // ~1× that losing the guarded work would give.
        assert!(
            per_claim_s >= 1.2 * batched_s,
            "batched utility scoring must be ≥1.2× the per-claim loop: {:.1} ms vs {:.1} ms",
            batched_s * 1e3,
            per_claim_s * 1e3
        );
        // the aligned-CSR + fast-entropy claim: the vectorized fused
        // kernel must beat its own scalar twin, same fusion, same rows
        assert!(
            reference_s >= 1.1 * batched_s,
            "the vectorized fused kernel must be ≥1.1× the scalar reference: \
             {:.1} ms vs {:.1} ms",
            batched_s * 1e3,
            reference_s * 1e3
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
        let (fused, _) = models.translate_view(features, k);
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

    bench_report(c, &models, &store, k);
}

/// A 10-claim report translated with the utility each claim's sweep
/// returns.
fn report_one_sweep(
    models: &SystemModels,
    store: &FeatureStore,
    report: &[usize],
    k: usize,
) -> Vec<(Translation, f64)> {
    report
        .iter()
        .map(|&id| models.translate_view(store.features(id), k))
        .collect()
}

/// The same report translated claim by claim, then its utilities scored
/// in a second, batched sweep of the weights.
fn report_two_sweeps(
    models: &SystemModels,
    store: &FeatureStore,
    report: &[usize],
    k: usize,
) -> (Vec<Translation>, Vec<f64>) {
    let translations = report
        .iter()
        .map(|&id| models.translate_view(store.features(id), k).0)
        .collect();
    (
        translations,
        models.training_utilities(&store.gather(report)),
    )
}

fn bench_report(c: &mut Criterion, models: &SystemModels, store: &FeatureStore, k: usize) {
    let ids: Vec<usize> = (0..store.len()).collect();
    let reports: Vec<&[usize]> = ids.chunks(10).collect();

    // ---- one sweep ≡ two sweeps, bit for bit, every report -------------
    let bits = |t: &Translation| -> Vec<Vec<(String, u32)>> {
        t.candidates
            .iter()
            .map(|v| v.iter().map(|(l, p)| (l.clone(), p.to_bits())).collect())
            .collect()
    };
    for report in &reports {
        let one = report_one_sweep(models, store, report, k);
        let (translations, utilities) = report_two_sweeps(models, store, report, k);
        for (i, ((t, u), (want_t, want_u))) in one
            .iter()
            .zip(translations.iter().zip(&utilities))
            .enumerate()
        {
            let id = report[i];
            assert_eq!(bits(t), bits(want_t), "claim {id}: translation diverged");
            assert_eq!(u.to_bits(), want_u.to_bits(), "claim {id}: {u} vs {want_u}");
        }
    }

    // ---- criterion timings ---------------------------------------------
    let mut group = c.benchmark_group("report");
    group.sample_size(10);
    group.bench_function("one_sweep", |b| {
        b.iter(|| {
            for report in &reports {
                black_box(report_one_sweep(models, store, report, k));
            }
        })
    });
    group.bench_function("two_sweeps", |b| {
        b.iter(|| {
            for report in &reports {
                black_box(report_two_sweeps(models, store, report, k));
            }
        })
    });
    group.finish();

    // ---- headline ratio ------------------------------------------------
    let rounds = if quick_mode() { 1 } else { 20 };
    let timed = |f: &dyn Fn(&[usize])| {
        let start = Instant::now();
        for _ in 0..rounds {
            for report in &reports {
                f(report);
            }
        }
        start.elapsed().as_secs_f64() / (rounds * ids.len()) as f64
    };
    let one_s = timed(&|report| {
        black_box(report_one_sweep(models, store, report, k));
    });
    let two_s = timed(&|report| {
        black_box(report_two_sweeps(models, store, report, k));
    });
    println!(
        "report translation ({} claims in 10-claim reports): two sweeps {:.1} µs | \
         one sweep {:.1} µs per claim ({:.2}x)",
        ids.len(),
        two_s * 1e6,
        one_s * 1e6,
        two_s / one_s,
    );
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

/// Verdicts per background retrain in the retrain storm.
const STORM_INTERVAL: usize = 16;

fn bench_retrain_storm(_c: &mut Criterion) {
    // `small()` label spaces and a pretrain on its 80 claims, with enough
    // claims beyond them for every storm retrain to train on fresh
    // verdicts
    let corpus = Corpus::generate(CorpusConfig {
        n_claims: 1280,
        n_sentences: 6400,
        ..CorpusConfig::small()
    });
    let engine = Engine::new(
        corpus,
        SystemConfig::test(),
        EngineOptions {
            retrain_interval: Some(STORM_INTERVAL),
            ordering: OrderingStrategy::Sequential,
        },
    );
    let pretrained: Vec<usize> = (0..80).collect();
    engine.pretrain(Some(&pretrained));
    // the storm's checker submits every claim it will judge up front, so
    // during a window its thread only posts verdicts and waits
    let verdicts: Vec<usize> = (80..engine.corpus().claims.len()).collect();
    let checker = engine.open_session("storm");
    engine
        .submit_report(checker, &verdicts)
        .expect("storm claims submit");
    let mut verdicts = verdicts.chunks_exact(STORM_INTERVAL);

    let claims: Vec<usize> = (0..8).collect();
    // the same 2 (quick) or 25 (full) passes per side as one long idle and
    // one long storm window would take, as alternating one-pass windows:
    // a reader descheduled once costs its window a whole timeslice, and
    // the median over many windows outvotes a few of them
    let windows = if quick_mode() { 2 } else { 25 };
    let suggest_window = || -> Vec<f64> {
        claims
            .iter()
            .map(|&id| timed_suggest(&engine, id))
            .collect()
    };
    // one untimed suggest per claim first, so idle and storm runs both
    // start warm
    for &id in &claims {
        timed_suggest(&engine, id);
    }

    let epoch_before = engine.model_epoch();
    let mut published = 0u64;
    let mut storm: Vec<f64> = Vec::new();
    let mut ratios: Vec<f64> = Vec::new();
    for _ in 0..windows {
        // ---- idle window ------------------------------------------------
        let idle_p99 = p99_micros(suggest_window());

        // ---- storm window: back-to-back epoch publishes -------------------
        // the window samples only once the writer has published, so every
        // storm window reads a fresh epoch with the next retrain in flight;
        // the writer checks `stop` only after a publish, so joining it
        // never leaves a retrain running into the next idle window
        let stop = AtomicBool::new(false);
        let epoch = engine.model_epoch();
        let (window, window_published) = std::thread::scope(|scope| {
            let verdicts = &mut verdicts;
            let writer = scope.spawn(|| {
                let mut published = 0u64;
                loop {
                    let batch = verdicts
                        .next()
                        .expect("the storm corpus ran out of unverified claims");
                    for &id in batch {
                        engine
                            .post_verdict(checker, id, true, None)
                            .expect("storm verdict");
                    }
                    // the last verdict handed the batch to the trainer
                    // thread; wait for its epoch
                    engine.flush_retrains();
                    published += 1;
                    if stop.load(Ordering::Acquire) {
                        break published;
                    }
                }
            });
            while engine.model_epoch() == epoch {
                std::thread::sleep(Duration::from_micros(100));
            }
            let window = suggest_window();
            stop.store(true, Ordering::Release);
            (window, writer.join().expect("storm writer"))
        });
        published += window_published;
        ratios.push(p99_micros(window.clone()) / idle_p99);
        storm.extend(window);
    }
    let epochs_advanced = engine.model_epoch() - epoch_before;

    ratios.sort_by(f64::total_cmp);
    let median_ratio = ratios[ratios.len() / 2];
    let storm_p99 = p99_micros(storm);
    let retrain_mean = engine.stats().retrain_latency.snapshot().mean_micros();
    println!(
        "suggest under retrain storm: storm/idle p99 over {windows} window pairs {ratios:.2?} \
         (median {median_ratio:.2}x) | storm p99 {storm_p99:.0} µs | \
         {published} retrains published ({epochs_advanced} epochs), mean retrain {retrain_mean:.0} µs",
    );
    assert!(
        epochs_advanced >= published,
        "every storm retrain must publish an epoch"
    );
    assert!(
        published >= windows,
        "every storm window must have retrained while suggests ran"
    );
    if !quick_mode() {
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
            median_ratio <= allowed,
            "median storm/idle p99 ratio {median_ratio:.2}x over {ratios:.2?} exceeds {allowed}x"
        );
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_retrain, bench_utilities, bench_translation, bench_retrain_storm
}
criterion_main!(benches);
