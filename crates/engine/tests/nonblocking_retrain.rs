//! Non-blocking learning: verdicts append to the verified log, a
//! background trainer trains what follows its cursor into that log and
//! publishes epoch-versioned snapshots, and no reader path ever waits on
//! a retrain.
//!
//! The determinism assertion is structural, not timing-based: retrains in
//! the storm train on identical data from identical snapshots, so *every*
//! published epoch carries identical models — any suggest that runs while
//! a retrain is in flight must therefore reproduce the baseline exactly,
//! whichever snapshot it grabbed. A stalled or torn read would surface as
//! a mismatch or a hang.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use scrutinizer_core::{OrderingStrategy, PropertyKind, SystemConfig, SystemModels};
use scrutinizer_corpus::{Corpus, CorpusConfig};
use scrutinizer_crowd::{Worker, WorkerConfig};
use scrutinizer_engine::engine::{Engine, EngineOptions, EngineParts};
use scrutinizer_sim::SimEnv;

fn engine_with_interval(retrain_interval: Option<usize>) -> Arc<Engine> {
    let corpus = Corpus::generate(CorpusConfig::small());
    Engine::new(
        corpus,
        SystemConfig::test(),
        EngineOptions {
            retrain_interval,
            ordering: OrderingStrategy::Sequential,
        },
    )
}

/// Drives one claim end to end and returns its suggestion SQL, through a
/// fresh session (the reader-path workload).
fn suggest_sqls(engine: &Arc<Engine>, claim_id: usize) -> Vec<String> {
    let session = engine.open_session("reader");
    engine.submit_report(session, &[claim_id]).expect("submit");
    let claim = &engine.corpus().claims[claim_id];
    let screens = engine.screens(session, claim_id).expect("screens").screens;
    for screen in screens {
        let truth = match screen.kind {
            scrutinizer_core::PropertyKind::Relation => claim.relation.clone(),
            scrutinizer_core::PropertyKind::Key => claim.key.clone(),
            scrutinizer_core::PropertyKind::Attribute => claim.attributes[0].clone(),
            scrutinizer_core::PropertyKind::Formula => unreachable!(),
        };
        engine
            .post_answer(session, claim_id, screen.kind, &truth)
            .expect("answer");
    }
    let sqls = engine
        .suggest(session, claim_id)
        .expect("suggest never blocks or errors during a retrain")
        .iter()
        .map(|s| s.sql.clone())
        .collect();
    engine.close_session(session).expect("close");
    sqls
}

#[test]
fn verdicts_schedule_background_retrains_that_advance_the_epoch() {
    let engine = engine_with_interval(Some(5));
    assert_eq!(engine.model_epoch(), 0, "bootstrap is epoch 0");

    // drive enough verdicts to cross the threshold at least twice
    for claim_id in 0..12 {
        let mut worker = Worker::new(
            format!("w{claim_id}"),
            WorkerConfig {
                accuracy: 1.0,
                skip_probability: 0.0,
                seed: 100 + claim_id as u64,
                ..WorkerConfig::default()
            },
        );
        engine.verify_claim_with(claim_id, &mut worker);
    }
    engine.flush_retrains();

    let stats = engine.stats();
    assert!(
        stats.model_epoch.get() >= 1,
        "background retrains must publish new epochs: {stats:?}"
    );
    assert!(
        stats.background_retrains.get() >= 1,
        "the trainer executor must have run: {stats:?}"
    );
    assert_eq!(
        stats.pending_examples.get(),
        0,
        "flush drains the pending-examples log"
    );
    assert_eq!(
        stats.retrains.get(),
        stats.background_retrains.get(),
        "no pretrain happened, so every retrain was a background one"
    );
    assert_eq!(engine.model_epoch(), stats.model_epoch.get());
    assert!(stats.retrain_latency.snapshot().count >= stats.retrains.get());
}

#[test]
fn suggestions_stay_deterministic_and_nonblocking_during_a_retrain_storm() {
    let engine = engine_with_interval(None);
    engine.pretrain(None);
    let base_epoch = engine.model_epoch();
    assert_eq!(base_epoch, 1, "pretrain publishes epoch 1");

    // baseline: suggestions under the pretrained snapshot, no writers
    let claims: Vec<usize> = (0..6).collect();
    let baseline: Vec<Vec<String>> = claims.iter().map(|&id| suggest_sqls(&engine, id)).collect();

    // storm: a writer publishes a stream of retrains on the full verified
    // set — identical inputs, so every published epoch has identical
    // models and the readers' results must be bit-identical whichever
    // snapshot they load
    let storm_done = Arc::new(AtomicBool::new(false));
    let writer = {
        let engine = Arc::clone(&engine);
        let done = Arc::clone(&storm_done);
        std::thread::spawn(move || {
            for _ in 0..4 {
                engine.pretrain(None);
            }
            done.store(true, Ordering::Release);
        })
    };

    let mut epochs_seen = std::collections::BTreeSet::new();
    let mut reads = 0usize;
    while !storm_done.load(Ordering::Acquire) || reads == 0 {
        for (&id, expected) in claims.iter().zip(&baseline) {
            epochs_seen.insert(engine.model_epoch());
            let got = suggest_sqls(&engine, id);
            assert_eq!(
                &got, expected,
                "claim {id}: suggestions diverged during the retrain storm"
            );
            reads += 1;
        }
    }
    writer.join().expect("writer thread");
    epochs_seen.insert(engine.model_epoch());

    assert_eq!(
        engine.model_epoch(),
        base_epoch + 4,
        "every storm retrain published an epoch"
    );
    assert!(
        epochs_seen.len() >= 2,
        "the epoch must be observed advancing while readers were live: {epochs_seen:?}"
    );
    assert!(
        reads >= claims.len(),
        "readers made progress during the storm"
    );
}

/// Each probe claim's top-5 ranking per property under `models`,
/// probabilities as bits, and its utility's bits.
type Fingerprint = (Vec<(String, u32)>, u64);

fn translations(engine: &Engine, models: &SystemModels, probes: &[usize]) -> Vec<Fingerprint> {
    probes
        .iter()
        .map(|&id| {
            let (translation, utility) =
                models.translate_view(engine.feature_store().features(id), 5);
            let ranked = PropertyKind::ALL
                .into_iter()
                .flat_map(|kind| {
                    translation
                        .of(kind)
                        .iter()
                        .map(|(label, p)| (label.clone(), p.to_bits()))
                })
                .collect();
            (ranked, utility.to_bits())
        })
        .collect()
}

/// A retrain copies a weight row before it first writes it, into a row
/// the retired epoch alone held when no reader holds that epoch: a
/// reader's snapshot reads the same weights however many epochs publish
/// after it, and the rows it reads are never recycled while it holds
/// them.
#[test]
fn a_held_snapshot_reads_the_same_weights_while_later_epochs_recycle_rows() {
    let engine = engine_with_interval(Some(8));
    engine.pretrain(Some(&(0..40).collect::<Vec<_>>()));
    let mut worker = Worker::new(
        "w",
        WorkerConfig {
            accuracy: 1.0,
            skip_probability: 0.0,
            seed: 11,
            ..WorkerConfig::default()
        },
    );
    let mut next_claim = 40..;
    let mut background_epoch = || {
        let stats = engine.stats_ref();
        let (copied, recycled) = (
            stats.retrain_rows_copied.get(),
            stats.retrain_rows_recycled.get(),
        );
        for id in next_claim.by_ref().take(8) {
            engine.verify_claim_with(id, &mut worker);
        }
        engine.flush_retrains();
        (
            stats.retrain_rows_copied.get() - copied,
            stats.retrain_rows_recycled.get() - recycled,
        )
    };
    let probes: Vec<usize> = (0..64).collect();

    // epoch 2: the first background epoch
    background_epoch();
    let held = engine.models_snapshot();
    assert_eq!(held.epoch, 2);
    let before = translations(&engine, &held.models, &probes);

    // epoch 3 copies into the rows of epoch 1, which no reader holds
    let (copied, recycled) = background_epoch();
    assert_eq!(engine.model_epoch(), 3);
    assert!(copied > 0, "a background epoch copies the rows it trains");
    assert!(
        recycled > 0,
        "the second background epoch recycles the rows epoch 1 alone held"
    );
    assert!(recycled <= copied);
    assert!(translations(&engine, &held.models, &probes) == before);

    // epoch 4 retires the held epoch 2: none of its rows may be reused
    let (copied, recycled) = background_epoch();
    assert_eq!(engine.model_epoch(), 4);
    assert!(copied > 0);
    assert_eq!(recycled, 0, "a snapshot a reader holds gives up no row");
    assert!(
        translations(&engine, &held.models, &probes) == before,
        "the held epoch's rankings moved"
    );
    assert!(
        translations(&engine, &engine.models_snapshot().models, &probes) != before,
        "two epochs of training changed no ranking, so the check above shows nothing"
    );
}

/// The trainer job holds a handle on the engine, so when the caller drops
/// its only handle mid-retrain, the engine drops on the trainer thread
/// once the job ends. Nothing may wait on that thread from inside its own
/// job: the engine (and everything it owns) must go away within a bounded
/// wait instead of hanging the trainer forever.
#[test]
fn dropping_the_engine_during_a_background_retrain_does_not_hang() {
    let config = SystemConfig::test();
    let parts = EngineParts::bootstrap(Corpus::generate(CorpusConfig::small()), &config);
    let corpus = Arc::downgrade(&parts.corpus);
    let options = EngineOptions {
        retrain_interval: Some(1),
        ordering: OrderingStrategy::Sequential,
    };
    let (engine, _) =
        Engine::open(parts, config, options, SimEnv::production(), None).expect("in-memory open");
    let mut worker = Worker::new(
        "w",
        WorkerConfig {
            accuracy: 1.0,
            skip_probability: 0.0,
            seed: 7,
            ..WorkerConfig::default()
        },
    );
    // the verdict crosses the interval of 1 and hands the trainer a job
    engine.verify_claim_with(0, &mut worker);
    let weak = Arc::downgrade(&engine);
    drop(engine);

    let deadline = Instant::now() + Duration::from_secs(30);
    while weak.upgrade().is_some() || corpus.upgrade().is_some() {
        assert!(
            Instant::now() < deadline,
            "the engine outlived its last handle by 30 s"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
}
