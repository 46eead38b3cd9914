//! Durability round trips over simulated storage: every acknowledged
//! state-changing op is in the WAL (conservation law), a crash loses the
//! volatile tail and nothing else, and recovery rebuilds stats, sessions,
//! and the published model epoch byte-for-byte from the checkpoint image
//! plus the replayed tail.
//!
//! The kill -9 variant against the real binary lives in
//! `crash_recovery.rs`; this file model-checks the same contract in-process
//! over [`SimStorage`], where a crash is a deterministic truncation to the
//! fsynced prefix.

use std::io;
use std::sync::{Arc, Mutex};

use scrutinizer_core::{OrderingStrategy, PropertyKind, SystemConfig};
use scrutinizer_corpus::{Corpus, CorpusConfig};
use scrutinizer_crowd::{Worker, WorkerConfig};
use scrutinizer_engine::engine::{Engine, EngineOptions, EngineParts};
use scrutinizer_engine::{ClaimQuestions, DurableEnv, RecoveryReport};
use scrutinizer_learn::softmax::GRAD_SQ_INIT;
use scrutinizer_sim::{SimEnv, SimStorage, Storage};
use scrutinizer_wal::WalOptions;

fn durable_env(storage: &Arc<SimStorage>) -> DurableEnv {
    DurableEnv {
        storage: Arc::clone(storage) as Arc<dyn Storage>,
        dir: "data".to_string(),
        wal: WalOptions::default(),
    }
}

fn recover_engine(storage: &Arc<SimStorage>) -> (Arc<Engine>, RecoveryReport) {
    recover_on(durable_env(storage), OrderingStrategy::Sequential)
        .expect("recovery over healthy storage cannot fail")
}

fn recover_on(
    durable: DurableEnv,
    ordering: OrderingStrategy,
) -> io::Result<(Arc<Engine>, RecoveryReport)> {
    let config = SystemConfig::test();
    let parts = EngineParts::bootstrap(Corpus::generate(CorpusConfig::small()), &config);
    let options = EngineOptions {
        retrain_interval: Some(4),
        ordering,
    };
    Engine::open(parts, config, options, SimEnv::production(), Some(durable))
}

fn worker(seed: u64) -> Worker {
    Worker::new(
        format!("w{seed}"),
        WorkerConfig {
            accuracy: 1.0,
            skip_probability: 0.0,
            seed,
            ..WorkerConfig::default()
        },
    )
}

/// The durable subset of the engine's stats: everything recovery promises
/// to restore exactly. (Suggestions, cache, and latency series are
/// read-path observability and deliberately volatile.)
fn durable_subset(engine: &Engine) -> (u64, u64, u64, u64, u64, u64, u64, u64, u64) {
    let s = engine.stats();
    (
        s.sessions_opened.get(),
        s.sessions_closed.get(),
        s.claims_verified.get(),
        s.answers_posted.get(),
        s.retrains.get(),
        s.background_retrains.get(),
        s.examples_trained.get(),
        s.model_epoch.get(),
        s.pending_examples.get(),
    )
}

#[test]
fn fresh_directory_starts_fresh_and_every_acked_op_hits_the_wal() {
    let storage = SimStorage::new();
    let (engine, report) = recover_engine(&storage);
    assert_eq!(report, RecoveryReport::default(), "nothing to recover");
    assert!(engine.is_durable());
    assert_eq!(engine.model_epoch(), 0);

    for claim_id in 0..6 {
        engine.verify_claim_with(claim_id, &mut worker(100 + claim_id as u64));
    }
    engine.flush_retrains();

    // conservation law: appends == acknowledged state-changing ops. Each
    // verify_claim_with drives exactly one open, one submit, its answers,
    // one verdict, and one close; every published epoch appends one more.
    let stats = engine.stats();
    let submits = stats.sessions_opened.get(); // one report per session here
    let expected = stats.sessions_opened.get()
        + stats.sessions_closed.get()
        + submits
        + stats.answers_posted.get()
        + stats.claims_verified.get()
        + stats.retrains.get();
    let wal = engine.wal_metrics().expect("durable engine has a WAL");
    assert_eq!(
        wal.appends, expected,
        "WAL appends must balance acked ops: {stats:?}"
    );
    assert!(wal.bytes_written > 0);
    assert!(wal.fsyncs > 0, "group commit still fsyncs acked ops");
    assert!(
        wal.fsyncs <= wal.appends,
        "a batch never fsyncs more than once per record"
    );
    assert_eq!(
        wal.last_checkpoint_epoch,
        stats.model_epoch.get(),
        "every publish checkpoints"
    );
}

#[test]
fn crash_and_recover_restores_the_durable_state_exactly() {
    let storage = SimStorage::new();
    let (engine, _) = recover_engine(&storage);

    for claim_id in 0..6 {
        engine.verify_claim_with(claim_id, &mut worker(200 + claim_id as u64));
    }
    engine.flush_retrains();
    // more verdicts past the checkpoint so recovery must replay a tail,
    // not just load the image
    for claim_id in 6..9 {
        engine.verify_claim_with(claim_id, &mut worker(200 + claim_id as u64));
    }
    let before = durable_subset(&engine);
    let epoch_before = engine.model_epoch();
    drop(engine);

    storage.crash();
    let (recovered, report) = recover_engine(&storage);
    assert_eq!(
        durable_subset(&recovered),
        before,
        "recovery must rebuild the durable stats exactly (report: {report:?})"
    );
    assert_eq!(report.resumed_epoch, epoch_before);
    assert!(
        report.checkpoint_epoch >= 1,
        "the retrain storm checkpointed at least once"
    );
    assert!(
        report.records_replayed > 0,
        "the post-checkpoint verdicts live in the tail"
    );

    // the recovered engine keeps working — and a second crash/recover
    // round trip is just as exact (recovery is idempotent)
    recovered.verify_claim_with(9, &mut worker(299));
    recovered.flush_retrains();
    let again = durable_subset(&recovered);
    drop(recovered);
    storage.crash();
    let (second, _) = recover_engine(&storage);
    assert_eq!(durable_subset(&second), again);
}

#[test]
fn missing_snapshot_blob_fails_recovery_instead_of_serving_bootstrap_models() {
    let storage = SimStorage::new();
    let (engine, _) = recover_engine(&storage);
    for claim_id in 0..6 {
        engine.verify_claim_with(claim_id, &mut worker(300 + claim_id as u64));
    }
    engine.flush_retrains();
    let epoch = engine.model_epoch();
    assert!(epoch >= 1, "the verdicts retrained at least once");
    drop(engine);
    storage.crash();

    // the publish order guarantees a checkpoint at epoch E has its epoch-E
    // blob, so deleting it simulates corruption/external tampering —
    // recovery must refuse rather than resume at a trained epoch on
    // untrained bootstrap weights
    storage
        .remove(&format!("data/epoch-{epoch:010}.snap"))
        .expect("the checkpointed epoch's blob exists");
    match recover_on(durable_env(&storage), OrderingStrategy::Sequential) {
        Ok(_) => panic!("a checkpoint without its snapshot blob must fail recovery"),
        Err(error) => assert_eq!(error.kind(), std::io::ErrorKind::InvalidData),
    }
}

#[test]
fn crash_between_blob_and_record_resumes_the_previous_epoch() {
    let storage = SimStorage::new();
    let (engine, _) = recover_engine(&storage);
    for claim_id in 0..6 {
        engine.verify_claim_with(claim_id, &mut worker(400 + claim_id as u64));
    }
    engine.flush_retrains();
    let epoch = engine.model_epoch();
    assert!(epoch >= 1, "the verdicts retrained at least once");
    let before = durable_subset(&engine);
    drop(engine);
    storage.crash();

    // the next publish wrote its blob (written before the WAL gate is
    // taken) and crashed before its EpochPublished record: the blob is
    // durable but nothing references it. Its bytes are garbage on
    // purpose — recovery must never read it.
    let stray = format!("data/epoch-{:010}.snap", epoch + 1);
    storage
        .write_atomic(&stray, &mut |out| out.write_all(b"torn publish"))
        .expect("stray blob written");
    let (recovered, report) = recover_engine(&storage);
    assert_eq!(report.resumed_epoch, epoch, "the previous epoch resumes");
    assert_eq!(durable_subset(&recovered), before);

    // the next publish reuses the epoch number and overwrites the stray
    // blob, so a second crash recovers onto the new epoch's real weights
    for claim_id in 6..10 {
        recovered.verify_claim_with(claim_id, &mut worker(400 + claim_id as u64));
    }
    recovered.flush_retrains();
    assert!(recovered.model_epoch() > epoch, "a new epoch was published");
    assert!(storage.read(&stray).expect("blob").starts_with(b"SCRMDLv1"));
    let after = durable_subset(&recovered);
    drop(recovered);
    storage.crash();
    let (second, report) = recover_engine(&storage);
    assert_eq!(durable_subset(&second), after);
    assert!(report.resumed_epoch > epoch);
}

#[test]
fn open_sessions_survive_a_crash_and_finish_after_recovery() {
    let storage = SimStorage::new();
    let (engine, _) = recover_engine(&storage);

    let claim_id = 0usize;
    let claim = engine.corpus().claims[claim_id].clone();
    let session = engine.open_session("persistent-checker");
    engine.submit_report(session, &[claim_id]).expect("submit");
    let screens = engine.screens(session, claim_id).expect("screens").screens;
    for screen in &screens {
        let truth = match screen.kind {
            PropertyKind::Relation => claim.relation.clone(),
            PropertyKind::Key => claim.key.clone(),
            PropertyKind::Attribute => claim.attributes[0].clone(),
            PropertyKind::Formula => unreachable!(),
        };
        engine
            .post_answer(session, claim_id, screen.kind, &truth)
            .expect("answer");
    }
    drop(engine);
    storage.crash();

    let (recovered, report) = recover_engine(&storage);
    assert_eq!(report.sessions_restored, 1, "the open session came back");
    // the claim was fully screened before the crash, so the restored task
    // is ready to suggest and verdict — the session finishes normally
    let suggestions = recovered
        .suggest(session, claim_id)
        .expect("restored session suggests");
    assert!(!suggestions.is_empty(), "suggestions over restored models");
    recovered
        .post_verdict(session, claim_id, true, Some(0))
        .expect("verdict on the restored session");
    recovered.close_session(session).expect("close");
    assert_eq!(recovered.session_count(), 0);
    assert_eq!(recovered.stats().claims_verified.get(), 1);

    // an ILP session past its first batch, on pretrained models: a batch
    // is a function of the open claims, the model snapshot and the budget,
    // so the recovered engine plans the next batch exactly as the
    // uninterrupted one does
    let storage = SimStorage::new();
    let (engine, _) = recover_on(durable_env(&storage), OrderingStrategy::Ilp).expect("recovery");
    engine.pretrain(None);
    let session = engine.open_session("ilp-checker");
    let report: Vec<usize> = (0..60).collect();
    let first = engine.submit_report(session, &report).expect("submit");
    assert!(
        !first.is_empty() && first.len() < report.len(),
        "the first batch covers part of the report: {} of {}",
        first.len(),
        report.len()
    );
    for questions in &first {
        engine
            .post_verdict(session, questions.claim_id, true, None)
            .expect("verdict");
    }
    engine.flush_retrains();
    let ids =
        |batch: Vec<ClaimQuestions>| -> Vec<usize> { batch.iter().map(|q| q.claim_id).collect() };
    let uninterrupted = ids(engine.next_batch(session).expect("re-plan"));
    assert!(!uninterrupted.is_empty(), "open claims remain");
    drop(engine);
    storage.crash();

    let (recovered, report) =
        recover_on(durable_env(&storage), OrderingStrategy::Ilp).expect("recovery");
    assert_eq!(report.sessions_restored, 1);
    assert_eq!(
        ids(recovered
            .next_batch(session)
            .expect("re-plan after recovery")),
        uninterrupted,
        "recovery must reproduce the uninterrupted engine's next batch"
    );
}

/// Storage that, each time the checkpoint file is about to be written,
/// first copies what a crash at that instant would leave: every file's
/// durable prefix. After a publish, the copy is the data dir of a process
/// killed with that epoch's `EpochPublished` record durable but its
/// checkpoint not yet written.
struct CrashBeforeCheckpoint {
    inner: Arc<SimStorage>,
    crashed: Mutex<Option<Arc<SimStorage>>>,
}

impl CrashBeforeCheckpoint {
    fn capture(&self, dir: &str) -> io::Result<()> {
        let copy = SimStorage::new();
        for name in self.inner.list(dir)? {
            let path = format!("{dir}/{name}");
            let bytes = self.inner.read(&path)?;
            copy.append(&path, &bytes[..self.inner.durable_len(&path)])?;
            copy.sync(&path)?;
        }
        *self.crashed.lock().unwrap() = Some(copy);
        Ok(())
    }
}

impl Storage for CrashBeforeCheckpoint {
    fn create_dir_all(&self, dir: &str) -> io::Result<()> {
        self.inner.create_dir_all(dir)
    }
    fn list(&self, dir: &str) -> io::Result<Vec<String>> {
        self.inner.list(dir)
    }
    fn read(&self, path: &str) -> io::Result<Vec<u8>> {
        self.inner.read(path)
    }
    fn read_stream(&self, path: &str) -> io::Result<(Box<dyn io::Read>, u64)> {
        self.inner.read_stream(path)
    }
    fn append(&self, path: &str, bytes: &[u8]) -> io::Result<()> {
        self.inner.append(path, bytes)
    }
    fn sync(&self, path: &str) -> io::Result<()> {
        self.inner.sync(path)
    }
    fn truncate(&self, path: &str, len: u64) -> io::Result<()> {
        self.inner.truncate(path, len)
    }
    fn write_atomic(
        &self,
        path: &str,
        fill: &mut dyn FnMut(&mut dyn io::Write) -> io::Result<()>,
    ) -> io::Result<()> {
        if let Some(dir) = path.strip_suffix("/CHECKPOINT") {
            self.capture(dir)?;
        }
        self.inner.write_atomic(path, fill)
    }
    fn remove(&self, path: &str) -> io::Result<()> {
        self.inner.remove(path)
    }
    fn exists(&self, path: &str) -> bool {
        self.inner.exists(path)
    }
}

/// A durable engine over [`CrashBeforeCheckpoint`] storage after two
/// rounds of verdicts, each flushed into at least one epoch: the last
/// publish then has a checkpointed epoch before it, and the storage holds
/// the data dir of a crash between that publish's `EpochPublished`
/// record and its checkpoint.
fn engine_after_two_flushed_rounds() -> (Arc<CrashBeforeCheckpoint>, Arc<Engine>) {
    let storage = Arc::new(CrashBeforeCheckpoint {
        inner: SimStorage::new(),
        crashed: Mutex::new(None),
    });
    let (engine, _) = recover_on(
        DurableEnv {
            storage: Arc::clone(&storage) as Arc<dyn Storage>,
            dir: "data".to_string(),
            wal: WalOptions::default(),
        },
        OrderingStrategy::Sequential,
    )
    .expect("recovery over healthy storage cannot fail");
    for round in [0..4, 4..8] {
        for claim_id in round {
            engine.verify_claim_with(claim_id, &mut worker(500 + claim_id as u64));
        }
        engine.flush_retrains();
    }
    assert!(
        engine.model_epoch() >= 2,
        "two flushed rounds publish two epochs"
    );
    (storage, engine)
}

#[test]
fn crash_between_epoch_record_and_checkpoint_replays_the_epoch_from_its_blob() {
    let (storage, engine) = engine_after_two_flushed_rounds();
    let epoch = engine.model_epoch();
    let epoch_counters = |engine: &Engine| {
        let s = engine.stats();
        (
            s.model_epoch.get(),
            s.retrains.get(),
            s.background_retrains.get(),
            s.examples_trained.get(),
        )
    };
    let acknowledged = epoch_counters(&engine);
    let live_pending = engine.stats().pending_examples.get();
    let trained = engine.export_models_state();

    let crashed = storage
        .crashed
        .lock()
        .unwrap()
        .take()
        .expect("checkpointed");
    let (recovered, report) = recover_engine(&crashed);
    assert_eq!(
        report.checkpoint_epoch,
        epoch - 1,
        "the last checkpoint never landed"
    );
    assert_eq!(
        report.resumed_epoch, epoch,
        "replay published the last epoch"
    );
    assert!(
        recovered.export_models_state() == trained,
        "the replayed epoch's weights, accumulators and rehearsal log are the pre-crash ones, bit for bit"
    );
    assert_eq!(epoch_counters(&recovered), acknowledged);
    // the replayed epoch drained the examples it trained on
    let stats = recovered.stats();
    assert_eq!(stats.pending_examples.get(), live_pending);
    assert_eq!(
        stats.pending_examples.get() + stats.examples_trained.get(),
        stats.claims_verified.get(),
        "every verified claim is pending or trained, once"
    );

    // the replayed cursor names the same claims, not only as many: a tail
    // below the interval, flushed on the engine that never stopped and on
    // the recovered one, trains the same next epoch
    for engine in [&engine, &recovered] {
        for claim_id in 8..11 {
            engine.verify_claim_with(claim_id, &mut worker(500 + claim_id as u64));
        }
        engine.flush_retrains();
    }
    assert_eq!(recovered.model_epoch(), epoch + 1);
    assert_eq!(engine.model_epoch(), epoch + 1);
    assert!(
        recovered.export_models_state() == engine.export_models_state(),
        "the next epoch's weights, accumulators and rehearsal log match bit for bit"
    );
}

#[test]
fn training_continues_across_a_restart_from_an_epoch_blob() {
    let (storage, live) = engine_after_two_flushed_rounds();
    let epoch = live.model_epoch();
    let crashed = storage
        .crashed
        .lock()
        .unwrap()
        .take()
        .expect("checkpointed");
    let (recovered, report) = recover_engine(&crashed);
    assert_eq!(
        report.resumed_epoch, epoch,
        "the recovered engine replayed the last epoch from its blob"
    );
    let before = live.export_models_state();
    assert!(
        before.classifiers.iter().any(|c| c
            .model
            .as_ref()
            .is_some_and(|m| m.grad_sq_w.iter().any(|&g| g != GRAD_SQ_INIT))),
        "the published epochs advanced the accumulators past their initial value"
    );
    assert!(recovered.export_models_state() == before);

    // the same next verdict batch on the engine that never stopped and on
    // the recovered one
    for engine in [&live, &recovered] {
        for claim_id in 8..12 {
            engine.verify_claim_with(claim_id, &mut worker(500 + claim_id as u64));
        }
        engine.flush_retrains();
    }
    let next = live.model_epoch();
    assert!(next > epoch, "the batch published a new epoch");
    assert_eq!(recovered.model_epoch(), next);

    let (want, got) = (live.export_models_state(), recovered.export_models_state());
    let same_bits = |want: &[f32], got: &[f32]| {
        want.len() == got.len()
            && want
                .iter()
                .zip(got)
                .all(|(a, b)| a.to_bits() == b.to_bits())
    };
    for (kind, (want, got)) in PropertyKind::ALL
        .iter()
        .zip(want.classifiers.iter().zip(&got.classifiers))
    {
        assert_eq!(want.labels, got.labels, "{}", kind.name());
        let (Some(want), Some(got)) = (&want.model, &got.model) else {
            assert_eq!(want.model.is_some(), got.model.is_some(), "{}", kind.name());
            continue;
        };
        for (block, want, got) in [
            ("weights", &want.weights, &got.weights),
            ("biases", &want.biases, &got.biases),
            ("grad_sq_w", &want.grad_sq_w, &got.grad_sq_w),
            ("grad_sq_b", &want.grad_sq_b, &got.grad_sq_b),
        ] {
            assert!(same_bits(want, got), "{} {block} differ", kind.name());
        }
        assert_eq!(want.fits, got.fits, "{} fits", kind.name());
    }
    assert!(want == got, "the rehearsal logs and cursors agree too");

    let blob = format!("data/epoch-{next:010}.snap");
    let (live_blob, recovered_blob) = (
        storage.inner.read(&blob).expect("the live epoch's blob"),
        crashed.read(&blob).expect("the recovered epoch's blob"),
    );
    assert!(
        live_blob == recovered_blob,
        "the next epoch's blobs are identical"
    );
}
