//! What the write-ahead log buys at restart: replaying the WAL must be
//! much cheaper than re-earning the same state by re-running the ops.
//!
//! The fixture verifies a batch of claims on a durable engine over a
//! real directory (`FsStorage`, per-record fsync, epoch checkpoints),
//! then measures two ways of getting that state back:
//!
//! * **`reexecute_ops`** — a fresh engine re-runs every verification
//!   end-to-end (planning, screening, verdicts, retrains): the cost a
//!   system without recovery pays after every restart;
//! * **`replay_wal`** — [`recover_parts`] loads the checkpoint image and
//!   epoch blob and replays the record tail, with no planning at all.
//!
//! Before anything is timed, parity is asserted: the recovered engine
//! reports exactly the durable stats the original earned. The headline
//! floor — replay ≥ 10× faster than re-execution — is asserted even
//! under `--quick` (the CI smoke run); only the criterion timing detail
//! is scoped to full runs.

use std::sync::Arc;
use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion};
use scrutinizer_core::{FeatureStore, OrderingStrategy, SystemConfig, SystemModels, TrainingState};
use scrutinizer_corpus::{Corpus, CorpusConfig};
use scrutinizer_crowd::{Worker, WorkerConfig};
use scrutinizer_engine::engine::{Engine, EngineOptions};
use scrutinizer_engine::{recover_parts, DurableEnv, RecoveryReport};
use scrutinizer_sim::{FsStorage, SimEnv, Storage};
use scrutinizer_wal::WalOptions;

/// Claims verified into the log — enough verdicts for several published
/// epochs at [`RETRAIN_INTERVAL`], so recovery loads a checkpoint *and*
/// replays a tail.
const CLAIMS: usize = 32;
const RETRAIN_INTERVAL: usize = 4;

fn quick_mode() -> bool {
    std::env::args().any(|a| a == "--quick" || a == "--test")
}

fn median_secs(rounds: usize, mut routine: impl FnMut()) -> f64 {
    let mut samples: Vec<f64> = (0..rounds)
        .map(|_| {
            let start = Instant::now();
            routine();
            start.elapsed().as_secs_f64()
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    samples[samples.len() / 2]
}

/// The expensive once-per-process parts every engine incarnation shares:
/// corpus, features, pretrained weights and their training state.
/// Re-execution and replay both start from here, so the comparison
/// isolates *state reconstruction*.
struct World {
    corpus: Arc<Corpus>,
    features: Arc<FeatureStore>,
    models: SystemModels,
    training: TrainingState,
    config: SystemConfig,
}

fn world() -> World {
    let corpus = Corpus::generate(CorpusConfig::small());
    let config = SystemConfig::test();
    let mut models = SystemModels::bootstrap(&corpus, &config);
    let features = FeatureStore::build(&corpus, &models);
    let mut training = TrainingState::default();
    let all: Vec<usize> = (0..corpus.claims.len()).collect();
    models.retrain_from_store(&mut training, &features, &corpus.claims, &all, 1);
    World {
        corpus: Arc::new(corpus),
        features: Arc::new(features),
        models,
        training,
        config,
    }
}

fn options() -> EngineOptions {
    EngineOptions {
        retrain_interval: Some(RETRAIN_INTERVAL),
        ordering: OrderingStrategy::Sequential,
        threads: 2,
        ..EngineOptions::default()
    }
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

/// The re-execution baseline's workload: verify every claim end-to-end
/// and settle the background trainer.
fn drive(engine: &Arc<Engine>) {
    for claim_id in 0..CLAIMS {
        engine.verify_claim_with(claim_id, &mut worker(0x3A1 + claim_id as u64));
    }
    engine.flush_retrains();
}

/// A fresh *non-durable* engine re-running the whole workload — the
/// baseline deliberately pays no WAL appends or fsyncs, so the measured
/// gap understates what replay saves a durable deployment.
fn reexecute(world: &World) -> Arc<Engine> {
    let engine = Engine::from_parts(
        Arc::clone(&world.corpus),
        Arc::clone(&world.features),
        world.models.clone(),
        world.training.clone(),
        world.config,
        options(),
        SimEnv::production(),
    );
    drive(&engine);
    engine
}

/// Opens (or recovers) a durable engine over `dir` on the real fs.
fn recover_dir(world: &World, dir: &str) -> (Arc<Engine>, RecoveryReport) {
    recover_parts(
        Arc::clone(&world.corpus),
        Arc::clone(&world.features),
        world.models.clone(),
        world.training.clone(),
        world.config,
        options(),
        SimEnv::production(),
        DurableEnv {
            storage: Arc::new(FsStorage::new()) as Arc<dyn Storage>,
            dir: dir.to_string(),
            wal: WalOptions::default(),
        },
    )
    .expect("recovery over a healthy directory cannot fail")
}

/// The durable subset of the engine's stats — what recovery promises to
/// restore exactly.
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

fn bench_wal_recovery(c: &mut Criterion) {
    let world = world();
    let root = std::env::temp_dir().join(format!("scrutinizer-wal-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).expect("create bench scratch dir");
    let dir = root.join("data").to_string_lossy().into_owned();

    // ---- write the log once: the state every restart strategy must
    // reproduce ----
    let (origin, fresh) = recover_dir(&world, &dir);
    assert_eq!(
        fresh,
        RecoveryReport::default(),
        "the directory starts empty"
    );
    drive(&origin);
    let expected = durable_subset(&origin);
    let epoch = origin.model_epoch();
    assert!(epoch >= 1, "the workload must publish at least one epoch");
    let wal = origin.wal_metrics().expect("durable engine has a WAL");
    drop(origin);

    // ---- parity before timing: recovery rebuilds the durable stats
    // exactly, resuming the published epoch ----
    let (recovered, report) = recover_dir(&world, &dir);
    assert_eq!(
        durable_subset(&recovered),
        expected,
        "recovery must restore the durable stats exactly (report: {report:?})"
    );
    assert_eq!(report.resumed_epoch, epoch, "the model epoch must resume");
    drop(recovered);

    let mut group = c.benchmark_group("wal_recovery");
    group.sample_size(10);
    group.bench_function("reexecute_ops", |b| {
        b.iter(|| reexecute(&world).stats().claims_verified.get())
    });
    group.bench_function("replay_wal", |b| {
        b.iter(|| recover_dir(&world, &dir).1.records_replayed)
    });
    group.finish();

    // ---- the headline floor, asserted in quick mode too: replaying the
    // log must beat re-earning the state by ≥ 10× ----
    let rounds = if quick_mode() { 3 } else { 9 };
    let reexec = median_secs(rounds, || {
        let engine = reexecute(&world);
        assert_eq!(engine.stats().claims_verified.get(), CLAIMS as u64);
    });
    let replay = median_secs(rounds, || {
        let (engine, _) = recover_dir(&world, &dir);
        assert_eq!(durable_subset(&engine), expected);
    });
    println!(
        "wal recovery ({} records, {} bytes, epoch {}): re-execute {:.2}ms, \
         replay {:.2}ms ({:.1}x)",
        wal.appends,
        wal.bytes_written,
        epoch,
        reexec * 1e3,
        replay * 1e3,
        reexec / replay,
    );
    assert!(
        reexec / replay >= 10.0,
        "WAL replay must be ≥ 10x faster than re-executing the ops \
         (re-execute {:.2}ms vs replay {:.2}ms = {:.2}x)",
        reexec * 1e3,
        replay * 1e3,
        reexec / replay,
    );

    let _ = std::fs::remove_dir_all(&root);
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_wal_recovery
}
criterion_main!(benches);
