//! The engine proper: shared corpus + models behind a concurrency-safe
//! facade, serving many interactive verification sessions at once.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, OnceLock, RwLock, Weak};

use scrutinizer_core::models::available_threads;
use scrutinizer_core::ordering::{select_batch, BatchMethod, BatchSelection, ClaimChoice};
use scrutinizer_core::planner::ClaimPlan;
use scrutinizer_core::policy::{
    claim_outcome, opt_batch, translate_and_plan, validated_slot, QueryContext, SimulatedCheck,
};
use scrutinizer_core::report::ClaimOutcome;
use scrutinizer_core::{
    FeatureStore, ModelsState, OrderingStrategy, PropertyKind, SystemConfig, SystemModels,
    TrainingState, Translation,
};
use scrutinizer_corpus::Corpus;
use scrutinizer_crowd::{Worker, WorkerConfig};
use scrutinizer_data::hash::{FxHashMap, FxHashSet};
use scrutinizer_query::FunctionRegistry;

use scrutinizer_sim::{SimEnv, Task};
use scrutinizer_wal::{Wal, WalMetrics};

use crate::durability::{
    self, ClaimImage, DurableEnv, RecoveryReport, SessionImage, StateImage, WalRecord,
};
use crate::session::{ClaimPhase, ClaimQuestions, ClaimTask, SessionId, SessionState, Suggestion};
use crate::snapshot::{ModelSnapshot, SnapshotCell};
use crate::stats::EngineStats;
use scrutinizer_obs as obs;

/// Engine sizing and behavior knobs.
#[derive(Debug, Clone, Copy)]
pub struct EngineOptions {
    /// Schedule a background incremental retrain once this many newly
    /// verified claims sit in the pending-examples log; `None` freezes the
    /// models (deterministic serving). Retraining happens off the read
    /// path: verdicts only append to the log, a background trainer folds
    /// it into the next model epoch.
    pub retrain_interval: Option<usize>,
    /// Claim-batch ordering strategy for session re-planning.
    pub ordering: OrderingStrategy,
}

impl Default for EngineOptions {
    fn default() -> Self {
        EngineOptions {
            retrain_interval: Some(50),
            ordering: OrderingStrategy::Ilp,
        }
    }
}

/// Errors surfaced by the session API.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// No such session (never opened, or closed).
    UnknownSession(u64),
    /// The claim id is not part of the corpus.
    UnknownClaim(usize),
    /// The claim was not submitted to this session.
    ClaimNotSubmitted(usize),
    /// The operation does not fit the claim's phase (e.g. posting a
    /// verdict while screens are outstanding).
    WrongPhase {
        /// The claim.
        claim_id: usize,
        /// What the engine expected to happen instead.
        expected: &'static str,
    },
    /// The posted answer's property has no screen outstanding.
    UnexpectedAnswer(PropertyKind),
    /// Raw SQL execution failed.
    Sql(String),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::UnknownSession(id) => write!(f, "unknown session s{id}"),
            EngineError::UnknownClaim(id) => write!(f, "unknown claim {id}"),
            EngineError::ClaimNotSubmitted(id) => {
                write!(f, "claim {id} was not submitted to this session")
            }
            EngineError::WrongPhase { claim_id, expected } => {
                write!(f, "claim {claim_id}: expected {expected}")
            }
            EngineError::UnexpectedAnswer(kind) => {
                write!(f, "no outstanding screen for property {}", kind.name())
            }
            EngineError::Sql(message) => write!(f, "sql: {message}"),
        }
    }
}

impl std::error::Error for EngineError {}

/// Outcome of recording a verdict.
#[derive(Debug, Clone)]
pub struct VerdictRecord {
    /// The recorded outcome.
    pub outcome: ClaimOutcome,
    /// Whether this verdict pushed the pending-examples log over the
    /// retrain threshold and scheduled a background retrain. The new model
    /// epoch publishes asynchronously; readers keep serving the current
    /// snapshot in the meantime.
    pub retrained: bool,
}

type SessionHandle = Arc<Mutex<SessionState>>;

/// Unwraps a WAL I/O result. Storage failure is fatal by design —
/// continuing would hand out acks the log cannot back — but a panic
/// would unwind a request/trainer thread with shared locks held,
/// poisoning the session registry and gates so every later request dies
/// on a "poisoned" expect while the process stays half-alive. Abort
/// instead: one line to stderr, then a clean death a supervisor can
/// restart into recovery.
fn wal_io<T>(result: std::io::Result<T>, context: &str) -> T {
    match result {
        Ok(value) => value,
        Err(error) => {
            eprintln!("fatal: {context}: {error}");
            std::process::abort();
        }
    }
}

/// Starts the engine's one trainer thread: it runs the jobs it receives
/// in order and exits when the returned sender drops.
fn spawn_trainer() -> mpsc::Sender<Task> {
    let (sender, jobs) = mpsc::channel::<Task>();
    std::thread::Builder::new()
        .name("scrutinizer-trainer".to_string())
        .spawn(move || {
            for job in jobs {
                job();
            }
        })
        .expect("spawn trainer thread");
    sender
}

struct VerifiedSet {
    order: Vec<usize>,
    seen: FxHashSet<usize>,
}

/// The long-lived, concurrent verification engine.
///
/// One engine owns the corpus (catalog + claims + document), the four
/// property classifiers and the background trainer; any number of
/// threads may drive sessions against it concurrently. See the
/// [crate docs](crate) for the full tour.
pub struct Engine {
    corpus: Arc<Corpus>,
    config: SystemConfig,
    options: EngineOptions,
    registry: FunctionRegistry,
    /// The current model generation. Readers [`SnapshotCell::load`] an
    /// immutable snapshot; trainers publish fresh epochs. Nobody ever
    /// computes under the cell's lock.
    models: SnapshotCell,
    /// Every claim featurized exactly once at construction; shared by
    /// translation, utility scoring and the background trainer.
    features: Arc<FeatureStore>,
    /// Feeds the one long-lived `scrutinizer-trainer` thread, which runs
    /// background retrains in order. The thread is never joined: it exits
    /// once this sender drops, so the engine may drop inside a trainer
    /// job (the job holds the last handle) without waiting on itself.
    trainer: mpsc::Sender<Task>,
    stats: EngineStats,
    sessions: Mutex<FxHashMap<u64, SessionHandle>>,
    next_session: AtomicU64,
    verified: Mutex<VerifiedSet>,
    /// The pending-examples log: claim ids verified since the last retrain
    /// was scheduled. Verdicts append here (cheap); the background trainer
    /// drains it.
    pending: Mutex<Vec<usize>>,
    /// True while a background retrain is queued or running — at most one
    /// trainer job exists at a time; later threshold crossings fold into
    /// the active drain loop.
    retrain_active: AtomicBool,
    /// The training state of the published models — the AdaGrad
    /// accumulators and the rehearsal log — behind the lock that
    /// serializes whole retrain executions (load → train → publish).
    /// Without it, a synchronous `pretrain` racing the background trainer
    /// would clone the same base snapshot and the later publish would
    /// silently discard the earlier one's training — including drained
    /// pending examples that exist nowhere else. The state is never
    /// copied: each retrain advances it in place alongside its clone of
    /// the snapshot's weights, and publishes before letting go. Readers
    /// never touch this lock; only trainers (and recovery) do.
    retrain_serial: Mutex<TrainingState>,
    /// The injected environment: background scheduling and fault
    /// points. Production engines carry the zero-cost passthrough
    /// ([`SimEnv::production`]); the simulation harness injects a
    /// harness-driven scheduler and an armed fault plan.
    env: SimEnv,
    /// The write-ahead log, when the engine is durable. Every
    /// state-changing op appends a [`WalRecord`] and commits it before
    /// returning; epoch publishes checkpoint through it. `None` keeps the
    /// engine fully in-memory (the default, and the pre-durability
    /// behavior).
    wal: Option<Wal>,
    /// Checkpoint/append consistency gate. State-changing ops hold the
    /// read side across mutate-and-append; the checkpoint path holds the
    /// write side across image-and-cut. This is what guarantees a record
    /// can never land *after* a checkpoint that already captured its
    /// effect (which would double-apply it on replay). Lock order: gate →
    /// session registry → session → WAL internals; nothing ever waits on
    /// the gate while holding a later lock.
    wal_gate: RwLock<()>,
    /// True while recovery replays the log into this engine: appends and
    /// retrain scheduling are suppressed, so replay is a pure state
    /// reconstruction.
    wal_replaying: AtomicBool,
    /// Self-handle so verdict paths can hand the engine to trainer jobs.
    self_ref: Weak<Engine>,
}

/// Which retrain flavor [`Engine::run_retrain`] executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RetrainKind {
    /// Replay the given claims from scratch (bootstrap / pretrain).
    FromScratch,
    /// Warm-start `partial_fit` on just the given claims (verdict path).
    Incremental,
}

/// The world an engine serves: the shared corpus, its feature store, and
/// the models with their training state. The corpus and features sit
/// behind `Arc`s, so many engines can serve one world without copying
/// it; the models are published as the engine's starting epoch.
#[derive(Clone)]
pub struct EngineParts {
    /// The corpus (catalog + claims + document).
    pub corpus: Arc<Corpus>,
    /// Every claim featurized once, against `models`' featurizer.
    pub features: Arc<FeatureStore>,
    /// The property classifiers; a durable engine also decodes its
    /// recovered snapshot onto them.
    pub models: SystemModels,
    /// The training state of `models`.
    pub training: TrainingState,
}

impl EngineParts {
    /// Fresh, untrained models for `corpus`, and the corpus featurized
    /// against them.
    pub fn bootstrap(corpus: Corpus, config: &SystemConfig) -> EngineParts {
        let models = SystemModels::bootstrap(&corpus, config);
        let features = Arc::new(FeatureStore::build(&corpus, &models));
        EngineParts {
            corpus: Arc::new(corpus),
            features,
            models,
            training: TrainingState::default(),
        }
    }
}

impl Engine {
    /// An in-memory engine in the production environment: bootstraps
    /// fresh models, featurizes the corpus and attaches no WAL.
    pub fn new(corpus: Corpus, config: SystemConfig, options: EngineOptions) -> Arc<Self> {
        let parts = EngineParts::bootstrap(corpus, &config);
        let (engine, _) = Self::open(parts, config, options, SimEnv::production(), None)
            .expect("an engine without a WAL does no I/O");
        engine
    }

    /// An engine over pre-built `parts` in the environment `env`. It does
    /// no model or feature work, which is what lets the simulation
    /// harness stamp out thousands of engines from one world built once.
    ///
    /// With `durable: None` the engine is in-memory: it does no I/O and
    /// publishes `parts.models` as epoch 0. With `Some`, it opens (or
    /// creates) the durable state under `durable.dir` and resumes from
    /// it: the checkpoint image is applied, the last published epoch's
    /// models are loaded from their snapshot blob (decoded onto
    /// `parts.models` as the scaffold), the tail of the WAL is replayed,
    /// and open claims are re-planned once with the recovered models.
    /// `parts.models` serve as they are when no epoch was ever published.
    /// The engine then records every state-changing op to the same WAL.
    /// `parts` must describe the world the log was written against.
    pub fn open(
        mut parts: EngineParts,
        config: SystemConfig,
        options: EngineOptions,
        env: SimEnv,
        durable: Option<DurableEnv>,
    ) -> std::io::Result<(Arc<Self>, RecoveryReport)> {
        let _span = durable.is_some().then(|| obs::span!("wal.replay"));
        let (wal, recovery) = durable
            .map(|durable| durability::open_log(durable, &mut parts))
            .transpose()?
            .unzip();
        let epoch = recovery.as_ref().map_or(0, |r| r.checkpoint_epoch);
        let EngineParts {
            corpus,
            features,
            models,
            training,
        } = parts;
        let engine = Arc::new_cyclic(|self_ref| Engine {
            corpus,
            config,
            options,
            registry: FunctionRegistry::standard(),
            models: SnapshotCell::with_epoch(models, epoch),
            features,
            trainer: spawn_trainer(),
            stats: EngineStats::default(),
            sessions: Mutex::new(FxHashMap::default()),
            next_session: AtomicU64::new(1),
            verified: Mutex::new(VerifiedSet {
                order: Vec::new(),
                seen: FxHashSet::default(),
            }),
            pending: Mutex::new(Vec::new()),
            retrain_active: AtomicBool::new(false),
            retrain_serial: Mutex::new(training),
            env,
            wal,
            wal_gate: RwLock::new(()),
            wal_replaying: AtomicBool::new(false),
            self_ref: self_ref.clone(),
        });
        let report = match recovery {
            Some(recovery) => recovery.replay(&engine)?,
            None => RecoveryReport::default(),
        };
        Ok((engine, report))
    }

    /// The corpus the engine serves.
    pub fn corpus(&self) -> &Corpus {
        &self.corpus
    }

    /// The system configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// The corpus-wide feature store (claims featurized once at startup).
    pub fn feature_store(&self) -> &FeatureStore {
        &self.features
    }

    /// The currently published model generation (see
    /// [`ModelSnapshot::epoch`]).
    pub fn model_epoch(&self) -> u64 {
        self.models.epoch()
    }

    /// The current immutable model snapshot. The returned `Arc` stays
    /// valid (and unchanged) however many retrains publish after it.
    pub fn models_snapshot(&self) -> Arc<ModelSnapshot> {
        self.models.load()
    }

    /// A whole row-major copy of the published models joined with their
    /// training state (see [`SystemModels::export_state`]) — for tests and
    /// tools that compare learned state across engines. Waits for a
    /// running retrain to publish, so the two halves are of one epoch.
    pub fn export_models_state(&self) -> ModelsState {
        let training = self
            .retrain_serial
            .lock()
            .expect("retrain serializer poisoned");
        self.models.load().models.export_state(&training)
    }

    /// Trains the classifiers on the given claims (all claims when
    /// `claim_ids` is `None`) — the warm-start used by the benches, the
    /// serving binary and every simulation, mirroring the paper's
    /// pre-trained user-study condition, and the report run's per-batch
    /// `Retrain` step ([`crate::experiments::report::run_report`]).
    /// Synchronous: the new epoch is
    /// published when this returns; concurrent readers keep serving the
    /// previous snapshot while it runs.
    ///
    /// The claims' rows come from the engine's [`FeatureStore`], and the
    /// four classifiers fit concurrently on up to
    /// [`available_threads`] threads
    /// ([`SystemModels::retrain_from_store`]): a cold start runs before
    /// the server binds, so nothing else wants the cores, and the
    /// resulting epoch is bit-identical to a one-thread fit. Background
    /// epochs stay on the one trainer thread.
    pub fn pretrain(&self, claim_ids: Option<&[usize]>) {
        let ids: Vec<usize> = match claim_ids {
            Some(ids) => ids
                .iter()
                .copied()
                .filter(|&id| id < self.corpus.claims.len())
                .collect(),
            None => (0..self.corpus.claims.len()).collect(),
        };
        self.run_retrain(&ids, RetrainKind::FromScratch);
    }

    /// The single source of truth for retrain execution and accounting —
    /// shared by [`pretrain`](Self::pretrain) (synchronous, from scratch)
    /// and the verdict path's background trainer (incremental): clone the
    /// current snapshot's models — the weights only; the accumulators stay
    /// in the one training state — train the copy and advance the
    /// training state *off* every reader-facing lock (timed into
    /// `retrain_latency`), publish the next epoch, bump the counter.
    /// Concurrent trainers serialize on `retrain_serial`, which holds the
    /// training state, so each one bases its copy on the previous one's
    /// published snapshot and no training is ever lost; readers keep
    /// loading snapshots throughout. The trainer lets go of the previous
    /// snapshot as soon as it has its copy, so once readers move on, the
    /// previous epoch's weights are freed before the new epoch's blob is
    /// written.
    fn run_retrain(&self, claim_ids: &[usize], kind: RetrainKind) -> u64 {
        let mut training = self
            .retrain_serial
            .lock()
            .expect("retrain serializer poisoned");
        let models = {
            let _span = obs::span!("retrain", claims = claim_ids.len());
            let mut models = {
                let _span = obs::span!("retrain.clone");
                self.models.load().models.clone()
            };
            self.stats.retrain_latency.time(|| {
                let _span = obs::span!("retrain.fit");
                match kind {
                    RetrainKind::FromScratch => {
                        models.retrain_from_store(
                            &mut training,
                            &self.features,
                            &self.corpus.claims,
                            claim_ids,
                            available_threads(),
                        );
                    }
                    RetrainKind::Incremental => {
                        models.retrain_incremental(
                            &mut training,
                            &self.features,
                            &self.corpus.claims,
                            claim_ids,
                        );
                    }
                }
            });
            models
        };
        let epoch = self.models.publish(models);
        self.stats.retrains.inc();
        if kind == RetrainKind::Incremental {
            self.stats.background_retrains.inc();
            self.stats.examples_trained.add(claim_ids.len() as u64);
        }
        self.durable_publish(
            epoch,
            &training,
            claim_ids.len() as u64,
            kind == RetrainKind::Incremental,
        );
        epoch
    }

    // ---- durability --------------------------------------------------------

    /// Whether ops should append to the WAL: a WAL is attached and the
    /// engine is not mid-replay.
    fn recording(&self) -> bool {
        self.wal.is_some() && !self.wal_replaying.load(Ordering::Acquire)
    }

    /// Appends one record and commits it — the op is acknowledged only
    /// after this returns, so acknowledged implies durable. For ops whose
    /// apply order is fixed by a lock (the session lock), use
    /// [`append_record`](Self::append_record) while still holding that
    /// lock and [`commit_record`](Self::commit_record) after dropping it,
    /// so the log order matches the apply order.
    fn log_record(&self, record: &WalRecord) {
        let lsn = self.append_record(record);
        self.commit_record(lsn);
    }

    /// First half of [`log_record`](Self::log_record): appends the
    /// record, fixing its position in the log, without waiting for
    /// durability. Two ops on the same session serialize on the session
    /// lock; appending before that lock drops means replay applies their
    /// records in the same order the live ops applied their effects —
    /// otherwise an `AnswerPosted` could land in the log ahead of the
    /// `ReportSubmitted` that created its task and be silently dropped
    /// on replay. Only the fsync ([`commit_record`](Self::commit_record))
    /// runs outside the lock.
    fn append_record(&self, record: &WalRecord) -> Option<u64> {
        if !self.recording() {
            return None;
        }
        let wal = self.wal.as_ref()?;
        let _span = obs::span!("wal.append");
        Some(wal_io(wal.append(&record.encode()), "wal append failed"))
    }

    /// Second half of [`log_record`](Self::log_record): blocks until the
    /// appended record is durable (group commit). The op is acknowledged
    /// only after this returns.
    fn commit_record(&self, lsn: Option<u64>) {
        let Some(lsn) = lsn else { return };
        let wal = self.wal.as_ref().expect("an lsn implies a wal");
        wal_io(wal.commit(lsn), "wal commit failed");
    }

    /// Makes a freshly published epoch durable: snapshot blob first, then
    /// the `EpochPublished` record, then a checkpoint of the full state
    /// image (which compacts the log), then pruning of superseded blobs.
    /// Only the record and the checkpoint run under the gate's write
    /// side, so the image is consistent with the cut; the blob is
    /// streamed to disk before it — the weights from the live snapshot's
    /// blocks, the accumulators from `training` — while ops keep
    /// acknowledging: nothing references the blob until the record is
    /// durable. Callers hold `retrain_serial` (and pass the training state
    /// it guards), so epochs checkpoint in order.
    fn durable_publish(
        &self,
        epoch: u64,
        training: &TrainingState,
        examples: u64,
        background: bool,
    ) {
        if !self.recording() {
            return;
        }
        let Some(wal) = &self.wal else { return };
        {
            let _span = obs::span!("wal.blob_write");
            let snapshot = self.models.load();
            wal_io(
                wal.write_blob_with(&durability::snapshot_blob_name(epoch), &mut |out| {
                    durability::write_models(epoch, &snapshot.models, training, out)
                }),
                "model snapshot write failed",
            );
        }
        {
            let _gate = self.wal_gate.write().expect("wal gate poisoned");
            self.log_record(&WalRecord::EpochPublished {
                epoch,
                examples,
                background,
            });
            let _span = obs::span!("wal.checkpoint");
            let image = durability::encode_state_image(&self.build_state_image());
            wal_io(wal.checkpoint(epoch, &image), "wal checkpoint failed");
        }
        if let Ok(blobs) = wal.list_blobs("epoch-") {
            for name in blobs {
                if durability::snapshot_blob_epoch(&name).is_some_and(|e| e < epoch) {
                    let _ = wal.remove_blob(&name);
                }
            }
        }
    }

    /// The WAL's counters, when the engine is durable.
    pub fn wal_metrics(&self) -> Option<WalMetrics> {
        self.wal.as_ref().map(Wal::metrics)
    }

    /// Whether this engine persists its state through a WAL.
    pub fn is_durable(&self) -> bool {
        self.wal.is_some()
    }

    /// Captures the durable state under the gate's write side (callers:
    /// the checkpoint path). Sessions and claims are serialized in sorted
    /// order so identical states produce identical images.
    pub(crate) fn build_state_image(&self) -> StateImage {
        let verified = self.verified.lock().expect("verified set poisoned");
        let pending = self.pending.lock().expect("pending log poisoned");
        let registry = self.sessions.lock().expect("session registry poisoned");
        let mut sessions: Vec<SessionImage> = registry
            .iter()
            .map(|(&id, handle)| {
                let state = handle.lock().expect("session poisoned");
                let mut claims: Vec<ClaimImage> = state
                    .tasks
                    .iter()
                    .map(|(&claim_id, task)| ClaimImage {
                        id: claim_id,
                        done: task.phase == ClaimPhase::Done,
                        validated: task.validated.clone(),
                    })
                    .collect();
                claims.sort_by_key(|claim| claim.id);
                SessionImage {
                    id,
                    checker: state.checker.clone(),
                    pending: state.pending.clone(),
                    verified: state.verified.clone(),
                    claims,
                }
            })
            .collect();
        sessions.sort_by_key(|session| session.id);
        StateImage {
            next_session: self.next_session.load(Ordering::Relaxed),
            sessions_opened: self.stats.sessions_opened.get(),
            sessions_closed: self.stats.sessions_closed.get(),
            claims_verified: self.stats.claims_verified.get(),
            answers_posted: self.stats.answers_posted.get(),
            retrains: self.stats.retrains.get(),
            background_retrains: self.stats.background_retrains.get(),
            examples_trained: self.stats.examples_trained.get(),
            verified: verified.order.clone(),
            pending: pending.clone(),
            sessions,
        }
    }

    /// Suppresses WAL appends and retrain scheduling while recovery
    /// replays the log into this engine.
    pub(crate) fn begin_replay(&self) {
        self.wal_replaying.store(true, Ordering::Release);
    }

    /// Re-enables recording once replay finished.
    pub(crate) fn end_replay(&self) {
        self.wal_replaying.store(false, Ordering::Release);
    }

    /// A claim task reconstructed from durable state only: screen answers
    /// and the done flag survive; translation and plan are placeholders
    /// until [`replay_finalize`](Self::replay_finalize) re-plans open
    /// claims with the recovered models (done claims keep the cheap
    /// placeholder — nothing reads their plan again).
    fn placeholder_task(done: bool, validated: [Option<String>; 3]) -> ClaimTask {
        ClaimTask {
            translation: Translation {
                candidates: [Vec::new(), Vec::new(), Vec::new(), Vec::new()],
            },
            plan: ClaimPlan {
                screens: Vec::new(),
                expected_cost: 0.0,
            },
            translated_epoch: 0,
            validated,
            next_screen: 0,
            candidates: Vec::new(),
            suggested: None,
            phase: if done {
                ClaimPhase::Done
            } else {
                ClaimPhase::Screening
            },
        }
    }

    /// Restores a checkpoint image: counters, verified set, pending log,
    /// and every live session with its per-claim durable state.
    pub(crate) fn apply_state_image(&self, image: &StateImage) {
        self.next_session
            .store(image.next_session, Ordering::Relaxed);
        self.stats.sessions_opened.store(image.sessions_opened);
        self.stats.sessions_closed.store(image.sessions_closed);
        self.stats.claims_verified.store(image.claims_verified);
        self.stats.answers_posted.store(image.answers_posted);
        self.stats.retrains.store(image.retrains);
        self.stats
            .background_retrains
            .store(image.background_retrains);
        self.stats.examples_trained.store(image.examples_trained);
        {
            let mut verified = self.verified.lock().expect("verified set poisoned");
            verified.seen = image.verified.iter().copied().collect();
            verified.order = image.verified.clone();
        }
        *self.pending.lock().expect("pending log poisoned") = image.pending.clone();
        let mut registry = self.sessions.lock().expect("session registry poisoned");
        for session in &image.sessions {
            let mut state = SessionState::new(session.checker.as_str());
            state.pending = session.pending.clone();
            state.verified = session.verified.clone();
            for claim in &session.claims {
                state.tasks.insert(
                    claim.id,
                    Self::placeholder_task(claim.done, claim.validated.clone()),
                );
            }
            registry.insert(session.id, Arc::new(Mutex::new(state)));
        }
    }

    /// Applies one replayed WAL record on top of the checkpoint image.
    /// Mirrors the live ops' durable effects exactly — same counters,
    /// same dedup rules — without any planning, suggestion or retrain
    /// work; that is what makes replay an order of magnitude faster than
    /// re-executing the ops.
    pub(crate) fn replay_record(&self, record: &WalRecord) -> std::io::Result<()> {
        match record {
            WalRecord::SessionOpened { id, checker } => {
                self.sessions
                    .lock()
                    .expect("session registry poisoned")
                    .insert(
                        *id,
                        Arc::new(Mutex::new(SessionState::new(checker.as_str()))),
                    );
                self.next_session.fetch_max(*id + 1, Ordering::Relaxed);
                self.stats.sessions_opened.inc();
            }
            WalRecord::ReportSubmitted { session, claims } => {
                if let Ok(handle) = self.session(SessionId(*session)) {
                    let mut state = handle.lock().expect("session poisoned");
                    for &claim_id in claims {
                        if state.tasks.contains_key(&claim_id) {
                            continue;
                        }
                        state
                            .tasks
                            .insert(claim_id, Self::placeholder_task(false, [None, None, None]));
                        state.pending.push(claim_id);
                    }
                }
            }
            WalRecord::AnswerPosted {
                session,
                claim,
                kind,
                answer,
            } => {
                if let Ok(handle) = self.session(SessionId(*session)) {
                    let mut state = handle.lock().expect("session poisoned");
                    if let Some(task) = state.tasks.get_mut(claim) {
                        if let Some(slot) = validated_slot(*kind) {
                            task.validated[slot] = Some(answer.clone());
                        }
                    }
                }
                self.stats.answers_posted.inc();
            }
            WalRecord::VerdictPosted { session, claim, .. } => {
                if let Ok(handle) = self.session(SessionId(*session)) {
                    let mut state = handle.lock().expect("session poisoned");
                    if let Some(task) = state.tasks.get_mut(claim) {
                        task.phase = ClaimPhase::Done;
                    }
                    state.verified.push(*claim);
                }
                self.stats.claims_verified.inc();
                let mut verified = self.verified.lock().expect("verified set poisoned");
                if verified.seen.insert(*claim) {
                    verified.order.push(*claim);
                    drop(verified);
                    if self.options.retrain_interval.is_some() {
                        self.pending
                            .lock()
                            .expect("pending log poisoned")
                            .push(*claim);
                    }
                }
            }
            WalRecord::SessionClosed { id } => {
                self.sessions
                    .lock()
                    .expect("session registry poisoned")
                    .remove(id);
                self.stats.sessions_closed.inc();
            }
            WalRecord::EpochPublished {
                epoch,
                examples,
                background,
            } => {
                self.stats.retrains.inc();
                if *background {
                    self.stats.background_retrains.inc();
                    self.stats.examples_trained.add(*examples);
                }
                if *epoch > self.models.epoch() {
                    let wal = self.wal.as_ref().expect("replay requires a wal");
                    let mut training = self
                        .retrain_serial
                        .lock()
                        .expect("retrain serializer poisoned");
                    // the superseded accumulators go before the blob's are
                    // decoded; the live snapshot is only the scaffold: the
                    // blob decodes into fresh blocks, no trained weight
                    // copied
                    *training = TrainingState::default();
                    let (models, restored) =
                        durability::load_models(wal, *epoch, &self.models.load().models)?;
                    let published = self.models.publish(models);
                    debug_assert_eq!(published, *epoch, "replayed epochs are contiguous");
                    *training = restored;
                    if *background {
                        // a background epoch trained on exactly the batch
                        // it drained from the pending log, and
                        // `retrain_incremental` appended that batch last to
                        // the rehearsal log: drain it here too
                        let log = training.replay_log();
                        let batch: FxHashSet<usize> = log
                            [log.len().saturating_sub(*examples as usize)..]
                            .iter()
                            .copied()
                            .collect();
                        self.pending
                            .lock()
                            .expect("pending log poisoned")
                            .retain(|claim| !batch.contains(claim));
                    }
                }
            }
        }
        Ok(())
    }

    /// After all records replayed: translate and plan every open claim
    /// once with the final recovered models, and recompute its screen
    /// cursor as the longest prefix of the fresh plan's screens whose
    /// validated slot is already answered. One planning pass per open
    /// claim — verdicted claims keep their placeholders.
    pub(crate) fn replay_finalize(&self) {
        let snapshot = self.models.load();
        let registry = self.sessions.lock().expect("session registry poisoned");
        for handle in registry.values() {
            let mut state = handle.lock().expect("session poisoned");
            let open: Vec<usize> = state
                .tasks
                .iter()
                .filter(|(_, task)| task.phase != ClaimPhase::Done)
                .map(|(&id, _)| id)
                .collect();
            for claim_id in open {
                let (translation, plan, utility) = translate_and_plan(
                    &snapshot.models,
                    self.features.features(claim_id),
                    &self.config,
                    |_| (),
                );
                state.utilities_at(snapshot.epoch).insert(claim_id, utility);
                let task = state
                    .tasks
                    .get_mut(&claim_id)
                    .expect("open claim has a task");
                (task.translation, task.plan) = (translation, plan);
                task.translated_epoch = snapshot.epoch;
                let mut next = 0;
                for screen in &task.plan.screens {
                    let answered = validated_slot(screen.kind)
                        .is_some_and(|slot| task.validated[slot].is_some());
                    if !answered {
                        break;
                    }
                    next += 1;
                }
                task.next_screen = next;
                task.phase = if next == task.plan.screens.len() {
                    ClaimPhase::Suggesting
                } else {
                    ClaimPhase::Screening
                };
            }
        }
    }

    // ---- session lifecycle -------------------------------------------------

    /// Opens a session for a named checker.
    ///
    /// ```
    /// use scrutinizer_core::SystemConfig;
    /// use scrutinizer_corpus::{Corpus, CorpusConfig};
    /// use scrutinizer_engine::{Engine, EngineOptions};
    ///
    /// let corpus = Corpus::generate(CorpusConfig::small());
    /// let engine = Engine::new(corpus, SystemConfig::test(), EngineOptions::default());
    /// let session = engine.open_session("alice");
    /// assert_eq!(engine.session_checker(session).unwrap(), "alice");
    /// assert_eq!(engine.session_count(), 1);
    ///
    /// // the mixed-initiative loop starts by submitting a report of claims
    /// let questions = engine.submit_report(session, &[0, 1]).unwrap();
    /// assert!(!questions.is_empty());
    /// engine.close_session(session).unwrap();
    /// ```
    pub fn open_session(&self, checker: &str) -> SessionId {
        let _gate = self.wal_gate.read().expect("wal gate poisoned");
        let id = self.next_session.fetch_add(1, Ordering::Relaxed);
        self.sessions
            .lock()
            .expect("session registry poisoned")
            .insert(id, Arc::new(Mutex::new(SessionState::new(checker))));
        self.stats.sessions_opened.inc();
        if self.recording() {
            self.log_record(&WalRecord::SessionOpened {
                id,
                checker: checker.to_string(),
            });
        }
        SessionId(id)
    }

    /// Closes a session, returning the ids of claims it verified.
    pub fn close_session(&self, session: SessionId) -> Result<Vec<usize>, EngineError> {
        let _gate = self.wal_gate.read().expect("wal gate poisoned");
        let handle = self
            .sessions
            .lock()
            .expect("session registry poisoned")
            .remove(&session.0)
            .ok_or(EngineError::UnknownSession(session.0))?;
        self.stats.sessions_closed.inc();
        if self.recording() {
            self.log_record(&WalRecord::SessionClosed { id: session.0 });
        }
        let state = handle.lock().expect("session poisoned");
        Ok(state.verified.clone())
    }

    /// The checker a session was opened for.
    pub fn session_checker(&self, session: SessionId) -> Result<String, EngineError> {
        let handle = self.session(session)?;
        let state = handle.lock().expect("session poisoned");
        Ok(state.checker.clone())
    }

    /// Live session count.
    pub fn session_count(&self) -> usize {
        self.sessions
            .lock()
            .expect("session registry poisoned")
            .len()
    }

    fn session(&self, session: SessionId) -> Result<SessionHandle, EngineError> {
        self.sessions
            .lock()
            .expect("session registry poisoned")
            .get(&session.0)
            .cloned()
            .ok_or(EngineError::UnknownSession(session.0))
    }

    // ---- the mixed-initiative loop ----------------------------------------

    /// Submits a report (a set of corpus claims) to a session: every claim
    /// is translated and planned with the current models, and the first
    /// question batch is returned, ordered by the engine's batch-selection
    /// strategy.
    pub fn submit_report(
        &self,
        session: SessionId,
        claim_ids: &[usize],
    ) -> Result<Vec<ClaimQuestions>, EngineError> {
        let handle = self.session(session)?;
        // validate the whole report before touching session state, so a bad
        // id cannot leave the session partially mutated
        if let Some(&bad) = claim_ids.iter().find(|&&id| id >= self.corpus.claims.len()) {
            return Err(EngineError::UnknownClaim(bad));
        }
        {
            let _gate = self.wal_gate.read().expect("wal gate poisoned");
            // lock-free model access: grab the current snapshot once for
            // the whole report; a concurrent retrain publishes a *new*
            // snapshot and never touches this one
            let snapshot = self.models.load();
            let mut state = handle.lock().expect("session poisoned");
            for &claim_id in claim_ids {
                // resubmission (e.g. a client retry) is idempotent: a claim
                // already in the session keeps its answers and verdict
                if state.tasks.contains_key(&claim_id) {
                    continue;
                }
                let (task, utility) = self.stats.plan_latency.time(|| {
                    let (translation, plan, utility) = translate_and_plan(
                        &snapshot.models,
                        self.features.features(claim_id),
                        &self.config,
                        |stage| obs::span!(stage, claim = claim_id),
                    );
                    let task = ClaimTask {
                        translation,
                        plan,
                        translated_epoch: snapshot.epoch,
                        validated: [None, None, None],
                        next_screen: 0,
                        candidates: Vec::new(),
                        suggested: None,
                        phase: ClaimPhase::Screening,
                    };
                    (task, utility)
                });
                state.tasks.insert(claim_id, task);
                state.pending.push(claim_id);
                state.utilities_at(snapshot.epoch).insert(claim_id, utility);
            }
            // append while the session lock is still held so the record's
            // log position matches its apply order against concurrent ops
            // on this session; the fsync waits until the lock is dropped
            let lsn = self.append_record(&WalRecord::ReportSubmitted {
                session: session.0,
                claims: claim_ids.to_vec(),
            });
            drop(state);
            self.commit_record(lsn);
        }
        self.next_batch(session)
    }

    /// Re-plans the session's unfinished claims with the *current* models
    /// and returns the next question batch — the loop's feedback edge:
    /// verdicts elsewhere retrain the models, and re-planning folds that
    /// back into cheaper screens for everything still open.
    pub fn next_batch(&self, session: SessionId) -> Result<Vec<ClaimQuestions>, EngineError> {
        let handle = self.session(session)?;
        let snapshot = self.models.load();
        let mut state = handle.lock().expect("session poisoned");
        let state = &mut *state;
        let open: Vec<usize> = state
            .pending
            .iter()
            .copied()
            .filter(|id| {
                state
                    .tasks
                    .get(id)
                    .is_some_and(|t| t.phase != ClaimPhase::Done)
            })
            .collect();
        if open.is_empty() {
            return Ok(Vec::new());
        }
        // re-plan claims whose screens have not started yet — but only when
        // the model epoch moved since their translation was computed; the
        // epoch is the invalidation token. The same sweep scores the
        // claim's utility into the session's per-epoch cache.
        for &claim_id in &open {
            let task = state
                .tasks
                .get_mut(&claim_id)
                .expect("open claim has a task");
            if task.next_screen == 0
                && task.phase == ClaimPhase::Screening
                && task.translated_epoch != snapshot.epoch
            {
                let utility;
                (task.translation, task.plan, utility) = translate_and_plan(
                    &snapshot.models,
                    self.features.features(claim_id),
                    &self.config,
                    |_| (),
                );
                task.translated_epoch = snapshot.epoch;
                state.utilities_at(snapshot.epoch).insert(claim_id, utility);
            }
        }
        // the open claims whose translation was kept (their screens had
        // started when the epoch moved) are scored as one CSR batch
        let utilities = state.utilities_at(snapshot.epoch);
        let missing: Vec<usize> = open
            .iter()
            .copied()
            .filter(|id| !utilities.contains_key(id))
            .collect();
        if !missing.is_empty() {
            let scored = snapshot
                .models
                .training_utilities(&self.features.gather(&missing));
            utilities.extend(missing.into_iter().zip(scored));
        }
        let choices: Vec<ClaimChoice> = open
            .iter()
            .map(|&id| ClaimChoice {
                id,
                section: self.corpus.claims[id].section,
                cost: state.tasks[&id].plan.expected_cost,
                utility: state.utilities[&id],
            })
            .collect();
        let batch = opt_batch(&choices, &self.config, |budget| {
            let selection = {
                let _span = obs::span!("plan_batch", open = open.len());
                select_batch(
                    &choices,
                    &self.corpus.document,
                    self.options.ordering,
                    budget,
                    &self.config,
                )
            };
            self.note_planned(&selection);
            selection.batch
        });
        Ok(batch
            .iter()
            .map(|&id| state.tasks[&id].questions(id))
            .collect())
    }

    /// The outstanding screens of one claim.
    pub fn screens(
        &self,
        session: SessionId,
        claim_id: usize,
    ) -> Result<ClaimQuestions, EngineError> {
        let handle = self.session(session)?;
        let state = handle.lock().expect("session poisoned");
        let task = state
            .tasks
            .get(&claim_id)
            .ok_or(EngineError::ClaimNotSubmitted(claim_id))?;
        Ok(task.questions(claim_id))
    }

    /// Posts a checker's answer to the claim's next outstanding screen.
    /// Returns the number of screens still outstanding; at zero the claim
    /// moves to the suggestion phase.
    pub fn post_answer(
        &self,
        session: SessionId,
        claim_id: usize,
        kind: PropertyKind,
        answer: &str,
    ) -> Result<usize, EngineError> {
        let _gate = self.wal_gate.read().expect("wal gate poisoned");
        let handle = self.session(session)?;
        let mut state = handle.lock().expect("session poisoned");
        let task = state
            .tasks
            .get_mut(&claim_id)
            .ok_or(EngineError::ClaimNotSubmitted(claim_id))?;
        if task.phase != ClaimPhase::Screening {
            return Err(EngineError::WrongPhase {
                claim_id,
                expected: "screening",
            });
        }
        let screen = task
            .plan
            .screens
            .get(task.next_screen)
            .ok_or(EngineError::UnexpectedAnswer(kind))?;
        if screen.kind != kind {
            return Err(EngineError::UnexpectedAnswer(kind));
        }
        let slot = validated_slot(kind).ok_or(EngineError::UnexpectedAnswer(kind))?;
        task.validated[slot] = Some(answer.to_string());
        task.next_screen += 1;
        self.stats.answers_posted.inc();
        let remaining = task.plan.screens.len() - task.next_screen;
        if remaining == 0 {
            task.phase = ClaimPhase::Suggesting;
        }
        let lsn = self.append_record(&WalRecord::AnswerPosted {
            session: session.0,
            claim: claim_id,
            kind,
            answer: answer.to_string(),
        });
        drop(state);
        self.commit_record(lsn);
        Ok(remaining)
    }

    /// Generates the claim's top-k candidate queries (Algorithm 2 over the
    /// validated context, answered screens first, classifier candidates as
    /// fallback), ranked the way the final screen shows them. Callable
    /// once screening finished (remaining screens are auto-padded by
    /// classifier predictions).
    ///
    /// The result is a shared slice cached on the claim task, keyed by
    /// `(translated_epoch, next_screen)` — candidate generation is a pure
    /// function of the translation and the answered screens, so repeated
    /// `suggest`s on unchanged state return the same `Arc` with no
    /// regeneration and no per-call allocation (the binary wire path
    /// serves a cache hit allocation-free). A new answer or a
    /// re-translation changes the key and regenerates.
    pub fn suggest(
        &self,
        session: SessionId,
        claim_id: usize,
    ) -> Result<Arc<[Suggestion]>, EngineError> {
        let handle = self.session(session)?;
        let mut state = handle.lock().expect("session poisoned");
        let task = state
            .tasks
            .get_mut(&claim_id)
            .ok_or(EngineError::ClaimNotSubmitted(claim_id))?;
        if task.phase == ClaimPhase::Done {
            return Err(EngineError::WrongPhase {
                claim_id,
                expected: "an open claim",
            });
        }
        task.phase = ClaimPhase::Suggesting;
        if let Some((epoch, screen, cached)) = &task.suggested {
            if *epoch == task.translated_epoch && *screen == task.next_screen {
                self.stats.suggestions_served.inc();
                return Ok(Arc::clone(cached));
            }
        }
        let claim = &self.corpus.claims[claim_id];
        let screen = self.stats.suggest_latency.time(|| {
            let context;
            let survivors = {
                let _qgen = obs::span!("qgen", claim = claim_id);
                context =
                    QueryContext::new(claim, &task.translation, &task.validated, &self.config);
                let _execute = obs::span!("execute");
                context.generate(&self.corpus.catalog, &self.registry, &self.config)
            };
            // ranks the survivors and instantiates only the rows shown
            let _span = obs::span!("score", claim = claim_id);
            survivors.final_screen(
                task.translation.of(PropertyKind::Formula),
                self.config.final_options,
            )
        });
        task.candidates = screen.candidates;
        self.stats.suggestions_served.inc();
        let suggestions: Arc<[Suggestion]> = task
            .candidates
            .iter()
            .enumerate()
            .map(|(rank, c)| Suggestion {
                rank,
                sql: c.stmt.to_string(),
                formula: c.formula_text.clone(),
                value: c.value,
                matches_parameter: c.matches_parameter,
            })
            .collect();
        task.suggested = Some((
            task.translated_epoch,
            task.next_screen,
            Arc::clone(&suggestions),
        ));
        Ok(suggestions)
    }

    /// Records the checker's verdict for a claim: `correct` is their
    /// judgment, `chosen` the rank of the confirming suggestion if one was
    /// accepted. Feeds the verified set and (at the configured interval)
    /// retrains the models.
    pub fn post_verdict(
        &self,
        session: SessionId,
        claim_id: usize,
        correct: bool,
        chosen: Option<usize>,
    ) -> Result<VerdictRecord, EngineError> {
        let _gate = self.wal_gate.read().expect("wal gate poisoned");
        let handle = self.session(session)?;
        let mut state = handle.lock().expect("session poisoned");
        let task = state
            .tasks
            .get_mut(&claim_id)
            .ok_or(EngineError::ClaimNotSubmitted(claim_id))?;
        if task.phase == ClaimPhase::Done {
            return Err(EngineError::WrongPhase {
                claim_id,
                expected: "an open claim",
            });
        }
        let claim = &self.corpus.claims[claim_id];
        let outcome = claim_outcome(claim, correct, chosen, &task.candidates, 0.0);
        task.phase = ClaimPhase::Done;
        state.verified.push(claim_id);
        let lsn = self.append_record(&WalRecord::VerdictPosted {
            session: session.0,
            claim: claim_id,
            correct,
            chosen,
        });
        drop(state);
        self.stats.claims_verified.inc();
        self.commit_record(lsn);
        let retrained = self.note_verified(claim_id);
        Ok(VerdictRecord { outcome, retrained })
    }

    /// Counts one plan into the engine-wide planner counters. A greedy
    /// fallback's reason is kept too, satisfying the "don't swallow
    /// `IlpError`" contract at the metrics surface.
    fn note_planned(&self, selection: &BatchSelection) {
        let stats = &self.stats;
        stats.planner_plans.inc();
        if self.options.ordering == OrderingStrategy::Ilp {
            if selection.method == BatchMethod::GreedyFallback {
                stats.planner_fallbacks.inc();
                if let Some(error) = &selection.fallback {
                    *stats
                        .planner_last_fallback
                        .lock()
                        .expect("fallback slot poisoned") = Some(error.to_string());
                }
            } else {
                stats.planner_cold_solves.inc();
            }
        }
        if let Some(solver) = &selection.solver {
            stats.planner_nodes.add(solver.nodes_explored as u64);
            stats.planner_lp_solves.add(solver.lp_solves as u64);
        }
    }

    /// Adds a claim to the global verified set, appends it to the
    /// pending-examples log, and schedules a background incremental
    /// retrain once the log crosses the configured interval. The verdict
    /// path itself never trains: this returns as soon as the log entry is
    /// written (and, at most, a job handle is enqueued).
    fn note_verified(&self, claim_id: usize) -> bool {
        {
            let mut verified = self.verified.lock().expect("verified set poisoned");
            if !verified.seen.insert(claim_id) {
                return false;
            }
            verified.order.push(claim_id);
        }
        let Some(interval) = self.options.retrain_interval else {
            return false;
        };
        {
            let mut pending = self.pending.lock().expect("pending log poisoned");
            pending.push(claim_id);
            if pending.len() < interval {
                return false;
            }
        }
        self.schedule_retrain()
    }

    /// Enqueues one background retrain unless one is already queued or
    /// running (the active trainer drains whatever accumulates meanwhile).
    fn schedule_retrain(&self) -> bool {
        if self
            .retrain_active
            .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
            .is_err()
        {
            return false;
        }
        let Some(engine) = self.self_ref.upgrade() else {
            // engine is tearing down; nobody is left to read new models
            self.retrain_active.store(false, Ordering::Release);
            return false;
        };
        // carry the triggering request's trace onto the trainer thread, so
        // the drained flight recorder stitches the verdict that crossed the
        // threshold to the retrain it caused
        let trace = obs::current_trace();
        let job = move || {
            let mut root = obs::root_span(
                "retrain.background",
                trace.unwrap_or_else(obs::TraceId::generate),
            );
            root.add_field("triggered_by_request", trace.is_some());
            engine.background_retrain()
        };
        // under simulation the job goes to the deterministic scheduler
        // (the harness decides when it runs); in production it runs on
        // the dedicated trainer thread
        match self.env.scheduler() {
            Some(sched) => sched.spawn(Box::new(job)),
            None => {
                if self.trainer.send(Box::new(job)).is_err() {
                    // the trainer thread is gone (a retrain panicked):
                    // clear the flag so no later retrain waits on it
                    self.retrain_active.store(false, Ordering::Release);
                    return false;
                }
            }
        }
        true
    }

    /// The trainer job: drain the pending log, warm-start the classifiers
    /// on the drained batch against a *copy* of the current snapshot's
    /// weights and the engine's one training state, and
    /// publish the result as the next epoch. Loops while whole new
    /// intervals accumulated during training, then re-arms.
    fn background_retrain(&self) {
        let interval = self.options.retrain_interval.unwrap_or(usize::MAX);
        loop {
            let batch: Vec<usize> = {
                let mut pending = self.pending.lock().expect("pending log poisoned");
                std::mem::take(&mut *pending)
            };
            if batch.is_empty() {
                break;
            }
            // buggify: a trainer crash between draining the log and
            // training. The drained batch exists nowhere else, so the
            // recovery contract is publish-or-restore: put it back at the
            // front of the log (order preserved) for the restarted
            // trainer — the stranded re-check below is the restart. The
            // canary point deliberately skips the restore; it is the
            // seeded bug the simulation harness must find and shrink.
            if self.env.fault("trainer.crash") {
                if !self.env.fault("canary.trainer.drop_batch") {
                    let mut pending = self.pending.lock().expect("pending log poisoned");
                    let tail = std::mem::take(&mut *pending);
                    *pending = batch;
                    pending.extend(tail);
                }
                break;
            }
            // background/example accounting happens inside run_retrain,
            // before the epoch's checkpoint image is captured — so a
            // restart resumes with the same counters it acknowledged
            self.run_retrain(&batch, RetrainKind::Incremental);
            let backlog = self.pending.lock().expect("pending log poisoned").len();
            if backlog < interval {
                break;
            }
        }
        self.retrain_active.store(false, Ordering::Release);
        // a verdict may have crossed the threshold after our last check but
        // before the flag cleared; make sure it is not stranded
        let stranded = self.pending.lock().expect("pending log poisoned").len()
            >= self.options.retrain_interval.unwrap_or(usize::MAX);
        if stranded {
            self.schedule_retrain();
        }
    }

    /// Blocks until every pending example has been folded into a published
    /// model epoch — below-threshold leftovers included. A test/bench
    /// hook for deterministic observation of the asynchronous learning
    /// path; the serving path never calls it.
    pub fn flush_retrains(&self) {
        loop {
            // read the active flag on both sides of the pending check: the
            // log is conclusively drained only if it was empty at a moment
            // with no trainer running before *or* after the observation
            // (one read could race a trainer that drained the log but has
            // not yet published, or a verdict that appended right after an
            // early flag read)
            let active_before = self.retrain_active.load(Ordering::Acquire);
            let pending_empty = self
                .pending
                .lock()
                .expect("pending log poisoned")
                .is_empty();
            let active_after = self.retrain_active.load(Ordering::Acquire);
            if pending_empty && !active_before && !active_after {
                return;
            }
            if !pending_empty && !active_after {
                self.schedule_retrain();
            }
            // under simulation, run the queued trainer job right here on
            // this thread — a real sleep would wait forever for a thread
            // that does not exist; in production drive_one is a no-op and
            // this thread sleeps while the trainer thread works
            if !self.env.drive_one() {
                std::thread::sleep(std::time::Duration::from_micros(100));
            }
        }
    }

    // ---- simulated driving (batch mode, benches, tests) --------------------

    /// Drives one claim end to end with a simulated checker, through the
    /// same session machinery an interactive client uses: plan → answer
    /// every screen → suggest → final-screen judgment → verdict. The
    /// checker is core's [`SimulatedCheck`], which charges the crowd
    /// seconds; [`verify_batch`](Self::verify_batch) and the paper's
    /// experiments ([`crate::experiments`]) verify every claim through
    /// here.
    pub fn verify_claim_with(&self, claim_id: usize, worker: &mut Worker) -> ClaimOutcome {
        self.stats
            .verify_latency
            .time(|| self.verify_claim_inner(claim_id, worker))
    }

    fn verify_claim_inner(&self, claim_id: usize, worker: &mut Worker) -> ClaimOutcome {
        let claim = &self.corpus.claims[claim_id];
        let checker = format!("sim-{}", worker.name);
        let Some(mut check) = SimulatedCheck::begin(worker, claim, self.config.cost) else {
            return ClaimOutcome::skipped(claim_id);
        };
        let session = self.open_session(&checker);
        let outcome = (|| {
            let batch = self.submit_report(session, &[claim_id])?;
            let screens = batch
                .into_iter()
                .find(|q| q.claim_id == claim_id)
                .map(|q| q.screens);
            for screen in screens.unwrap_or_default() {
                let answer = check.answer_screen(screen.kind, &screen.options);
                self.post_answer(session, claim_id, screen.kind, &answer)?;
            }
            self.suggest(session, claim_id)?;
            let (correct, chosen) = {
                let handle = self.session(session)?;
                let state = handle.lock().expect("session poisoned");
                check.judge(&state.tasks[&claim_id].candidates)
            };
            self.post_verdict(session, claim_id, correct, chosen)
        })();
        let _ = self.close_session(session);
        match outcome {
            Ok(record) => ClaimOutcome {
                crowd_seconds: check.seconds(),
                ..record.outcome
            },
            Err(error) => unreachable!("simulated drive hit a session error: {error}"),
        }
    }

    /// Verifies a batch of claims concurrently on [`available_threads`]
    /// scoped worker threads, one simulated checker per claim (seeded by
    /// `base.seed ^ claim id`, so results are independent of scheduling).
    /// Results come back in input order. Claim ids are validated here —
    /// not in any dispatch layer — so every entry point (TCP, in-process,
    /// `batch` sub-request) reports the same [`EngineError::UnknownClaim`].
    pub fn verify_batch(
        &self,
        claim_ids: &[usize],
        base: WorkerConfig,
    ) -> Result<Vec<ClaimOutcome>, EngineError> {
        if let Some(&bad) = claim_ids.iter().find(|&&id| id >= self.corpus.claims.len()) {
            return Err(EngineError::UnknownClaim(bad));
        }
        let verify = |claim_id: usize| {
            let config = WorkerConfig {
                seed: base.seed ^ (claim_id as u64).wrapping_mul(0x9E37_79B9),
                ..base
            };
            let mut worker = Worker::new(format!("batch-{claim_id}"), config);
            self.verify_claim_with(claim_id, &mut worker)
        };
        // per-claim worker seeds make results scheduling-independent, but
        // side effects (session-id draws, retrain timing) are
        // not — under simulation the batch runs inline in input order so
        // the whole run stays bitwise deterministic
        if self.env.is_simulated() {
            return Ok(claim_ids.iter().map(|&claim_id| verify(claim_id)).collect());
        }
        let (queue_depth, in_flight) = (&self.stats.queue_depth, &self.stats.jobs_in_flight);
        for _ in claim_ids {
            queue_depth.inc();
        }
        let slots: Vec<OnceLock<ClaimOutcome>> =
            claim_ids.iter().map(|_| OnceLock::new()).collect();
        let cursor = AtomicUsize::new(0);
        let work = || loop {
            let index = cursor.fetch_add(1, Ordering::Relaxed);
            let Some(&claim_id) = claim_ids.get(index) else {
                break;
            };
            queue_depth.dec();
            in_flight.inc();
            let outcome = verify(claim_id);
            in_flight.dec();
            let _ = slots[index].set(outcome);
        };
        std::thread::scope(|scope| {
            for i in 0..available_threads().min(claim_ids.len()) {
                std::thread::Builder::new()
                    .name(format!("scrutinizer-batch-{i}"))
                    .spawn_scoped(scope, work)
                    .expect("spawn batch worker");
            }
        });
        Ok(slots
            .into_iter()
            .map(|slot| slot.into_inner().expect("every claim verified"))
            .collect())
    }

    // ---- raw SQL ----------------------------------------------------------

    /// Executes one SQL statement against the shared catalog. A trailing
    /// `;` is stripped; the lexer is case-insensitive and
    /// whitespace-agnostic, so every other spelling of one statement
    /// parses to the same query and evaluates to the same value. A
    /// failure carries the query error (an unknown relation, a parse
    /// error, …); a result that is not a finite number fails too.
    pub fn run_sql(&self, sql: &str) -> Result<f64, EngineError> {
        self.stats.sql_executed.inc();
        let _span = obs::span!("sql");
        let statement = sql.trim().trim_end_matches(';').trim();
        let value = scrutinizer_query::run_sql(&self.corpus.catalog, statement)
            .map_err(|error| EngineError::Sql(format!("`{statement}`: {error}")))?;
        match value.as_f64() {
            Some(v) if v.is_finite() => Ok(v),
            _ => Err(EngineError::Sql(format!(
                "`{statement}` did not evaluate to a finite number"
            ))),
        }
    }

    // ---- observability -----------------------------------------------------

    /// The live counter block, shared with the serving layer (the TCP
    /// server's connection gauges and the wire layer's per-code error
    /// counters live here so the `stats` op reads them all in one place).
    /// Unlike [`stats`](Self::stats) it refreshes nothing: this is the
    /// hot-path handle. Public because other callers of the
    /// per-connection step — the simulation harness — call
    /// [`step_conn`](crate::serve_core::step_conn) with it.
    pub fn stats_ref(&self) -> &EngineStats {
        &self.stats
    }

    /// Copies the state the engine keeps outside the registry — live
    /// sessions, model epoch, pending examples and the WAL
    /// counters — into its mirrored series.
    fn refresh_mirrored(&self) {
        let stats = &self.stats;
        stats.sessions_live.set(self.session_count() as u64);
        stats.model_epoch.set(self.models.epoch());
        stats
            .pending_examples
            .set(self.pending.lock().expect("pending log poisoned").len() as u64);
        if let Some(wal) = self.wal_metrics() {
            stats.wal_appends.store(wal.appends);
            stats.wal_bytes_written.store(wal.bytes_written);
            stats.wal_fsyncs.store(wal.fsyncs);
            stats.wal_segments.set(wal.segments);
            stats
                .wal_last_checkpoint_epoch
                .set(wal.last_checkpoint_epoch);
        }
    }

    /// Renders the unified metrics registry to Prometheus text exposition
    /// format, refreshing the mirrored series first so the output reports
    /// the same values as [`stats`](Self::stats) for every shared series.
    pub fn render_metrics(&self) -> String {
        self.refresh_mirrored();
        self.stats.registry().render()
    }

    /// The live counter block with its mirrored series refreshed — the
    /// engine's metrics at this point.
    pub fn stats(&self) -> &EngineStats {
        self.refresh_mirrored();
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scrutinizer_corpus::CorpusConfig;

    /// The session's cached utilities of `ids`, as bits, and its cache epoch.
    fn cached(engine: &Engine, session: SessionId, ids: &[usize]) -> (Vec<u64>, u64) {
        let handle = engine.session(session).expect("open session");
        let state = handle.lock().expect("session poisoned");
        let bits = ids.iter().map(|id| state.utilities[id].to_bits()).collect();
        (bits, state.utilities_epoch)
    }

    /// What the batched pass scores for `ids` under the published models.
    fn batched(engine: &Engine, ids: &[usize]) -> Vec<u64> {
        let rows = engine.feature_store().gather(ids);
        let utilities = engine.models_snapshot().models.training_utilities(&rows);
        utilities.into_iter().map(f64::to_bits).collect()
    }

    #[test]
    fn translation_sweeps_cache_the_batched_utilities_bit_for_bit() {
        let engine = Engine::new(
            Corpus::generate(CorpusConfig::small()),
            SystemConfig::test(),
            EngineOptions {
                retrain_interval: None,
                ..EngineOptions::default()
            },
        );
        let claims = engine.corpus().claims.len();
        let first_half: Vec<usize> = (0..claims / 2).collect();
        engine.pretrain(Some(&first_half));
        let session = engine.open_session("cache");
        let ids: Vec<usize> = (0..12).collect();
        engine.submit_report(session, &ids).expect("submit");
        let before = engine.model_epoch();
        let scored_before = batched(&engine, &ids);
        assert_eq!(
            cached(&engine, session, &ids),
            (scored_before.clone(), before)
        );

        // start one claim's screens, so the next epoch keeps its translation
        let started = ids
            .iter()
            .copied()
            .find(|&id| !engine.screens(session, id).unwrap().screens.is_empty())
            .expect("some claim has a screen");
        let screen = engine.screens(session, started).unwrap().screens[0].clone();
        engine
            .post_answer(session, started, screen.kind, &screen.options[0])
            .expect("answer");

        engine.pretrain(None);
        let after = engine.model_epoch();
        assert!(after > before);
        engine.next_batch(session).expect("next batch");
        {
            let handle = engine.session(session).unwrap();
            let state = handle.lock().unwrap();
            assert_eq!(state.tasks[&started].translated_epoch, before);
            assert!(ids
                .iter()
                .filter(|&&id| id != started)
                .all(|id| state.tasks[id].translated_epoch == after));
        }
        // the re-translated claims and the started one alike carry the
        // new epoch's utility
        let scored_after = batched(&engine, &ids);
        let slot = ids.iter().position(|&id| id == started).unwrap();
        assert_ne!(
            scored_after[slot], scored_before[slot],
            "the retrain moved it"
        );
        assert_eq!(cached(&engine, session, &ids), (scored_after, after));
    }
}
