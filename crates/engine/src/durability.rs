//! Durability: the typed WAL record set, the checkpoint state image, the
//! persistent model-snapshot blobs, and crash recovery.
//!
//! Every state-changing engine operation appends one [`WalRecord`] to a
//! checksummed write-ahead log ([`scrutinizer_wal::Wal`]) and commits it
//! before the operation's effects become observable on the wire —
//! acknowledged implies durable. At every published model epoch the
//! engine writes the trained models as a blob (`epoch-NNN.snap`), appends
//! an [`WalRecord::EpochPublished`] record, and then checkpoints a full
//! `StateImage` of the durable state, which compacts the log.
//!
//! ## What is durable
//!
//! The durable state is exactly what a checker can observe across a
//! restart: open sessions (checker name, submitted claims, validated
//! screen answers, verdict flags, verified order), the global verified
//! set and pending-examples log, the monotone counters
//! (`sessions_opened/closed`, `claims_verified`, `answers_posted`,
//! `retrains`, `background_retrains`, `examples_trained`), and the
//! published model epoch with its trained weights. Derived state —
//! translations, plans, cached suggestions, query-cache contents — is
//! deliberately *not* logged: recovery rebuilds it once from the
//! recovered models at the end of replay, which is why replay is
//! an order of magnitude faster than re-executing the same operations
//! through the live engine (no per-op planning, no suggestion
//! generation, no retraining).
//!
//! ## Ordering invariants
//!
//! * A record is committed (fsynced) before its operation returns.
//! * Ops on the same session *append* their record while still holding
//!   the session lock (only the fsync runs outside it), so the log's
//!   record order always matches the order the ops' effects were
//!   applied — replay can never see an `AnswerPosted` ahead of the
//!   `ReportSubmitted` that created its task.
//! * At epoch publish: snapshot blob first (atomic write), then the
//!   `EpochPublished` record, then the checkpoint — so any durable
//!   `EpochPublished` record has its blob, and any checkpoint at epoch
//!   `E > 0` has the `epoch-E` blob.
//! * Recovery reads a blob only when the checkpoint or an
//!   `EpochPublished` record names its epoch. A crash after the blob
//!   write but before its record leaves an unreferenced blob: recovery
//!   resumes the previous epoch, and the next publish of that epoch
//!   number overwrites the stray blob atomically.
//! * The engine's `wal_gate` makes checkpointing atomic against
//!   concurrent mutations: ops hold the read side across
//!   mutate-and-append, the checkpoint holds the write side across
//!   image-and-cut, so a record can never land after a checkpoint that
//!   already captured its effect (which would double-apply on replay).
//!   The write side covers only the `EpochPublished` record and the
//!   checkpoint: the blob (an encode, write and sync of the whole model)
//!   is written before the gate is taken, so a publish never stalls
//!   acknowledgements for it.

use std::io;
use std::sync::Arc;

use scrutinizer_core::{FeatureStore, ModelsState, SystemConfig, SystemModels};
use scrutinizer_corpus::Corpus;
use scrutinizer_learn::{ClassifierState, SoftmaxState};
use scrutinizer_sim::{SimEnv, Storage};
use scrutinizer_wal::{Wal, WalOptions};

use scrutinizer_core::PropertyKind;

use crate::api::ApiError;
use crate::codec::{kind_byte, kind_from_byte, put_str, put_u32, put_u64, put_u8, Reader};
use crate::engine::{Engine, EngineOptions};
use scrutinizer_obs as obs;

// ---- typed WAL records ---------------------------------------------------

const REC_SESSION_OPENED: u8 = 1;
const REC_REPORT_SUBMITTED: u8 = 2;
const REC_ANSWER_POSTED: u8 = 3;
const REC_VERDICT_POSTED: u8 = 4;
const REC_SESSION_CLOSED: u8 = 5;
const REC_EPOCH_PUBLISHED: u8 = 6;

/// One durable state transition, as appended to the WAL. The encoding
/// reuses the binary wire codec's little-endian field encoders, prefixed
/// by a one-byte record tag (append-only, like op bytes).
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// A session was opened and assigned `id`.
    SessionOpened {
        /// The assigned session id.
        id: u64,
        /// The checker's name.
        checker: String,
    },
    /// A report of claims was submitted to a session.
    ReportSubmitted {
        /// Target session.
        session: u64,
        /// Corpus claim ids, in submission order.
        claims: Vec<usize>,
    },
    /// A property-screen answer was accepted.
    AnswerPosted {
        /// Target session.
        session: u64,
        /// The claim answered.
        claim: usize,
        /// The validated property.
        kind: PropertyKind,
        /// The chosen option text.
        answer: String,
    },
    /// A verdict was recorded.
    VerdictPosted {
        /// Target session.
        session: u64,
        /// The judged claim.
        claim: usize,
        /// The checker's judgment.
        correct: bool,
        /// Rank of the confirming suggestion, if one was accepted.
        chosen: Option<usize>,
    },
    /// A session was closed.
    SessionClosed {
        /// The closed session's id.
        id: u64,
    },
    /// A new model epoch was published (its weights live in the
    /// `epoch-<epoch>.snap` blob, written durably before this record).
    EpochPublished {
        /// The published epoch.
        epoch: u64,
        /// Examples folded into this epoch (0 for from-scratch retrains).
        examples: u64,
        /// Whether the background trainer published it (vs a synchronous
        /// pretrain).
        background: bool,
    },
}

impl WalRecord {
    /// Encodes the record as a WAL payload (the WAL adds length + CRC).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(32);
        match self {
            WalRecord::SessionOpened { id, checker } => {
                put_u8(&mut out, REC_SESSION_OPENED);
                put_u64(&mut out, *id);
                put_str(&mut out, checker);
            }
            WalRecord::ReportSubmitted { session, claims } => {
                put_u8(&mut out, REC_REPORT_SUBMITTED);
                put_u64(&mut out, *session);
                put_u32(&mut out, claims.len() as u32);
                for &claim in claims {
                    put_u64(&mut out, claim as u64);
                }
            }
            WalRecord::AnswerPosted {
                session,
                claim,
                kind,
                answer,
            } => {
                put_u8(&mut out, REC_ANSWER_POSTED);
                put_u64(&mut out, *session);
                put_u64(&mut out, *claim as u64);
                put_u8(&mut out, kind_byte(*kind));
                put_str(&mut out, answer);
            }
            WalRecord::VerdictPosted {
                session,
                claim,
                correct,
                chosen,
            } => {
                put_u8(&mut out, REC_VERDICT_POSTED);
                put_u64(&mut out, *session);
                put_u64(&mut out, *claim as u64);
                put_u8(&mut out, u8::from(*correct));
                match chosen {
                    Some(rank) => {
                        put_u8(&mut out, 1);
                        put_u64(&mut out, *rank as u64);
                    }
                    None => put_u8(&mut out, 0),
                }
            }
            WalRecord::SessionClosed { id } => {
                put_u8(&mut out, REC_SESSION_CLOSED);
                put_u64(&mut out, *id);
            }
            WalRecord::EpochPublished {
                epoch,
                examples,
                background,
            } => {
                put_u8(&mut out, REC_EPOCH_PUBLISHED);
                put_u64(&mut out, *epoch);
                put_u64(&mut out, *examples);
                put_u8(&mut out, u8::from(*background));
            }
        }
        out
    }

    /// Decodes one WAL payload. A structurally bad record is an error —
    /// the WAL's CRC already rejected corruption, so this only fires on
    /// version skew or a bug.
    pub fn decode(payload: &[u8]) -> Result<WalRecord, String> {
        let mut reader = Reader::new(payload);
        let record = Self::decode_from(&mut reader).map_err(|e: ApiError| e.message)?;
        if !reader.is_empty() {
            return Err("trailing bytes after WAL record".to_string());
        }
        Ok(record)
    }

    fn decode_from(reader: &mut Reader<'_>) -> Result<WalRecord, ApiError> {
        let bad = |message: String| ApiError::new(crate::api::ErrorCode::ParseError, message);
        let tag = reader.u8()?;
        Ok(match tag {
            REC_SESSION_OPENED => WalRecord::SessionOpened {
                id: reader.u64()?,
                checker: reader.str()?.to_string(),
            },
            REC_REPORT_SUBMITTED => {
                let session = reader.u64()?;
                let count = reader.u32()? as usize;
                let mut claims = Vec::with_capacity(count.min(4096));
                for _ in 0..count {
                    claims.push(reader.u64()? as usize);
                }
                WalRecord::ReportSubmitted { session, claims }
            }
            REC_ANSWER_POSTED => WalRecord::AnswerPosted {
                session: reader.u64()?,
                claim: reader.u64()? as usize,
                kind: {
                    let byte = reader.u8()?;
                    kind_from_byte(byte)
                        .ok_or_else(|| bad(format!("invalid property kind byte {byte}")))?
                },
                answer: reader.str()?.to_string(),
            },
            REC_VERDICT_POSTED => WalRecord::VerdictPosted {
                session: reader.u64()?,
                claim: reader.u64()? as usize,
                correct: reader.bool()?,
                chosen: if reader.bool()? {
                    Some(reader.u64()? as usize)
                } else {
                    None
                },
            },
            REC_SESSION_CLOSED => WalRecord::SessionClosed { id: reader.u64()? },
            REC_EPOCH_PUBLISHED => WalRecord::EpochPublished {
                epoch: reader.u64()?,
                examples: reader.u64()?,
                background: reader.bool()?,
            },
            other => return Err(bad(format!("unknown WAL record tag {other}"))),
        })
    }
}

// ---- checkpoint state image ----------------------------------------------

/// Per-claim durable state inside a session image.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ClaimImage {
    pub(crate) id: usize,
    pub(crate) done: bool,
    pub(crate) validated: [Option<String>; 3],
}

/// One live session in a checkpoint image.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct SessionImage {
    pub(crate) id: u64,
    pub(crate) checker: String,
    pub(crate) pending: Vec<usize>,
    pub(crate) verified: Vec<usize>,
    pub(crate) claims: Vec<ClaimImage>,
}

/// The full durable engine state as of a checkpoint: session registry,
/// verified set, pending-examples log, and the monotone counters. Model
/// weights live in the epoch's snapshot blob, not here.
#[derive(Debug, Clone, PartialEq, Default)]
pub(crate) struct StateImage {
    pub(crate) next_session: u64,
    pub(crate) sessions_opened: u64,
    pub(crate) sessions_closed: u64,
    pub(crate) claims_verified: u64,
    pub(crate) answers_posted: u64,
    pub(crate) retrains: u64,
    pub(crate) background_retrains: u64,
    pub(crate) examples_trained: u64,
    pub(crate) verified: Vec<usize>,
    pub(crate) pending: Vec<usize>,
    pub(crate) sessions: Vec<SessionImage>,
}

const IMAGE_VERSION: u32 = 1;

fn put_ids(out: &mut Vec<u8>, ids: &[usize]) {
    put_u32(out, ids.len() as u32);
    for &id in ids {
        put_u64(out, id as u64);
    }
}

fn read_ids(reader: &mut Reader<'_>) -> Result<Vec<usize>, ApiError> {
    let count = reader.u32()? as usize;
    let mut out = Vec::with_capacity(count.min(1 << 16));
    for _ in 0..count {
        out.push(reader.u64()? as usize);
    }
    Ok(out)
}

pub(crate) fn encode_state_image(image: &StateImage) -> Vec<u8> {
    let mut out = Vec::with_capacity(256);
    put_u32(&mut out, IMAGE_VERSION);
    put_u64(&mut out, image.next_session);
    for value in [
        image.sessions_opened,
        image.sessions_closed,
        image.claims_verified,
        image.answers_posted,
        image.retrains,
        image.background_retrains,
        image.examples_trained,
    ] {
        put_u64(&mut out, value);
    }
    put_ids(&mut out, &image.verified);
    put_ids(&mut out, &image.pending);
    put_u32(&mut out, image.sessions.len() as u32);
    for session in &image.sessions {
        put_u64(&mut out, session.id);
        put_str(&mut out, &session.checker);
        put_ids(&mut out, &session.pending);
        put_ids(&mut out, &session.verified);
        put_u32(&mut out, session.claims.len() as u32);
        for claim in &session.claims {
            put_u64(&mut out, claim.id as u64);
            put_u8(&mut out, u8::from(claim.done));
            for slot in &claim.validated {
                match slot {
                    Some(answer) => {
                        put_u8(&mut out, 1);
                        put_str(&mut out, answer);
                    }
                    None => put_u8(&mut out, 0),
                }
            }
        }
    }
    out
}

pub(crate) fn decode_state_image(payload: &[u8]) -> Result<StateImage, String> {
    decode_state_image_inner(payload).map_err(|e| e.message)
}

fn decode_state_image_inner(payload: &[u8]) -> Result<StateImage, ApiError> {
    let mut reader = Reader::new(payload);
    let version = reader.u32()?;
    if version != IMAGE_VERSION {
        return Err(ApiError::new(
            crate::api::ErrorCode::ParseError,
            format!("unsupported checkpoint image version {version}"),
        ));
    }
    let next_session = reader.u64()?;
    let mut counters = [0u64; 7];
    for slot in &mut counters {
        *slot = reader.u64()?;
    }
    let verified = read_ids(&mut reader)?;
    let pending = read_ids(&mut reader)?;
    let n_sessions = reader.u32()? as usize;
    let mut sessions = Vec::with_capacity(n_sessions.min(1 << 16));
    for _ in 0..n_sessions {
        let id = reader.u64()?;
        let checker = reader.str()?.to_string();
        let session_pending = read_ids(&mut reader)?;
        let session_verified = read_ids(&mut reader)?;
        let n_claims = reader.u32()? as usize;
        let mut claims = Vec::with_capacity(n_claims.min(1 << 16));
        for _ in 0..n_claims {
            let claim_id = reader.u64()? as usize;
            let done = reader.bool()?;
            let mut validated: [Option<String>; 3] = [None, None, None];
            for slot in &mut validated {
                if reader.bool()? {
                    *slot = Some(reader.str()?.to_string());
                }
            }
            claims.push(ClaimImage {
                id: claim_id,
                done,
                validated,
            });
        }
        sessions.push(SessionImage {
            id,
            checker,
            pending: session_pending,
            verified: session_verified,
            claims,
        });
    }
    Ok(StateImage {
        next_session,
        sessions_opened: counters[0],
        sessions_closed: counters[1],
        claims_verified: counters[2],
        answers_posted: counters[3],
        retrains: counters[4],
        background_retrains: counters[5],
        examples_trained: counters[6],
        verified,
        pending,
        sessions,
    })
}

// ---- model snapshot blobs ------------------------------------------------

const MODEL_MAGIC: &[u8; 8] = b"SCRMDLv1";

/// The blob name a published epoch's models are stored under.
pub fn snapshot_blob_name(epoch: u64) -> String {
    format!("epoch-{epoch:010}.snap")
}

/// Parses the epoch back out of a snapshot blob name.
pub fn snapshot_blob_epoch(name: &str) -> Option<u64> {
    name.strip_prefix("epoch-")?
        .strip_suffix(".snap")?
        .parse()
        .ok()
}

fn put_f32s(out: &mut Vec<u8>, values: &[f32]) {
    put_u32(out, values.len() as u32);
    for &value in values {
        put_u32(out, value.to_bits());
    }
}

fn read_f32s(reader: &mut Reader<'_>) -> Result<Vec<f32>, ApiError> {
    let count = reader.u32()? as usize;
    reader.f32s(count)
}

/// Serializes the learned model state for one published epoch.
pub(crate) fn encode_models(epoch: u64, state: &ModelsState) -> Vec<u8> {
    let mut out = Vec::with_capacity(1 << 12);
    out.extend_from_slice(MODEL_MAGIC);
    put_u64(&mut out, epoch);
    for classifier in &state.classifiers {
        put_u32(&mut out, classifier.labels.len() as u32);
        for label in &classifier.labels {
            put_str(&mut out, label);
        }
        match &classifier.model {
            Some(model) => {
                put_u8(&mut out, 1);
                put_f32s(&mut out, &model.weights);
                put_f32s(&mut out, &model.biases);
                put_f32s(&mut out, &model.grad_sq_w);
                put_f32s(&mut out, &model.grad_sq_b);
                put_u64(&mut out, model.dim as u64);
                put_u64(&mut out, model.n_classes as u64);
                put_u64(&mut out, model.fits);
            }
            None => put_u8(&mut out, 0),
        }
    }
    put_ids(&mut out, &state.replay);
    put_u64(&mut out, state.replay_cursor as u64);
    out
}

/// Deserializes a model snapshot blob back to `(epoch, state)`.
pub(crate) fn decode_models(payload: &[u8]) -> Result<(u64, ModelsState), String> {
    decode_models_inner(payload).map_err(|e| e.message)
}

fn decode_models_inner(payload: &[u8]) -> Result<(u64, ModelsState), ApiError> {
    let bad = |message: &str| ApiError::new(crate::api::ErrorCode::ParseError, message);
    if payload.len() < MODEL_MAGIC.len() || &payload[..MODEL_MAGIC.len()] != MODEL_MAGIC {
        return Err(bad("model snapshot blob has a bad magic header"));
    }
    let mut reader = Reader::new(&payload[MODEL_MAGIC.len()..]);
    let epoch = reader.u64()?;
    let mut classifiers: Vec<ClassifierState> = Vec::with_capacity(4);
    for _ in 0..4 {
        let n_labels = reader.u32()? as usize;
        let mut labels = Vec::with_capacity(n_labels.min(1 << 16));
        for _ in 0..n_labels {
            labels.push(reader.str()?.to_string());
        }
        let model = if reader.bool()? {
            Some(SoftmaxState {
                weights: read_f32s(&mut reader)?,
                biases: read_f32s(&mut reader)?,
                grad_sq_w: read_f32s(&mut reader)?,
                grad_sq_b: read_f32s(&mut reader)?,
                dim: reader.u64()? as usize,
                n_classes: reader.u64()? as usize,
                fits: reader.u64()?,
            })
        } else {
            None
        };
        classifiers.push(ClassifierState { labels, model });
    }
    let replay = read_ids(&mut reader)?;
    let replay_cursor = reader.u64()? as usize;
    if !reader.is_empty() {
        return Err(bad("trailing bytes after model snapshot blob"));
    }
    let classifiers: [ClassifierState; 4] = classifiers
        .try_into()
        .map_err(|_| bad("model snapshot blob is missing classifiers"))?;
    Ok((
        epoch,
        ModelsState {
            classifiers,
            replay,
            replay_cursor,
        },
    ))
}

// ---- recovery ------------------------------------------------------------

/// Where durable state lives: a [`Storage`] implementation (real
/// filesystem or the simulation substrate), a directory inside it, and
/// the WAL's sizing knobs.
pub struct DurableEnv {
    /// The storage backend.
    pub storage: Arc<dyn Storage>,
    /// Directory holding segments, the checkpoint, and snapshot blobs.
    pub dir: String,
    /// WAL segment/flush sizing.
    pub wal: WalOptions,
}

/// What recovery found and did, for startup logging and tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RecoveryReport {
    /// The model epoch the engine resumed at.
    pub resumed_epoch: u64,
    /// The epoch of the durable checkpoint (0 if none existed).
    pub checkpoint_epoch: u64,
    /// WAL records replayed on top of the checkpoint image.
    pub records_replayed: usize,
    /// Live sessions restored.
    pub sessions_restored: usize,
    /// Bytes of torn tail truncated from the last segment.
    pub truncated_bytes: usize,
}

fn invalid(message: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message)
}

/// Opens (or creates) the durable state under `durable.dir` and builds an
/// engine resumed from it: the checkpoint image is applied, the tail of
/// the WAL is replayed, the last published epoch's models are loaded from
/// their snapshot blob, and open claims are re-planned once with the
/// recovered models. The returned engine records every subsequent
/// state-changing op to the same WAL.
///
/// `base_models` are the bootstrap models used when no epoch was ever
/// published (and as the label-space scaffold snapshots are restored
/// onto); `corpus`/`features` must describe the same world the log was
/// written against.
pub fn recover_parts(
    corpus: Arc<Corpus>,
    features: Arc<FeatureStore>,
    base_models: SystemModels,
    config: SystemConfig,
    options: EngineOptions,
    env: SimEnv,
    durable: DurableEnv,
) -> io::Result<(Arc<Engine>, RecoveryReport)> {
    let _span = obs::span!("wal.replay");
    durable.storage.create_dir_all(&durable.dir)?;
    let (wal, recovered) = Wal::open(Arc::clone(&durable.storage), &durable.dir, durable.wal)?;
    let (checkpoint_epoch, image) = match &recovered.checkpoint {
        Some((epoch, payload)) => (*epoch, Some(decode_state_image(payload).map_err(invalid)?)),
        None => (0, None),
    };
    let mut models = base_models;
    if checkpoint_epoch > 0 {
        let name = snapshot_blob_name(checkpoint_epoch);
        // the publish order (blob → record → checkpoint) guarantees any
        // durable checkpoint at epoch E > 0 has its epoch-E blob, so a
        // missing blob is corruption or an external deletion; resuming on
        // bootstrap models would silently serve untrained weights while
        // the recovered counters report a trained epoch
        let bytes = wal.read_blob(&name)?.ok_or_else(|| {
            invalid(format!(
                "checkpoint at epoch {checkpoint_epoch} but snapshot blob {name} is missing"
            ))
        })?;
        let (epoch, state) = decode_models(&bytes).map_err(invalid)?;
        if epoch != checkpoint_epoch {
            return Err(invalid(format!(
                "snapshot blob {name} claims epoch {epoch}"
            )));
        }
        models.restore_state(state).map_err(invalid)?;
    }
    let engine = Engine::assemble(
        corpus,
        features,
        models,
        config,
        options,
        env,
        checkpoint_epoch,
        Some(wal),
    );
    engine.begin_replay();
    if let Some(image) = image {
        engine.apply_state_image(&image);
    }
    let mut records_replayed = 0;
    for payload in &recovered.records {
        let record = WalRecord::decode(payload).map_err(invalid)?;
        engine.replay_record(&record)?;
        records_replayed += 1;
    }
    engine.replay_finalize();
    engine.end_replay();
    let sessions_restored = engine.session_count();
    let report = RecoveryReport {
        resumed_epoch: engine.model_epoch(),
        checkpoint_epoch,
        records_replayed,
        sessions_restored,
        truncated_bytes: recovered.truncated_bytes,
    };
    Ok((engine, report))
}

/// Convenience wrapper over [`recover_parts`] for production callers
/// (the serving binary): bootstraps fresh models and features for the
/// corpus, then recovers on top of them.
pub fn recover(
    corpus: Corpus,
    config: SystemConfig,
    options: EngineOptions,
    durable: DurableEnv,
) -> io::Result<(Arc<Engine>, RecoveryReport)> {
    let models = SystemModels::bootstrap(&corpus, &config);
    let features = Arc::new(FeatureStore::build(&corpus, &models));
    recover_parts(
        Arc::new(corpus),
        features,
        models,
        config,
        options,
        SimEnv::production(),
        durable,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wal_records_round_trip() {
        let records = vec![
            WalRecord::SessionOpened {
                id: 7,
                checker: "alice \u{1F980}".to_string(),
            },
            WalRecord::ReportSubmitted {
                session: 7,
                claims: vec![0, 5, 99],
            },
            WalRecord::AnswerPosted {
                session: 7,
                claim: 5,
                kind: PropertyKind::Key,
                answer: "row \"3\"".to_string(),
            },
            WalRecord::VerdictPosted {
                session: 7,
                claim: 5,
                correct: true,
                chosen: Some(2),
            },
            WalRecord::VerdictPosted {
                session: 7,
                claim: 99,
                correct: false,
                chosen: None,
            },
            WalRecord::SessionClosed { id: 7 },
            WalRecord::EpochPublished {
                epoch: 3,
                examples: 50,
                background: true,
            },
        ];
        for record in records {
            let bytes = record.encode();
            assert_eq!(WalRecord::decode(&bytes).expect("decodes"), record);
        }
    }

    #[test]
    fn truncated_or_tagged_garbage_is_rejected() {
        let bytes = WalRecord::SessionOpened {
            id: 1,
            checker: "a".to_string(),
        }
        .encode();
        for cut in 0..bytes.len() {
            assert!(WalRecord::decode(&bytes[..cut]).is_err(), "prefix {cut}");
        }
        assert!(WalRecord::decode(&[200, 0, 0]).is_err());
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(WalRecord::decode(&trailing).is_err());
    }

    #[test]
    fn state_image_round_trips() {
        let image = StateImage {
            next_session: 12,
            sessions_opened: 11,
            sessions_closed: 4,
            claims_verified: 9,
            answers_posted: 20,
            retrains: 3,
            background_retrains: 2,
            examples_trained: 100,
            verified: vec![4, 1, 9],
            pending: vec![9],
            sessions: vec![SessionImage {
                id: 5,
                checker: "bob".to_string(),
                pending: vec![4, 6],
                verified: vec![4],
                claims: vec![
                    ClaimImage {
                        id: 4,
                        done: true,
                        validated: [Some("r".to_string()), None, None],
                    },
                    ClaimImage {
                        id: 6,
                        done: false,
                        validated: [None, Some("k".to_string()), Some("a".to_string())],
                    },
                ],
            }],
        };
        let bytes = encode_state_image(&image);
        assert_eq!(decode_state_image(&bytes).expect("decodes"), image);
        assert!(decode_state_image(&bytes[..bytes.len() - 1]).is_err());
    }

    #[test]
    fn snapshot_blob_names_round_trip() {
        assert_eq!(snapshot_blob_name(7), "epoch-0000000007.snap");
        assert_eq!(snapshot_blob_epoch("epoch-0000000007.snap"), Some(7));
        assert_eq!(snapshot_blob_epoch("seg-0000000001.log"), None);
        assert_eq!(snapshot_blob_epoch("epoch-x.snap"), None);
    }

    #[test]
    fn model_state_round_trips_bit_exactly() {
        use scrutinizer_core::SystemConfig;
        use scrutinizer_corpus::{Corpus, CorpusConfig};
        let corpus = Corpus::generate(CorpusConfig::small());
        let config = SystemConfig::test();
        let mut models = SystemModels::bootstrap(&corpus, &config);
        let refs: Vec<&scrutinizer_corpus::ClaimRecord> = corpus.claims.iter().take(40).collect();
        models.retrain(&refs);
        let state = models.export_state();
        let bytes = encode_models(9, &state);
        let (epoch, decoded) = decode_models(&bytes).expect("decodes");
        assert_eq!(epoch, 9);
        assert_eq!(decoded, state);
        assert!(decode_models(&bytes[..bytes.len() - 2]).is_err());
        assert!(decode_models(b"NOTMAGIC").is_err());
    }
}
