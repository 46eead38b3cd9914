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
//! log with the trainer's cursor into it (the image stores the log's
//! untrained tail as its `pending` list), the monotone counters
//! (`sessions_opened/closed`, `claims_verified`, `answers_posted`,
//! `retrains`, `background_retrains`, `examples_trained`), and the
//! published model epoch with its trained weights. Derived state —
//! translations, plans, cached suggestions — is
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
//!   `ReportSubmitted` that created its task. A verdict also pushes to
//!   the verified log under the lock it appends under, so that log
//!   replays in its live order and the trainer's cursor into it holds.
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
//!   checkpoint: the blob is streamed to disk and synced before the gate
//!   is taken, so a publish never stalls acknowledgements for it.
//!
//! ## Snapshot blobs stream
//!
//! A model blob is as large as the model (142 MB at paper scale), so it
//! never exists in memory. It joins the two owners of the learned state:
//! the published snapshot's [`SystemModels`] (weights, biases, labels)
//! and the trainer's [`TrainingState`] (AdaGrad accumulators, fit counts,
//! rehearsal log). `write_models` streams each classifier's weight rows
//! from the first and its accumulator block from the second through the
//! atomic write one tile of class rows at a time, and `read_models` fills
//! fresh rows and blocks from the file the same way, each into its owner
//! (the weights straight into their feature rows, never into a whole
//! block first), building
//! each classifier on the label and dim scaffold of a model set already
//! in hand rather than on a clone of its weights. Publishing or
//! restarting therefore needs one tile (~1.5 MB) beyond the models and
//! training state themselves.

use std::io::{self, Read, Write};
use std::sync::Arc;

use scrutinizer_core::{PropertyKind, SystemModels, TrainingState};
use scrutinizer_learn::softmax::{feature_major_from_tiles, feature_rows_from_tiles};
use scrutinizer_learn::{PropertyClassifier, SoftmaxClassifier, SoftmaxTraining};
use scrutinizer_sim::Storage;
use scrutinizer_wal::{Wal, WalOptions};

use crate::api::{ApiError, ErrorCode};
use crate::codec::{put_u32, put_u8, Field, Reader, Wire};
use crate::engine::{Engine, EngineParts};
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
                id.put(&mut out);
                checker.put(&mut out);
            }
            WalRecord::ReportSubmitted { session, claims } => {
                put_u8(&mut out, REC_REPORT_SUBMITTED);
                session.put(&mut out);
                claims.put(&mut out);
            }
            WalRecord::AnswerPosted {
                session,
                claim,
                kind,
                answer,
            } => {
                put_u8(&mut out, REC_ANSWER_POSTED);
                session.put(&mut out);
                claim.put(&mut out);
                kind.put(&mut out);
                answer.put(&mut out);
            }
            WalRecord::VerdictPosted {
                session,
                claim,
                correct,
                chosen,
            } => {
                put_u8(&mut out, REC_VERDICT_POSTED);
                session.put(&mut out);
                claim.put(&mut out);
                correct.put(&mut out);
                chosen.put(&mut out);
            }
            WalRecord::SessionClosed { id } => {
                put_u8(&mut out, REC_SESSION_CLOSED);
                id.put(&mut out);
            }
            WalRecord::EpochPublished {
                epoch,
                examples,
                background,
            } => {
                put_u8(&mut out, REC_EPOCH_PUBLISHED);
                epoch.put(&mut out);
                examples.put(&mut out);
                background.put(&mut out);
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
        Ok(match reader.u8()? {
            REC_SESSION_OPENED => WalRecord::SessionOpened {
                id: Field::read(reader)?,
                checker: Field::read(reader)?,
            },
            REC_REPORT_SUBMITTED => WalRecord::ReportSubmitted {
                session: Field::read(reader)?,
                claims: Field::read(reader)?,
            },
            REC_ANSWER_POSTED => WalRecord::AnswerPosted {
                session: Field::read(reader)?,
                claim: Field::read(reader)?,
                kind: Field::read(reader)?,
                answer: Field::read(reader)?,
            },
            REC_VERDICT_POSTED => WalRecord::VerdictPosted {
                session: Field::read(reader)?,
                claim: Field::read(reader)?,
                correct: Field::read(reader)?,
                chosen: Field::read(reader)?,
            },
            REC_SESSION_CLOSED => WalRecord::SessionClosed {
                id: Field::read(reader)?,
            },
            REC_EPOCH_PUBLISHED => WalRecord::EpochPublished {
                epoch: Field::read(reader)?,
                examples: Field::read(reader)?,
                background: Field::read(reader)?,
            },
            other => {
                return Err(ApiError::new(
                    ErrorCode::ParseError,
                    format!("unknown WAL record tag {other}"),
                ))
            }
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
/// the verified log and its untrained tail `verified[trained..]` (as
/// `pending`), and the monotone counters. Model
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

pub(crate) fn encode_state_image(image: &StateImage) -> Vec<u8> {
    let mut out = Vec::with_capacity(256);
    put_u32(&mut out, IMAGE_VERSION);
    for value in [
        image.next_session,
        image.sessions_opened,
        image.sessions_closed,
        image.claims_verified,
        image.answers_posted,
        image.retrains,
        image.background_retrains,
        image.examples_trained,
    ] {
        value.put(&mut out);
    }
    image.verified.put(&mut out);
    image.pending.put(&mut out);
    put_u32(&mut out, image.sessions.len() as u32);
    for session in &image.sessions {
        session.id.put(&mut out);
        session.checker.put(&mut out);
        session.pending.put(&mut out);
        session.verified.put(&mut out);
        put_u32(&mut out, session.claims.len() as u32);
        for claim in &session.claims {
            claim.id.put(&mut out);
            claim.done.put(&mut out);
            for slot in &claim.validated {
                slot.put(&mut out);
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
            ErrorCode::ParseError,
            format!("unsupported checkpoint image version {version}"),
        ));
    }
    let reader = &mut reader;
    Ok(StateImage {
        next_session: Field::read(reader)?,
        sessions_opened: Field::read(reader)?,
        sessions_closed: Field::read(reader)?,
        claims_verified: Field::read(reader)?,
        answers_posted: Field::read(reader)?,
        retrains: Field::read(reader)?,
        background_retrains: Field::read(reader)?,
        examples_trained: Field::read(reader)?,
        verified: Field::read(reader)?,
        pending: Field::read(reader)?,
        sessions: reader.list(|reader| {
            Ok(SessionImage {
                id: Field::read(reader)?,
                checker: Field::read(reader)?,
                pending: Field::read(reader)?,
                verified: Field::read(reader)?,
                claims: reader.list(|reader| {
                    Ok(ClaimImage {
                        id: Field::read(reader)?,
                        done: Field::read(reader)?,
                        validated: [
                            Field::read(reader)?,
                            Field::read(reader)?,
                            Field::read(reader)?,
                        ],
                    })
                })?,
            })
        })?,
    })
}

// ---- model snapshot blobs ------------------------------------------------

/// `SCRMDLv1`, the model snapshot blob, every integer and float
/// little-endian: the magic, the epoch (u64), then per classifier in
/// [`PropertyKind`] order its labels (u32 count, each a u32 length plus
/// UTF-8) and a trained byte (0 or 1); a trained one carries its weights
/// (u32 count `n·d`, then `n` rows of `d` f32s), biases (u32 `n`, f32s),
/// AdaGrad weight accumulators (like the weights), AdaGrad bias
/// accumulators (like the biases), then `d`, `n` and its fit count
/// (u64 each). The rehearsal log (u32 count, u64 ids) and its cursor
/// (u64) close the blob.
const MODEL_MAGIC: &[u8; 8] = b"SCRMDLv1";

/// Floats per buffered chunk when a float array streams (4 KiB).
const F32_CHUNK: usize = 1024;

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

fn write_u32(out: &mut dyn Write, value: usize) -> io::Result<()> {
    out.write_all(&(value as u32).to_le_bytes())
}

fn write_f32s(out: &mut dyn Write, values: &[f32]) -> io::Result<()> {
    let mut bytes = [0u8; 4 * F32_CHUNK];
    for chunk in values.chunks(F32_CHUNK) {
        let bytes = &mut bytes[..4 * chunk.len()];
        for (slot, value) in bytes.chunks_exact_mut(4).zip(chunk) {
            slot.copy_from_slice(&value.to_le_bytes());
        }
        out.write_all(bytes)?;
    }
    Ok(())
}

/// Streams one published epoch into `out` as a `SCRMDLv1` blob,
/// straight from each classifier's feature-major rows one tile of class
/// rows at a time — the weights from `models`, the accumulators, fit
/// counts and rehearsal log from their `training` state: no row-major
/// copy and no encoded blob is ever held in memory.
///
/// # Panics
/// Panics if `training` is not the training state of `models`.
pub(crate) fn write_models(
    epoch: u64,
    models: &SystemModels,
    training: &TrainingState,
    out: &mut dyn Write,
) -> io::Result<()> {
    out.write_all(MODEL_MAGIC)?;
    out.write_all(&epoch.to_le_bytes())?;
    for kind in PropertyKind::ALL {
        let classifier = models.classifier(kind);
        let labels = classifier.labels().names();
        write_u32(out, labels.len())?;
        for label in labels {
            write_u32(out, label.len())?;
            out.write_all(label.as_bytes())?;
        }
        let Some(model) = classifier.softmax() else {
            out.write_all(&[0])?;
            continue;
        };
        let state = training
            .classifier(kind)
            .filter(|state| (state.n_classes(), state.dim()) == (model.n_classes(), model.dim()))
            .unwrap_or_else(|| panic!("{}: no training state of its shape", kind.name()));
        out.write_all(&[1])?;
        let cells = model.n_classes() * model.dim();
        write_u32(out, cells)?;
        model.row_tiles(|tile| write_f32s(out, tile))?;
        write_u32(out, model.n_classes())?;
        write_f32s(out, model.biases())?;
        write_u32(out, cells)?;
        state.row_tiles(|tile| write_f32s(out, tile))?;
        write_u32(out, model.n_classes())?;
        write_f32s(out, state.grad_sq_biases())?;
        for value in [model.dim() as u64, model.n_classes() as u64, state.fits()] {
            out.write_all(&value.to_le_bytes())?;
        }
    }
    let replay = training.replay_log();
    write_u32(out, replay.len())?;
    for &id in replay {
        out.write_all(&(id as u64).to_le_bytes())?;
    }
    out.write_all(&(training.replay_cursor() as u64).to_le_bytes())
}

/// A length-bounded cursor over a streamed blob. Every read is checked
/// against the bytes the blob still holds before it touches the stream,
/// and every count before anything is allocated for it, so a truncated
/// blob or a lying count is `InvalidData` — never a panic or an
/// allocation past the blob's size. A stream that ends before the
/// length its storage reported surfaces as `UnexpectedEof`: a short
/// read, which the WAL retries.
struct BlobReader<'a> {
    input: &'a mut dyn Read,
    remaining: u64,
}

impl BlobReader<'_> {
    fn reserve(&mut self, bytes: u64) -> io::Result<()> {
        if bytes > self.remaining {
            return Err(invalid("model snapshot blob is truncated".to_string()));
        }
        self.remaining -= bytes;
        Ok(())
    }

    fn array<const N: usize>(&mut self) -> io::Result<[u8; N]> {
        self.reserve(N as u64)?;
        let mut bytes = [0; N];
        self.input.read_exact(&mut bytes)?;
        Ok(bytes)
    }

    fn u64(&mut self) -> io::Result<u64> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    fn bool(&mut self) -> io::Result<bool> {
        match self.array::<1>()?[0] {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(invalid(format!("invalid boolean byte {other}"))),
        }
    }

    /// A u32 count of items at least `width` bytes each, rejected unless
    /// the rest of the blob can hold them.
    fn count(&mut self, width: u64) -> io::Result<usize> {
        let count = u32::from_le_bytes(self.array()?);
        if u64::from(count) * width > self.remaining {
            return Err(invalid(format!(
                "model snapshot blob counts {count} items past its end"
            )));
        }
        Ok(count as usize)
    }

    fn string(&mut self) -> io::Result<String> {
        let len = self.count(1)?;
        self.reserve(len as u64)?;
        let mut bytes = vec![0; len];
        self.input.read_exact(&mut bytes)?;
        String::from_utf8(bytes)
            .map_err(|_| invalid("model snapshot label is not UTF-8".to_string()))
    }

    fn f32s_into(&mut self, out: &mut [f32]) -> io::Result<()> {
        self.reserve(4 * out.len() as u64)?;
        let mut bytes = [0u8; 4 * F32_CHUNK];
        for chunk in out.chunks_mut(F32_CHUNK) {
            let bytes = &mut bytes[..4 * chunk.len()];
            self.input.read_exact(bytes)?;
            for (value, raw) in chunk.iter_mut().zip(bytes.chunks_exact(4)) {
                *value = f32::from_le_bytes(raw.try_into().expect("4 bytes"));
            }
        }
        Ok(())
    }

    /// A counted float array that must hold exactly `len` values.
    fn f32s(&mut self, len: usize) -> io::Result<Vec<f32>> {
        let count = self.count(4)?;
        if count != len {
            return Err(invalid(format!(
                "model snapshot holds {count} per-class values for {len} classes"
            )));
        }
        let mut values = vec![0.0; count];
        self.f32s_into(&mut values)?;
        Ok(values)
    }

    /// Fails unless the blob was consumed exactly.
    fn finish(self) -> io::Result<()> {
        if self.remaining > 0 || self.input.read(&mut [0])? > 0 {
            return Err(invalid(
                "trailing bytes after model snapshot blob".to_string(),
            ));
        }
        Ok(())
    }
}

/// Decodes a `SCRMDLv1` blob of `len` bytes from `input` into
/// `(epoch, models, training)`. Each classifier is built on its
/// counterpart in `scaffold` ([`PropertyClassifier::with_learned`]): the
/// scaffold lends the featurizer, property names, feature dims and
/// training config, never its weights, and each half streams from
/// `input` straight into its owner's fresh feature-major storage — the
/// weights into the models' feature rows, the accumulators into the
/// training state's block — one tile at a time.
pub(crate) fn read_models(
    input: &mut dyn Read,
    len: u64,
    scaffold: &SystemModels,
) -> io::Result<(u64, SystemModels, TrainingState)> {
    let mut blob = BlobReader {
        input,
        remaining: len,
    };
    if blob.array()? != *MODEL_MAGIC {
        return Err(invalid(
            "model snapshot blob has a bad magic header".to_string(),
        ));
    }
    let epoch = blob.u64()?;
    let [relation, key, attribute, formula] =
        PropertyKind::ALL.map(|kind| scaffold.classifier(kind));
    let [(c0, t0), (c1, t1), (c2, t2), (c3, t3)] = [
        read_classifier(&mut blob, relation)?,
        read_classifier(&mut blob, key)?,
        read_classifier(&mut blob, attribute)?,
        read_classifier(&mut blob, formula)?,
    ];
    let n_replay = blob.count(8)?;
    let mut replay = Vec::with_capacity(n_replay);
    for _ in 0..n_replay {
        replay.push(blob.u64()? as usize);
    }
    let replay_cursor = blob.u64()? as usize;
    blob.finish()?;
    Ok((
        epoch,
        scaffold.with_learned([c0, c1, c2, c3]),
        TrainingState::new([t0, t1, t2, t3], replay, replay_cursor),
    ))
}

fn read_classifier(
    blob: &mut BlobReader<'_>,
    scaffold: &PropertyClassifier,
) -> io::Result<(PropertyClassifier, Option<SoftmaxTraining>)> {
    let n_labels = blob.count(4)?;
    let mut labels = Vec::with_capacity(n_labels);
    for _ in 0..n_labels {
        labels.push(blob.string()?);
    }
    let (model, training) = if blob.bool()? {
        let (model, training) = read_softmax(blob, scaffold)?;
        (Some(model), Some(training))
    } else {
        (None, None)
    };
    let classifier = scaffold.with_learned(labels, model).map_err(invalid)?;
    Ok((classifier, training))
}

/// One trained classifier and its training state. The blob stores their
/// shape after the blocks, so the scaffold's feature dim sizes the class
/// rows up front and the stored shape is checked against it once read.
fn read_softmax(
    blob: &mut BlobReader<'_>,
    scaffold: &PropertyClassifier,
) -> io::Result<(SoftmaxClassifier, SoftmaxTraining)> {
    let dim = scaffold.dim();
    let cells = blob.count(4)?;
    if dim == 0 || cells % dim != 0 {
        return Err(invalid(format!(
            "{}: {cells} weights are not whole rows of {dim} dims",
            scaffold.property
        )));
    }
    let n_classes = cells / dim;
    let rows = feature_rows_from_tiles(n_classes, dim, |tile| blob.f32s_into(tile))?;
    let biases = blob.f32s(n_classes)?;
    if blob.count(4)? != cells {
        return Err(invalid(format!(
            "{}: weight and accumulator counts differ",
            scaffold.property
        )));
    }
    let grad_sq_w = feature_major_from_tiles(n_classes, dim, |tile| blob.f32s_into(tile))?;
    let grad_sq_b = blob.f32s(n_classes)?;
    let (stored_dim, stored_classes, fits) = (blob.u64()?, blob.u64()?, blob.u64()?);
    if (stored_dim, stored_classes) != (dim as u64, n_classes as u64) {
        return Err(invalid(format!(
            "{}: snapshot shape {stored_classes} classes × {stored_dim} dims != {n_classes} × featurizer dim {dim}",
            scaffold.property
        )));
    }
    let corrupt = |e: String| invalid(format!("{}: {e}", scaffold.property));
    Ok((
        SoftmaxClassifier::from_rows(rows, biases, dim, n_classes).map_err(corrupt)?,
        SoftmaxTraining::from_blocks(grad_sq_w, grad_sq_b, dim, n_classes, fits)
            .map_err(corrupt)?,
    ))
}

/// Loads the models published at `epoch` and their training state from
/// their snapshot blob, decoded onto `scaffold` (see [`read_models`]).
pub(crate) fn load_models(
    wal: &Wal,
    epoch: u64,
    scaffold: &SystemModels,
) -> io::Result<(SystemModels, TrainingState)> {
    let _span = obs::span!("wal.blob_read");
    let name = snapshot_blob_name(epoch);
    // the publish order (blob → record → checkpoint) guarantees that an
    // epoch named by a checkpoint or a durable EpochPublished record has
    // its blob, so a missing one is corruption or an external deletion;
    // serving other weights while the recovered counters report this
    // epoch would mask it
    let (stored_epoch, models, training) = wal
        .read_blob_with(&name, |input, len| read_models(input, len, scaffold))?
        .ok_or_else(|| {
            invalid(format!(
                "epoch {epoch} was published but snapshot blob {name} is missing"
            ))
        })?;
    if stored_epoch != epoch {
        return Err(invalid(format!(
            "snapshot blob {name} claims epoch {stored_epoch}"
        )));
    }
    Ok((models, training))
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
    /// Torn bytes truncated from the last segment (0 on a clean
    /// restart; the zeros preallocation leaves after the last record are
    /// truncated too but not counted).
    pub truncated_bytes: usize,
}

pub(crate) fn invalid(message: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message)
}

/// A durable directory opened by [`open_log`]: what [`Engine::open`]
/// replays into the engine it builds on top.
pub(crate) struct Recovery {
    /// The model epoch the engine starts at before replay.
    pub(crate) checkpoint_epoch: u64,
    image: Option<StateImage>,
    records: Vec<Vec<u8>>,
    truncated_bytes: usize,
}

/// Opens (or creates) the WAL under `durable.dir` and decodes its
/// checkpoint. When the checkpoint names a published epoch, that epoch's
/// snapshot blob replaces `parts`' models and training state; the
/// models in hand are the scaffold it decodes onto.
pub(crate) fn open_log(
    durable: DurableEnv,
    parts: &mut EngineParts,
) -> io::Result<(Wal, Recovery)> {
    durable.storage.create_dir_all(&durable.dir)?;
    let (wal, recovered) = Wal::open(Arc::clone(&durable.storage), &durable.dir, durable.wal)?;
    let (checkpoint_epoch, image) = match &recovered.checkpoint {
        Some((epoch, payload)) => (*epoch, Some(decode_state_image(payload).map_err(invalid)?)),
        None => (0, None),
    };
    if checkpoint_epoch > 0 {
        // the blob carries the epoch's own training state; free the base
        // one before decoding it
        parts.training = TrainingState::default();
        (parts.models, parts.training) = load_models(&wal, checkpoint_epoch, &parts.models)?;
    }
    let recovery = Recovery {
        checkpoint_epoch,
        image,
        records: recovered.records,
        truncated_bytes: recovered.truncated_bytes,
    };
    Ok((wal, recovery))
}

impl Recovery {
    /// Applies the checkpoint image to `engine`, replays the WAL tail and
    /// re-plans open claims once with the recovered models.
    pub(crate) fn replay(self, engine: &Engine) -> io::Result<RecoveryReport> {
        if let Some(image) = &self.image {
            engine.apply_state_image(image);
        }
        for payload in &self.records {
            let record = WalRecord::decode(payload).map_err(invalid)?;
            engine.replay_record(&record)?;
        }
        engine.replay_finalize();
        Ok(RecoveryReport {
            resumed_epoch: engine.model_epoch(),
            checkpoint_epoch: self.checkpoint_epoch,
            records_replayed: self.records.len(),
            sessions_restored: engine.session_count(),
            truncated_bytes: self.truncated_bytes,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scrutinizer_core::{FeatureStore, ModelsState, SystemConfig};

    /// One of each record, both `chosen` shapes of a verdict.
    fn sample_records() -> Vec<WalRecord> {
        vec![
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
        ]
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    fn unhex(text: &str) -> Vec<u8> {
        (0..text.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&text[i..i + 2], 16).expect("hex"))
            .collect()
    }

    #[test]
    fn wal_records_round_trip() {
        for record in sample_records() {
            let bytes = record.encode();
            assert_eq!(WalRecord::decode(&bytes).expect("decodes"), record);
        }
    }

    /// The on-disk record layout existing data dirs recover from: each
    /// sample record's bytes, pinned in both directions.
    #[test]
    fn wal_records_encode_to_pinned_bytes() {
        let pinned = [
            // tag 1, id u64, checker (u32 length + UTF-8)
            "0107000000000000000a000000616c69636520f09fa680",
            // tag 2, session, claim ids (u32 count + u64 each)
            "02070000000000000003000000000000000000000005000000000000006300000000000000",
            // tag 3, session, claim, kind byte (`key` = 1), answer
            "03070000000000000005000000000000000107000000726f7720223322",
            // tag 4, session, claim, correct, chosen (1 + u64, or 0)
            "040700000000000000050000000000000001010200000000000000",
            "04070000000000000063000000000000000000",
            // tag 5, id
            "050700000000000000",
            // tag 6, epoch, examples, background
            "060300000000000000320000000000000001",
        ];
        let records = sample_records();
        assert_eq!(records.len(), pinned.len());
        for (record, pinned) in records.iter().zip(pinned) {
            assert_eq!(hex(&record.encode()), pinned, "{record:?}");
            assert_eq!(&WalRecord::decode(&unhex(pinned)).expect("decodes"), record);
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

    fn sample_image() -> StateImage {
        StateImage {
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
        }
    }

    #[test]
    fn state_image_round_trips() {
        let image = sample_image();
        let bytes = encode_state_image(&image);
        assert_eq!(decode_state_image(&bytes).expect("decodes"), image);
        assert!(decode_state_image(&bytes[..bytes.len() - 1]).is_err());
    }

    /// The checkpoint image layout existing data dirs recover from,
    /// pinned in both directions.
    #[test]
    fn state_image_encodes_to_pinned_bytes() {
        let pinned = concat!(
            "01000000",         // image version 1
            "0c00000000000000", // next_session
            // the seven counters, in field order
            "0b00000000000000040000000000000009000000000000001400000000000000",
            "030000000000000002000000000000006400000000000000",
            "03000000040000000000000001000000000000000900000000000000", // verified
            "010000000900000000000000",                                 // pending
            "01000000",                                                 // one session
            "050000000000000003000000626f62",                           // id, checker
            "0200000004000000000000000600000000000000",                 // its pending ids
            "010000000400000000000000",                                 // its verified ids
            "02000000",                                                 // two claims
            // id, done, then three validated slots (1 + string, or 0)
            "0400000000000000010101000000720000",
            "0600000000000000000001010000006b010100000061",
        );
        assert_eq!(hex(&encode_state_image(&sample_image())), pinned);
        assert_eq!(
            decode_state_image(&unhex(pinned)).expect("decodes"),
            sample_image()
        );
    }

    #[test]
    fn snapshot_blob_names_round_trip() {
        assert_eq!(snapshot_blob_name(7), "epoch-0000000007.snap");
        assert_eq!(snapshot_blob_epoch("epoch-0000000007.snap"), Some(7));
        assert_eq!(snapshot_blob_epoch("seg-0000000001.log"), None);
        assert_eq!(snapshot_blob_epoch("epoch-x.snap"), None);
    }

    /// The whole-model `SCRMDLv1` encoder the streamed writer replaced,
    /// kept as the reference: it encodes the row-major `ModelsState` one
    /// value at a time. Also returns where each section of the blob ends.
    fn encode_reference(epoch: u64, state: &ModelsState) -> (Vec<u8>, Vec<(String, usize)>) {
        let mut out = Vec::new();
        let mut ends = Vec::new();
        let mut mark = |out: &Vec<u8>, section: String| ends.push((section, out.len()));
        out.extend_from_slice(MODEL_MAGIC);
        mark(&out, "magic".to_string());
        epoch.put(&mut out);
        mark(&out, "epoch".to_string());
        for (k, classifier) in state.classifiers.iter().enumerate() {
            put_u32(&mut out, classifier.labels.len() as u32);
            for label in &classifier.labels {
                label.put(&mut out);
            }
            mark(&out, format!("{k}.labels"));
            let Some(model) = &classifier.model else {
                put_u8(&mut out, 0);
                mark(&out, format!("{k}.trained"));
                continue;
            };
            put_u8(&mut out, 1);
            mark(&out, format!("{k}.trained"));
            for (section, values) in [
                ("weights", &model.weights),
                ("biases", &model.biases),
                ("grad_sq_w", &model.grad_sq_w),
                ("grad_sq_b", &model.grad_sq_b),
            ] {
                put_u32(&mut out, values.len() as u32);
                for value in values {
                    put_u32(&mut out, value.to_bits());
                }
                mark(&out, format!("{k}.{section}"));
            }
            for (section, value) in [
                ("dim", model.dim as u64),
                ("n_classes", model.n_classes as u64),
                ("fits", model.fits),
            ] {
                value.put(&mut out);
                mark(&out, format!("{k}.{section}"));
            }
        }
        state.replay.put(&mut out);
        mark(&out, "replay".to_string());
        (state.replay_cursor as u64).put(&mut out);
        mark(&out, "cursor".to_string());
        (out, ends)
    }

    fn streamed(epoch: u64, models: &SystemModels, training: &TrainingState) -> Vec<u8> {
        let mut out = Vec::new();
        write_models(epoch, models, training, &mut out).expect("writing to a Vec cannot fail");
        out
    }

    fn decode(
        bytes: &[u8],
        scaffold: &SystemModels,
    ) -> io::Result<(u64, SystemModels, TrainingState)> {
        read_models(&mut &bytes[..], bytes.len() as u64, scaffold)
    }

    /// One blob's worth of learned state: models and their training state.
    type Case = (&'static str, SystemModels, TrainingState);

    /// Bootstrap (untrained) models for the small corpus, plus model sets
    /// covering every shape a blob can carry.
    fn model_cases() -> (SystemModels, Vec<Case>) {
        use scrutinizer_corpus::{ClaimRecord, Corpus, CorpusConfig};
        let corpus = Corpus::generate(CorpusConfig::small());
        let scaffold = SystemModels::bootstrap(&corpus, &SystemConfig::test());
        let mut pretrained = scaffold.clone();
        let mut pretrained_training = TrainingState::default();
        let refs: Vec<&ClaimRecord> = corpus.claims.iter().take(40).collect();
        pretrained.retrain(&mut pretrained_training, &refs, 1);

        let mut state = pretrained.export_state(&pretrained_training);
        state.classifiers[2].model = None;
        let mut one_untrained = scaffold.clone();
        let one_untrained_training = one_untrained.restore_state(state).expect("restores");

        let mut state = pretrained.export_state(&pretrained_training);
        state.replay.clear();
        let mut no_replay = scaffold.clone();
        let no_replay_training = no_replay.restore_state(state).expect("restores");

        // eight unseen relations: the class count crosses a multiple of
        // the eight-lane stride, so the relation block is re-strided
        let store = FeatureStore::build(&corpus, &scaffold);
        let mut claims = corpus.claims.clone();
        for (i, claim) in claims.iter_mut().take(8).enumerate() {
            claim.relation = format!("UnseenRelation{i}");
        }
        let relations = |m: &SystemModels| m.classifier(PropertyKind::Relation).n_classes();
        let mut grown = pretrained.clone();
        let mut grown_training = pretrained_training.clone();
        grown.retrain_incremental(
            &mut grown_training,
            &store,
            &claims,
            &(0..8).collect::<Vec<_>>(),
        );
        assert_eq!(relations(&grown), relations(&pretrained).map(|n| n + 8));

        let cases = vec![
            ("pretrained", pretrained, pretrained_training),
            (
                "one classifier untrained",
                one_untrained,
                one_untrained_training,
            ),
            ("classes grown past the stride", grown, grown_training),
            ("empty replay log", no_replay, no_replay_training),
            ("bootstrap", scaffold.clone(), TrainingState::default()),
        ];
        (scaffold, cases)
    }

    /// The streamed blob is the reference encoder's, byte for byte, and
    /// decodes back to the same state — weights into the models,
    /// accumulators and rehearsal log into the training state — from
    /// either writer's bytes.
    #[test]
    fn model_state_round_trips_bit_exactly() {
        let (scaffold, cases) = model_cases();
        for (case, models, training) in &cases {
            let state = models.export_state(training);
            let (reference, _) = encode_reference(9, &state);
            assert!(
                streamed(9, models, training) == reference,
                "{case}: streamed bytes differ"
            );
            // reference bytes are what a data dir written by the
            // whole-model encoder holds
            let (epoch, decoded, decoded_training) = decode(&reference, &scaffold).expect(case);
            assert_eq!(epoch, 9);
            assert!(
                decoded.export_state(&decoded_training) == state,
                "{case}: decoded state differs"
            );
            // a trained model set works as the scaffold too: it lends
            // dims, never weights
            let (_, onto_trained, onto_trained_training) =
                decode(&reference, &cases[0].1).expect(case);
            assert!(
                onto_trained.export_state(&onto_trained_training) == state,
                "{case}: onto a trained scaffold"
            );
        }
    }

    #[test]
    fn corrupt_and_short_blobs_fail_cleanly() {
        let (scaffold, cases) = model_cases();
        let state = cases[0].1.export_state(&cases[0].2);
        let (bytes, ends) = encode_reference(9, &state);
        let end = |section: &str| {
            ends.iter()
                .find(|(name, _)| name == section)
                .unwrap_or_else(|| panic!("no section {section}"))
                .1
        };
        let patched = |at: usize, with: &[u8]| {
            let mut blob = bytes.clone();
            blob[at..at + with.len()].copy_from_slice(with);
            blob
        };
        let dim = state.classifiers[0].model.as_ref().expect("trained").dim as u64;
        assert!(!state.classifiers[0].labels[0].is_empty());
        let mut trailing = bytes.clone();
        trailing.push(0);
        let mut few_labels = state.clone();
        few_labels.classifiers[0].labels.pop();

        let mut corrupt: Vec<(String, Vec<u8>)> = ends[..ends.len() - 1]
            .iter()
            .map(|(section, at)| (format!("truncated after {section}"), bytes[..*at].to_vec()))
            .collect();
        corrupt.extend([
            (
                "truncated mid-weights".to_string(),
                bytes[..end("0.trained") + 10].to_vec(),
            ),
            (
                "weight count lies high".to_string(),
                patched(end("0.trained"), &u32::MAX.to_le_bytes()),
            ),
            (
                "label count lies high".to_string(),
                patched(end("epoch"), &u32::MAX.to_le_bytes()),
            ),
            (
                "non-UTF-8 label".to_string(),
                patched(end("epoch") + 8, &[0xFF]),
            ),
            ("bool byte of 2".to_string(), patched(end("0.labels"), &[2])),
            (
                "dim mismatch".to_string(),
                patched(end("0.grad_sq_b"), &(dim + 1).to_le_bytes()),
            ),
            (
                "more classes than labels".to_string(),
                encode_reference(9, &few_labels).0,
            ),
            ("one trailing byte".to_string(), trailing),
            ("bad magic".to_string(), patched(0, b"X")),
        ]);
        for (case, blob) in &corrupt {
            match decode(blob, &scaffold) {
                Ok(_) => panic!("{case}: decoded"),
                Err(error) => {
                    assert_eq!(error.kind(), io::ErrorKind::InvalidData, "{case}: {error}")
                }
            }
        }
        // a stream that ends before the length its storage reported is a
        // short read, which the WAL retries — not corruption
        let short = read_models(
            &mut &bytes[..bytes.len() / 2],
            bytes.len() as u64,
            &scaffold,
        );
        assert_eq!(
            short.err().map(|e| e.kind()),
            Some(io::ErrorKind::UnexpectedEof)
        );
    }
}
