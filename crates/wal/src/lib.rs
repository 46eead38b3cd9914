//! # scrutinizer-wal
//!
//! An append-only, checksummed write-ahead log over the
//! [`scrutinizer_sim::Storage`] seam, so the same recovery code is
//! model-checked in simulation (torn writes, crash-before/after-fsync)
//! and trusted in production.
//!
//! ## On-disk layout
//!
//! A log directory holds:
//!
//! - **segments** `seg-<seq>.log` — a concatenation of records, each
//!   `[len: u32 LE][crc32(payload): u32 LE][payload]`. Only the
//!   highest-numbered segment is ever appended to. Production storage
//!   zero-fills the active segment ahead of its records (so a commit's
//!   fsync flushes data, not a size change), which leaves a run of
//!   zeros after the last record; rotation truncates the old segment to
//!   its records and fsyncs it before starting the next, so every
//!   non-active segment is exactly its records and fully durable.
//! - **`CHECKPOINT`** — written atomically (temp + fsync + rename), it
//!   names the epoch, the first segment whose records postdate the
//!   checkpoint, and an opaque caller payload (the engine's state
//!   image). Segments older than the cut point are deleted —
//!   compaction — and re-deleted on open if a crash interrupted the
//!   sweep, so compaction is idempotent.
//! - **blobs** — arbitrary atomically-written files (the engine stores
//!   one serialized model snapshot per published epoch). Blobs stream:
//!   [`Wal::write_blob_with`] hands the caller the atomic write's
//!   writer and [`Wal::read_blob_with`] a sequential reader, so a
//!   blob is never held in memory whole.
//!
//! ## Durability contract
//!
//! [`Wal::append`] buffers; a record is durable only once
//! [`Wal::commit`] (or [`Wal::sync`]) returns for its LSN. `commit`
//! group-commits: one *leader* thread issues a single fsync for every
//! record appended so far and wakes everyone whose records it covered,
//! so committers that arrive while a flush is in flight share the next
//! one.
//!
//! ## Replay
//!
//! [`Wal::open`] returns the checkpoint payload plus every record
//! after it, in order. A torn tail — short frame, CRC mismatch, or
//! zero-filled region at the end of the last segment — is chopped off,
//! never an error: by the contract above, torn bytes were never
//! acknowledged. Only the torn bytes are reported
//! ([`Recovered::truncated_bytes`]); the zero run every restart finds
//! after the last record is truncated silently. The truncation is what
//! lets the next append land right after the last record. (Zero-fill is
//! why empty records are rejected: an empty record's frame is
//! indistinguishable from zeros.)

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod crc;

pub use crc::crc32;

use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use scrutinizer_sim::Storage;

/// Bytes of record framing before the payload (`len` + `crc`).
pub const RECORD_HEADER_BYTES: usize = 8;

const SEGMENT_PREFIX: &str = "seg-";
const SEGMENT_SUFFIX: &str = ".log";
const CHECKPOINT_FILE: &str = "CHECKPOINT";
const CHECKPOINT_MAGIC: &[u8; 8] = b"SCRWALv1";

/// Tuning knobs for a [`Wal`].
#[derive(Clone, Debug)]
pub struct WalOptions {
    /// Rotate to a fresh segment once the active one reaches this many
    /// bytes.
    pub segment_bytes: usize,
}

impl Default for WalOptions {
    fn default() -> Self {
        Self {
            segment_bytes: 4 << 20,
        }
    }
}

/// What [`Wal::open`] found in the log directory.
pub struct Recovered {
    /// The last durable checkpoint, if any: `(epoch, payload)`.
    pub checkpoint: Option<(u64, Vec<u8>)>,
    /// Every record appended after the checkpoint, oldest first.
    pub records: Vec<Vec<u8>>,
    /// Torn bytes chopped off the last segment: from the end of its last
    /// whole record through its last nonzero byte (0 on a clean
    /// shutdown). The zero-filled run after them is truncated too but
    /// not counted, since every restart finds one.
    pub truncated_bytes: usize,
}

/// A point-in-time copy of the log's counters, mirrored into the
/// engine's stats/metrics surface.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WalMetrics {
    /// Records appended since open.
    pub appends: u64,
    /// Framed bytes written since open (headers included).
    pub bytes_written: u64,
    /// fsyncs issued since open (group commit makes this ≤ appends).
    pub fsyncs: u64,
    /// Live segment files (the active one included).
    pub segments: u64,
    /// Epoch of the last durable checkpoint (0 = none yet).
    pub last_checkpoint_epoch: u64,
}

struct Writer {
    /// Sequence number of the active (append) segment.
    seg_seq: u64,
    /// Bytes already in the active segment.
    seg_len: usize,
    /// LSN of the last appended record (1-based; 0 = none this run).
    appended_lsn: u64,
}

struct FlushState {
    durable_lsn: u64,
    flushing: bool,
}

/// The write-ahead log. All methods take `&self`; the log is shared
/// across worker threads behind an `Arc` (or owned by the engine).
pub struct Wal {
    storage: Arc<dyn Storage>,
    dir: String,
    options: WalOptions,
    writer: Mutex<Writer>,
    flush: Mutex<FlushState>,
    flushed: Condvar,
    appends: AtomicU64,
    bytes_written: AtomicU64,
    fsyncs: AtomicU64,
    segments: AtomicU64,
    checkpoint_epoch: AtomicU64,
}

fn segment_name(seq: u64) -> String {
    format!("{SEGMENT_PREFIX}{seq:010}{SEGMENT_SUFFIX}")
}

fn segment_seq(name: &str) -> Option<u64> {
    name.strip_prefix(SEGMENT_PREFIX)?
        .strip_suffix(SEGMENT_SUFFIX)?
        .parse()
        .ok()
}

/// Reads `path` until two consecutive reads agree on length, defeating
/// one-shot short reads (a real `read(2)` loop would do the same).
fn read_stable(storage: &dyn Storage, path: &str) -> io::Result<Vec<u8>> {
    let mut prev = storage.read(path)?;
    for _ in 0..3 {
        let next = storage.read(path)?;
        if next.len() == prev.len() {
            return Ok(next);
        }
        prev = next;
    }
    Ok(prev)
}

fn corrupt(message: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message)
}

impl Wal {
    /// Opens (creating if needed) the log in `dir`, replaying whatever
    /// a previous process left behind. Returns the log plus the
    /// recovered checkpoint payload and post-checkpoint records.
    pub fn open(
        storage: Arc<dyn Storage>,
        dir: &str,
        options: WalOptions,
    ) -> io::Result<(Self, Recovered)> {
        storage.create_dir_all(dir)?;

        // 1. the checkpoint names the replay cut point
        let checkpoint_path = format!("{dir}/{CHECKPOINT_FILE}");
        let (checkpoint, start_seq) = if storage.exists(&checkpoint_path) {
            let bytes = read_stable(storage.as_ref(), &checkpoint_path)?;
            let (epoch, seq, payload) = decode_checkpoint(&bytes)?;
            (Some((epoch, payload)), seq)
        } else {
            (None, 0)
        };

        // 2. sweep the directory: compacted and temp files die
        // (idempotently — a crash mid-compaction leaves strays), live
        // segments sort into replay order
        let mut live = Vec::new();
        for name in storage.list(dir)? {
            if name.ends_with(".tmp") {
                storage.remove(&format!("{dir}/{name}"))?;
            } else if let Some(seq) = segment_seq(&name) {
                if seq < start_seq {
                    storage.remove(&format!("{dir}/{name}"))?;
                } else {
                    live.push(seq);
                }
            }
        }
        live.sort_unstable();

        // 3. replay records, tolerating exactly one torn tail at the
        // very end of the log
        let mut records = Vec::new();
        let mut truncated_bytes = 0usize;
        let mut active_len = 0usize;
        for (index, &seq) in live.iter().enumerate() {
            let path = format!("{dir}/{}", segment_name(seq));
            let buf = read_stable(storage.as_ref(), &path)?;
            let (good, consumed) = parse_segment(&buf);
            records.extend(good);
            if consumed < buf.len() {
                if index + 1 != live.len() {
                    return Err(corrupt(format!(
                        "segment {} has a torn record but is not the last segment",
                        segment_name(seq)
                    )));
                }
                truncated_bytes = buf[consumed..]
                    .iter()
                    .rposition(|&byte| byte != 0)
                    .map_or(0, |last| last + 1);
                storage.truncate(&path, consumed as u64)?;
            }
            active_len = consumed;
        }

        let seg_seq = live.last().copied().unwrap_or(start_seq);
        let appended = records.len() as u64;
        let wal = Self {
            storage,
            dir: dir.to_string(),
            options,
            writer: Mutex::new(Writer {
                seg_seq,
                seg_len: if live.is_empty() { 0 } else { active_len },
                appended_lsn: appended,
            }),
            flush: Mutex::new(FlushState {
                durable_lsn: appended,
                flushing: false,
            }),
            flushed: Condvar::new(),
            appends: AtomicU64::new(0),
            bytes_written: AtomicU64::new(0),
            fsyncs: AtomicU64::new(0),
            segments: AtomicU64::new(live.len().max(1) as u64),
            checkpoint_epoch: AtomicU64::new(
                checkpoint.as_ref().map(|(epoch, _)| *epoch).unwrap_or(0),
            ),
        };
        Ok((
            wal,
            Recovered {
                checkpoint,
                records,
                truncated_bytes,
            },
        ))
    }

    fn segment_path(&self, seq: u64) -> String {
        format!("{}/{}", self.dir, segment_name(seq))
    }

    /// Appends one record, returning its LSN. The record is **not**
    /// durable until [`commit`](Self::commit) returns for an LSN ≥ the
    /// returned one.
    pub fn append(&self, payload: &[u8]) -> io::Result<u64> {
        if payload.is_empty() {
            // an empty record's frame (len=0, crc32("")=0) is bytewise
            // identical to a zero-filled region, which recovery must be
            // free to truncate as a torn tail (see `parse_segment`)
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "empty WAL records are not supported",
            ));
        }
        let mut frame = Vec::with_capacity(RECORD_HEADER_BYTES + payload.len());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc32(payload).to_le_bytes());
        frame.extend_from_slice(payload);

        let mut writer = self.writer.lock().unwrap();
        if writer.seg_len >= self.options.segment_bytes && writer.seg_len > 0 {
            // rotate: trim the full segment's zero-filled tail and fsync
            // it (one `truncate`), so only the active one ever carries
            // volatile bytes or zeros — `open` rejects either anywhere
            // else — then start fresh
            self.storage
                .truncate(&self.segment_path(writer.seg_seq), writer.seg_len as u64)?;
            self.fsyncs.fetch_add(1, Ordering::Relaxed);
            writer.seg_seq += 1;
            writer.seg_len = 0;
            self.segments.fetch_add(1, Ordering::Relaxed);
        }
        self.storage
            .append(&self.segment_path(writer.seg_seq), &frame)?;
        writer.seg_len += frame.len();
        writer.appended_lsn += 1;
        let lsn = writer.appended_lsn;
        drop(writer);

        self.appends.fetch_add(1, Ordering::Relaxed);
        self.bytes_written
            .fetch_add(frame.len() as u64, Ordering::Relaxed);
        Ok(lsn)
    }

    /// Blocks until every record with LSN ≤ `lsn` is durable. Many
    /// threads may call this concurrently; one becomes the flush
    /// leader, fsyncs once for every record appended so far, and wakes
    /// the rest.
    pub fn commit(&self, lsn: u64) -> io::Result<()> {
        let mut state = self.flush.lock().unwrap();
        loop {
            if state.durable_lsn >= lsn {
                return Ok(());
            }
            if state.flushing {
                state = self.flushed.wait(state).unwrap();
                continue;
            }
            state.flushing = true;
            drop(state);

            let (path, target) = {
                let writer = self.writer.lock().unwrap();
                (self.segment_path(writer.seg_seq), writer.appended_lsn)
            };
            // rotation truncates and fsyncs segments it retires, so
            // syncing the active segment covers every record up to
            // `target`
            let result = self.storage.sync(&path);
            self.fsyncs.fetch_add(1, Ordering::Relaxed);

            state = self.flush.lock().unwrap();
            state.flushing = false;
            if result.is_ok() {
                state.durable_lsn = state.durable_lsn.max(target);
            }
            self.flushed.notify_all();
            result?;
        }
    }

    /// Fsyncs everything appended so far ([`commit`](Self::commit) at
    /// the current tail).
    pub fn sync(&self) -> io::Result<()> {
        let lsn = self.writer.lock().unwrap().appended_lsn;
        self.commit(lsn)
    }

    /// Durably records a checkpoint at `epoch` carrying `payload` (the
    /// caller's state image), then compacts: every record appended so
    /// far becomes unnecessary and its segments are deleted. Appends
    /// issued after this land in a fresh segment and will be replayed
    /// on top of the payload.
    ///
    /// Appends are blocked for the duration, so the payload the caller
    /// built immediately before this call is exactly the state at the
    /// cut point — hold whatever higher-level exclusion makes the
    /// image consistent *across* that call boundary.
    pub fn checkpoint(&self, epoch: u64, payload: &[u8]) -> io::Result<()> {
        let mut writer = self.writer.lock().unwrap();
        let cut = writer.seg_seq + 1;
        let bytes = encode_checkpoint(epoch, cut, payload);
        self.storage
            .write_atomic(&format!("{}/{CHECKPOINT_FILE}", self.dir), &mut |out| {
                out.write_all(&bytes)
            })?;
        // the checkpoint is durable; old segments are garbage now (a
        // crash mid-sweep re-deletes on open)
        for seq in self
            .storage
            .list(&self.dir)?
            .iter()
            .filter_map(|n| segment_seq(n))
        {
            if seq < cut {
                self.storage.remove(&self.segment_path(seq))?;
            }
        }
        writer.seg_seq = cut;
        writer.seg_len = 0;
        let tail = writer.appended_lsn;
        drop(writer);

        let mut state = self.flush.lock().unwrap();
        state.durable_lsn = state.durable_lsn.max(tail);
        drop(state);

        self.segments.store(1, Ordering::Relaxed);
        self.checkpoint_epoch.store(epoch, Ordering::Relaxed);
        Ok(())
    }

    /// Writes a named blob atomically and durably from the bytes `fill`
    /// streams into the writer it is handed (model snapshots). A failed
    /// `fill` leaves any previous blob of that name intact.
    pub fn write_blob_with(
        &self,
        name: &str,
        fill: &mut dyn FnMut(&mut dyn io::Write) -> io::Result<()>,
    ) -> io::Result<()> {
        self.storage
            .write_atomic(&format!("{}/{name}", self.dir), fill)
    }

    /// Decodes a named blob straight from storage, `None` if absent:
    /// `decode` reads the blob from a sequential reader, given its
    /// length. A decode that runs off the end of the stream
    /// (`UnexpectedEof` before the reported length: a short read) is
    /// retried on a fresh reader — the streaming form of the
    /// two-reads-agree rule segment reads use. Every other error is
    /// returned as it is.
    pub fn read_blob_with<T>(
        &self,
        name: &str,
        mut decode: impl FnMut(&mut dyn io::Read, u64) -> io::Result<T>,
    ) -> io::Result<Option<T>> {
        let path = format!("{}/{name}", self.dir);
        if !self.storage.exists(&path) {
            return Ok(None);
        }
        let mut retries = 3;
        loop {
            let (mut reader, len) = self.storage.read_stream(&path)?;
            match decode(&mut reader, len) {
                Err(error) if error.kind() == io::ErrorKind::UnexpectedEof && retries > 0 => {
                    retries -= 1;
                }
                result => return result.map(Some),
            }
        }
    }

    /// Removes a named blob (idempotent).
    pub fn remove_blob(&self, name: &str) -> io::Result<()> {
        self.storage.remove(&format!("{}/{name}", self.dir))
    }

    /// Names of blobs in the directory matching `prefix`. WAL internals —
    /// segment files, the checkpoint file, and in-flight `.tmp` files —
    /// are excluded whatever the prefix, so a blob namespace that happens
    /// to collide with them (e.g. `seg-`) can never return log machinery.
    pub fn list_blobs(&self, prefix: &str) -> io::Result<Vec<String>> {
        Ok(self
            .storage
            .list(&self.dir)?
            .into_iter()
            .filter(|n| {
                n.starts_with(prefix)
                    && segment_seq(n).is_none()
                    && n != CHECKPOINT_FILE
                    && !n.ends_with(".tmp")
            })
            .collect())
    }

    /// Current counter values.
    pub fn metrics(&self) -> WalMetrics {
        WalMetrics {
            appends: self.appends.load(Ordering::Relaxed),
            bytes_written: self.bytes_written.load(Ordering::Relaxed),
            fsyncs: self.fsyncs.load(Ordering::Relaxed),
            segments: self.segments.load(Ordering::Relaxed),
            last_checkpoint_epoch: self.checkpoint_epoch.load(Ordering::Relaxed),
        }
    }
}

/// Splits a segment buffer into `(records, bytes consumed)`. Parsing
/// stops at the first short or checksum-failing frame; the caller
/// decides whether a leftover tail is a tolerable tear (last segment)
/// or corruption (any other).
fn parse_segment(buf: &[u8]) -> (Vec<Vec<u8>>, usize) {
    let mut records = Vec::new();
    let mut off = 0usize;
    while buf.len() - off >= RECORD_HEADER_BYTES {
        let len = u32::from_le_bytes(buf[off..off + 4].try_into().expect("4 bytes")) as usize;
        let sum = u32::from_le_bytes(buf[off + 4..off + 8].try_into().expect("4 bytes"));
        // a zero-filled region self-validates as an endless run of empty
        // records (len=0, crc=0, and crc32 of the empty payload is 0) —
        // and real filesystems can zero-extend an unsynced tail after a
        // crash (e.g. ext4 delayed allocation). Empty records are never
        // written (`append` rejects them), so len == 0 is the torn-tail
        // boundary, not a record.
        if len == 0 {
            break;
        }
        let Some(end) = off
            .checked_add(RECORD_HEADER_BYTES)
            .and_then(|s| s.checked_add(len))
        else {
            break;
        };
        if end > buf.len() {
            break;
        }
        let payload = &buf[off + RECORD_HEADER_BYTES..end];
        if crc32(payload) != sum {
            break;
        }
        records.push(payload.to_vec());
        off = end;
    }
    (records, off)
}

fn encode_checkpoint(epoch: u64, start_seq: u64, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(CHECKPOINT_MAGIC.len() + 24 + payload.len() + 4);
    out.extend_from_slice(CHECKPOINT_MAGIC);
    out.extend_from_slice(&epoch.to_le_bytes());
    out.extend_from_slice(&start_seq.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    let sum = crc32(&out);
    out.extend_from_slice(&sum.to_le_bytes());
    out
}

fn decode_checkpoint(bytes: &[u8]) -> io::Result<(u64, u64, Vec<u8>)> {
    let header = CHECKPOINT_MAGIC.len() + 8 + 8 + 4;
    if bytes.len() < header + 4 || &bytes[..CHECKPOINT_MAGIC.len()] != CHECKPOINT_MAGIC {
        return Err(corrupt("checkpoint file malformed".to_string()));
    }
    let body = &bytes[..bytes.len() - 4];
    let sum = u32::from_le_bytes(bytes[bytes.len() - 4..].try_into().expect("4 bytes"));
    if crc32(body) != sum {
        return Err(corrupt("checkpoint file failed checksum".to_string()));
    }
    let m = CHECKPOINT_MAGIC.len();
    let epoch = u64::from_le_bytes(bytes[m..m + 8].try_into().expect("8 bytes"));
    let start_seq = u64::from_le_bytes(bytes[m + 8..m + 16].try_into().expect("8 bytes"));
    let len = u32::from_le_bytes(bytes[m + 16..m + 20].try_into().expect("4 bytes")) as usize;
    if header + len + 4 != bytes.len() {
        return Err(corrupt("checkpoint payload length mismatch".to_string()));
    }
    Ok((epoch, start_seq, bytes[header..header + len].to_vec()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use scrutinizer_sim::storage::{
        FAULT_CRASH_KEEP, FAULT_CRASH_TORN, FAULT_CRASH_ZERO_TAIL, FAULT_SHORT_READ,
    };
    use scrutinizer_sim::{FaultPlan, SimStorage};

    fn sim() -> Arc<SimStorage> {
        SimStorage::new()
    }

    fn open(storage: &Arc<SimStorage>) -> (Wal, Recovered) {
        let storage: Arc<dyn Storage> = storage.clone();
        Wal::open(storage, "wal", WalOptions::default()).expect("open")
    }

    fn open_with(storage: &Arc<SimStorage>, options: WalOptions) -> (Wal, Recovered) {
        let storage: Arc<dyn Storage> = storage.clone();
        Wal::open(storage, "wal", options).expect("open")
    }

    fn write_blob(wal: &Wal, name: &str, bytes: &[u8]) {
        wal.write_blob_with(name, &mut |out| out.write_all(bytes))
            .unwrap();
    }

    /// Reads a whole blob through `read_blob_with`, failing with
    /// `UnexpectedEof` when the stream ends before the reported length.
    fn read_blob(wal: &Wal, name: &str) -> Option<Vec<u8>> {
        wal.read_blob_with(name, |input, len| {
            let mut bytes = vec![0; len as usize];
            input.read_exact(&mut bytes)?;
            Ok(bytes)
        })
        .unwrap()
    }

    #[test]
    fn committed_records_survive_a_crash() {
        let storage = sim();
        let (wal, _) = open(&storage);
        for i in 0..5u8 {
            let lsn = wal.append(&[i; 3]).unwrap();
            wal.commit(lsn).unwrap();
        }
        storage.crash();
        let (_, recovered) = open(&storage);
        assert!(recovered.checkpoint.is_none());
        assert_eq!(recovered.records.len(), 5);
        assert_eq!(recovered.records[4], vec![4u8; 3]);
        assert_eq!(recovered.truncated_bytes, 0);
    }

    #[test]
    fn uncommitted_tail_is_lost_cleanly() {
        let storage = sim();
        let (wal, _) = open(&storage);
        let lsn = wal.append(b"acked").unwrap();
        wal.commit(lsn).unwrap();
        wal.append(b"never acked").unwrap();
        storage.crash();
        let (_, recovered) = open(&storage);
        assert_eq!(recovered.records, vec![b"acked".to_vec()]);
    }

    #[test]
    fn torn_tail_is_truncated_not_fatal() {
        let faults = Arc::new(FaultPlan::new());
        faults.arm(FAULT_CRASH_TORN, 1);
        let storage = SimStorage::with_faults(faults);
        let (wal, _) = open(&storage);
        let lsn = wal.append(b"whole record").unwrap();
        wal.commit(lsn).unwrap();
        wal.append(b"this one tears in half....").unwrap();
        storage.crash();
        let (wal, recovered) = open(&storage);
        assert_eq!(recovered.records, vec![b"whole record".to_vec()]);
        assert!(recovered.truncated_bytes > 0);
        // the log keeps working after truncation
        let lsn = wal.append(b"after recovery").unwrap();
        wal.commit(lsn).unwrap();
        let (_, recovered) = open(&storage);
        assert_eq!(
            recovered.records,
            vec![b"whole record".to_vec(), b"after recovery".to_vec()]
        );
    }

    #[test]
    fn zero_filled_tail_is_truncated_as_a_tear() {
        let storage = sim();
        let (wal, _) = open(&storage);
        let lsn = wal.append(b"real").unwrap();
        wal.commit(lsn).unwrap();
        // ext4-style zero extension of the file tail after a crash: the
        // zeros checksum-match as empty records and must not be parsed
        // as such (WalRecord::decode would then fail recovery outright)
        let path = format!("wal/{}", segment_name(0));
        storage.append(&path, &[0u8; 64]).unwrap();
        let (wal, recovered) = open(&storage);
        assert_eq!(recovered.records, vec![b"real".to_vec()]);
        // zeros are what preallocation leaves on every restart, not a
        // tear: truncated, but not reported
        assert_eq!(recovered.truncated_bytes, 0);
        // the log keeps working after the truncation
        let lsn = wal.append(b"after").unwrap();
        wal.commit(lsn).unwrap();
        let (_, recovered) = open(&storage);
        assert_eq!(recovered.records, vec![b"real".to_vec(), b"after".to_vec()]);
    }

    #[test]
    fn only_the_torn_bytes_before_a_zero_tail_are_reported() {
        let faults = Arc::new(FaultPlan::new());
        faults.arm(FAULT_CRASH_TORN, 1);
        faults.arm(FAULT_CRASH_ZERO_TAIL, 1);
        let storage = SimStorage::with_faults(faults);
        let (wal, _) = open(&storage);
        let lsn = wal.append(b"whole record").unwrap();
        wal.commit(lsn).unwrap();
        let torn = b"this one tears in half....";
        wal.append(torn).unwrap();
        storage.crash();
        let (wal, recovered) = open(&storage);
        assert_eq!(recovered.records, vec![b"whole record".to_vec()]);
        // half the frame survived, then the zeros: only the half counts
        assert_eq!(
            recovered.truncated_bytes,
            (RECORD_HEADER_BYTES + torn.len()) / 2
        );
        let lsn = wal.append(b"after recovery").unwrap();
        wal.commit(lsn).unwrap();
        let (_, recovered) = open(&storage);
        assert_eq!(
            recovered.records,
            vec![b"whole record".to_vec(), b"after recovery".to_vec()]
        );
        assert_eq!(recovered.truncated_bytes, 0);
    }

    #[test]
    fn rotation_trims_retired_segments_of_their_zeros() {
        let faults = Arc::new(FaultPlan::new());
        let storage = SimStorage::with_faults(faults.clone());
        let (wal, _) = open_with(&storage, WalOptions { segment_bytes: 64 });
        for i in 0..20u32 {
            let lsn = wal.append(&i.to_le_bytes()).unwrap();
            wal.commit(lsn).unwrap();
        }
        assert!(wal.metrics().segments > 1, "expected rotation");
        // only the active segment gains zeros in the crash; a retired
        // one with zeros would fail the open as corrupt
        faults.arm(FAULT_CRASH_ZERO_TAIL, u32::MAX);
        storage.crash();
        let (_, recovered) = open(&storage);
        assert_eq!(recovered.records.len(), 20);
        assert_eq!(recovered.truncated_bytes, 0);
    }

    #[test]
    fn empty_records_are_rejected_at_append() {
        let storage = sim();
        let (wal, _) = open(&storage);
        let error = wal.append(b"").unwrap_err();
        assert_eq!(error.kind(), std::io::ErrorKind::InvalidInput);
        assert_eq!(wal.metrics().appends, 0);
    }

    #[test]
    fn list_blobs_never_returns_wal_internals() {
        let storage = sim();
        let (wal, _) = open(&storage);
        let lsn = wal.append(b"x").unwrap();
        wal.commit(lsn).unwrap();
        wal.checkpoint(1, b"img").unwrap();
        let lsn = wal.append(b"y").unwrap();
        wal.commit(lsn).unwrap();
        write_blob(&wal, "seg-mental", b"blob");
        // prefixes that would naively match the active segment or the
        // checkpoint file return only true blobs
        assert_eq!(wal.list_blobs("seg-").unwrap(), vec!["seg-mental"]);
        assert!(wal.list_blobs("CHECK").unwrap().is_empty());
    }

    #[test]
    fn crash_after_fsync_keeps_the_unacked_tail() {
        let faults = Arc::new(FaultPlan::new());
        faults.arm(FAULT_CRASH_KEEP, 1);
        let storage = SimStorage::with_faults(faults);
        let (wal, _) = open(&storage);
        wal.append(b"lucky").unwrap();
        storage.crash();
        let (_, recovered) = open(&storage);
        // extra durability is always legal — the record simply shows up
        assert_eq!(recovered.records, vec![b"lucky".to_vec()]);
    }

    #[test]
    fn short_reads_do_not_fake_a_torn_tail() {
        let faults = Arc::new(FaultPlan::new());
        let storage = SimStorage::with_faults(faults.clone());
        let (wal, _) = open(&storage);
        for i in 0..4u8 {
            let lsn = wal.append(&[i; 100]).unwrap();
            wal.commit(lsn).unwrap();
        }
        faults.arm(FAULT_SHORT_READ, 1);
        let (_, recovered) = open(&storage);
        assert_eq!(recovered.records.len(), 4);
        assert_eq!(recovered.truncated_bytes, 0);
    }

    #[test]
    fn short_reads_do_not_fail_a_blob_decode() {
        let faults = Arc::new(FaultPlan::new());
        let storage = SimStorage::with_faults(faults.clone());
        let (wal, _) = open(&storage);
        let blob: Vec<u8> = (0..=255).collect();
        write_blob(&wal, "epoch-0000000001.snap", &blob);
        faults.arm(FAULT_SHORT_READ, 1);
        let mut attempts = 0;
        let decoded = wal
            .read_blob_with("epoch-0000000001.snap", |input, len| {
                attempts += 1;
                let mut bytes = vec![0; len as usize];
                input.read_exact(&mut bytes)?;
                Ok(bytes)
            })
            .unwrap();
        assert_eq!(decoded, Some(blob));
        assert_eq!(attempts, 2, "the short read was retried once");
        // a decode error that is not a short read is returned as it is
        let error = wal
            .read_blob_with("epoch-0000000001.snap", |_, _| -> io::Result<()> {
                Err(io::Error::new(io::ErrorKind::InvalidData, "bad magic"))
            })
            .unwrap_err();
        assert_eq!(error.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn segments_rotate_and_replay_in_order() {
        let storage = sim();
        let (wal, _) = open_with(&storage, WalOptions { segment_bytes: 64 });
        for i in 0..20u32 {
            let lsn = wal.append(&i.to_le_bytes()).unwrap();
            wal.commit(lsn).unwrap();
        }
        assert!(wal.metrics().segments > 1, "expected rotation");
        let (_, recovered) = open(&storage);
        let nums: Vec<u32> = recovered
            .records
            .iter()
            .map(|r| u32::from_le_bytes(r.as_slice().try_into().unwrap()))
            .collect();
        assert_eq!(nums, (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn checkpoint_compacts_and_replay_resumes_from_it() {
        let storage = sim();
        let (wal, _) = open_with(&storage, WalOptions { segment_bytes: 32 });
        for i in 0..10u32 {
            let lsn = wal.append(&i.to_le_bytes()).unwrap();
            wal.commit(lsn).unwrap();
        }
        wal.checkpoint(3, b"image at epoch 3").unwrap();
        assert_eq!(wal.metrics().last_checkpoint_epoch, 3);
        let lsn = wal.append(b"after").unwrap();
        wal.commit(lsn).unwrap();
        storage.crash();
        let (_, recovered) = open(&storage);
        let (epoch, image) = recovered.checkpoint.expect("checkpoint");
        assert_eq!(epoch, 3);
        assert_eq!(image, b"image at epoch 3");
        assert_eq!(recovered.records, vec![b"after".to_vec()]);
    }

    #[test]
    fn checkpoint_without_later_records_recovers_empty_tail() {
        let storage = sim();
        let (wal, _) = open(&storage);
        let lsn = wal.append(b"x").unwrap();
        wal.commit(lsn).unwrap();
        wal.checkpoint(1, b"img").unwrap();
        storage.crash();
        let (_, recovered) = open(&storage);
        assert_eq!(recovered.checkpoint.unwrap().0, 1);
        assert!(recovered.records.is_empty());
    }

    #[test]
    fn blobs_round_trip_and_survive_crashes() {
        let storage = sim();
        let (wal, _) = open(&storage);
        write_blob(&wal, "epoch-0000000002.snap", b"weights");
        storage.crash();
        let (wal, _) = open(&storage);
        assert_eq!(
            read_blob(&wal, "epoch-0000000002.snap").unwrap(),
            b"weights"
        );
        assert_eq!(wal.list_blobs("epoch-").unwrap().len(), 1);
        wal.remove_blob("epoch-0000000002.snap").unwrap();
        assert!(read_blob(&wal, "epoch-0000000002.snap").is_none());
    }

    #[test]
    fn a_failed_blob_fill_keeps_the_previous_blob() {
        let storage = sim();
        let (wal, _) = open(&storage);
        write_blob(&wal, "epoch-0000000001.snap", b"old");
        let failed = wal.write_blob_with("epoch-0000000001.snap", &mut |out| {
            out.write_all(b"half of the new")?;
            Err(io::Error::other("encoder failed"))
        });
        assert!(failed.is_err());
        assert_eq!(read_blob(&wal, "epoch-0000000001.snap").unwrap(), b"old");
    }

    #[test]
    fn group_commit_batches_fsyncs_across_threads() {
        let storage = sim();
        let wal = Arc::new(open(&storage).0);
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let wal = wal.clone();
                std::thread::spawn(move || {
                    for i in 0..16u32 {
                        let lsn = wal.append(&(t * 100 + i).to_le_bytes()).unwrap();
                        wal.commit(lsn).unwrap();
                    }
                })
            })
            .collect();
        for thread in threads {
            thread.join().unwrap();
        }
        let metrics = wal.metrics();
        assert_eq!(metrics.appends, 8 * 16);
        assert!(metrics.fsyncs <= metrics.appends);
        // everything committed is durable: a crash loses nothing
        storage.crash();
        let (_, recovered) = open(&storage);
        assert_eq!(recovered.records.len(), 8 * 16);
    }

    #[test]
    fn counters_track_appends_and_bytes() {
        let storage = sim();
        let (wal, _) = open(&storage);
        wal.append(&[0u8; 10]).unwrap();
        wal.append(&[0u8; 20]).unwrap();
        wal.sync().unwrap();
        let metrics = wal.metrics();
        assert_eq!(metrics.appends, 2);
        assert_eq!(
            metrics.bytes_written,
            (10 + 20 + 2 * RECORD_HEADER_BYTES) as u64
        );
        assert!(metrics.fsyncs >= 1);
    }

    #[test]
    fn checkpoint_decode_rejects_corruption() {
        let mut bytes = encode_checkpoint(7, 2, b"payload");
        assert_eq!(decode_checkpoint(&bytes).unwrap().0, 7);
        let last = bytes.len() - 10;
        bytes[last] ^= 1;
        assert!(decode_checkpoint(&bytes).is_err());
        assert!(decode_checkpoint(b"short").is_err());
    }
}
