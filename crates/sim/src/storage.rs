//! Durable-storage seam: the file-system analog of [`ByteStream`](crate::ByteStream).
//!
//! The WAL never touches `std::fs` directly; it goes through the
//! [`Storage`] trait so the same recovery code runs against two
//! substrates:
//!
//! - [`FsStorage`] — the production implementation over real files,
//!   with cached append handles so the hot `append`/`sync` path does
//!   not reopen the file per record, writing into a zero-filled region
//!   preallocated ahead of the records so a record's `sync` commits no
//!   file-size change.
//! - [`SimStorage`] — a deterministic in-memory file system that
//!   models the *durable vs volatile* distinction real disks have:
//!   writes land in a volatile tail, `sync` promotes the tail to
//!   durable, and [`SimStorage::crash`] discards whatever was not
//!   promoted. Named fault points make the interesting crash shapes
//!   schedulable: torn writes (a prefix of the tail survives), lucky
//!   crashes (the tail survives even though `sync` never returned —
//!   the crash-after-fsync case), the zero-filled tail preallocation
//!   leaves behind, and short reads.
//!
//! Whole files too large to hold twice (model snapshot blobs) stream in
//! both directions: [`Storage::write_atomic`] hands the caller a writer,
//! and [`Storage::read_stream`] a sequential reader plus the file's
//! length, so neither side ever buffers the file.
//!
//! Paths are plain `/`-separated strings relative to whatever root the
//! caller chose; `list` returns the file *names* directly under a
//! directory, sorted, so replay order is deterministic on both
//! substrates.

use std::collections::BTreeMap;
use std::collections::HashMap;
use std::io;
use std::sync::{Arc, Mutex};

use crate::fault::FaultPlan;

/// Fault point: `read` returns only a prefix of the file once, and a
/// `read_stream` reader ends halfway through the length it reported.
pub const FAULT_SHORT_READ: &str = "storage.short_read";
/// Fault point: on `crash`, a file keeps a *torn prefix* of its
/// unsynced tail (the classic partially-persisted append).
pub const FAULT_CRASH_TORN: &str = "storage.crash.torn";
/// Fault point: on `crash`, a file keeps its entire unsynced tail —
/// the data reached the platter even though `sync` never acknowledged
/// (crash-after-fsync from the application's point of view).
pub const FAULT_CRASH_KEEP: &str = "storage.crash.keep";
/// Fault point: on `crash`, a file written through `append` since it
/// was created or last truncated gains [`CRASH_ZERO_TAIL_BYTES`] of
/// zeros after whatever prefix survived — the zero-filled region
/// [`FsStorage`] preallocates ahead of its appends. Files written with
/// `write_atomic` never do.
pub const FAULT_CRASH_ZERO_TAIL: &str = "storage.crash.zero_tail";
/// Length of the zero run [`FAULT_CRASH_ZERO_TAIL`] leaves.
pub const CRASH_ZERO_TAIL_BYTES: usize = 4096;

/// Abstract durable byte storage: append-only files plus the handful of
/// whole-file operations a log manager needs.
///
/// The durability contract callers rely on:
/// - bytes passed to [`append`](Storage::append) are *not* durable
///   until a subsequent [`sync`](Storage::sync) on the same path
///   returns;
/// - [`write_atomic`](Storage::write_atomic) replaces the file's
///   contents all-or-nothing and is durable when it returns (the
///   write-to-temp / fsync / rename idiom).
pub trait Storage: Send + Sync {
    /// Creates `dir` (and parents) if missing.
    fn create_dir_all(&self, dir: &str) -> io::Result<()>;
    /// The file names (not paths) directly under `dir`, sorted.
    fn list(&self, dir: &str) -> io::Result<Vec<String>>;
    /// Reads the whole file. May return fewer bytes than the file holds
    /// under injected faults; callers that must see a stable tail
    /// should tolerate prefixes (the WAL replay does by design).
    fn read(&self, path: &str) -> io::Result<Vec<u8>>;
    /// Opens the file for one sequential read, returning the reader and
    /// the file's length. Under injected faults the reader may end before
    /// that length (a short read); a caller decoding the stream should
    /// treat running off its end as retryable.
    fn read_stream(&self, path: &str) -> io::Result<(Box<dyn io::Read>, u64)>;
    /// Appends `bytes` to the file, creating it if absent. Not durable
    /// until [`sync`](Storage::sync).
    ///
    /// [`FsStorage`] zero-fills a file ahead of its appends, so after a
    /// crash or restart the file ends in a run of zeros. The first
    /// append of a process lands at the file's end, *after* any such
    /// run: a caller whose format stops at zeros (the WAL's replay does)
    /// must first [`truncate`](Storage::truncate) the file to its last
    /// whole record, or the records it appends will sit past a gap that
    /// replay never crosses.
    fn append(&self, path: &str, bytes: &[u8]) -> io::Result<()>;
    /// Forces all previously appended bytes on `path` to durable
    /// storage.
    fn sync(&self, path: &str) -> io::Result<()>;
    /// Truncates the file to `len` bytes and makes the truncation
    /// durable. Used to chop a torn tail off a recovered segment.
    fn truncate(&self, path: &str, len: u64) -> io::Result<()>;
    /// Replaces the file's contents atomically and durably with the
    /// bytes `fill` writes. If `fill` (or the write) fails, the previous
    /// contents survive and no partial file becomes visible under `path`.
    fn write_atomic(
        &self,
        path: &str,
        fill: &mut dyn FnMut(&mut dyn io::Write) -> io::Result<()>,
    ) -> io::Result<()>;
    /// Removes the file. Missing files are not an error (removal is
    /// used for compaction, which must be idempotent across crashes).
    fn remove(&self, path: &str) -> io::Result<()>;
    /// Whether the file exists.
    fn exists(&self, path: &str) -> bool;
}

// ---------------------------------------------------------------------
// Production: std::fs
// ---------------------------------------------------------------------

/// Buffer size of [`FsStorage`]'s streaming reads and atomic writes.
const STREAM_BUFFER: usize = 1 << 20;

/// Bytes of zeros [`FsStorage`] writes ahead of an append handle's
/// records at a time. Large enough that one extension (a write plus a
/// `sync_data`) serves thousands of small log records; small enough
/// that a cold start, which appends a record or two before its
/// checkpoint moves the log to a fresh segment, pays little for it.
const ZERO_CHUNK: usize = 256 << 10;

/// The zeros an extension writes, [`ZERO_CHUNK`] / `ZEROS.len()` times
/// over; a static, so no extension allocates. It lives in the binary's
/// read-only data and its pages count toward the process's resident
/// memory once read, which is why it is a fraction of the chunk.
static ZEROS: [u8; 16 << 10] = [0; 16 << 10];

/// Production [`Storage`] over the real file system, with a cache of
/// append handles keyed by path so the per-record append/fsync path
/// costs no `open(2)`. The cache's lock covers only the lookup: one
/// writer's `fsync` never holds up another's append (callers that need
/// appends ordered, like the WAL's writer lock, order them themselves).
///
/// Appends land in a zero-filled region ahead of the file's logical
/// end. When a record would pass the zero-filled end, the handle first
/// writes 256 KiB more zeros and makes the new size durable, so
/// the `sync` that acknowledges a record flushes data blocks only, not
/// a file-size change. While a handle is cached, `read` and
/// `read_stream` stop at the logical end; a file left by an earlier
/// process carries the zero tail until the caller truncates it (see
/// [`Storage::append`]).
#[derive(Default)]
pub struct FsStorage {
    handles: Mutex<HashMap<String, Arc<AppendHandle>>>,
}

/// A cached append handle and its two offsets.
struct AppendHandle {
    file: std::fs::File,
    ends: Mutex<Ends>,
}

struct Ends {
    /// Where the next record goes.
    logical: u64,
    /// Where the durable zero-filled region ends (the file's length).
    zeroed: u64,
}

impl FsStorage {
    /// A new production storage.
    pub fn new() -> Self {
        Self::default()
    }

    /// The cached append handle for `path`, opened on first use at the
    /// file's current end. The lock is released before the caller's
    /// syscall.
    fn handle(&self, path: &str) -> io::Result<Arc<AppendHandle>> {
        let mut handles = self.handles.lock().unwrap();
        if let Some(handle) = handles.get(path) {
            return Ok(Arc::clone(handle));
        }
        let file = std::fs::OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(false)
            .open(path)?;
        let len = file.metadata()?.len();
        let handle = Arc::new(AppendHandle {
            file,
            ends: Mutex::new(Ends {
                logical: len,
                zeroed: len,
            }),
        });
        handles.insert(path.to_string(), Arc::clone(&handle));
        Ok(handle)
    }

    /// The logical end of `path`'s cached append handle, if it has one.
    fn logical_end(&self, path: &str) -> Option<u64> {
        let handle = self.handles.lock().unwrap().get(path).map(Arc::clone)?;
        let logical = handle.ends.lock().unwrap().logical;
        Some(logical)
    }
}

impl Storage for FsStorage {
    fn create_dir_all(&self, dir: &str) -> io::Result<()> {
        std::fs::create_dir_all(dir)
    }

    fn list(&self, dir: &str) -> io::Result<Vec<String>> {
        let mut names = Vec::new();
        for entry in std::fs::read_dir(dir)? {
            let entry = entry?;
            if entry.file_type()?.is_file() {
                names.push(entry.file_name().to_string_lossy().into_owned());
            }
        }
        names.sort();
        Ok(names)
    }

    fn read(&self, path: &str) -> io::Result<Vec<u8>> {
        // the end is taken first: bytes appended after it are not part
        // of this read, and the zeros past it never are
        let end = self.logical_end(path);
        let mut bytes = std::fs::read(path)?;
        if let Some(end) = end {
            bytes.truncate(end as usize);
        }
        Ok(bytes)
    }

    fn read_stream(&self, path: &str) -> io::Result<(Box<dyn io::Read>, u64)> {
        use std::io::Read as _;
        let end = self.logical_end(path);
        let file = std::fs::File::open(path)?;
        let len = file.metadata()?.len().min(end.unwrap_or(u64::MAX));
        Ok((
            Box::new(io::BufReader::with_capacity(STREAM_BUFFER, file.take(len))),
            len,
        ))
    }

    fn append(&self, path: &str, bytes: &[u8]) -> io::Result<()> {
        use std::os::unix::fs::FileExt as _;
        let handle = self.handle(path)?;
        let mut ends = handle.ends.lock().unwrap();
        let end = ends.logical + bytes.len() as u64;
        if end > ends.zeroed {
            let chunks = (end - ends.zeroed).div_ceil(ZERO_CHUNK as u64);
            let grown = ends.zeroed + chunks * ZERO_CHUNK as u64;
            let mut zeroed = ends.zeroed;
            while zeroed < grown {
                handle.file.write_all_at(&ZEROS, zeroed)?;
                zeroed += ZEROS.len() as u64;
            }
            // the new size is durable before any record lands in it, so
            // a record's own sync never carries a size change
            handle.file.sync_data()?;
            ends.zeroed = zeroed;
        }
        handle.file.write_all_at(bytes, ends.logical)?;
        ends.logical = end;
        Ok(())
    }

    fn sync(&self, path: &str) -> io::Result<()> {
        self.handle(path)?.file.sync_data()
    }

    fn truncate(&self, path: &str, len: u64) -> io::Result<()> {
        // drop any cached append handle first: its offsets describe the
        // old file, and the next append reopens at the truncated end
        self.handles.lock().unwrap().remove(path);
        let file = std::fs::OpenOptions::new().write(true).open(path)?;
        file.set_len(len)?;
        file.sync_data()
    }

    fn write_atomic(
        &self,
        path: &str,
        fill: &mut dyn FnMut(&mut dyn io::Write) -> io::Result<()>,
    ) -> io::Result<()> {
        self.handles.lock().unwrap().remove(path);
        // a failed fill leaves only the temp file, which `path` readers
        // never see and the WAL's open sweep deletes
        let tmp = format!("{path}.tmp");
        let mut out = io::BufWriter::with_capacity(STREAM_BUFFER, std::fs::File::create(&tmp)?);
        fill(&mut out)?;
        let file = out.into_inner().map_err(io::IntoInnerError::into_error)?;
        file.sync_data()?;
        drop(file);
        std::fs::rename(&tmp, path)?;
        // fsync the parent directory so the rename itself is durable
        if let Some(parent) = std::path::Path::new(path).parent() {
            if let Ok(dir) = std::fs::File::open(parent) {
                let _ = dir.sync_all();
            }
        }
        Ok(())
    }

    fn remove(&self, path: &str) -> io::Result<()> {
        self.handles.lock().unwrap().remove(path);
        match std::fs::remove_file(path) {
            Err(error) if error.kind() == io::ErrorKind::NotFound => Ok(()),
            other => other,
        }
    }

    fn exists(&self, path: &str) -> bool {
        std::path::Path::new(path).is_file()
    }
}

// ---------------------------------------------------------------------
// Simulation: in-memory files with a durable/volatile split
// ---------------------------------------------------------------------

#[derive(Default, Clone)]
struct SimFile {
    /// All bytes written, in order. The prefix `..durable_len` has been
    /// promoted by `sync`; the rest is the volatile tail a crash eats.
    data: Vec<u8>,
    durable_len: usize,
    /// Written through `append` since it was created or last truncated:
    /// the files [`FAULT_CRASH_ZERO_TAIL`] applies to.
    appended: bool,
}

/// Deterministic in-memory [`Storage`] whose files survive
/// [`crash`](SimStorage::crash) only up to their last `sync` — except
/// where an armed fault point says otherwise.
#[derive(Default)]
pub struct SimStorage {
    files: Mutex<BTreeMap<String, SimFile>>,
    faults: Option<Arc<FaultPlan>>,
}

impl SimStorage {
    /// A new simulated storage with no fault plan (faults never fire).
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// A new simulated storage consulting `faults` at its named fault
    /// points.
    pub fn with_faults(faults: Arc<FaultPlan>) -> Arc<Self> {
        Arc::new(Self {
            files: Mutex::new(BTreeMap::new()),
            faults: Some(faults),
        })
    }

    fn fire(&self, point: &str) -> bool {
        self.faults.as_ref().is_some_and(|plan| plan.fire(point))
    }

    /// Simulates a process/machine crash: every file loses its volatile
    /// tail. Armed fault points bend the outcome per file, checked in
    /// this order:
    ///
    /// - [`FAULT_CRASH_KEEP`]: the tail survives intact (the fsync made
    ///   it to the platter before the power died);
    /// - [`FAULT_CRASH_TORN`]: half the tail survives — a torn write
    ///   recovery must detect via checksum and length framing;
    /// - [`FAULT_CRASH_ZERO_TAIL`] (only for files written through
    ///   `append`, whether or not they had a volatile tail): zeros
    ///   follow whatever survived.
    ///
    /// Files are visited in path order, so which file a single armed
    /// count applies to is deterministic.
    pub fn crash(&self) {
        let mut files = self.files.lock().unwrap();
        for file in files.values_mut() {
            let tail = file.data.len() - file.durable_len;
            if tail > 0 {
                if self.fire(FAULT_CRASH_KEEP) {
                    file.durable_len = file.data.len();
                } else if self.fire(FAULT_CRASH_TORN) {
                    file.durable_len += tail / 2;
                }
                file.data.truncate(file.durable_len);
            }
            if file.appended && self.fire(FAULT_CRASH_ZERO_TAIL) {
                file.data.resize(file.data.len() + CRASH_ZERO_TAIL_BYTES, 0);
                file.durable_len = file.data.len();
            }
        }
    }

    /// A copy of the file's bytes plus its full length; under
    /// [`FAULT_SHORT_READ`] the copy is only the first half.
    fn read_file(&self, path: &str) -> io::Result<(Vec<u8>, usize)> {
        let files = self.files.lock().unwrap();
        let file = files
            .get(path)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, path.to_string()))?;
        let mut data = file.data.clone();
        drop(files);
        let len = data.len();
        if self.fire(FAULT_SHORT_READ) {
            data.truncate(len / 2);
        }
        Ok((data, len))
    }

    /// Bytes a crash right now would preserve for `path` (0 if absent).
    pub fn durable_len(&self, path: &str) -> usize {
        self.files
            .lock()
            .unwrap()
            .get(path)
            .map_or(0, |f| f.durable_len)
    }
}

impl Storage for SimStorage {
    fn create_dir_all(&self, _dir: &str) -> io::Result<()> {
        Ok(())
    }

    fn list(&self, dir: &str) -> io::Result<Vec<String>> {
        let prefix = format!("{}/", dir.trim_end_matches('/'));
        let files = self.files.lock().unwrap();
        Ok(files
            .keys()
            .filter_map(|path| path.strip_prefix(&prefix))
            .filter(|rest| !rest.contains('/'))
            .map(str::to_string)
            .collect())
    }

    fn read(&self, path: &str) -> io::Result<Vec<u8>> {
        self.read_file(path).map(|(data, _)| data)
    }

    fn read_stream(&self, path: &str) -> io::Result<(Box<dyn io::Read>, u64)> {
        let (data, len) = self.read_file(path)?;
        Ok((Box::new(io::Cursor::new(data)), len as u64))
    }

    fn append(&self, path: &str, bytes: &[u8]) -> io::Result<()> {
        let mut files = self.files.lock().unwrap();
        let file = files.entry(path.to_string()).or_default();
        file.data.extend_from_slice(bytes);
        file.appended = true;
        Ok(())
    }

    fn sync(&self, path: &str) -> io::Result<()> {
        let mut files = self.files.lock().unwrap();
        if let Some(file) = files.get_mut(path) {
            file.durable_len = file.data.len();
        }
        Ok(())
    }

    fn truncate(&self, path: &str, len: u64) -> io::Result<()> {
        let mut files = self.files.lock().unwrap();
        let file = files
            .get_mut(path)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, path.to_string()))?;
        file.data.truncate(len as usize);
        // a truncate in the durable path is followed by sync semantics,
        // and trims any preallocated zeros: a crash adds none until the
        // next append
        file.durable_len = file.data.len();
        file.appended = false;
        Ok(())
    }

    fn write_atomic(
        &self,
        path: &str,
        fill: &mut dyn FnMut(&mut dyn io::Write) -> io::Result<()>,
    ) -> io::Result<()> {
        let mut data = Vec::new();
        fill(&mut data)?;
        let durable_len = data.len();
        self.files.lock().unwrap().insert(
            path.to_string(),
            SimFile {
                data,
                durable_len,
                appended: false,
            },
        );
        Ok(())
    }

    fn remove(&self, path: &str) -> io::Result<()> {
        self.files.lock().unwrap().remove(path);
        Ok(())
    }

    fn exists(&self, path: &str) -> bool {
        self.files.lock().unwrap().contains_key(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read as _;

    #[test]
    fn unsynced_bytes_die_in_a_crash() {
        let storage = SimStorage::new();
        storage.append("wal/a.log", b"durable").unwrap();
        storage.sync("wal/a.log").unwrap();
        storage.append("wal/a.log", b" volatile").unwrap();
        storage.crash();
        assert_eq!(storage.read("wal/a.log").unwrap(), b"durable");
    }

    #[test]
    fn torn_crash_keeps_half_the_tail() {
        let faults = Arc::new(FaultPlan::new());
        faults.arm(FAULT_CRASH_TORN, 1);
        let storage = SimStorage::with_faults(faults);
        storage.append("wal/a.log", b"durable!").unwrap();
        storage.sync("wal/a.log").unwrap();
        storage.append("wal/a.log", b"TAILTAIL").unwrap();
        storage.crash();
        assert_eq!(storage.read("wal/a.log").unwrap(), b"durable!TAIL");
    }

    #[test]
    fn lucky_crash_keeps_the_whole_tail() {
        let faults = Arc::new(FaultPlan::new());
        faults.arm(FAULT_CRASH_KEEP, 1);
        let storage = SimStorage::with_faults(faults);
        storage.append("wal/a.log", b"abc").unwrap();
        storage.crash();
        assert_eq!(storage.read("wal/a.log").unwrap(), b"abc");
    }

    #[test]
    fn zero_tail_crash_pads_only_appended_files() {
        let faults = Arc::new(FaultPlan::new());
        faults.arm(FAULT_CRASH_ZERO_TAIL, u32::MAX);
        let storage = SimStorage::with_faults(faults);
        storage.append("wal/a.log", b"durable").unwrap();
        storage.sync("wal/a.log").unwrap();
        storage.append("wal/a.log", b" volatile").unwrap();
        storage.append("wal/b.log", b"trimmed").unwrap();
        storage.truncate("wal/b.log", 4).unwrap();
        write_all(storage.as_ref(), "wal/CHECKPOINT", b"epoch 3").unwrap();
        storage.crash();
        let mut expected = b"durable".to_vec();
        expected.resize(expected.len() + CRASH_ZERO_TAIL_BYTES, 0);
        assert_eq!(storage.read("wal/a.log").unwrap(), expected);
        assert_eq!(storage.read("wal/b.log").unwrap(), b"trim");
        assert_eq!(storage.read("wal/CHECKPOINT").unwrap(), b"epoch 3");
    }

    #[test]
    fn short_read_returns_a_prefix_once() {
        let faults = Arc::new(FaultPlan::new());
        faults.arm(FAULT_SHORT_READ, 1);
        let storage = SimStorage::with_faults(faults);
        storage.append("wal/a.log", b"0123456789").unwrap();
        assert_eq!(storage.read("wal/a.log").unwrap(), b"01234");
        assert_eq!(storage.read("wal/a.log").unwrap(), b"0123456789");
    }

    /// `write_atomic` with a fill that writes `bytes`.
    fn write_all(storage: &dyn Storage, path: &str, bytes: &[u8]) -> io::Result<()> {
        storage.write_atomic(path, &mut |out| out.write_all(bytes))
    }

    #[test]
    fn short_stream_reads_end_before_the_reported_length() {
        let faults = Arc::new(FaultPlan::new());
        faults.arm(FAULT_SHORT_READ, 1);
        let storage = SimStorage::with_faults(faults);
        storage.append("wal/blob", b"0123456789").unwrap();
        let read_all = || {
            let (mut reader, len) = storage.read_stream("wal/blob").unwrap();
            let mut data = Vec::new();
            reader.read_to_end(&mut data).unwrap();
            (data, len)
        };
        assert_eq!(read_all(), (b"01234".to_vec(), 10));
        assert_eq!(read_all(), (b"0123456789".to_vec(), 10));
        assert!(storage.read_stream("wal/missing").is_err());
    }

    #[test]
    fn write_atomic_is_durable_immediately() {
        let storage = SimStorage::new();
        write_all(storage.as_ref(), "wal/CHECKPOINT", b"epoch 3").unwrap();
        storage.crash();
        assert_eq!(storage.read("wal/CHECKPOINT").unwrap(), b"epoch 3");
    }

    #[test]
    fn failed_fill_keeps_the_previous_contents() {
        let storage = SimStorage::new();
        write_all(storage.as_ref(), "wal/blob", b"old").unwrap();
        let failed = storage.write_atomic("wal/blob", &mut |out| {
            out.write_all(b"new, half")?;
            Err(io::Error::other("fill failed"))
        });
        assert!(failed.is_err());
        assert_eq!(storage.read("wal/blob").unwrap(), b"old");
    }

    #[test]
    fn list_is_sorted_and_direct_children_only() {
        let storage = SimStorage::new();
        storage.append("wal/b.log", b"x").unwrap();
        storage.append("wal/a.log", b"x").unwrap();
        storage.append("wal/sub/c.log", b"x").unwrap();
        storage.append("other/d.log", b"x").unwrap();
        assert_eq!(storage.list("wal").unwrap(), vec!["a.log", "b.log"]);
    }

    #[test]
    fn truncate_chops_and_persists() {
        let storage = SimStorage::new();
        storage.append("wal/a.log", b"0123456789").unwrap();
        storage.sync("wal/a.log").unwrap();
        storage.truncate("wal/a.log", 4).unwrap();
        storage.crash();
        assert_eq!(storage.read("wal/a.log").unwrap(), b"0123");
    }

    #[test]
    fn fs_storage_round_trips_in_a_temp_dir() {
        let dir =
            std::env::temp_dir().join(format!("scrutinizer-sim-storage-{}", std::process::id()));
        let root = dir.to_string_lossy().into_owned();
        let storage = FsStorage::new();
        storage.create_dir_all(&root).unwrap();
        let path = format!("{root}/seg.log");
        storage.append(&path, b"hello ").unwrap();
        storage.append(&path, b"world").unwrap();
        storage.sync(&path).unwrap();
        assert_eq!(storage.read(&path).unwrap(), b"hello world");
        storage.truncate(&path, 5).unwrap();
        assert_eq!(storage.read(&path).unwrap(), b"hello");
        storage.append(&path, b"!").unwrap();
        storage.sync(&path).unwrap();
        assert_eq!(storage.read(&path).unwrap(), b"hello!");
        write_all(&storage, &format!("{root}/CHECKPOINT"), b"meta").unwrap();
        assert_eq!(
            storage.read(&format!("{root}/CHECKPOINT")).unwrap(),
            b"meta"
        );
        let (mut reader, len) = storage.read_stream(&format!("{root}/CHECKPOINT")).unwrap();
        let mut streamed = Vec::new();
        reader.read_to_end(&mut streamed).unwrap();
        assert_eq!((streamed.as_slice(), len), (&b"meta"[..], 4));
        let names = storage.list(&root).unwrap();
        assert_eq!(names, vec!["CHECKPOINT", "seg.log"]);
        storage.remove(&path).unwrap();
        storage.remove(&path).unwrap(); // idempotent
        assert!(!storage.exists(&path));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
