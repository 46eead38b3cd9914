//! The log's segments on a real directory. `FsStorage` zero-fills a file
//! ahead of its appends; these tests check what that leaves on disk:
//! retired segments trimmed to exactly their records, the active one
//! carrying its preallocated zeros, and reopens that find every record
//! and report no torn bytes.

use std::sync::Arc;

use scrutinizer_sim::{FsStorage, Storage};
use scrutinizer_wal::{Recovered, Wal, WalOptions, RECORD_HEADER_BYTES};

/// A fresh directory under the system temp dir, removed on drop.
struct TempDir(std::path::PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let path = std::env::temp_dir().join(format!(
            "scrutinizer-fs-segments-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).expect("temp dir");
        TempDir(path)
    }

    fn path(&self, name: &str) -> String {
        self.0.join(name).to_string_lossy().into_owned()
    }

    /// Lengths of the log's segment files, oldest first.
    fn segment_lengths(&self) -> Vec<u64> {
        let mut segments: Vec<_> = std::fs::read_dir(self.0.join(LOG_DIR))
            .expect("read dir")
            .map(|entry| entry.expect("dir entry").path())
            .filter(|path| path.extension().is_some_and(|ext| ext == "log"))
            .collect();
        segments.sort();
        segments
            .iter()
            .map(|path| std::fs::metadata(path).expect("metadata").len())
            .collect()
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

const SEGMENT_BYTES: usize = 1024;
const LOG_DIR: &str = "wal";

/// A log over a fresh `FsStorage`, as a restarted process opens it.
fn open(dir: &TempDir) -> (Wal, Recovered) {
    let storage: Arc<dyn Storage> = Arc::new(FsStorage::new());
    Wal::open(
        storage,
        &dir.path(LOG_DIR),
        WalOptions {
            segment_bytes: SEGMENT_BYTES,
        },
    )
    .expect("open")
}

fn record(i: usize) -> Vec<u8> {
    format!("record {i:04} {}", "x".repeat(i % 17)).into_bytes()
}

#[test]
fn retired_segments_are_trimmed_and_the_active_one_preallocated() {
    let dir = TempDir::new("rotate");
    let (wal, recovered) = open(&dir);
    assert!(recovered.records.is_empty());

    // the framed bytes each segment should hold, by the rotation rule:
    // a segment retires once it holds at least `SEGMENT_BYTES`
    let mut framed = vec![0u64];
    for i in 0..500 {
        let payload = record(i);
        if *framed.last().unwrap() >= SEGMENT_BYTES as u64 {
            framed.push(0);
        }
        *framed.last_mut().unwrap() += (RECORD_HEADER_BYTES + payload.len()) as u64;
        let lsn = wal.append(&payload).unwrap();
        wal.commit(lsn).unwrap();
    }
    assert!(framed.len() > 3, "expected several rotations");

    let lengths = dir.segment_lengths();
    let (active, retired) = lengths.split_last().unwrap();
    let (active_records, retired_records) = framed.split_last().unwrap();
    assert_eq!(retired, retired_records, "retired segments carry no zeros");
    assert!(
        active > active_records,
        "the active segment is preallocated past its {active_records} record bytes \
         (file is {active} bytes)"
    );
    drop(wal);

    // a restart finds every record, and the zero tail is no tear
    let (wal, recovered) = open(&dir);
    assert_eq!(recovered.records, (0..500).map(record).collect::<Vec<_>>());
    assert_eq!(recovered.truncated_bytes, 0);
    assert_eq!(dir.segment_lengths().last(), Some(active_records));

    // appends after the reopen land right after the last record
    for i in 500..520 {
        let lsn = wal.append(&record(i)).unwrap();
        wal.commit(lsn).unwrap();
    }
    drop(wal);
    let (_, recovered) = open(&dir);
    assert_eq!(recovered.records, (0..520).map(record).collect::<Vec<_>>());
    assert_eq!(recovered.truncated_bytes, 0);
}

#[test]
fn truncate_with_a_cached_handle_moves_the_next_append() {
    let dir = TempDir::new("truncate");
    let storage = FsStorage::new();
    let path = dir.path("seg.log");
    storage.append(&path, b"hello world").unwrap();
    storage.sync(&path).unwrap();
    storage.truncate(&path, 5).unwrap();
    storage.append(&path, b"!").unwrap();
    storage.sync(&path).unwrap();
    // the raw file: the record at the truncated end, then only zeros
    let raw = std::fs::read(&path).unwrap();
    assert_eq!(&raw[..6], b"hello!");
    assert!(raw.len() > 6, "the append preallocated zeros");
    assert!(raw[6..].iter().all(|&byte| byte == 0));
}
