//! `FsStorage::write_atomic` streams through a buffered writer into a
//! temp file and renames it into place only after the fill succeeded and
//! was synced. These tests run it on a real temp directory: a fill that
//! fails halfway must leave the previous contents intact and no new file
//! visible, and the WAL must never list the leftover `.tmp` as a blob.

use std::io;
use std::sync::Arc;

use scrutinizer_sim::{FsStorage, Storage};
use scrutinizer_wal::{Wal, WalOptions};

/// A fresh directory under the system temp dir, removed on drop.
struct TempDir(std::path::PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let path = std::env::temp_dir().join(format!(
            "scrutinizer-fs-atomic-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).expect("temp dir");
        TempDir(path)
    }

    fn path(&self, name: &str) -> String {
        self.0.join(name).to_string_lossy().into_owned()
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A fill that streams 3 MiB (past the writer's 1 MiB buffer, so part
/// of it reaches the temp file) and then fails.
fn failing_fill(out: &mut dyn io::Write) -> io::Result<()> {
    let chunk = vec![0xAB; 64 << 10];
    for _ in 0..48 {
        out.write_all(&chunk)?;
    }
    Err(io::Error::other("encoder failed halfway"))
}

#[test]
fn a_failed_fill_keeps_the_previous_file_and_shows_no_new_one() {
    let dir = TempDir::new("fill");
    let storage = FsStorage::new();
    let existing = dir.path("existing.snap");
    storage
        .write_atomic(&existing, &mut |out| out.write_all(b"previous contents"))
        .expect("first write");

    assert!(storage.write_atomic(&existing, &mut failing_fill).is_err());
    assert_eq!(storage.read(&existing).unwrap(), b"previous contents");

    let fresh = dir.path("fresh.snap");
    assert!(storage.write_atomic(&fresh, &mut failing_fill).is_err());
    assert!(
        !storage.exists(&fresh),
        "no partial file under the real name"
    );
    assert!(
        storage.exists(&format!("{fresh}.tmp")),
        "the partial bytes stay in the temp file"
    );

    // a later successful write replaces the file whole
    storage
        .write_atomic(&existing, &mut |out| out.write_all(b"next"))
        .expect("second write");
    let (mut reader, len) = storage.read_stream(&existing).unwrap();
    let mut streamed = Vec::new();
    reader.read_to_end(&mut streamed).unwrap();
    assert_eq!((streamed.as_slice(), len), (&b"next"[..], 4));
}

#[test]
fn wal_skips_the_temp_file_a_failed_blob_write_leaves() {
    let dir = TempDir::new("wal");
    let root = dir.0.to_string_lossy().into_owned();
    let storage: Arc<dyn Storage> = Arc::new(FsStorage::new());
    let (wal, _) = Wal::open(Arc::clone(&storage), &root, WalOptions::default()).expect("open");
    wal.write_blob_with("epoch-0000000001.snap", &mut |out| out.write_all(b"one"))
        .expect("blob 1");
    assert!(wal
        .write_blob_with("epoch-0000000002.snap", &mut failing_fill)
        .is_err());
    assert!(storage.exists(&dir.path("epoch-0000000002.snap.tmp")));
    assert_eq!(
        wal.list_blobs("epoch-").unwrap(),
        vec!["epoch-0000000001.snap"]
    );
    drop(wal);

    // reopening sweeps the leftover, as after a crash mid-write
    let (wal, _) = Wal::open(Arc::clone(&storage), &root, WalOptions::default()).expect("reopen");
    assert!(!storage.exists(&dir.path("epoch-0000000002.snap.tmp")));
    let one = wal
        .read_blob_with("epoch-0000000001.snap", |input, len| {
            let mut bytes = vec![0; len as usize];
            input.read_exact(&mut bytes)?;
            Ok(bytes)
        })
        .unwrap();
    assert_eq!(one.as_deref(), Some(&b"one"[..]));
}
