//! Crash recovery against the real binary: spawn `scrutinizer-serve`
//! with a `--data-dir`, drive acknowledged ops over TCP, `kill -9` the
//! process mid-storm, restart it from the same directory, and assert
//! that no acknowledged op was lost and that the durable stats come back
//! byte-identical.
//!
//! The contract under test is the WAL's: an op is acknowledged only
//! after its record is fsynced, so SIGKILL at any instant may lose
//! in-flight requests but never an acked one. The in-process
//! deterministic variant of the same contract lives in
//! `durable_recovery.rs`; this file is the one that survives an actual
//! `kill -9` on a real filesystem.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use scrutinizer_engine::protocol::Json;

/// Scratch directory under the system temp root, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("scrutinizer-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        Scratch(dir)
    }

    fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A spawned `scrutinizer-serve` child, SIGKILLed on drop so a failing
/// assertion never leaks a listener.
struct ServerProc {
    child: Child,
    addr: String,
}

impl ServerProc {
    /// Spawns the serve binary against `data_dir`, waits for the port
    /// file, and returns the handle. `--retrain-interval 2` keeps a
    /// retrain storm running behind the verdict storm; `--cache-capacity`
    /// is accepted and ignored, and launch scripts still pass it.
    /// Without `pretrain` the server starts with `--no-pretrain`.
    fn spawn(scratch: &Scratch, run: usize, pretrain: bool) -> ServerProc {
        let port_file = scratch.path(&format!("port-{run}"));
        let _ = std::fs::remove_file(&port_file);
        let child = Command::new(env!("CARGO_BIN_EXE_scrutinizer-serve"))
            .args([
                "127.0.0.1:0",
                "--data-dir",
                scratch.path("data").to_str().expect("utf-8 scratch path"),
                "--port-file",
                port_file.to_str().expect("utf-8 port path"),
                "--retrain-interval",
                "2",
                "--log-level",
                "error",
                "--cache-capacity",
                "1048576",
            ])
            .args((!pretrain).then_some("--no-pretrain"))
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::inherit())
            .spawn()
            .expect("spawn scrutinizer-serve");
        // recovery + bind happen before the port file appears; generous
        // deadline for slow CI machines
        let deadline = Instant::now() + Duration::from_secs(120);
        let addr = loop {
            if let Ok(addr) = std::fs::read_to_string(&port_file) {
                if !addr.is_empty() {
                    break addr;
                }
            }
            assert!(
                Instant::now() < deadline,
                "server never wrote its port file"
            );
            std::thread::sleep(Duration::from_millis(20));
        };
        ServerProc { child, addr }
    }

    fn connect(&self) -> (TcpStream, BufReader<TcpStream>) {
        let deadline = Instant::now() + Duration::from_secs(30);
        let stream = loop {
            match TcpStream::connect(&self.addr) {
                Ok(stream) => break stream,
                Err(error) => {
                    assert!(Instant::now() < deadline, "cannot connect: {error}");
                    std::thread::sleep(Duration::from_millis(20));
                }
            }
        };
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .expect("read timeout");
        let reader = BufReader::new(stream.try_clone().expect("clone stream"));
        (stream, reader)
    }

    /// SIGKILL — no shutdown hook runs, which is the point.
    fn kill_nine(mut self) {
        self.child.kill().expect("SIGKILL the server");
        self.child.wait().expect("reap the server");
        // consume without re-killing in drop
        std::mem::forget(self);
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn roundtrip(stream: &mut TcpStream, reader: &mut BufReader<TcpStream>, line: &str) -> Json {
    writeln!(stream, "{line}").expect("write request");
    let mut response = String::new();
    reader.read_line(&mut response).expect("read response");
    let json = Json::parse(response.trim()).expect("response is JSON");
    assert_eq!(
        json.get("ok").and_then(Json::as_bool),
        Some(true),
        "request `{line}` failed: {}",
        response.trim()
    );
    json
}

fn stats(stream: &mut TcpStream, reader: &mut BufReader<TcpStream>) -> Json {
    roundtrip(stream, reader, r#"{"op":"stats"}"#)
        .get("stats")
        .expect("stats payload")
        .clone()
}

fn stat_u64(stats: &Json, key: &str) -> u64 {
    stats
        .get(key)
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("stats payload missing {key}")) as u64
}

/// The stats fields recovery promises to restore exactly, rendered to a
/// comparable string. `wal.appends` et al. are deliberately absent: the
/// log counters restart per process lifetime; it is the *state* they
/// protect that must match.
fn durable_subset(stats: &Json) -> String {
    [
        "sessions_opened",
        "sessions_closed",
        "sessions_live",
        "claims_verified",
        "answers_posted",
        "retrains",
        "background_retrains",
        "examples_trained",
        "model_epoch",
        "pending_examples",
    ]
    .iter()
    .map(|key| format!("{key}={} ", stat_u64(stats, key)))
    .collect()
}

#[test]
fn kill_nine_mid_storm_loses_no_acknowledged_op() {
    let scratch = Scratch::new("kill9");
    let server = ServerProc::spawn(&scratch, 0, false);
    let (mut stream, mut reader) = server.connect();

    // a verdict storm: verdicts are legal straight after submit (a
    // checker may reject a claim without screening it), and with
    // --retrain-interval 2 every other ack also schedules a background
    // retrain — so the SIGKILL below lands while the trainer is hot
    let verdicts = 9u64;
    roundtrip(&mut stream, &mut reader, r#"{"op":"open","checker":"k9"}"#);
    roundtrip(
        &mut stream,
        &mut reader,
        r#"{"op":"submit","session":1,"claims":[0,1,2,3,4,5,6,7,8]}"#,
    );
    for claim in 0..verdicts {
        roundtrip(
            &mut stream,
            &mut reader,
            &format!(r#"{{"op":"verdict","session":1,"claim":{claim},"correct":true}}"#),
        );
    }
    server.kill_nine();

    let restarted = ServerProc::spawn(&scratch, 1, false);
    let (mut stream, mut reader) = restarted.connect();
    let recovered = stats(&mut stream, &mut reader);
    // every acked op is back; nothing was invented
    assert_eq!(stat_u64(&recovered, "sessions_opened"), 1);
    assert_eq!(stat_u64(&recovered, "sessions_closed"), 0);
    assert_eq!(stat_u64(&recovered, "claims_verified"), verdicts);
    assert_eq!(stat_u64(&recovered, "answers_posted"), 0);
    // with --no-pretrain every epoch is a durable background publish
    assert_eq!(
        stat_u64(&recovered, "model_epoch"),
        stat_u64(&recovered, "retrains"),
        "recovered epoch must equal recovered retrains: {recovered:?}"
    );
    let wal = recovered.get("wal").expect("stats exposes the wal block");
    assert!(
        stat_u64(wal, "last_checkpoint_epoch") <= stat_u64(&recovered, "model_epoch"),
        "a checkpoint never leads the published epoch"
    );
    // the open session survived the kill and still takes ops
    assert_eq!(stat_u64(&recovered, "sessions_live"), 1);
    roundtrip(&mut stream, &mut reader, r#"{"op":"close","session":1}"#);
    restarted.kill_nine();
}

#[test]
fn restarts_reproduce_identical_durable_stats() {
    let scratch = Scratch::new("restart");
    let server = ServerProc::spawn(&scratch, 0, false);
    let (mut stream, mut reader) = server.connect();

    roundtrip(&mut stream, &mut reader, r#"{"op":"open","checker":"a"}"#);
    roundtrip(&mut stream, &mut reader, r#"{"op":"open","checker":"b"}"#);
    roundtrip(
        &mut stream,
        &mut reader,
        r#"{"op":"submit","session":1,"claims":[0,1,2,3,4]}"#,
    );
    for claim in 0..5 {
        roundtrip(
            &mut stream,
            &mut reader,
            &format!(r#"{{"op":"verdict","session":1,"claim":{claim},"correct":false}}"#),
        );
    }
    roundtrip(&mut stream, &mut reader, r#"{"op":"close","session":2}"#);

    // quiesce: with no new ops, two identical reads in a row mean no
    // retrain is in flight, so everything the counters show is durable
    let before = {
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            let first = durable_subset(&stats(&mut stream, &mut reader));
            std::thread::sleep(Duration::from_millis(200));
            let second = durable_subset(&stats(&mut stream, &mut reader));
            if first == second {
                break second;
            }
            assert!(Instant::now() < deadline, "server never quiesced");
        }
    };
    server.kill_nine();

    // restart twice with no traffic in between: both incarnations must
    // report the identical durable subset — recovery is exact and
    // idempotent
    for run in 1..=2 {
        let restarted = ServerProc::spawn(&scratch, run, false);
        let (mut stream, mut reader) = restarted.connect();
        let after = durable_subset(&stats(&mut stream, &mut reader));
        assert_eq!(
            after, before,
            "restart #{run} diverged from the pre-kill durable state"
        );
        restarted.kill_nine();
    }
}

#[test]
fn restart_on_a_pretrained_data_dir_does_not_pretrain_again() {
    let scratch = Scratch::new("pretrained");
    let server = ServerProc::spawn(&scratch, 0, true);
    let (mut stream, mut reader) = server.connect();
    let first = stats(&mut stream, &mut reader);
    // pretraining publishes (and checkpoints) its epoch before the server
    // binds, and no op follows, so nothing is in flight when it stops
    assert!(
        stat_u64(&first, "model_epoch") >= 1,
        "the first start pretrains: {first:?}"
    );
    drop((stream, reader));
    server.kill_nine();

    let restarted = ServerProc::spawn(&scratch, 1, true);
    let (mut stream, mut reader) = restarted.connect();
    let second = stats(&mut stream, &mut reader);
    for key in ["model_epoch", "retrains"] {
        assert_eq!(
            stat_u64(&second, key),
            stat_u64(&first, key),
            "{key}: the restart must resume the pretrained epoch, not pretrain again"
        );
    }
    restarted.kill_nine();
}
