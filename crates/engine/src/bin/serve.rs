//! `scrutinizer-serve` — the engine as a server.
//!
//! JSON lines over TCP, `std::net` only: one request object per line in,
//! one response object per line out (see `scrutinizer_engine::api` for
//! the typed v1 op table, error codes, versioning, request/trace ids and
//! the `batch` op). Each connection is served by its own thread
//! (`scrutinizer_engine::server`), woken by its socket: requests may be
//! pipelined arbitrarily deep per connection (responses echo the request
//! `id` and `trace`) and execute in order on that thread, different
//! connections' requests execute concurrently — at most `--workers` at
//! once (default 4) — and all of them share one engine: sessions, models
//! and metrics are global.
//!
//! ```text
//! scrutinizer-serve [ADDR] [--scale small|paper] [--seed N]
//!                   [--threads N] [--cache-capacity N] [--no-pretrain]
//!                   [--max-conns N] [--workers N]
//!                   [--retrain-interval N] [--data-dir DIR]
//!                   [--port-file FILE]
//!                   [--log-level error|warn|info|debug]
//!                   [--trace-log FILE]
//!
//! ADDR defaults to 127.0.0.1:7878.
//! ```
//!
//! `--cache-capacity N` is accepted and ignored: the raw-SQL result
//! cache it sized is gone (`sql` evaluates every statement directly), and
//! existing launch scripts still pass it.
//!
//! `--data-dir DIR` makes the server durable: every state-changing op is
//! appended to a checksummed write-ahead log under `DIR` before it is
//! acknowledged, and each published model epoch is checkpointed there.
//! On restart with the same `DIR` (and the same `--scale`/`--seed`, which
//! determine the corpus the log was written against), the server replays
//! the log and resumes at the last published epoch — skipping the
//! pretrain, because the trained models come back from disk. Without the
//! flag everything stays in memory, exactly as before.
//!
//! `--port-file FILE` writes the actual bound address to `FILE` after
//! binding (atomically, via a temp file) — the supported way for test
//! harnesses to use `ADDR 127.0.0.1:0` and discover the kernel-assigned
//! port.
//!
//! Diagnostics go to stderr as structured JSON log lines, filtered by
//! `--log-level` (default `info`; `debug` adds per-connection chatter).
//! `--trace-log FILE` enables the tracing subsystem and appends every
//! span and event record from the flight recorder to `FILE` as JSON
//! lines, drained by a background thread — one line per span, carrying
//! the wire-propagated trace id, so a single request's causal path can
//! be reassembled offline with `grep`/`jq`.
//!
//! Quick tour (with `nc` as the client):
//!
//! ```text
//! $ scrutinizer-serve &
//! $ printf '%s\n' '{"op":"open","checker":"S1","v":1,"id":1}' | nc -q1 127.0.0.1 7878
//! {"ok":true,"id":1,"trace":"...","session":1}
//! $ printf '%s\n' '{"op":"submit","session":1,"claims":[0,1,2]}' | nc -q1 127.0.0.1 7878
//! {"ok":true,"trace":"...","batch":[{"claim":0,"expected_cost":...,"screens":[...]}]}
//! ```

use std::io::Write as _;
use std::process::exit;
use std::time::Duration;

use std::sync::Arc;

use scrutinizer_core::SystemConfig;
use scrutinizer_corpus::{Corpus, CorpusConfig};
use scrutinizer_engine::engine::{Engine, EngineOptions, EngineParts};
use scrutinizer_engine::server::{Server, ServerOptions};
use scrutinizer_engine::DurableEnv;
use scrutinizer_obs::log::LogLevel;
use scrutinizer_obs::{self as obs, log_error, log_info, log_warn};
use scrutinizer_sim::{FsStorage, SimEnv, Storage};
use scrutinizer_wal::WalOptions;

struct Args {
    addr: String,
    scale: &'static str,
    seed: u64,
    threads: Option<usize>,
    pretrain: bool,
    max_connections: Option<usize>,
    workers: Option<usize>,
    retrain_interval: Option<usize>,
    data_dir: Option<String>,
    port_file: Option<String>,
    log_level: LogLevel,
    trace_log: Option<String>,
}

fn parse_args() -> Args {
    let mut args = Args {
        addr: "127.0.0.1:7878".to_string(),
        scale: "small",
        seed: 17,
        threads: None,
        pretrain: true,
        max_connections: None,
        workers: None,
        retrain_interval: None,
        data_dir: None,
        port_file: None,
        log_level: LogLevel::Info,
        trace_log: None,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        let mut value_of = |flag: &str| {
            argv.next().unwrap_or_else(|| {
                eprintln!("{flag} needs a value");
                exit(2);
            })
        };
        let int_value = |flag: &str, text: String| -> usize {
            text.parse().unwrap_or_else(|_| {
                eprintln!("{flag} needs an integer");
                exit(2);
            })
        };
        match arg.as_str() {
            "--scale" => {
                args.scale = match value_of("--scale").as_str() {
                    "small" => "small",
                    "paper" => "paper",
                    other => {
                        eprintln!("unknown scale `{other}` (small|paper)");
                        exit(2);
                    }
                }
            }
            "--seed" => {
                args.seed = value_of("--seed").parse().unwrap_or_else(|_| {
                    eprintln!("--seed needs an integer");
                    exit(2);
                })
            }
            "--threads" => {
                let value = value_of("--threads");
                args.threads = Some(int_value("--threads", value));
            }
            "--cache-capacity" => {
                value_of("--cache-capacity");
            }
            "--max-conns" => {
                let value = value_of("--max-conns");
                args.max_connections = Some(int_value("--max-conns", value));
            }
            "--workers" => {
                let value = value_of("--workers");
                args.workers = Some(int_value("--workers", value));
            }
            "--retrain-interval" => {
                let value = value_of("--retrain-interval");
                args.retrain_interval = Some(int_value("--retrain-interval", value));
            }
            "--data-dir" => args.data_dir = Some(value_of("--data-dir")),
            "--port-file" => args.port_file = Some(value_of("--port-file")),
            "--log-level" => {
                args.log_level = value_of("--log-level").parse().unwrap_or_else(|error| {
                    eprintln!("--log-level: {error}");
                    exit(2);
                })
            }
            "--trace-log" => args.trace_log = Some(value_of("--trace-log")),
            "--no-pretrain" => args.pretrain = false,
            "--help" | "-h" => {
                eprintln!(
                    "scrutinizer-serve [ADDR] [--scale small|paper] [--seed N] \
                     [--threads N] [--cache-capacity N] [--no-pretrain] \
                     [--max-conns N] [--workers N] [--retrain-interval N] \
                     [--data-dir DIR] [--port-file FILE] \
                     [--log-level error|warn|info|debug] [--trace-log FILE]\n\
                     --workers N: most requests executing at once, across \
                     all connections (default 4; each connection has its \
                     own thread)"
                );
                exit(0);
            }
            other if !other.starts_with('-') => args.addr = other.to_string(),
            other => {
                eprintln!("unknown flag `{other}` (try --help)");
                exit(2);
            }
        }
    }
    args
}

/// How often the `--trace-log` sink thread drains the flight recorder.
/// Short enough that the bounded per-thread rings rarely wrap between
/// drains under steady load: every span of a connection's requests lands
/// in its thread's ring, and one busy connection records ~50,000 spans a
/// second on 2 cores, so a drain every 50 ms leaves the 4,096-record
/// ring half empty.
const TRACE_LOG_DRAIN_INTERVAL: Duration = Duration::from_millis(50);

/// Enables tracing and starts the background sink that appends every
/// flight-recorder record to `path` as JSON lines.
fn start_trace_log(path: &str) {
    let file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .unwrap_or_else(|error| {
            log_error!(
                "cannot open trace log",
                path = path,
                error = error.to_string(),
            );
            exit(1);
        });
    obs::set_tracing(true);
    log_info!("trace log enabled", path = path);
    let path = path.to_string();
    std::thread::Builder::new()
        .name("trace-log-sink".to_string())
        .spawn(move || {
            let mut writer = std::io::BufWriter::new(file);
            let mut dropped_seen = 0;
            loop {
                std::thread::sleep(TRACE_LOG_DRAIN_INTERVAL);
                let records = obs::drain();
                for record in &records {
                    if writeln!(writer, "{}", record.to_json_line()).is_err() {
                        log_error!("trace log write failed; sink stopped", path = path.as_str());
                        return;
                    }
                }
                if !records.is_empty() && writer.flush().is_err() {
                    log_error!("trace log flush failed; sink stopped", path = path.as_str());
                    return;
                }
                let dropped = obs::dropped_records();
                if dropped > dropped_seen {
                    log_warn!("flight recorder dropped records", dropped_total = dropped);
                    dropped_seen = dropped;
                }
            }
        })
        .expect("spawning trace-log sink thread failed");
}

fn main() {
    let args = parse_args();
    obs::log::set_log_level(args.log_level);
    if let Some(path) = &args.trace_log {
        start_trace_log(path);
    }
    let corpus_config = match args.scale {
        "paper" => CorpusConfig {
            seed: args.seed,
            ..CorpusConfig::paper_scale()
        },
        _ => CorpusConfig {
            seed: args.seed,
            ..CorpusConfig::small()
        },
    };
    log_info!(
        "generating corpus",
        scale = args.scale,
        seed = args.seed,
        claims = corpus_config.n_claims,
    );
    let corpus = Corpus::generate(corpus_config);
    let mut options = EngineOptions::default();
    if let Some(threads) = args.threads {
        options.threads = threads;
    }
    if let Some(interval) = args.retrain_interval {
        options.retrain_interval = (interval > 0).then_some(interval);
    }
    let durable = args.data_dir.as_ref().map(|dir| DurableEnv {
        storage: Arc::new(FsStorage::new()) as Arc<dyn Storage>,
        dir: dir.clone(),
        wal: WalOptions::default(),
    });
    let config = SystemConfig::default();
    let parts = EngineParts::bootstrap(corpus, &config);
    let (engine, report) = Engine::open(parts, config, options, SimEnv::production(), durable)
        .unwrap_or_else(|error| {
            log_error!(
                "recovery failed",
                data_dir = args.data_dir.as_deref().unwrap_or_default(),
                error = error.to_string(),
            );
            exit(1);
        });
    if let Some(dir) = &args.data_dir {
        log_info!(
            "durable state recovered",
            data_dir = dir.as_str(),
            resumed_epoch = report.resumed_epoch,
            checkpoint_epoch = report.checkpoint_epoch,
            records_replayed = report.records_replayed as u64,
            sessions_restored = report.sessions_restored as u64,
            truncated_bytes = report.truncated_bytes as u64,
        );
    }
    // a resumed epoch means the trained models came back from disk —
    // re-pretraining would discard them for no gain
    if args.pretrain && report.resumed_epoch == 0 {
        log_info!("pre-training classifiers on the full corpus");
        engine.pretrain(None);
    }

    let mut server_options = ServerOptions::default();
    if let Some(max_connections) = args.max_connections {
        server_options.max_connections = max_connections;
    }
    if let Some(workers) = args.workers {
        server_options.workers = workers;
    }
    let server = Server::bind(engine, &args.addr, server_options).unwrap_or_else(|error| {
        log_error!(
            "cannot bind",
            addr = args.addr.as_str(),
            error = error.to_string(),
        );
        exit(1);
    });
    if let Some(path) = &args.port_file {
        let addr = server.local_addr().map(|a| a.to_string());
        let written = addr.and_then(|addr| {
            let tmp = format!("{path}.tmp");
            std::fs::write(&tmp, addr)?;
            std::fs::rename(&tmp, path)
        });
        if let Err(error) = written {
            log_error!(
                "cannot write port file",
                path = path.as_str(),
                error = error.to_string(),
            );
            exit(1);
        }
    }
    log_info!(
        "scrutinizer-serve listening",
        addr = args.addr.as_str(),
        protocol_version = 1u64,
        max_connections = server_options.max_connections,
        workers = server_options.workers,
    );
    if let Err(error) = server.run() {
        log_error!("serving loop failed", error = error.to_string());
        exit(1);
    }
}
