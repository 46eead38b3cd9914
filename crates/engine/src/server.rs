//! The multiplexed TCP server: one nonblocking readiness loop serving
//! every connection, `std::net` only.
//!
//! The pre-v1 server spent one blocking thread per connection with a
//! single request in flight per client. This one runs a poll rotation
//! over nonblocking [`TcpStream`]s:
//!
//! * **Per-connection read/write buffers** — bytes are drained off the
//!   socket as they arrive, complete lines queue up per connection, and
//!   responses accumulate in a write buffer flushed as the socket
//!   accepts them.
//! * **Pipelining** — a client may send many request lines without
//!   waiting; each carries an `id` the response echoes, so responses can
//!   be matched however deeply the client pipelines. Lines execute in
//!   arrival order per connection (at most one in flight per connection,
//!   so session ops observe their predecessors), while different
//!   connections' requests run concurrently on a small worker pool.
//! * **Bounded buffers with backpressure** — the loop stops reading a
//!   connection whose pipeline or write buffer is full, letting TCP flow
//!   control push back on the client instead of buffering unboundedly.
//! * **Connection limits** — accepts beyond
//!   [`ServerOptions::max_connections`] are answered with an
//!   `overloaded` error line and closed.
//! * **Graceful shutdown** — [`ServerHandle::shutdown`] stops accepts
//!   and reads; queued and in-flight requests finish, write buffers
//!   flush, then [`Server::run`] returns. A client that stops draining
//!   its responses is force-closed after
//!   [`ServerOptions::shutdown_grace`], so `run` always returns.
//!
//! The loop exports `connections_open`, `requests_in_flight` and
//! `pipeline_depth` gauges through
//! [`EngineStats`](crate::stats::EngineStats) and the `stats` op.

use std::io::{ErrorKind, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::time::Duration;

use scrutinizer_data::hash::FxHashMap;

use crate::api::{error_line, ErrorCode};
use crate::engine::Engine;
use crate::executor::ThreadPool;
use crate::protocol::handle_payload;
use crate::serve_core::{service_conn, ConnState, ServiceLimits};
use crate::stats::WireCodec;

/// Serving-loop sizing and behavior knobs.
#[derive(Debug, Clone, Copy)]
pub struct ServerOptions {
    /// Most simultaneous connections; accepts beyond this are answered
    /// with an `overloaded` error line and closed.
    pub max_connections: usize,
    /// Worker threads executing requests (different connections'
    /// requests run concurrently; one connection's run in order).
    pub workers: usize,
    /// Longest accepted request line, in bytes; a connection exceeding
    /// it gets a `parse_error` response and is closed (there is no way
    /// to resynchronize on an unterminated line).
    pub max_line_bytes: usize,
    /// Write-buffer size above which the loop stops executing (and then
    /// reading) for that connection until the client drains responses.
    pub write_buffer_limit: usize,
    /// Most complete lines queued per connection before the loop stops
    /// reading it (backpressure via TCP flow control).
    pub max_pipeline: usize,
    /// How long the loop parks when nothing is ready. Completions wake
    /// it immediately; only socket readiness waits for the next poll.
    pub poll_interval: Duration,
    /// How long a graceful shutdown waits for clients to drain their
    /// responses before force-closing what remains — without it, one
    /// client that stops reading could park [`Server::run`] forever.
    pub shutdown_grace: Duration,
}

impl Default for ServerOptions {
    fn default() -> Self {
        ServerOptions {
            max_connections: 1024,
            workers: 4,
            max_line_bytes: 1 << 20,
            write_buffer_limit: 4 << 20,
            max_pipeline: 128,
            poll_interval: Duration::from_micros(200),
            shutdown_grace: Duration::from_secs(5),
        }
    }
}

/// A clonable handle that asks a running [`Server`] to shut down
/// gracefully: stop accepting, finish queued and in-flight requests,
/// flush every write buffer, return from [`Server::run`].
#[derive(Debug, Clone)]
pub struct ServerHandle {
    shutdown: Arc<AtomicBool>,
}

impl ServerHandle {
    /// Requests shutdown; returns immediately.
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::Release);
    }
}

impl ServerOptions {
    /// The transport-independent buffer limits this configuration
    /// implies (see [`ServiceLimits`]).
    pub fn limits(&self) -> ServiceLimits {
        ServiceLimits {
            max_line_bytes: self.max_line_bytes,
            write_buffer_limit: self.write_buffer_limit,
            max_pipeline: self.max_pipeline,
        }
    }
}

/// The multiplexed TCP server: an engine, a bound listener, and the
/// readiness loop in [`Server::run`].
///
/// ```no_run
/// use scrutinizer_core::SystemConfig;
/// use scrutinizer_corpus::{Corpus, CorpusConfig};
/// use scrutinizer_engine::{Engine, EngineOptions, Server, ServerOptions};
///
/// let corpus = Corpus::generate(CorpusConfig::small());
/// let engine = Engine::new(corpus, SystemConfig::test(), EngineOptions::default());
/// let server = Server::bind(engine, "127.0.0.1:0", ServerOptions::default()).unwrap();
/// let handle = server.handle();          // for graceful shutdown
/// let addr = server.local_addr().unwrap();
/// std::thread::spawn(move || server.run().unwrap());
/// // ... connect clients to `addr`, later: handle.shutdown();
/// ```
pub struct Server {
    engine: Arc<Engine>,
    listener: TcpListener,
    options: ServerOptions,
    shutdown: Arc<AtomicBool>,
}

impl Server {
    /// Binds the listener and prepares a server; the loop starts when
    /// [`run`](Self::run) is called.
    pub fn bind(
        engine: Arc<Engine>,
        addr: impl ToSocketAddrs,
        options: ServerOptions,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        Ok(Server {
            engine,
            listener,
            options,
            shutdown: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The address the listener actually bound (useful with port 0).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A handle that can request graceful shutdown from another thread.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            shutdown: Arc::clone(&self.shutdown),
        }
    }

    /// Runs the readiness loop until [`ServerHandle::shutdown`] is
    /// requested and every connection has drained.
    pub fn run(self) -> std::io::Result<()> {
        self.listener.set_nonblocking(true)?;
        let stats = self.engine.stats_ref();
        let limits = self.options.limits();
        // time comes from the engine's injected clock, never the ambient
        // `Instant` — the shutdown-grace deadline is the loop's only timer
        // and must be virtual under simulation
        let clock = Arc::clone(self.engine.env().clock());
        let pool = ThreadPool::new(self.options.workers, self.options.max_connections.max(16));
        let (done_tx, done_rx) = mpsc::channel::<(u64, Vec<u8>)>();
        let mut conns: FxHashMap<u64, ConnState<TcpStream>> = FxHashMap::default();
        let mut next_conn: u64 = 1;
        // submitted-but-unfinished jobs, tracked loop-locally so submission
        // can stay strictly below the pool's queue capacity — the readiness
        // loop must never block inside `pool.execute`
        let job_capacity = self.options.max_connections.max(16);
        let mut jobs_outstanding: usize = 0;
        // a completion picked up while parked, handled first next round
        let mut parked: Option<(u64, Vec<u8>)> = None;
        // when the drain started; past `shutdown_grace`, stragglers are
        // force-closed so `run` always returns
        let mut draining_since: Option<Duration> = None;
        loop {
            let mut progress = false;
            let shutting_down = self.shutdown.load(Ordering::Acquire);
            if shutting_down && draining_since.is_none() {
                draining_since = Some(clock.now());
            }
            let drain_expired = draining_since
                .is_some_and(|since| clock.now() - since >= self.options.shutdown_grace);

            // 1. completed requests → write buffers. The counter drops
            // even when the connection died meanwhile: the work happened.
            while let Some((conn_id, response)) = parked.take().or_else(|| done_rx.try_recv().ok())
            {
                stats.requests_in_flight.dec();
                jobs_outstanding = jobs_outstanding.saturating_sub(1);
                if let Some(conn) = conns.get_mut(&conn_id) {
                    conn.push_response_bytes(&response);
                    conn.in_flight = false;
                }
                progress = true;
            }

            // 2. accept up to the connection limit (never while draining)
            if !shutting_down {
                loop {
                    match self.listener.accept() {
                        Ok((stream, _)) => {
                            progress = true;
                            if conns.len() >= self.options.max_connections {
                                self.reject(stream);
                                continue;
                            }
                            if stream.set_nonblocking(true).is_err() {
                                continue;
                            }
                            let _ = stream.set_nodelay(true);
                            conns.insert(next_conn, ConnState::new(stream));
                            next_conn += 1;
                            stats.connections_open.inc();
                            scrutinizer_obs::log_debug!(
                                "connection accepted",
                                conn = next_conn - 1,
                                open = conns.len(),
                            );
                        }
                        Err(error) if error.kind() == ErrorKind::WouldBlock => break,
                        Err(error) if error.kind() == ErrorKind::Interrupted => continue,
                        Err(error) => {
                            scrutinizer_obs::log_error!("accept failed", error = error.to_string(),);
                            break;
                        }
                    }
                }
            }

            // 3. service every connection: flush, read, split, execute
            let mut closed: Vec<u64> = Vec::new();
            for (&conn_id, conn) in conns.iter_mut() {
                progress |= service_conn(conn, &limits, shutting_down, stats);
                if !conn.in_flight
                    && !conn.dead
                    && jobs_outstanding < job_capacity
                    && conn.write_backlog() < self.options.write_buffer_limit
                {
                    if let Some(payload) = conn.queue.pop_front() {
                        conn.in_flight = true;
                        jobs_outstanding += 1;
                        stats.requests_in_flight.inc();
                        let codec = conn.codec.unwrap_or(WireCodec::Json);
                        let engine = Arc::clone(&self.engine);
                        let done = done_tx.clone();
                        pool.execute(move || {
                            let mut response = Vec::new();
                            handle_payload(&engine, codec, &payload, &mut response);
                            let _ = done.send((conn_id, response));
                        });
                        progress = true;
                    }
                }
                let depth = conn.queue.len() as u64 + u64::from(conn.in_flight);
                stats.note_pipeline_depth(depth);
                if conn.dead || drain_expired || ((conn.eof || shutting_down) && conn.idle()) {
                    closed.push(conn_id);
                }
            }
            for conn_id in closed {
                conns.remove(&conn_id);
                stats.connections_open.dec();
                scrutinizer_obs::log_debug!("connection closed", conn = conn_id);
                progress = true;
            }

            // 4. graceful exit: nothing live, nothing pending
            if shutting_down && conns.is_empty() {
                return Ok(());
            }

            // 5. park until a completion lands or the next poll is due
            if !progress {
                match done_rx.recv_timeout(self.options.poll_interval) {
                    Ok(message) => parked = Some(message),
                    Err(RecvTimeoutError::Timeout) => {}
                    Err(RecvTimeoutError::Disconnected) => {
                        unreachable!("the loop owns a sender; completions cannot disconnect")
                    }
                }
            }
        }
    }

    /// Answers an over-limit accept with a structured `overloaded` line,
    /// best effort, and drops the connection.
    fn reject(&self, stream: TcpStream) {
        self.engine
            .stats_ref()
            .note_wire_error(ErrorCode::Overloaded, WireCodec::Json);
        scrutinizer_obs::log_warn!(
            "connection rejected at limit",
            max_connections = self.options.max_connections,
        );
        let _ = stream.set_nonblocking(true);
        let line = error_line(ErrorCode::Overloaded, "connection limit reached") + "\n";
        let mut stream = stream;
        let _ = stream.write_all(line.as_bytes());
    }
}
