//! The TCP server: one thread per connection, each woken by its own
//! socket, `std::net` only.
//!
//! Every accepted connection gets a thread that runs [`step_conn`] —
//! flush, read, split, execute what was queued, flush again — and parks
//! only when nothing moved:
//!
//! * **Woken by its socket** — a connection with nothing to do blocks in
//!   a `peek` on its own socket, so a request is read the moment its
//!   first byte lands; one whose client stopped draining blocks in a
//!   write instead. There is no poll timer, and an idle server costs
//!   nothing.
//! * **Pipelining** — a client may send many request lines without
//!   waiting; each carries an `id` the response echoes, so responses can
//!   be matched however deeply the client pipelines. Lines execute in
//!   arrival order on the connection's thread (so session ops observe
//!   their predecessors), while different connections' requests run
//!   concurrently, at most [`ServerOptions::workers`] at once.
//! * **Bounded buffers with backpressure** — a connection whose pipeline
//!   or write buffer is full stops reading, letting TCP flow control
//!   push back on the client instead of buffering unboundedly.
//! * **Connection limits** — accepts beyond
//!   [`ServerOptions::max_connections`], and accepts whose thread cannot
//!   be started, are answered with an `overloaded` error line and closed.
//! * **Graceful shutdown** — [`ServerHandle::shutdown`] wakes the accept
//!   and every parked connection thread; reads stop, queued requests
//!   finish, write buffers flush, and [`Server::run`] returns once every
//!   connection thread has been joined. A client that stops draining its
//!   responses is force-closed after [`ServerOptions::shutdown_grace`],
//!   so `run` always returns.
//!
//! The server exports `connections_open`, `requests_in_flight` and
//! `pipeline_depth` gauges through
//! [`EngineStats`] and the `stats` op.

use std::convert::Infallible;
use std::io::{ErrorKind, Write};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use scrutinizer_data::hash::FxHashMap;

use crate::api::{error_line, ErrorCode};
use crate::engine::Engine;
use crate::protocol::handle_payload;
use crate::serve_core::{step_conn, ConnState, ServiceLimits};
use crate::stats::{EngineStats, WireCodec};

/// Server sizing and behavior knobs.
#[derive(Debug, Clone, Copy)]
pub struct ServerOptions {
    /// Most simultaneous connections; accepts beyond this are answered
    /// with an `overloaded` error line and closed.
    pub max_connections: usize,
    /// Most requests executing at once, across all connections (each
    /// connection's requests run in order on its own thread).
    pub workers: usize,
    /// Longest accepted request line, in bytes; a connection exceeding
    /// it gets a `parse_error` response and is closed (there is no way
    /// to resynchronize on an unterminated line).
    pub max_line_bytes: usize,
    /// Write-buffer size above which a connection stops executing (and
    /// then reading) until the client drains responses.
    pub write_buffer_limit: usize,
    /// Most complete lines queued per connection before it stops
    /// reading (backpressure via TCP flow control).
    pub max_pipeline: usize,
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
            shutdown_grace: Duration::from_secs(5),
        }
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

/// What a server and its handles share: the shutdown flag, an address
/// that reaches the listener, and a clone of every open connection's
/// socket — what shutdown needs to wake each blocked thread.
#[derive(Debug)]
struct Control {
    shutdown: AtomicBool,
    listener_addr: SocketAddr,
    conns: Mutex<FxHashMap<u64, TcpStream>>,
    /// Signaled whenever a connection unregisters.
    closed: Condvar,
}

impl Control {
    fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::Acquire)
    }

    fn conns(&self) -> MutexGuard<'_, FxHashMap<u64, TcpStream>> {
        self.conns.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A clonable handle that asks a running [`Server`] to shut down
/// gracefully: stop accepting, finish queued requests, flush every write
/// buffer, return from [`Server::run`].
#[derive(Debug, Clone)]
pub struct ServerHandle {
    control: Arc<Control>,
}

impl ServerHandle {
    /// Requests shutdown and wakes every thread the server parked;
    /// returns immediately.
    pub fn shutdown(&self) {
        let control = &self.control;
        control.shutdown.store(true, Ordering::Release);
        // the accept loop reads the flag under this lock, so every
        // connection is either woken here or dropped there
        for stream in control.conns().values() {
            let _ = stream.shutdown(Shutdown::Read);
        }
        // a blocked accept wakes for any connection, this one included
        let _ = TcpStream::connect_timeout(&control.listener_addr, Duration::from_secs(1));
    }
}

/// The TCP server: an engine, a bound listener, and the accept loop in
/// [`Server::run`] that gives each connection its own thread.
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
    control: Arc<Control>,
}

/// What every connection thread reads.
struct Shared {
    engine: Arc<Engine>,
    limits: ServiceLimits,
    gate: Gate,
    control: Arc<Control>,
}

impl Server {
    /// Binds the listener and prepares a server; accepting starts when
    /// [`run`](Self::run) is called.
    pub fn bind(
        engine: Arc<Engine>,
        addr: impl ToSocketAddrs,
        options: ServerOptions,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let mut listener_addr = listener.local_addr()?;
        if listener_addr.ip().is_unspecified() {
            listener_addr.set_ip(match listener_addr {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        Ok(Server {
            engine,
            listener,
            options,
            control: Arc::new(Control {
                shutdown: AtomicBool::new(false),
                listener_addr,
                conns: Mutex::new(FxHashMap::default()),
                closed: Condvar::new(),
            }),
        })
    }

    /// The address the listener actually bound (useful with port 0).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A handle that can request graceful shutdown from another thread.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            control: Arc::clone(&self.control),
        }
    }

    /// Accepts connections, one thread each, until
    /// [`ServerHandle::shutdown`] is requested; then waits for every
    /// connection to drain (force-closing stragglers after
    /// [`ServerOptions::shutdown_grace`]) and joins every thread.
    pub fn run(self) -> std::io::Result<()> {
        let Server {
            engine,
            listener,
            options,
            control,
        } = self;
        let stats = engine.stats_ref();
        let shared = Arc::new(Shared {
            engine: Arc::clone(&engine),
            limits: options.limits(),
            gate: Gate::new(options.workers),
            control: Arc::clone(&control),
        });
        let mut threads: Vec<JoinHandle<()>> = Vec::new();
        let mut next_conn: u64 = 1;
        loop {
            let stream = match listener.accept() {
                Ok((stream, _)) => stream,
                Err(error)
                    if matches!(
                        error.kind(),
                        ErrorKind::Interrupted | ErrorKind::ConnectionAborted
                    ) =>
                {
                    continue
                }
                Err(error) => {
                    scrutinizer_obs::log_error!("accept failed", error = error.to_string());
                    // out of descriptors, most likely: back off rather than
                    // spin on an error that repeats until a connection closes
                    std::thread::sleep(Duration::from_millis(10));
                    continue;
                }
            };
            // join the threads of connections that have closed, so the
            // list tracks the open connections
            for thread in threads.extract_if(.., |thread| thread.is_finished()) {
                let _ = thread.join();
            }
            let conn_id = next_conn;
            next_conn += 1;
            let mut conns = control.conns();
            if control.shutting_down() {
                // the wake-up connection, or a client that raced shutdown
                break;
            }
            if conns.len() >= options.max_connections {
                drop(conns);
                reject(stats, stream, "connection limit reached");
                continue;
            }
            let Ok(wake) = stream.try_clone() else {
                drop(conns);
                reject(stats, stream, "cannot register the connection");
                continue;
            };
            conns.insert(conn_id, wake);
            let open = conns.len();
            drop(conns);
            stats.connections_open.inc();
            scrutinizer_obs::log_debug!("connection accepted", conn = conn_id, open = open);
            let worker = Arc::clone(&shared);
            let spawned = std::thread::Builder::new()
                .name(format!("scrutinizer-conn-{conn_id}"))
                .spawn(move || serve_conn(&worker, conn_id, stream));
            match spawned {
                Ok(thread) => threads.push(thread),
                Err(error) => {
                    scrutinizer_obs::log_warn!(
                        "cannot spawn a connection thread",
                        error = error.to_string(),
                    );
                    if let Some(stream) = unregister(&shared, conn_id) {
                        reject(stats, stream, "cannot start a connection thread");
                    }
                }
            }
        }
        drop(listener);

        // drain: connection threads finish their queues and flush; past
        // the grace period the stragglers' sockets are shut, which fails
        // their blocked writes. Time comes from the engine's injected
        // clock, never the ambient `Instant`.
        let clock = engine.env().clock();
        let deadline = clock.now() + options.shutdown_grace;
        let mut conns = control.conns();
        while !conns.is_empty() {
            let now = clock.now();
            if now >= deadline {
                for stream in conns.values() {
                    let _ = stream.shutdown(Shutdown::Both);
                }
                break;
            }
            conns = control
                .closed
                .wait_timeout(conns, deadline - now)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
        drop(conns);
        for thread in threads {
            let _ = thread.join();
        }
        Ok(())
    }
}

/// One connection's thread: step until nothing moves, park on the
/// socket, repeat — until the client leaves, the connection fails, or
/// shutdown finds it drained.
fn serve_conn(shared: &Shared, conn_id: u64, stream: TcpStream) {
    let _registered = Registered { shared, conn_id };
    let stats = shared.engine.stats_ref();
    if stream.set_nonblocking(true).is_err() {
        return;
    }
    let _ = stream.set_nodelay(true);
    let mut conn = ConnState::new(stream);
    loop {
        let shutting_down = shared.control.shutting_down();
        let stepped = step_conn(
            &mut conn,
            &shared.limits,
            shutting_down,
            stats,
            |codec, payload, out| {
                let _pass = shared.gate.enter();
                handle_payload(&shared.engine, codec, payload, out);
                Ok::<(), Infallible>(())
            },
        );
        let Ok(moved) = stepped;
        if conn.dead || ((conn.eof || shutting_down) && conn.idle()) {
            return;
        }
        if !moved {
            park(&mut conn);
        }
    }
}

/// Blocks until the socket can move bytes again: a write while responses
/// are backed up (the client stopped draining), else a `peek` until a
/// byte, EOF or an error arrives — what woke the thread is then read by
/// the next step. The socket is blocking only for the wait.
fn park(conn: &mut ConnState<TcpStream>) {
    if conn.stream.set_nonblocking(false).is_err() {
        conn.dead = true;
        return;
    }
    if conn.write_backlog() > 0 {
        match (&conn.stream).write(conn.unflushed()) {
            Ok(0) => conn.dead = true,
            Ok(written) => conn.mark_flushed(written),
            Err(error) if error.kind() == ErrorKind::Interrupted => {}
            Err(_) => conn.dead = true,
        }
    } else {
        let _ = conn.stream.peek(&mut [0u8; 1]);
    }
    if conn.stream.set_nonblocking(true).is_err() {
        conn.dead = true;
    }
}

/// Unregisters a connection when its thread ends, however it ends.
struct Registered<'a> {
    shared: &'a Shared,
    conn_id: u64,
}

impl Drop for Registered<'_> {
    fn drop(&mut self) {
        unregister(self.shared, self.conn_id);
        scrutinizer_obs::log_debug!("connection closed", conn = self.conn_id);
    }
}

/// Removes a connection from the registry and the `connections_open`
/// gauge, waking a draining [`Server::run`]; returns its registered
/// socket.
fn unregister(shared: &Shared, conn_id: u64) -> Option<TcpStream> {
    let stream = shared.control.conns().remove(&conn_id);
    if stream.is_some() {
        shared.engine.stats_ref().connections_open.dec();
        shared.control.closed.notify_all();
    }
    stream
}

/// Answers an accept the server cannot serve with a structured
/// `overloaded` line, best effort, and drops the connection.
fn reject(stats: &EngineStats, stream: TcpStream, detail: &str) {
    stats.note_wire_error(ErrorCode::Overloaded, WireCodec::Json);
    scrutinizer_obs::log_warn!("connection rejected", reason = detail);
    let _ = stream.set_nonblocking(true);
    let line = error_line(ErrorCode::Overloaded, detail) + "\n";
    let mut stream = stream;
    let _ = stream.write_all(line.as_bytes());
}

/// A counting gate: at most `permits` holders at once, the rest wait.
struct Gate {
    free: Mutex<usize>,
    opened: Condvar,
}

/// One holder's pass through a [`Gate`]; dropping it lets the next in.
struct GatePass<'a>(&'a Gate);

impl Gate {
    fn new(permits: usize) -> Gate {
        Gate {
            free: Mutex::new(permits.max(1)),
            opened: Condvar::new(),
        }
    }

    fn enter(&self) -> GatePass<'_> {
        let mut free = self.free.lock().unwrap_or_else(PoisonError::into_inner);
        while *free == 0 {
            free = self
                .opened
                .wait(free)
                .unwrap_or_else(PoisonError::into_inner);
        }
        *free -= 1;
        GatePass(self)
    }
}

impl Drop for GatePass<'_> {
    fn drop(&mut self) {
        *self.0.free.lock().unwrap_or_else(PoisonError::into_inner) += 1;
        self.0.opened.notify_one();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn gate_admits_at_most_its_permits() {
        let gate = Gate::new(2);
        let inside = AtomicUsize::new(0);
        let most = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..6 {
                scope.spawn(|| {
                    for _ in 0..200 {
                        let _pass = gate.enter();
                        let now = inside.fetch_add(1, Ordering::SeqCst) + 1;
                        most.fetch_max(now, Ordering::SeqCst);
                        std::thread::yield_now();
                        inside.fetch_sub(1, Ordering::SeqCst);
                    }
                });
            }
        });
        assert_eq!(most.load(Ordering::SeqCst), 2);
        assert_eq!(*gate.free.lock().unwrap(), 2, "every pass was returned");
    }
}
