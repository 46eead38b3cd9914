//! Nonblocking byte streams as an injected capability.
//!
//! The server's per-connection step only ever needs two operations from
//! a connection: "read whatever is available without blocking" and
//! "write as much as fits without blocking". [`ByteStream`] captures exactly
//! that, with [`IoPoll`] standing in for the `io::Result` /
//! `ErrorKind::WouldBlock` dance. `std::net::TcpStream` (in nonblocking
//! mode) implements it for production; [`SimStream`] is an in-memory
//! duplex pipe whose far end the harness holds, with fault injection —
//! stalls, partial writes, hard drops — flipped per-connection by the
//! schedule.

use std::io::{Read, Write};
use std::sync::{Arc, Mutex};

/// Outcome of one nonblocking I/O attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoPoll {
    /// `n` bytes transferred. For reads, `Ready(0)` means orderly EOF.
    Ready(usize),
    /// Nothing transferable right now; try again later.
    WouldBlock,
    /// The peer is gone (reset / broken pipe); the connection is dead.
    Closed,
    /// Unrecoverable local error; the connection is dead.
    Err,
}

/// A nonblocking byte stream — the only view of a connection the serving
/// loop gets.
pub trait ByteStream {
    /// Read available bytes into `buf`. `Ready(0)` is EOF.
    fn read_nb(&mut self, buf: &mut [u8]) -> IoPoll;

    /// Write as much of `buf` as currently fits.
    fn write_nb(&mut self, buf: &[u8]) -> IoPoll;
}

impl ByteStream for std::net::TcpStream {
    fn read_nb(&mut self, buf: &mut [u8]) -> IoPoll {
        match self.read(buf) {
            Ok(n) => IoPoll::Ready(n),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => IoPoll::WouldBlock,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => IoPoll::WouldBlock,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::ConnectionReset
                        | std::io::ErrorKind::ConnectionAborted
                        | std::io::ErrorKind::BrokenPipe
                ) =>
            {
                IoPoll::Closed
            }
            Err(_) => IoPoll::Err,
        }
    }

    fn write_nb(&mut self, buf: &[u8]) -> IoPoll {
        match self.write(buf) {
            Ok(n) => IoPoll::Ready(n),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => IoPoll::WouldBlock,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => IoPoll::WouldBlock,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::ConnectionReset
                        | std::io::ErrorKind::ConnectionAborted
                        | std::io::ErrorKind::BrokenPipe
                ) =>
            {
                IoPoll::Closed
            }
            Err(_) => IoPoll::Err,
        }
    }
}

/// One direction of the duplex pipe.
#[derive(Default)]
struct Pipe {
    bytes: Vec<u8>,
    /// Writer hung up: the remaining bytes drain, then reads see EOF.
    closed: bool,
}

/// Shared state of a simulated connection.
#[derive(Default)]
struct Duplex {
    /// client → server direction.
    c2s: Pipe,
    /// server → client direction.
    s2c: Pipe,
    /// Stalled client: server-side reads report `WouldBlock` even when
    /// bytes are queued, until the schedule un-stalls it.
    stalled: bool,
    /// Partial-write cap: server-side writes transfer at most this many
    /// bytes per call (`None` = unlimited).
    write_cap: Option<usize>,
    /// Hard drop: both ends see `Closed` immediately, buffered bytes and
    /// all — the simulated RST.
    dropped: bool,
}

/// The server's end of a simulated connection. Implements
/// [`ByteStream`] so the real serving loop can run over it unchanged.
pub struct SimStream {
    state: Arc<Mutex<Duplex>>,
}

/// The harness's (client's) end of a simulated connection: push request
/// bytes in, pull response lines out, flip faults.
pub struct SimEndpoint {
    state: Arc<Mutex<Duplex>>,
}

/// A fresh connected pair: the server half and the client half.
pub fn sim_pair() -> (SimStream, SimEndpoint) {
    let state = Arc::new(Mutex::new(Duplex::default()));
    (
        SimStream {
            state: Arc::clone(&state),
        },
        SimEndpoint { state },
    )
}

impl ByteStream for SimStream {
    fn read_nb(&mut self, buf: &mut [u8]) -> IoPoll {
        let mut st = self.state.lock().unwrap();
        if st.dropped {
            return IoPoll::Closed;
        }
        if st.stalled {
            return IoPoll::WouldBlock;
        }
        if st.c2s.bytes.is_empty() {
            return if st.c2s.closed {
                IoPoll::Ready(0)
            } else {
                IoPoll::WouldBlock
            };
        }
        let n = buf.len().min(st.c2s.bytes.len());
        buf[..n].copy_from_slice(&st.c2s.bytes[..n]);
        st.c2s.bytes.drain(..n);
        IoPoll::Ready(n)
    }

    fn write_nb(&mut self, buf: &[u8]) -> IoPoll {
        let mut st = self.state.lock().unwrap();
        if st.dropped {
            return IoPoll::Closed;
        }
        if buf.is_empty() {
            return IoPoll::Ready(0);
        }
        let n = match st.write_cap {
            Some(0) => return IoPoll::WouldBlock,
            Some(cap) => buf.len().min(cap),
            None => buf.len(),
        };
        st.s2c.bytes.extend_from_slice(&buf[..n]);
        IoPoll::Ready(n)
    }
}

impl SimEndpoint {
    /// Queue request bytes for the server to read.
    pub fn send(&self, bytes: &[u8]) {
        let mut st = self.state.lock().unwrap();
        if !st.dropped && !st.c2s.closed {
            st.c2s.bytes.extend_from_slice(bytes);
        }
    }

    /// Drain everything the server has written so far.
    pub fn recv(&self) -> Vec<u8> {
        let mut st = self.state.lock().unwrap();
        std::mem::take(&mut st.s2c.bytes)
    }

    /// Orderly half-close of the client's write side: the server reads
    /// the remaining bytes, then EOF.
    pub fn close_write(&self) {
        self.state.lock().unwrap().c2s.closed = true;
    }

    /// Abrupt drop: both directions die instantly, buffers discarded.
    pub fn drop_hard(&self) {
        let mut st = self.state.lock().unwrap();
        st.dropped = true;
        st.c2s.bytes.clear();
        st.s2c.bytes.clear();
    }

    /// Stall or un-stall the client: while stalled, the server's reads
    /// see `WouldBlock` regardless of queued bytes.
    pub fn set_stalled(&self, stalled: bool) {
        self.state.lock().unwrap().stalled = stalled;
    }

    /// Cap server-side writes at `cap` bytes per call (`None` lifts the
    /// cap). `Some(0)` makes every write `WouldBlock` — a full socket.
    pub fn set_write_cap(&self, cap: Option<usize>) {
        self.state.lock().unwrap().write_cap = cap;
    }

    /// `true` once the connection has been hard-dropped.
    pub fn is_dropped(&self) -> bool {
        self.state.lock().unwrap().dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_and_eof() {
        let (mut server, client) = sim_pair();
        let mut buf = [0u8; 64];
        assert_eq!(server.read_nb(&mut buf), IoPoll::WouldBlock);

        client.send(b"hello\n");
        assert_eq!(server.read_nb(&mut buf), IoPoll::Ready(6));
        assert_eq!(&buf[..6], b"hello\n");

        assert_eq!(server.write_nb(b"ok\n"), IoPoll::Ready(3));
        assert_eq!(client.recv(), b"ok\n");

        client.close_write();
        assert_eq!(
            server.read_nb(&mut buf),
            IoPoll::Ready(0),
            "EOF after half-close"
        );
    }

    #[test]
    fn half_close_drains_buffered_bytes_first() {
        let (mut server, client) = sim_pair();
        client.send(b"tail");
        client.close_write();
        let mut buf = [0u8; 64];
        assert_eq!(server.read_nb(&mut buf), IoPoll::Ready(4));
        assert_eq!(server.read_nb(&mut buf), IoPoll::Ready(0));
    }

    #[test]
    fn stall_masks_queued_bytes() {
        let (mut server, client) = sim_pair();
        client.send(b"x");
        client.set_stalled(true);
        let mut buf = [0u8; 8];
        assert_eq!(server.read_nb(&mut buf), IoPoll::WouldBlock);
        client.set_stalled(false);
        assert_eq!(server.read_nb(&mut buf), IoPoll::Ready(1));
    }

    #[test]
    fn write_cap_forces_partial_writes() {
        let (mut server, client) = sim_pair();
        client.set_write_cap(Some(2));
        assert_eq!(server.write_nb(b"abcdef"), IoPoll::Ready(2));
        assert_eq!(server.write_nb(b"cdef"), IoPoll::Ready(2));
        client.set_write_cap(Some(0));
        assert_eq!(server.write_nb(b"ef"), IoPoll::WouldBlock);
        client.set_write_cap(None);
        assert_eq!(server.write_nb(b"ef"), IoPoll::Ready(2));
        assert_eq!(client.recv(), b"abcdef");
    }

    #[test]
    fn hard_drop_kills_both_directions() {
        let (mut server, client) = sim_pair();
        client.send(b"in flight");
        client.drop_hard();
        let mut buf = [0u8; 8];
        assert_eq!(server.read_nb(&mut buf), IoPoll::Closed);
        assert_eq!(server.write_nb(b"late"), IoPoll::Closed);
        assert!(client.recv().is_empty());
    }
}
