//! The transport-generic half of the server: one connection's buffers,
//! the flush → read → split state machine, and the per-connection step
//! that executes what it queued, over any [`ByteStream`].
//!
//! [`server`](crate::server) runs [`step_conn`] over a real `TcpStream`
//! on each connection's own thread; the deterministic simulation harness
//! (`scrutinizer-simcheck`) runs the very same step over in-memory
//! [`SimStream`](scrutinizer_sim::SimStream)s — so the state machine
//! being model-checked under injected faults (stalled clients, partial
//! writes, hard drops) is byte-for-byte the one production runs, write
//! backlog limit included, not a reimplementation.

use std::collections::VecDeque;

use scrutinizer_sim::{ByteStream, IoPoll};

use crate::api::{error_line, ErrorCode};
use crate::stats::{EngineStats, WireCodec};
use crate::wire;

/// The per-connection buffer limits [`step_conn`] enforces — the
/// transport-independent subset of
/// [`ServerOptions`](crate::server::ServerOptions).
#[derive(Debug, Clone, Copy)]
pub struct ServiceLimits {
    /// Longest accepted request line, in bytes; a connection exceeding it
    /// gets a `parse_error` response and is closed (there is no way to
    /// resynchronize on an unterminated line).
    pub max_line_bytes: usize,
    /// Write-buffer backlog above which the step stops executing (and
    /// then reading) for that connection until the client drains.
    pub write_buffer_limit: usize,
    /// Most complete lines queued per connection before the step stops
    /// reading it (backpressure via transport flow control).
    pub max_pipeline: usize,
}

/// One client connection's buffers and execution state, over any
/// transport.
pub struct ConnState<S> {
    /// The transport.
    pub stream: S,
    /// Bytes received but not yet split into complete requests.
    read_buf: Vec<u8>,
    /// The wire codec this connection negotiated by its first byte:
    /// `None` until the first byte arrives, then fixed for the
    /// connection's lifetime ([`wire::BINARY_MAGIC`] selects binary
    /// framing; anything else is JSON lines).
    codec: Option<WireCodec>,
    /// Complete request payloads awaiting execution, in arrival order —
    /// JSON line bytes (without the newline) or binary frame payloads
    /// (without the length prefix).
    queue: VecDeque<Vec<u8>>,
    /// Spent payload buffers awaiting reuse (see `ConnState::recycle`):
    /// the per-connection scratch that makes a warmed binary connection
    /// allocation-free per request.
    scratch: Vec<Vec<u8>>,
    /// Rendered responses awaiting the transport; `write_pos` marks how
    /// far the prefix has been flushed.
    write_buf: Vec<u8>,
    write_pos: usize,
    /// Client finished sending (EOF); drain, flush, then close.
    pub eof: bool,
    /// Unrecoverable transport error; discard without draining.
    pub dead: bool,
}

impl<S> ConnState<S> {
    /// Fresh state over a connected transport.
    pub fn new(stream: S) -> Self {
        ConnState {
            stream,
            read_buf: Vec::new(),
            codec: None,
            queue: VecDeque::new(),
            scratch: Vec::new(),
            write_buf: Vec::new(),
            write_pos: 0,
            eof: false,
            dead: false,
        }
    }

    /// Bytes rendered but not yet accepted by the transport.
    pub fn write_backlog(&self) -> usize {
        self.write_buf.len() - self.write_pos
    }

    /// Appends a response line (newline added) to the write buffer.
    fn push_response(&mut self, line: &str) {
        self.write_buf.extend_from_slice(line.as_bytes());
        self.write_buf.push(b'\n');
    }

    /// Returns a spent payload buffer to the connection's scratch pool
    /// so the next split reuses its capacity instead of allocating.
    fn recycle(&mut self, mut buf: Vec<u8>) {
        // bounded pool: one buffer per possible queue slot is plenty
        if self.scratch.len() < 128 {
            buf.clear();
            self.scratch.push(buf);
        }
    }

    /// The rendered bytes the transport has not accepted yet.
    pub fn unflushed(&self) -> &[u8] {
        &self.write_buf[self.write_pos..]
    }

    /// Marks `written` bytes of [`ConnState::unflushed`] as accepted by
    /// the transport — for a caller that flushed them itself, as the TCP
    /// server does with a blocking write once the socket stops taking
    /// bytes.
    pub fn mark_flushed(&mut self, written: usize) {
        self.write_pos += written.min(self.write_backlog());
    }

    /// Fully drained: nothing queued, nothing to flush. Requests execute
    /// inside [`step_conn`], so none is ever running between steps.
    pub fn idle(&self) -> bool {
        self.queue.is_empty() && self.write_backlog() == 0
    }
}

/// One step of a connection: its I/O pass (flush, read, split), then
/// execute the queued payloads in arrival order while the write backlog
/// stays under `write_buffer_limit`, then the I/O pass again to flush
/// what they rendered. Returns whether anything moved.
///
/// `execute` runs one payload under the connection's codec and appends
/// exactly one response to the buffer it is handed. An `Err` from it
/// stops the step at once and is returned (the simulation harness
/// checks each response there); the TCP server's never fails.
///
/// Every executing request counts in `requests_in_flight`, and the
/// queue depth including it feeds the `pipeline_depth` high-water mark.
pub fn step_conn<S: ByteStream, E>(
    conn: &mut ConnState<S>,
    limits: &ServiceLimits,
    shutting_down: bool,
    stats: &EngineStats,
    mut execute: impl FnMut(WireCodec, &[u8], &mut Vec<u8>) -> Result<(), E>,
) -> Result<bool, E> {
    let mut progress = service_conn(conn, limits, shutting_down, stats);
    while !conn.dead && conn.write_backlog() < limits.write_buffer_limit {
        let Some(payload) = conn.queue.pop_front() else {
            break;
        };
        stats.note_pipeline_depth(conn.queue.len() as u64 + 1);
        let codec = conn.codec.unwrap_or(WireCodec::Json);
        stats.requests_in_flight.inc();
        let executed = execute(codec, &payload, &mut conn.write_buf);
        stats.requests_in_flight.dec();
        conn.recycle(payload);
        progress = true;
        executed?;
    }
    progress |= service_conn(conn, limits, shutting_down, stats);
    Ok(progress)
}

/// Flushes what the transport will take, reads what it has, and splits
/// complete lines into the queue. Returns whether anything moved.
///
/// This is a connection's entire I/O pass; [`step_conn`] wraps it with
/// the execution of what it queued.
fn service_conn<S: ByteStream>(
    conn: &mut ConnState<S>,
    limits: &ServiceLimits,
    shutting_down: bool,
    stats: &EngineStats,
) -> bool {
    let mut progress = false;

    // flush pending responses
    while conn.write_backlog() > 0 {
        match conn.stream.write_nb(&conn.write_buf[conn.write_pos..]) {
            IoPoll::Ready(0) => {
                conn.dead = true;
                break;
            }
            IoPoll::Ready(written) => {
                conn.write_pos += written;
                progress = true;
            }
            IoPoll::WouldBlock => break,
            IoPoll::Closed | IoPoll::Err => {
                conn.dead = true;
                break;
            }
        }
    }
    if conn.write_backlog() == 0 && !conn.write_buf.is_empty() {
        conn.write_buf.clear();
        conn.write_pos = 0;
    }

    // read while the pipeline and write buffer have room; a full queue
    // or a backed-up client pauses reading, and flow control pushes back
    let backpressured = conn.queue.len() >= limits.max_pipeline
        || conn.write_backlog() >= limits.write_buffer_limit;
    if !conn.eof && !conn.dead && !backpressured && !shutting_down {
        let mut chunk = [0u8; 4096];
        loop {
            match conn.stream.read_nb(&mut chunk) {
                IoPoll::Ready(0) => {
                    conn.eof = true;
                    break;
                }
                IoPoll::Ready(received) => {
                    conn.read_buf.extend_from_slice(&chunk[..received]);
                    progress = true;
                    if conn.read_buf.len() >= limits.max_line_bytes
                        || conn.queue.len() >= limits.max_pipeline
                    {
                        break;
                    }
                }
                IoPoll::WouldBlock => break,
                IoPoll::Closed | IoPoll::Err => {
                    conn.dead = true;
                    break;
                }
            }
        }
    }

    // sniff the codec on the connection's first byte: BINARY_MAGIC
    // selects binary framing (the magic byte itself is consumed); any
    // other byte — `{` in practice — falls through to JSON lines
    if conn.codec.is_none() {
        if let Some(&first) = conn.read_buf.first() {
            if first == wire::BINARY_MAGIC {
                conn.codec = Some(WireCodec::Binary);
                conn.read_buf.remove(0);
            } else {
                conn.codec = Some(WireCodec::Json);
            }
            progress = true;
        }
    }

    match conn.codec {
        Some(WireCodec::Binary) => progress |= split_frames(conn, limits, stats),
        _ => progress |= split_lines(conn, limits, stats),
    }

    progress
}

/// The JSON half of the split stage: complete newline-terminated lines
/// move to the queue, never past the pipeline cap — one burst can carry
/// far more lines than `max_pipeline`, and whatever stays unsplit here
/// pauses reads until the queue drains.
fn split_lines<S>(conn: &mut ConnState<S>, limits: &ServiceLimits, stats: &EngineStats) -> bool {
    let mut progress = false;
    while conn.queue.len() < limits.max_pipeline {
        let Some(newline) = conn.read_buf.iter().position(|&b| b == b'\n') else {
            break;
        };
        let rest = conn.read_buf.split_off(newline + 1);
        let mut line_bytes = std::mem::replace(&mut conn.read_buf, rest);
        line_bytes.pop(); // the newline
                          // invalid UTF-8 is queued as-is and lossily decoded at
                          // execution, producing a structured parse_error like any
                          // other bad line
        if line_bytes.iter().any(|b| !b.is_ascii_whitespace()) {
            conn.queue.push_back(line_bytes);
        }
        progress = true;
    }

    let residual_has_newline = conn.read_buf.contains(&b'\n');
    if !residual_has_newline && conn.read_buf.len() >= limits.max_line_bytes {
        // an unterminated line longer than the cap can never
        // resynchronize: answer once, stop reading, close after the flush
        stats.note_wire_error(ErrorCode::ParseError, WireCodec::Json);
        conn.push_response(&error_line(
            ErrorCode::ParseError,
            &format!("request line exceeds {} bytes", limits.max_line_bytes),
        ));
        conn.read_buf.clear();
        conn.eof = true;
        progress = true;
    } else if conn.eof
        && !residual_has_newline
        && !conn.read_buf.is_empty()
        && conn.queue.len() < limits.max_pipeline
    {
        // the pre-v1 server answered a final request missing its trailing
        // newline (BufRead::lines yields it at EOF); keep that contract
        let line_bytes = std::mem::take(&mut conn.read_buf);
        if line_bytes.iter().any(|b| !b.is_ascii_whitespace()) {
            conn.queue.push_back(line_bytes);
        }
        progress = true;
    }
    progress
}

/// The binary half of the split stage: complete frames move to the
/// queue (payload only, length prefix stripped), reusing scratch
/// buffers so a warmed connection splits without allocating. Mirrors
/// the JSON limits: a frame announcing more than `max_line_bytes`
/// answers `parse_error` and closes (no resynchronizing mid-frame), and
/// a partial frame at EOF — a truncated length prefix or a payload cut
/// short — answers `parse_error` once, since it can never complete.
fn split_frames<S>(conn: &mut ConnState<S>, limits: &ServiceLimits, stats: &EngineStats) -> bool {
    let mut progress = false;
    while conn.queue.len() < limits.max_pipeline {
        if let Some(announced) = wire::announced_len(&conn.read_buf) {
            if wire::FRAME_HEADER_BYTES + announced > limits.max_line_bytes {
                stats.note_wire_error(ErrorCode::ParseError, WireCodec::Binary);
                wire::error_frame(
                    &mut conn.write_buf,
                    ErrorCode::ParseError,
                    &format!("request frame exceeds {} bytes", limits.max_line_bytes),
                );
                conn.read_buf.clear();
                conn.eof = true;
                return true;
            }
        }
        let Some((payload, used)) = wire::split_frame(&conn.read_buf) else {
            break;
        };
        let mut buf = conn.scratch.pop().unwrap_or_default();
        buf.extend_from_slice(payload);
        conn.read_buf.drain(..used);
        // a zero-length frame is queued too: its payload fails to decode
        // and is answered with a parse_error *in pipeline order*, so the
        // connection survives and stays synchronized
        conn.queue.push_back(buf);
        progress = true;
    }

    if conn.eof && !conn.read_buf.is_empty() && conn.queue.len() < limits.max_pipeline {
        // eof with a partial frame buffered: it can never complete
        stats.note_wire_error(ErrorCode::ParseError, WireCodec::Binary);
        wire::error_frame(
            &mut conn.write_buf,
            ErrorCode::ParseError,
            "connection closed mid-frame",
        );
        conn.read_buf.clear();
        progress = true;
    }
    progress
}

#[cfg(test)]
mod tests {
    use super::*;
    use scrutinizer_sim::sim_pair;

    fn limits() -> ServiceLimits {
        ServiceLimits {
            max_line_bytes: 64,
            write_buffer_limit: 1 << 16,
            max_pipeline: 4,
        }
    }

    #[test]
    fn lines_split_in_order_and_flush_round_trips() {
        let stats = EngineStats::default();
        let (server, client) = sim_pair();
        let mut conn = ConnState::new(server);
        client.send(b"{\"a\":1}\n{\"b\":2}\n");
        assert!(service_conn(&mut conn, &limits(), false, &stats));
        assert_eq!(conn.codec, Some(WireCodec::Json));
        assert_eq!(conn.queue.len(), 2);
        assert_eq!(conn.queue[0].as_slice(), b"{\"a\":1}");

        conn.push_response("resp");
        assert!(service_conn(&mut conn, &limits(), false, &stats));
        assert_eq!(client.recv(), b"resp\n");
        assert_eq!(conn.write_backlog(), 0);
    }

    #[test]
    fn pipeline_cap_pauses_splitting() {
        let stats = EngineStats::default();
        let (server, client) = sim_pair();
        let mut conn = ConnState::new(server);
        client.send(b"1\n2\n3\n4\n5\n6\n");
        service_conn(&mut conn, &limits(), false, &stats);
        assert_eq!(conn.queue.len(), 4, "split stops at max_pipeline");
        conn.queue.clear();
        service_conn(&mut conn, &limits(), false, &stats);
        assert_eq!(conn.queue.len(), 2, "the rest splits once the queue drains");
    }

    #[test]
    fn oversized_unterminated_line_answers_parse_error_and_closes() {
        let stats = EngineStats::default();
        let (server, client) = sim_pair();
        let mut conn = ConnState::new(server);
        client.send(&[b'x'; 100]);
        service_conn(&mut conn, &limits(), false, &stats);
        assert!(conn.eof, "no resynchronization possible");
        assert!(conn.write_backlog() > 0);
        service_conn(&mut conn, &limits(), false, &stats);
        let out = String::from_utf8(client.recv()).unwrap();
        assert!(out.contains("\"code\":\"parse_error\""), "got {out}");
        assert_eq!(stats.wire_errors[ErrorCode::ParseError.index()].get(), 1);
    }

    #[test]
    fn final_unterminated_line_is_served_at_eof() {
        let stats = EngineStats::default();
        let (server, client) = sim_pair();
        let mut conn = ConnState::new(server);
        client.send(b"{\"op\":\"stats\"}");
        client.close_write();
        service_conn(&mut conn, &limits(), false, &stats);
        assert!(conn.eof);
        assert_eq!(conn.queue.len(), 1);
        assert_eq!(conn.queue[0].as_slice(), b"{\"op\":\"stats\"}");
    }

    #[test]
    fn magic_byte_selects_binary_and_frames_split() {
        let stats = EngineStats::default();
        let (server, client) = sim_pair();
        let mut conn = ConnState::new(server);
        let mut bytes = vec![wire::BINARY_MAGIC];
        wire::frame_into(&mut bytes, |buf| buf.extend_from_slice(b"first"));
        wire::frame_into(&mut bytes, |buf| buf.extend_from_slice(b"second"));
        client.send(&bytes);
        assert!(service_conn(&mut conn, &limits(), false, &stats));
        assert_eq!(conn.codec, Some(WireCodec::Binary));
        assert_eq!(conn.queue.len(), 2);
        assert_eq!(conn.queue[0].as_slice(), b"first");
        assert_eq!(conn.queue[1].as_slice(), b"second");
    }

    #[test]
    fn oversized_frame_answers_parse_error_and_closes() {
        let stats = EngineStats::default();
        let (server, client) = sim_pair();
        let mut conn = ConnState::new(server);
        let mut bytes = vec![wire::BINARY_MAGIC];
        bytes.extend_from_slice(&1000u32.to_le_bytes()); // announces > max_line_bytes
        client.send(&bytes);
        service_conn(&mut conn, &limits(), false, &stats);
        assert!(conn.eof, "no resynchronization possible mid-frame");
        service_conn(&mut conn, &limits(), false, &stats);
        let reply = client.recv();
        let (payload, _) = wire::split_frame(&reply).expect("framed error reply");
        let decoded = crate::codec::decode_response(payload).expect("decodes");
        assert_eq!(
            decoded.get("code").and_then(crate::protocol::Json::as_str),
            Some("parse_error")
        );
        assert_eq!(stats.wire_errors[ErrorCode::ParseError.index()].get(), 1);
        assert_eq!(
            stats.wire_errors_by_codec[WireCodec::Binary.index()].get(),
            1
        );
    }

    #[test]
    fn truncated_frame_at_eof_answers_parse_error() {
        let stats = EngineStats::default();
        let (server, client) = sim_pair();
        let mut conn = ConnState::new(server);
        // magic + half a length prefix, then the client goes away
        client.send(&[wire::BINARY_MAGIC, 0x05, 0x00]);
        client.close_write();
        service_conn(&mut conn, &limits(), false, &stats);
        assert!(conn.eof);
        assert!(conn.queue.is_empty());
        service_conn(&mut conn, &limits(), false, &stats);
        let reply = client.recv();
        let (payload, _) = wire::split_frame(&reply).expect("framed error reply");
        let decoded = crate::codec::decode_response(payload).expect("decodes");
        assert_eq!(
            decoded.get("code").and_then(crate::protocol::Json::as_str),
            Some("parse_error")
        );
    }

    #[test]
    fn frame_arriving_byte_by_byte_assembles() {
        let stats = EngineStats::default();
        let (server, client) = sim_pair();
        let mut conn = ConnState::new(server);
        let mut bytes = vec![wire::BINARY_MAGIC];
        wire::frame_into(&mut bytes, |buf| buf.extend_from_slice(b"slow"));
        for &byte in &bytes {
            client.send(&[byte]);
            service_conn(&mut conn, &limits(), false, &stats);
        }
        assert_eq!(conn.queue.len(), 1);
        assert_eq!(conn.queue[0].as_slice(), b"slow");
        assert_eq!(stats.requests_total.get(), 0, "no spurious errors");
    }

    #[test]
    fn zero_length_frame_is_queued_for_in_order_handling() {
        let stats = EngineStats::default();
        let (server, client) = sim_pair();
        let mut conn = ConnState::new(server);
        let mut bytes = vec![wire::BINARY_MAGIC];
        wire::frame_into(&mut bytes, |_| {});
        wire::frame_into(&mut bytes, |buf| buf.extend_from_slice(b"after"));
        client.send(&bytes);
        service_conn(&mut conn, &limits(), false, &stats);
        assert_eq!(conn.queue.len(), 2);
        assert!(conn.queue[0].is_empty());
        assert_eq!(conn.queue[1].as_slice(), b"after");
        assert!(!conn.eof, "the connection survives a zero-length frame");
    }

    #[test]
    fn recycled_buffers_are_reused_by_the_splitter() {
        let stats = EngineStats::default();
        let (server, client) = sim_pair();
        let mut conn = ConnState::new(server);
        let mut bytes = vec![wire::BINARY_MAGIC];
        wire::frame_into(&mut bytes, |buf| buf.extend_from_slice(b"one"));
        client.send(&bytes);
        service_conn(&mut conn, &limits(), false, &stats);
        let payload = conn.queue.pop_front().unwrap();
        let capacity = payload.capacity();
        let pointer = payload.as_ptr();
        conn.recycle(payload);
        let mut bytes = Vec::new();
        wire::frame_into(&mut bytes, |buf| buf.extend_from_slice(b"two"));
        client.send(&bytes);
        service_conn(&mut conn, &limits(), false, &stats);
        let reused = conn.queue.pop_front().unwrap();
        assert_eq!(reused.as_slice(), b"two");
        assert_eq!(reused.as_ptr(), pointer, "scratch buffer was reused");
        assert_eq!(reused.capacity(), capacity);
    }

    #[test]
    fn hard_drop_marks_dead() {
        let stats = EngineStats::default();
        let (server, client) = sim_pair();
        let mut conn = ConnState::new(server);
        conn.push_response("never delivered");
        client.drop_hard();
        service_conn(&mut conn, &limits(), false, &stats);
        assert!(conn.dead);
    }

    #[test]
    fn partial_writes_flush_across_passes() {
        let stats = EngineStats::default();
        let (server, client) = sim_pair();
        let mut conn = ConnState::new(server);
        client.set_write_cap(Some(3));
        conn.push_response("0123456789");
        while conn.write_backlog() > 0 {
            service_conn(&mut conn, &limits(), false, &stats);
        }
        assert_eq!(client.recv(), b"0123456789\n");
    }
}
