//! Binary wire framing: the length-prefixed transport negotiated by the
//! `0x00` magic byte, carrying [`codec`]-encoded payloads.
//!
//! ## Negotiation
//!
//! Both codecs share one port. The server sniffs the **first byte** a
//! connection sends: [`BINARY_MAGIC`] (`0x00`) switches the connection
//! to binary framing for its whole lifetime (the magic byte itself is
//! consumed); anything else — `{` in practice — falls through to the
//! JSON-lines path untouched. `0x00` can never begin a JSON-lines
//! request, so existing clients keep working unmodified and JSON stays
//! the canonical encoding.
//!
//! ## Framing
//!
//! After the magic byte the stream is a sequence of frames, each a
//! little-endian `u32` payload length followed by that many payload
//! bytes. Responses use the same framing in the same order as their
//! requests (pipelining works exactly like JSON lines; there is no
//! binary `batch` op because pipelined frames already execute in
//! order). Responses are encoded **straight into the connection's
//! write buffer**: [`frame_into`] reserves the four length bytes,
//! serializes the payload behind them, and backpatches the length —
//! no intermediate buffer, no copy.
//!
//! A frame longer than the service's `max_line_bytes` limit is answered
//! with a `parse_error` and the connection closes, mirroring the
//! oversized-JSON-line behavior (there is no way to resynchronize
//! mid-frame). A zero-length frame is a well-formed frame whose payload
//! fails to decode: it is answered in pipeline order with a
//! `parse_error` and the connection lives on.

use std::sync::Arc;

use scrutinizer_obs::{self as obs, TraceId};

use crate::api::{dispatch, ApiError, ErrorCode, Request, PROTOCOL_VERSION};
use crate::codec;
use crate::engine::Engine;
use crate::stats::WireCodec;

/// The negotiation byte: a connection whose first byte is `0x00` speaks
/// binary frames. JSON text can never start with a NUL, so the sniff is
/// unambiguous.
pub const BINARY_MAGIC: u8 = 0x00;

/// Bytes in a frame header (the little-endian `u32` payload length).
pub const FRAME_HEADER_BYTES: usize = 4;

/// Appends one frame to `out`: reserves the four-byte length slot,
/// lets `fill` serialize the payload directly behind it, then
/// backpatches the slot with the payload length. This is the zero-copy
/// response seam — the payload is encoded in place in the connection's
/// write buffer, never assembled elsewhere first.
pub fn frame_into<F: FnOnce(&mut Vec<u8>)>(out: &mut Vec<u8>, fill: F) {
    let slot = out.len();
    out.extend_from_slice(&[0u8; FRAME_HEADER_BYTES]);
    fill(out);
    let length = (out.len() - slot - FRAME_HEADER_BYTES) as u32;
    out[slot..slot + FRAME_HEADER_BYTES].copy_from_slice(&length.to_le_bytes());
}

/// Attempts to split one complete frame off the front of `buf`,
/// returning the payload and the total bytes consumed (header +
/// payload). `None` means the buffer holds only part of a frame — read
/// more and retry.
pub fn split_frame(buf: &[u8]) -> Option<(&[u8], usize)> {
    if buf.len() < FRAME_HEADER_BYTES {
        return None;
    }
    let length =
        u32::from_le_bytes(buf[..FRAME_HEADER_BYTES].try_into().expect("4 bytes")) as usize;
    let total = FRAME_HEADER_BYTES.checked_add(length)?;
    if buf.len() < total {
        return None;
    }
    Some((&buf[FRAME_HEADER_BYTES..total], total))
}

/// The payload length a frame header announces, if the header is
/// complete — used by the serving loop to reject oversized frames
/// before buffering them.
pub fn announced_len(buf: &[u8]) -> Option<usize> {
    if buf.len() < FRAME_HEADER_BYTES {
        return None;
    }
    Some(u32::from_le_bytes(buf[..FRAME_HEADER_BYTES].try_into().expect("4 bytes")) as usize)
}

/// Client-side helper: appends one framed request to `out`.
pub fn request_frame(out: &mut Vec<u8>, request: &Request, id: Option<u64>, trace: Option<u64>) {
    frame_into(out, |buf| codec::encode_request(buf, request, id, trace));
}

/// Appends a framed error response carrying no request id — the binary
/// counterpart of the inline JSON error lines the serving loop emits for
/// transport-level failures (oversized frames, truncated trailing
/// bytes). Counting toward the conservation invariant stays with the
/// caller, exactly like the JSON path.
pub fn error_frame(out: &mut Vec<u8>, code: ErrorCode, message: &str) {
    frame_into(out, |buf| {
        codec::encode_err_response(buf, None, TraceId::generate().raw(), code, message);
    });
}

/// Handles one binary frame end to end: decode, version gate,
/// typed dispatch, and the response encoded straight into `out` as one
/// frame. Never panics on malformed input; a panic inside dispatch is
/// caught, any partial output is truncated, and a framed `internal`
/// error takes its place — the binary mirror of
/// [`handle_request`](crate::protocol::handle_request)'s guarantee that
/// one poisoned request cannot desynchronize a pipelined client.
pub fn handle_frame(engine: &Arc<Engine>, payload: &[u8], out: &mut Vec<u8>) {
    let mark = out.len();
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        handle_frame_inner(engine, payload, out);
    }));
    if let Err(panic) = outcome {
        // the frame may have been partially encoded when the panic
        // unwound; drop those bytes so the wire stays framed
        out.truncate(mark);
        let detail = crate::protocol::note_panic(engine, WireCodec::Binary, &*panic);
        frame_into(out, |buf| {
            codec::encode_err_response(
                buf,
                None,
                TraceId::generate().raw(),
                ErrorCode::Internal,
                &format!("internal error: {detail}"),
            );
        });
    }
}

fn handle_frame_inner(engine: &Arc<Engine>, payload: &[u8], out: &mut Vec<u8>) {
    let stats = engine.stats_ref();
    // the envelope decodes separately from the body so failures past it
    // can still echo the request id
    let (envelope, mut reader) = match codec::decode_envelope(payload) {
        Ok(pair) => pair,
        Err(error) => {
            stats.note_wire_error(error.code, WireCodec::Binary);
            frame_into(out, |buf| {
                codec::encode_err_response(
                    buf,
                    None,
                    TraceId::generate().raw(),
                    error.code,
                    &error.message,
                );
            });
            return;
        }
    };
    let trace = match envelope.trace {
        Some(raw) => TraceId::from_raw(raw),
        None => TraceId::generate(),
    };
    let mut span = obs::root_span("server.request", trace);
    let emit_error = |error: &ApiError, out: &mut Vec<u8>| {
        stats.note_wire_error(error.code, WireCodec::Binary);
        frame_into(out, |buf| {
            codec::encode_err_response(buf, envelope.id, trace.raw(), error.code, &error.message);
        });
    };
    if u64::from(envelope.version) != PROTOCOL_VERSION {
        emit_error(&ApiError::unsupported_version(envelope.version), out);
        return;
    }
    let request = match codec::decode_body(&mut reader) {
        Ok(request) => request,
        Err(error) => {
            emit_error(&error, out);
            return;
        }
    };
    span.add_field("op", request.op_name());
    match dispatch(engine, &request) {
        Ok(response) => {
            stats.note_ok(WireCodec::Binary);
            frame_into(out, |buf| {
                codec::encode_ok_response(buf, envelope.id, trace.raw(), &response);
            });
        }
        Err(error) => emit_error(&error, out),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_into_backpatches_the_length() {
        let mut out = Vec::new();
        frame_into(&mut out, |buf| buf.extend_from_slice(b"hello"));
        assert_eq!(&out[..4], &5u32.to_le_bytes());
        assert_eq!(&out[4..], b"hello");
    }

    #[test]
    fn frames_split_back_in_order() {
        let mut out = Vec::new();
        frame_into(&mut out, |buf| buf.extend_from_slice(b"one"));
        frame_into(&mut out, |_buf| {}); // zero-length frame is well-formed framing
        frame_into(&mut out, |buf| buf.extend_from_slice(b"three"));
        let (first, used) = split_frame(&out).expect("first frame");
        assert_eq!(first, b"one");
        let rest = &out[used..];
        let (second, used) = split_frame(rest).expect("second frame");
        assert_eq!(second, b"");
        let rest = &rest[used..];
        let (third, used) = split_frame(rest).expect("third frame");
        assert_eq!(third, b"three");
        assert_eq!(used, rest.len());
    }

    #[test]
    fn partial_frames_do_not_split() {
        let mut out = Vec::new();
        frame_into(&mut out, |buf| buf.extend_from_slice(b"payload"));
        for cut in 0..out.len() {
            assert!(split_frame(&out[..cut]).is_none(), "split at {cut} bytes");
        }
        assert!(split_frame(&out).is_some());
    }

    #[test]
    fn announced_len_reads_the_header_only() {
        assert_eq!(announced_len(&[1, 0, 0]), None);
        assert_eq!(announced_len(&[7, 0, 0, 0]), Some(7));
        assert_eq!(
            announced_len(&u32::MAX.to_le_bytes()),
            Some(u32::MAX as usize)
        );
    }
}
