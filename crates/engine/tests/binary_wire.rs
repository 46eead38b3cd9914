//! End-to-end binary framing over a real TCP server.
//!
//! The serve-core unit tests pin the byte-level framing rules on the
//! in-process seam; these tests drive the same rules through a bound
//! socket, where the magic-byte sniff, partial reads, and connection
//! teardown are real:
//!
//! * a full mixed-initiative session speaks binary end to end, and its
//!   `suggest` payload is field-identical to the same session run over
//!   the JSON codec on a second connection;
//! * a truncated length prefix at EOF is answered with one framed
//!   `parse_error`, not a hang or a panic;
//! * a frame announcing more than the line limit is answered with a
//!   framed `parse_error` and the connection is closed;
//! * a zero-length frame gets its `parse_error` in pipeline order and
//!   the connection keeps working;
//! * a JSON request line smuggled inside a binary frame is NOT
//!   re-interpreted by the JSON codec — the codec choice is sticky for
//!   the connection's lifetime.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use scrutinizer_core::{OrderingStrategy, SystemConfig};
use scrutinizer_corpus::{Corpus, CorpusConfig};
use scrutinizer_engine::codec::decode_response;
use scrutinizer_engine::engine::{Engine, EngineOptions};
use scrutinizer_engine::protocol::Json;
use scrutinizer_engine::server::{Server, ServerOptions};
use scrutinizer_engine::wire::{request_frame, BINARY_MAGIC, FRAME_HEADER_BYTES};
use scrutinizer_engine::Request;

fn spawn_server() -> (Arc<Engine>, SocketAddr, impl FnOnce()) {
    let engine = Engine::new(
        Corpus::generate(CorpusConfig::small()),
        SystemConfig::test(),
        EngineOptions {
            retrain_interval: None,
            ordering: OrderingStrategy::Sequential,
        },
    );
    engine.pretrain(None);
    let server = Server::bind(Arc::clone(&engine), "127.0.0.1:0", ServerOptions::default())
        .expect("bind loopback");
    let addr = server.local_addr().expect("bound address");
    let handle = server.handle();
    let join = std::thread::spawn(move || server.run());
    let shutdown = move || {
        handle.shutdown();
        join.join().expect("server thread").expect("server run");
    };
    (engine, addr, shutdown)
}

/// Connects and sends the magic byte: everything after speaks binary.
fn connect_binary(addr: SocketAddr) -> TcpStream {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .expect("read timeout");
    stream.write_all(&[BINARY_MAGIC]).expect("magic byte");
    stream
}

fn send_request(stream: &mut TcpStream, request: &Request, id: u64) {
    let mut buf = Vec::new();
    request_frame(&mut buf, request, Some(id), None);
    stream.write_all(&buf).expect("write frame");
}

/// Reads one length-prefixed response frame; `None` on clean EOF.
fn read_frame(stream: &mut TcpStream) -> Option<Vec<u8>> {
    let mut header = [0u8; FRAME_HEADER_BYTES];
    let mut got = 0;
    while got < header.len() {
        match stream.read(&mut header[got..]) {
            Ok(0) if got == 0 => return None,
            Ok(0) => panic!("EOF inside a response header"),
            Ok(n) => got += n,
            Err(e) => panic!("read header: {e}"),
        }
    }
    let len = u32::from_le_bytes(header) as usize;
    let mut payload = vec![0u8; len];
    stream.read_exact(&mut payload).expect("read payload");
    Some(payload)
}

/// One binary round trip, decoded to the canonical JSON shape.
fn roundtrip(stream: &mut TcpStream, request: &Request, id: u64) -> Json {
    send_request(stream, request, id);
    let payload = read_frame(stream).expect("server answered");
    decode_response(&payload).expect("response decodes")
}

fn field<'a>(response: &'a Json, key: &str) -> &'a Json {
    response
        .get(key)
        .unwrap_or_else(|| panic!("response has no `{key}`: {}", response.render()))
}

fn assert_ok(response: &Json) {
    assert_eq!(
        field(response, "ok").as_bool(),
        Some(true),
        "expected success: {}",
        response.render()
    );
}

fn error_code(response: &Json) -> String {
    assert_eq!(field(response, "ok").as_bool(), Some(false));
    field(response, "code")
        .as_str()
        .expect("error has a code")
        .to_string()
}

#[test]
fn binary_session_end_to_end_matches_json_twin() {
    let (_engine, addr, shutdown) = spawn_server();

    // ---- the binary session -------------------------------------------
    let mut bin = connect_binary(addr);
    let open = roundtrip(&mut bin, &Request::Open { checker: None }, 1);
    assert_ok(&open);
    assert_eq!(field(&open, "id").as_usize(), Some(1), "id echoes back");
    let session = field(&open, "session").as_usize().expect("session id") as u64;
    let submit = roundtrip(
        &mut bin,
        &Request::Submit {
            session,
            claims: vec![0, 1],
        },
        2,
    );
    assert_ok(&submit);
    let suggest = roundtrip(&mut bin, &Request::Suggest { session, claim: 0 }, 3);
    assert_ok(&suggest);
    let close = roundtrip(&mut bin, &Request::Close { session }, 4);
    assert_ok(&close);

    // ---- the JSON twin: same claims, fresh session, same engine -------
    let mut stream = TcpStream::connect(addr).expect("connect json");
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .expect("read timeout");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut json_line = |line: String| -> Json {
        stream.write_all(line.as_bytes()).expect("write line");
        stream.write_all(b"\n").expect("write newline");
        let mut response = String::new();
        reader.read_line(&mut response).expect("read line");
        Json::parse(response.trim_end()).expect("response parses")
    };
    let open = json_line(r#"{"op":"open","v":1}"#.to_string());
    assert_ok(&open);
    let json_session = field(&open, "session").as_usize().expect("session id");
    let submit = json_line(format!(
        r#"{{"op":"submit","v":1,"session":{json_session},"claims":[0,1]}}"#
    ));
    assert_ok(&submit);
    let json_suggest = json_line(format!(
        r#"{{"op":"suggest","v":1,"session":{json_session},"claim":0}}"#
    ));
    assert_ok(&json_suggest);

    // identical claim state on both codecs ⇒ identical suggestions
    assert_eq!(
        field(&suggest, "suggestions").render(),
        field(&json_suggest, "suggestions").render(),
        "binary-decoded suggestions diverge from the JSON codec's"
    );

    shutdown();
}

#[test]
fn truncated_length_prefix_at_eof_answers_parse_error() {
    let (_engine, addr, shutdown) = spawn_server();

    let mut stream = connect_binary(addr);
    // half a length prefix, then the client goes away
    stream.write_all(&[0x10, 0x00]).expect("partial header");
    stream
        .shutdown(std::net::Shutdown::Write)
        .expect("half-close");
    let payload = read_frame(&mut stream).expect("server answers the stub");
    let response = decode_response(&payload).expect("error decodes");
    assert_eq!(error_code(&response), "parse_error");
    assert!(
        read_frame(&mut stream).is_none(),
        "connection must close after the truncated frame"
    );

    shutdown();
}

#[test]
fn oversized_frame_answers_parse_error_and_closes() {
    let (_engine, addr, shutdown) = spawn_server();

    let mut stream = connect_binary(addr);
    // announce far beyond max_line_bytes; never send the body
    stream
        .write_all(&u32::MAX.to_le_bytes())
        .expect("oversized header");
    let payload = read_frame(&mut stream).expect("server answers");
    let response = decode_response(&payload).expect("error decodes");
    assert_eq!(error_code(&response), "parse_error");
    assert!(
        read_frame(&mut stream).is_none(),
        "connection must close after an oversized frame"
    );

    shutdown();
}

#[test]
fn zero_length_frame_gets_parse_error_and_connection_survives() {
    let (_engine, addr, shutdown) = spawn_server();

    let mut stream = connect_binary(addr);
    stream.write_all(&0u32.to_le_bytes()).expect("empty frame");
    let payload = read_frame(&mut stream).expect("server answers");
    let response = decode_response(&payload).expect("error decodes");
    assert_eq!(error_code(&response), "parse_error");

    // the connection is still usable: a real request works afterwards
    let open = roundtrip(&mut stream, &Request::Open { checker: None }, 9);
    assert_ok(&open);

    shutdown();
}

#[test]
fn json_payload_inside_binary_frame_is_not_reinterpreted() {
    let (_engine, addr, shutdown) = spawn_server();

    let mut stream = connect_binary(addr);
    // a perfectly valid JSON request line, framed as binary payload: the
    // sticky codec must reject it through the binary decoder — its `{`
    // reads as envelope version byte 123 — not fall back to the JSON
    // parser (which would happily answer `ok:true` with a session)
    let line = br#"{"op":"open","v":1}"#;
    let mut frame = (line.len() as u32).to_le_bytes().to_vec();
    frame.extend_from_slice(line);
    stream.write_all(&frame).expect("write frame");
    let payload = read_frame(&mut stream).expect("server answers");
    let response = decode_response(&payload).expect("error decodes");
    assert_eq!(error_code(&response), "unsupported_version");

    // and the codec stays binary: the next binary frame still works
    let open = roundtrip(&mut stream, &Request::Open { checker: None }, 11);
    assert_ok(&open);

    shutdown();
}
