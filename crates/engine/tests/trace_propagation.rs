//! End-to-end tests for wire trace-id propagation: the optional `trace`
//! envelope field is echoed verbatim on every response, generated when
//! absent, inherited by `batch` sub-responses, and — with tracing
//! enabled — stitches the server's flight-recorder spans to the request
//! that caused them.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use scrutinizer_core::{OrderingStrategy, SystemConfig};
use scrutinizer_corpus::{Corpus, CorpusConfig};
use scrutinizer_engine::engine::{Engine, EngineOptions};
use scrutinizer_engine::protocol::Json;
use scrutinizer_engine::server::{Server, ServerHandle, ServerOptions};
use scrutinizer_obs as obs;

fn cheap_engine() -> Arc<Engine> {
    Engine::new(
        Corpus::generate(CorpusConfig::small()),
        SystemConfig::test(),
        EngineOptions {
            retrain_interval: None,
            ordering: OrderingStrategy::Sequential,
        },
    )
}

fn spawn_server(
    engine: &Arc<Engine>,
) -> (SocketAddr, ServerHandle, JoinHandle<std::io::Result<()>>) {
    let server = Server::bind(Arc::clone(engine), "127.0.0.1:0", ServerOptions::default())
        .expect("bind loopback");
    let addr = server.local_addr().expect("bound address");
    let handle = server.handle();
    let join = std::thread::spawn(move || server.run());
    (addr, handle, join)
}

fn connect(addr: SocketAddr) -> (TcpStream, BufReader<TcpStream>) {
    let stream = TcpStream::connect(addr).expect("connect to server");
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .expect("read timeout");
    let reader = BufReader::new(stream.try_clone().expect("clone stream"));
    (stream, reader)
}

fn read_json(reader: &mut BufReader<TcpStream>) -> Json {
    let mut line = String::new();
    reader.read_line(&mut line).expect("read response");
    Json::parse(line.trim()).expect("response is JSON")
}

fn trace_of(response: &Json) -> String {
    response
        .get("trace")
        .and_then(Json::as_str)
        .expect("every response carries a trace id")
        .to_string()
}

#[test]
fn trace_is_echoed_verbatim_and_generated_when_absent() {
    let engine = cheap_engine();
    let (addr, handle, join) = spawn_server(&engine);
    let (mut stream, mut reader) = connect(addr);

    // one pipelined burst: a wire-format trace, no trace at all, and an
    // arbitrary client-chosen (non-hex) trace
    let blob = concat!(
        r#"{"op":"stats","id":0,"trace":"cafebabecafebabe"}"#,
        "\n",
        r#"{"op":"stats","id":1}"#,
        "\n",
        r#"{"op":"stats","id":2,"trace":"my custom trace!"}"#,
        "\n",
    );
    stream.write_all(blob.as_bytes()).expect("write pipeline");

    let first = read_json(&mut reader);
    assert_eq!(first.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(first.get("id").and_then(Json::as_usize), Some(0));
    assert_eq!(trace_of(&first), "cafebabecafebabe", "echoed verbatim");

    let second = read_json(&mut reader);
    assert_eq!(second.get("id").and_then(Json::as_usize), Some(1));
    let generated = trace_of(&second);
    assert_eq!(generated.len(), 16, "generated ids are 16 hex digits");
    assert!(generated.bytes().all(|b| b.is_ascii_hexdigit()));

    let third = read_json(&mut reader);
    assert_eq!(third.get("id").and_then(Json::as_usize), Some(2));
    assert_eq!(
        trace_of(&third),
        "my custom trace!",
        "client-chosen ids are echoed verbatim even when not hex"
    );

    // malformed input: the structured parse error still carries a trace
    writeln!(stream, "this is not json").expect("write garbage");
    let error = read_json(&mut reader);
    assert_eq!(error.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(
        error.get("code").and_then(Json::as_str),
        Some("parse_error")
    );
    assert_eq!(trace_of(&error).len(), 16);

    drop((stream, reader));
    handle.shutdown();
    join.join().expect("server thread").expect("clean shutdown");
}

#[test]
fn batch_items_inherit_the_envelope_trace_unless_they_set_their_own() {
    let engine = cheap_engine();
    let (addr, handle, join) = spawn_server(&engine);
    let (mut stream, mut reader) = connect(addr);

    let batch = concat!(
        r#"{"op":"batch","trace":"deadbeef00000001","requests":"#,
        r#"[{"op":"stats"},{"op":"stats","trace":"1111111111111111"}]}"#,
    );
    writeln!(stream, "{batch}").expect("write batch");
    let response = read_json(&mut reader);
    assert_eq!(response.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(trace_of(&response), "deadbeef00000001");
    let results = response.get("results").and_then(Json::as_arr).unwrap();
    assert_eq!(results.len(), 2);
    assert_eq!(
        trace_of(&results[0]),
        "deadbeef00000001",
        "sub-responses inherit the envelope trace"
    );
    assert_eq!(
        trace_of(&results[1]),
        "1111111111111111",
        "a sub-request's own trace wins over the inherited one"
    );

    drop((stream, reader));
    handle.shutdown();
    join.join().expect("server thread").expect("clean shutdown");
}

#[test]
fn flight_recorder_spans_carry_the_wire_trace() {
    let engine = cheap_engine();
    let (addr, handle, join) = spawn_server(&engine);
    obs::set_tracing(true);
    let (mut stream, mut reader) = connect(addr);

    // a fresh process-unique id so concurrent tests' records can't alias
    let wire = obs::TraceId::generate().to_wire();
    writeln!(stream, r#"{{"op":"stats","trace":"{wire}"}}"#).expect("write request");
    let response = read_json(&mut reader);
    assert_eq!(response.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(trace_of(&response), wire);

    // the response was rendered, so the request's spans have closed and
    // landed in the flight recorder under the same trace id
    let trace = obs::TraceId::from_wire(&wire);
    let records = obs::snapshot_records();
    let names: Vec<&str> = records
        .iter()
        .filter(|record| record.trace == trace)
        .map(|record| record.name)
        .collect();
    assert!(
        names.contains(&"server.request"),
        "missing root span; got {names:?}"
    );
    assert!(
        names.contains(&"dispatch"),
        "missing dispatch child span; got {names:?}"
    );
    obs::set_tracing(false);

    drop((stream, reader));
    handle.shutdown();
    join.join().expect("server thread").expect("clean shutdown");
}
