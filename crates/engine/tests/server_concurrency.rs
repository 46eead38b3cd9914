//! Integration tests for the thread-per-connection server: many
//! concurrent connections, per-connection pipelining with `id` matching,
//! the `workers` cap on concurrent execution, the `batch` op over real
//! TCP, backpressure, connection limits, oversized-line handling, and
//! graceful shutdown of busy, idle and mid-line connections. No test
//! opens more than ~100 connections, since each is a server thread.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Barrier};
use std::thread::JoinHandle;
use std::time::Duration;

use scrutinizer_core::{OrderingStrategy, SystemConfig};
use scrutinizer_corpus::{Corpus, CorpusConfig};
use scrutinizer_engine::engine::{Engine, EngineOptions};
use scrutinizer_engine::protocol::Json;
use scrutinizer_engine::server::{Server, ServerHandle, ServerOptions};

/// Cheap engine: the ops these tests exercise (open/close/sql/stats/
/// batch) never need trained classifiers.
fn cheap_engine() -> Arc<Engine> {
    Engine::new(
        Corpus::generate(CorpusConfig::small()),
        SystemConfig::test(),
        EngineOptions {
            retrain_interval: None,
            ordering: OrderingStrategy::Sequential,
            ..EngineOptions::default()
        },
    )
}

fn spawn_server(
    engine: &Arc<Engine>,
    options: ServerOptions,
) -> (SocketAddr, ServerHandle, JoinHandle<std::io::Result<()>>) {
    let server = Server::bind(Arc::clone(engine), "127.0.0.1:0", options).expect("bind loopback");
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

fn roundtrip(stream: &mut TcpStream, reader: &mut BufReader<TcpStream>, line: &str) -> Json {
    writeln!(stream, "{line}").expect("write request");
    let mut response = String::new();
    reader.read_line(&mut response).expect("read response");
    Json::parse(response.trim()).expect("response is JSON")
}

/// Conservation invariant of the request counters: every response line
/// the server ever rendered was counted exactly once, as a success or as
/// exactly one error code.
fn assert_requests_conserved(engine: &Engine) {
    let stats = engine.stats();
    assert!(
        stats.requests_are_conserved(),
        "requests_total {} != requests_ok {} + wire errors {}",
        stats.requests_total.get(),
        stats.requests_ok.get(),
        stats.wire_errors_total()
    );
}

#[test]
fn sustains_64_concurrent_connections() {
    const CLIENTS: usize = 64;
    let engine = cheap_engine();
    let (addr, handle, join) = spawn_server(&engine, ServerOptions::default());

    // every client opens a session and holds its connection at a barrier
    // until all CLIENTS + the observer have been counted
    let connected = Arc::new(Barrier::new(CLIENTS + 1));
    let release = Arc::new(Barrier::new(CLIENTS + 1));
    let clients: Vec<_> = (0..CLIENTS)
        .map(|i| {
            let connected = Arc::clone(&connected);
            let release = Arc::clone(&release);
            std::thread::spawn(move || {
                let (mut stream, mut reader) = connect(addr);
                let response = roundtrip(
                    &mut stream,
                    &mut reader,
                    &format!(r#"{{"op":"open","checker":"c{i}","id":{i}}}"#),
                );
                assert_eq!(response.get("ok").and_then(Json::as_bool), Some(true));
                assert_eq!(response.get("id").and_then(Json::as_usize), Some(i));
                let session = response.get("session").and_then(Json::as_usize).unwrap();
                connected.wait();
                release.wait();
                let closed = roundtrip(
                    &mut stream,
                    &mut reader,
                    &format!(r#"{{"op":"close","session":{session}}}"#),
                );
                assert_eq!(closed.get("ok").and_then(Json::as_bool), Some(true));
            })
        })
        .collect();
    connected.wait();

    // all 64 responded, so all 64 are registered; a 65th connection
    // observes them through the stats op
    let (mut stream, mut reader) = connect(addr);
    let stats = roundtrip(&mut stream, &mut reader, r#"{"op":"stats"}"#);
    let stats = stats.get("stats").expect("stats payload");
    assert_eq!(
        stats.get("connections_open").and_then(Json::as_usize),
        Some(CLIENTS + 1),
        "the server must sustain all concurrent connections"
    );
    assert_eq!(
        stats.get("sessions_opened").and_then(Json::as_usize),
        Some(CLIENTS)
    );

    release.wait();
    for client in clients {
        client.join().expect("client thread");
    }
    drop((stream, reader));
    handle.shutdown();
    join.join().expect("server thread").expect("clean shutdown");
    assert_eq!(
        engine.stats().connections_open.get(),
        0,
        "every connection must be unregistered after shutdown"
    );
    assert_eq!(engine.stats().requests_in_flight.get(), 0);
    assert_requests_conserved(&engine);
}

#[test]
fn pipelined_requests_are_answered_in_order_and_matched_by_id() {
    const DEPTH: usize = 24;
    let engine = cheap_engine();
    // expected values straight from the engine, bypassing the wire
    let queries: Vec<String> = (0..DEPTH)
        .map(|i| {
            let lookup = &engine.corpus().claims[i].lookups[0];
            format!(
                "SELECT a.{} FROM {} a WHERE a.Index = '{}'",
                lookup.attribute, lookup.relation, lookup.key
            )
        })
        .collect();
    let expected: Vec<Result<f64, ()>> = queries
        .iter()
        .map(|q| engine.run_sql(q).map_err(|_| ()))
        .collect();

    let (addr, handle, join) = spawn_server(&engine, ServerOptions::default());
    let (mut stream, mut reader) = connect(addr);

    // one write carries the whole pipeline; no waiting between requests
    let mut blob = String::new();
    for (i, query) in queries.iter().enumerate() {
        let line = Json::Obj(vec![
            ("op".into(), Json::Str("sql".into())),
            ("v".into(), Json::Num(1.0)),
            ("id".into(), Json::Num(i as f64)),
            ("query".into(), Json::Str(query.clone())),
        ])
        .render();
        blob.push_str(&line);
        blob.push('\n');
    }
    stream.write_all(blob.as_bytes()).expect("write pipeline");

    let mut seen = Vec::new();
    for _ in 0..DEPTH {
        let mut response = String::new();
        reader.read_line(&mut response).expect("read response");
        let parsed = Json::parse(response.trim()).expect("response is JSON");
        let id = parsed.get("id").and_then(Json::as_usize).expect("id echo");
        match &expected[id] {
            Ok(value) => {
                assert_eq!(parsed.get("ok").and_then(Json::as_bool), Some(true));
                assert_eq!(
                    parsed.get("value").and_then(Json::as_f64),
                    Some(*value),
                    "pipelined value diverged for request {id}"
                );
            }
            Err(()) => {
                assert_eq!(parsed.get("ok").and_then(Json::as_bool), Some(false));
            }
        }
        seen.push(id);
    }
    // one connection executes in order, so the echoes arrive in order —
    // and the server observed a real pipeline, not one-at-a-time
    assert_eq!(seen, (0..DEPTH).collect::<Vec<_>>());
    assert!(
        engine.stats().pipeline_depth.get() >= 2,
        "pipeline depth high-water {} never exceeded 1",
        engine.stats().pipeline_depth.get()
    );

    handle.shutdown();
    join.join().expect("server thread").expect("clean shutdown");
    assert_requests_conserved(&engine);
}

#[test]
fn batch_op_round_trips_over_tcp() {
    let engine = cheap_engine();
    let lookup = &engine.corpus().claims[0].lookups[0];
    let sql = format!(
        "SELECT a.{} FROM {} a WHERE a.Index = '{}'",
        lookup.attribute, lookup.relation, lookup.key
    );
    let expected = engine.run_sql(&sql).expect("lookup evaluates");

    let (addr, handle, join) = spawn_server(&engine, ServerOptions::default());
    let (mut stream, mut reader) = connect(addr);
    let batch = Json::Obj(vec![
        ("op".into(), Json::Str("batch".into())),
        ("id".into(), Json::Str("b1".into())),
        (
            "requests".into(),
            Json::Arr(vec![
                Json::parse(r#"{"op":"open","checker":"batch","id":0}"#).unwrap(),
                Json::Obj(vec![
                    ("op".into(), Json::Str("sql".into())),
                    ("id".into(), Json::Num(1.0)),
                    ("query".into(), Json::Str(sql)),
                ]),
                Json::parse(r#"{"op":"close","session":1,"id":2}"#).unwrap(),
                Json::parse(r#"{"op":"close","session":1,"id":3}"#).unwrap(),
            ]),
        ),
    ])
    .render();
    let response = roundtrip(&mut stream, &mut reader, &batch);
    assert_eq!(response.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(response.get("id").and_then(Json::as_str), Some("b1"));
    let results = response.get("results").and_then(Json::as_arr).unwrap();
    assert_eq!(results.len(), 4);
    assert_eq!(results[0].get("session").and_then(Json::as_usize), Some(1));
    assert_eq!(
        results[1].get("value").and_then(Json::as_f64),
        Some(expected)
    );
    assert_eq!(results[2].get("ok").and_then(Json::as_bool), Some(true));
    // the second close fails with its own code without aborting the batch
    assert_eq!(results[3].get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(
        results[3].get("code").and_then(Json::as_str),
        Some("unknown_session")
    );

    handle.shutdown();
    join.join().expect("server thread").expect("clean shutdown");
    // the four sub-responses (one of them an error) and the batch
    // envelope are all individually conserved
    let stats = engine.stats();
    assert_eq!(stats.requests_total.get(), 5);
    assert_eq!(stats.requests_ok.get(), 4);
    assert_eq!(stats.wire_errors_total(), 1);
    assert_requests_conserved(&engine);
}

#[test]
fn backpressure_bounds_buffers_without_losing_responses() {
    const REQUESTS: usize = 40;
    let engine = cheap_engine();
    // tiny limits: a handful of stats responses overflows the write
    // buffer, and the pipeline cap pauses reading long before 40 lines
    let (addr, handle, join) = spawn_server(
        &engine,
        ServerOptions {
            write_buffer_limit: 2048,
            max_pipeline: 4,
            ..ServerOptions::default()
        },
    );
    let (mut stream, mut reader) = connect(addr);
    let mut blob = String::new();
    for i in 0..REQUESTS {
        blob.push_str(&format!(r#"{{"op":"stats","id":{i}}}"#));
        blob.push('\n');
    }
    stream.write_all(blob.as_bytes()).expect("write pipeline");
    // do not read yet: the server must park on its bounded buffers
    std::thread::sleep(Duration::from_millis(100));
    let mut ids = Vec::new();
    for _ in 0..REQUESTS {
        let mut response = String::new();
        reader.read_line(&mut response).expect("read response");
        let parsed = Json::parse(response.trim()).expect("response is JSON");
        assert_eq!(parsed.get("ok").and_then(Json::as_bool), Some(true));
        ids.push(parsed.get("id").and_then(Json::as_usize).unwrap());
    }
    assert_eq!(
        ids,
        (0..REQUESTS).collect::<Vec<_>>(),
        "backpressure must delay, never drop or reorder"
    );

    handle.shutdown();
    join.join().expect("server thread").expect("clean shutdown");
    assert_requests_conserved(&engine);
}

#[test]
fn connection_limit_rejects_with_overloaded() {
    let engine = cheap_engine();
    let (addr, handle, join) = spawn_server(
        &engine,
        ServerOptions {
            max_connections: 2,
            ..ServerOptions::default()
        },
    );
    // two registered connections (confirmed by their responses)
    let (mut s1, mut r1) = connect(addr);
    let (mut s2, mut r2) = connect(addr);
    assert_eq!(
        roundtrip(&mut s1, &mut r1, r#"{"op":"stats"}"#)
            .get("ok")
            .and_then(Json::as_bool),
        Some(true)
    );
    assert_eq!(
        roundtrip(&mut s2, &mut r2, r#"{"op":"stats"}"#)
            .get("ok")
            .and_then(Json::as_bool),
        Some(true)
    );
    // the third is answered with a structured overloaded line and closed
    let (_s3, mut r3) = connect(addr);
    let mut line = String::new();
    r3.read_line(&mut line).expect("rejection line");
    let rejected = Json::parse(line.trim()).expect("rejection is JSON");
    assert_eq!(rejected.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(
        rejected.get("code").and_then(Json::as_str),
        Some("overloaded")
    );
    let mut rest = String::new();
    assert_eq!(r3.read_line(&mut rest).expect("EOF after rejection"), 0);
    assert!(engine.stats().wire_errors_total() >= 1);

    drop((s1, r1, s2, r2));
    handle.shutdown();
    join.join().expect("server thread").expect("clean shutdown");
    // the rejection line is an emitted response too, so it conserves
    assert_requests_conserved(&engine);
}

#[test]
fn oversized_lines_answer_parse_error_and_close() {
    let engine = cheap_engine();
    let (addr, handle, join) = spawn_server(
        &engine,
        ServerOptions {
            max_line_bytes: 1024,
            ..ServerOptions::default()
        },
    );
    let (mut stream, mut reader) = connect(addr);
    let oversized = vec![b'a'; 4096];
    stream.write_all(&oversized).expect("write oversized line");
    stream.flush().expect("flush");
    let mut line = String::new();
    reader.read_line(&mut line).expect("error line");
    let parsed = Json::parse(line.trim()).expect("error is JSON");
    assert_eq!(parsed.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(
        parsed.get("code").and_then(Json::as_str),
        Some("parse_error")
    );
    let mut rest = String::new();
    assert_eq!(
        reader.read_line(&mut rest).expect("EOF after error"),
        0,
        "an unresynchronizable connection must close"
    );

    handle.shutdown();
    join.join().expect("server thread").expect("clean shutdown");
    assert_requests_conserved(&engine);
}

#[test]
fn final_line_without_trailing_newline_is_answered_at_eof() {
    let engine = cheap_engine();
    let (addr, handle, join) = spawn_server(&engine, ServerOptions::default());
    let (mut stream, mut reader) = connect(addr);
    // the pre-v1 server (BufRead::lines) answered a final unterminated
    // request; clients like `printf '%s' ... | nc` depend on it
    stream
        .write_all(br#"{"op":"stats","id":"tail"}"#)
        .expect("write unterminated request");
    stream
        .shutdown(std::net::Shutdown::Write)
        .expect("half-close");
    let mut response = String::new();
    reader.read_line(&mut response).expect("read response");
    let parsed = Json::parse(response.trim()).expect("response is JSON");
    assert_eq!(parsed.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(parsed.get("id").and_then(Json::as_str), Some("tail"));
    let mut rest = String::new();
    assert_eq!(reader.read_line(&mut rest).expect("EOF after drain"), 0);

    handle.shutdown();
    join.join().expect("server thread").expect("clean shutdown");
}

#[test]
fn pipeline_cap_bounds_queue_depth() {
    const REQUESTS: usize = 200;
    const CAP: usize = 8;
    let engine = cheap_engine();
    let (addr, handle, join) = spawn_server(
        &engine,
        ServerOptions {
            max_pipeline: CAP,
            ..ServerOptions::default()
        },
    );
    let (mut stream, mut reader) = connect(addr);
    // one burst far beyond the cap: the server may only ever hold CAP
    // queued lines (plus one in flight); the rest waits in buffers
    let mut blob = String::new();
    for i in 0..REQUESTS {
        blob.push_str(&format!(r#"{{"op":"stats","id":{i}}}"#));
        blob.push('\n');
    }
    stream.write_all(blob.as_bytes()).expect("write burst");
    for i in 0..REQUESTS {
        let mut response = String::new();
        reader.read_line(&mut response).expect("read response");
        let parsed = Json::parse(response.trim()).expect("response is JSON");
        assert_eq!(parsed.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(parsed.get("id").and_then(Json::as_usize), Some(i));
    }
    let depth = engine.stats().pipeline_depth.get();
    assert!(
        depth as usize <= CAP + 1,
        "queue depth {depth} overshot the pipeline cap {CAP}"
    );
    assert!(depth >= 2, "the burst never actually pipelined");

    handle.shutdown();
    join.join().expect("server thread").expect("clean shutdown");
    assert_requests_conserved(&engine);
}

#[test]
fn shutdown_grace_force_closes_clients_that_stop_reading() {
    const REQUESTS: usize = 4000;
    let engine = cheap_engine();
    let (addr, handle, join) = spawn_server(
        &engine,
        ServerOptions {
            shutdown_grace: Duration::from_millis(300),
            ..ServerOptions::default()
        },
    );
    let (mut stream, _reader) = connect(addr);
    // ~7 MB of stats responses against a client that never reads: socket
    // buffers fill, the write buffer wedges, the connection never drains
    let mut blob = String::new();
    for i in 0..REQUESTS {
        blob.push_str(&format!(r#"{{"op":"stats","id":{i}}}"#));
        blob.push('\n');
    }
    stream.write_all(blob.as_bytes()).expect("write burst");
    std::thread::sleep(Duration::from_millis(700));

    let asked = std::time::Instant::now();
    handle.shutdown();
    join.join().expect("server thread").expect("clean shutdown");
    assert!(
        asked.elapsed() < Duration::from_secs(4),
        "shutdown must force-close a non-draining client after the grace \
         period, not wait on it forever (took {:?})",
        asked.elapsed()
    );
    assert_eq!(engine.stats().connections_open.get(), 0);
}

#[test]
fn graceful_shutdown_drains_and_returns() {
    let engine = cheap_engine();
    let (addr, handle, join) = spawn_server(&engine, ServerOptions::default());
    let (mut stream, mut reader) = connect(addr);
    let response = roundtrip(&mut stream, &mut reader, r#"{"op":"stats","id":"last"}"#);
    assert_eq!(response.get("ok").and_then(Json::as_bool), Some(true));

    handle.shutdown();
    // the server closes the drained connection and exits cleanly
    let mut rest = String::new();
    assert_eq!(reader.read_line(&mut rest).expect("EOF on shutdown"), 0);
    join.join().expect("server thread").expect("clean shutdown");
    assert_eq!(engine.stats().connections_open.get(), 0);
    assert_requests_conserved(&engine);

    // new connections are refused once the listener is gone
    assert!(
        TcpStream::connect(addr).is_err()
            || TcpStream::connect(addr)
                .and_then(|mut s| { s.write_all(b"{\"op\":\"stats\"}\n") })
                .is_err()
            || {
                // the OS may accept briefly into a backlog; reading must fail
                let (mut s, mut r) = connect(addr);
                let _ = writeln!(s, "{{\"op\":\"stats\"}}");
                let mut buf = String::new();
                r.read_line(&mut buf).map(|n| n == 0).unwrap_or(true)
            }
    );
}

#[test]
fn shutdown_wakes_idle_and_mid_line_connections() {
    let engine = cheap_engine();
    // a grace far beyond the assertion below: only waking the parked
    // connection threads, never the force-close, can make `run` return
    let (addr, handle, join) = spawn_server(
        &engine,
        ServerOptions {
            shutdown_grace: Duration::from_secs(60),
            ..ServerOptions::default()
        },
    );
    let (_silent, mut silent_reader) = connect(addr);
    let (mut partial, mut partial_reader) = connect(addr);
    partial
        .write_all(br#"{"op":"stats","id":"#)
        .expect("write half a line");
    // accepts are FIFO, so both are registered once this one is answered
    let (mut observer, mut observer_reader) = connect(addr);
    let stats = roundtrip(&mut observer, &mut observer_reader, r#"{"op":"stats"}"#);
    assert_eq!(
        stats
            .get("stats")
            .and_then(|s| s.get("connections_open"))
            .and_then(Json::as_usize),
        Some(3)
    );

    let asked = std::time::Instant::now();
    handle.shutdown();
    join.join().expect("server thread").expect("clean shutdown");
    assert!(
        asked.elapsed() < Duration::from_secs(3),
        "shutdown must wake parked connections, not wait out the grace (took {:?})",
        asked.elapsed()
    );
    assert_eq!(engine.stats().connections_open.get(), 0);
    // both parked clients see an orderly close, and the half line was
    // never answered
    let mut rest = String::new();
    assert_eq!(silent_reader.read_line(&mut rest).expect("EOF"), 0);
    assert_eq!(partial_reader.read_line(&mut rest).expect("EOF"), 0);
    assert_requests_conserved(&engine);
}

#[test]
fn one_worker_serves_two_pipelining_connections_in_order() {
    const DEPTH: usize = 40;
    let engine = cheap_engine();
    let queries: Vec<String> = (0..DEPTH)
        .map(|i| {
            let lookup = &engine.corpus().claims[i].lookups[0];
            format!(
                "SELECT a.{} FROM {} a WHERE a.Index = '{}'",
                lookup.attribute, lookup.relation, lookup.key
            )
        })
        .collect();
    let expected: Vec<f64> = queries
        .iter()
        .map(|q| engine.run_sql(q).expect("lookup evaluates"))
        .collect();
    let (addr, handle, join) = spawn_server(
        &engine,
        ServerOptions {
            workers: 1,
            ..ServerOptions::default()
        },
    );

    let start = Arc::new(Barrier::new(2));
    let clients: Vec<_> = (0..2)
        .map(|client| {
            let start = Arc::clone(&start);
            let queries = queries.clone();
            let expected = expected.clone();
            std::thread::spawn(move || {
                let (mut stream, mut reader) = connect(addr);
                let mut blob = String::new();
                for (i, query) in queries.iter().enumerate() {
                    let line = Json::Obj(vec![
                        ("op".into(), Json::Str("sql".into())),
                        ("id".into(), Json::Num((client * DEPTH + i) as f64)),
                        ("query".into(), Json::Str(query.clone())),
                    ])
                    .render();
                    blob.push_str(&line);
                    blob.push('\n');
                }
                start.wait();
                stream.write_all(blob.as_bytes()).expect("write pipeline");
                for (i, value) in expected.iter().enumerate() {
                    let mut response = String::new();
                    reader.read_line(&mut response).expect("read response");
                    let parsed = Json::parse(response.trim()).expect("response is JSON");
                    assert_eq!(parsed.get("ok").and_then(Json::as_bool), Some(true));
                    assert_eq!(
                        parsed.get("id").and_then(Json::as_usize),
                        Some(client * DEPTH + i),
                        "responses arrive in request order on each connection"
                    );
                    assert_eq!(parsed.get("value").and_then(Json::as_f64), Some(*value));
                }
            })
        })
        .collect();
    for client in clients {
        client.join().expect("client thread");
    }

    handle.shutdown();
    join.join().expect("server thread").expect("clean shutdown");
    let stats = engine.stats();
    assert_eq!(stats.requests_ok.get(), 2 * DEPTH as u64);
    assert_eq!(stats.requests_in_flight.get(), 0);
    assert_eq!(stats.connections_open.get(), 0);
    assert_requests_conserved(&engine);
}
