//! Wire-protocol throughput over the real TCP server on loopback.
//!
//! Two axes are measured on one shared port:
//!
//! * **batching** — the same 32-raw-SQL workload driven `sequential`
//!   (one request per round trip), `pipelined` (all lines in flight at
//!   once), and `batch_op` (one `batch` request). Pipelining or the
//!   batch op must beat the sequential baseline by ≥ 1.5×: with each
//!   connection's thread woken by its socket, a sequential round trip
//!   costs ~35–43 µs on a 2-core box, so what the floor guards is the
//!   per-request wake-up and syscall cost that pipelining and the batch
//!   op amortize (losing it reads ~1×).
//! * **codec** — the same 32-suggest pipelined workload driven over
//!   JSON lines and over the `0x00`-negotiated binary framing, both
//!   over loopback TCP (end-to-end numbers) and through the production
//!   per-connection step on the in-memory transport (`step_conn` +
//!   `handle_payload`, the codec-bound measurement). On the latter the
//!   binary codec must beat JSON by ≥ 2×, and the warm binary suggest
//!   path must make **zero** per-request heap allocations (proved by
//!   the [`CountingAllocator`] global-allocator shim).
//!
//! Every mode must produce byte-for-byte the values the engine computes
//! in-process, and the two codecs must be byte-level interchangeable:
//! for the same request/id/trace, [`codec::decode_response`] on the
//! binary frame renders exactly the JSON line — parity is asserted
//! before anything is timed. `--quick` smoke-runs parity, negotiation,
//! and the allocation invariant without the timing floors.

use std::convert::Infallible;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, Criterion};
use scrutinizer_bench::{allocations, CountingAllocator};
use scrutinizer_core::{OrderingStrategy, PropertyKind, SystemConfig};
use scrutinizer_corpus::{Corpus, CorpusConfig};
use scrutinizer_engine::engine::{Engine, EngineOptions};
use scrutinizer_engine::protocol::{handle_payload, Json};
use scrutinizer_engine::server::{Server, ServerOptions};
use scrutinizer_engine::{codec, step_conn, wire, ConnState, Request, ServiceLimits, BINARY_MAGIC};
use scrutinizer_obs as obs;
use scrutinizer_sim::{sim_pair, SimEndpoint, SimStream};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

const REQUESTS: usize = 32;

fn quick_mode() -> bool {
    std::env::args().any(|a| a == "--quick" || a == "--test")
}

struct Wire {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Wire {
    fn connect(addr: SocketAddr) -> Wire {
        let stream = TcpStream::connect(addr).expect("connect to bench server");
        // a fair baseline: without NODELAY, Nagle + delayed ACK charge the
        // sequential client ~40ms per round trip and flatter the pipeline
        stream.set_nodelay(true).expect("nodelay");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("read timeout");
        let reader = BufReader::new(stream.try_clone().expect("clone stream"));
        Wire { stream, reader }
    }

    fn read_raw(&mut self) -> String {
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("read response");
        line.truncate(line.trim_end().len());
        line
    }

    fn read_json(&mut self) -> Json {
        Json::parse(&self.read_raw()).expect("response is JSON")
    }
}

/// A client on the binary codec: the `0x00` magic byte at connect, then
/// length-prefixed frames both ways.
struct BinWire {
    stream: TcpStream,
    /// Accumulated unread response bytes (partial trailing frame).
    recv: Vec<u8>,
    /// Reusable request-encoding buffer.
    send: Vec<u8>,
}

impl BinWire {
    fn connect(addr: SocketAddr) -> BinWire {
        let mut stream = TcpStream::connect(addr).expect("connect to bench server");
        stream.set_nodelay(true).expect("nodelay");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("read timeout");
        stream
            .write_all(&[BINARY_MAGIC])
            .expect("negotiate binary codec");
        BinWire {
            stream,
            recv: Vec::new(),
            send: Vec::new(),
        }
    }

    /// Reads exactly `n` response frames, handing each payload to `each`.
    fn read_frames(&mut self, n: usize, mut each: impl FnMut(&[u8])) {
        let mut scratch = [0u8; 16 * 1024];
        let mut seen = 0usize;
        let mut start = 0usize;
        while seen < n {
            while seen < n {
                match wire::split_frame(&self.recv[start..]) {
                    Some((payload, used)) => {
                        each(payload);
                        start += used;
                        seen += 1;
                    }
                    None => break,
                }
            }
            if seen == n {
                break;
            }
            let read = self.stream.read(&mut scratch).expect("read frames");
            assert!(read > 0, "server closed mid-pipeline");
            self.recv.extend_from_slice(&scratch[..read]);
        }
        self.recv.drain(..start);
    }
}

/// The production per-connection step over the in-memory transport:
/// the exact `step_conn` → `handle_payload` pass each TCP connection
/// thread runs, minus kernel sockets — so a round measures codec,
/// framing, and dispatch cost rather than scheduler noise. This is where
/// the binary-vs-JSON floor is asserted; the loopback TCP drivers above
/// it keep the end-to-end numbers honest.
struct SimServer {
    engine: Arc<Engine>,
    conn: ConnState<SimStream>,
    client: SimEndpoint,
    limits: ServiceLimits,
    /// Reused request-encoding buffer (the client-side scratch).
    send: Vec<u8>,
}

impl SimServer {
    fn new(engine: &Arc<Engine>, binary: bool) -> SimServer {
        let (server, client) = sim_pair();
        let harness = SimServer {
            engine: Arc::clone(engine),
            conn: ConnState::new(server),
            client,
            limits: ServiceLimits {
                max_line_bytes: 1 << 20,
                write_buffer_limit: 1 << 20,
                max_pipeline: 128,
            },
            send: Vec::new(),
        };
        if binary {
            harness.client.send(&[BINARY_MAGIC]);
        }
        harness
    }

    /// Steps the connection until it drains, exactly as its TCP thread
    /// does: flush, read, split, execute the queue, flush.
    fn pump(&mut self) {
        let engine = &self.engine;
        loop {
            let stepped = step_conn(
                &mut self.conn,
                &self.limits,
                false,
                engine.stats_ref(),
                |codec, payload, out| {
                    handle_payload(engine, codec, payload, out);
                    Ok::<(), Infallible>(())
                },
            );
            let Ok(moved) = stepped;
            if !moved {
                break;
            }
        }
        assert!(self.conn.idle(), "pipelined round drains completely");
    }
}

/// The 32-suggest pipelined workload through the in-process serving
/// loop, on whichever codec the harness negotiated. Returns the total
/// suggestions seen; every response is verified the way a real client
/// of that codec would (full JSON parse vs envelope check).
fn drive_suggest_sim(srv: &mut SimServer, session: u64, binary: bool) -> usize {
    srv.send.clear();
    for claim in 0..REQUESTS {
        if binary {
            wire::request_frame(
                &mut srv.send,
                &Request::Suggest { session, claim },
                Some(claim as u64),
                None,
            );
        } else {
            let line = json_line(&Request::Suggest { session, claim }, claim as u64, None);
            srv.send.extend_from_slice(line.as_bytes());
            srv.send.push(b'\n');
        }
    }
    srv.client.send(&srv.send);
    srv.pump();
    let bytes = srv.client.recv();
    let mut responses = 0usize;
    let mut seen = 0usize;
    if binary {
        let mut rest = &bytes[..];
        while let Some((payload, used)) = wire::split_frame(rest) {
            let (ok, id) = response_head(payload);
            assert!(ok, "suggest succeeds");
            id.expect("id echo");
            seen += payload.len();
            responses += 1;
            rest = &rest[used..];
        }
        assert!(rest.is_empty(), "responses are whole frames");
    } else {
        for line in bytes.split(|&b| b == b'\n').filter(|l| !l.is_empty()) {
            let response =
                Json::parse(std::str::from_utf8(line).expect("UTF-8")).expect("response is JSON");
            assert_eq!(response.get("ok").and_then(Json::as_bool), Some(true));
            response
                .get("id")
                .and_then(Json::as_usize)
                .expect("id echo");
            seen += response
                .get("suggestions")
                .and_then(Json::as_arr)
                .expect("suggestions")
                .len();
            responses += 1;
        }
    }
    assert_eq!(responses, REQUESTS, "one response per pipelined request");
    seen
}

/// Reads `ok` and the echoed id straight off a binary response envelope,
/// without decoding the body — the client-side counterpart of the
/// server's zero-copy decode.
fn response_head(payload: &[u8]) -> (bool, Option<u64>) {
    assert!(payload.len() >= 2, "response envelope");
    let ok = payload[0] == 1;
    let id = (payload[1] & codec::FLAG_HAS_ID != 0)
        .then(|| u64::from_le_bytes(payload[2..10].try_into().expect("id bytes")));
    (ok, id)
}

/// The JSON-lines form of `request` with the `id`/`trace` envelope the
/// binary codec carries natively.
fn json_line(request: &Request, id: u64, trace: Option<u64>) -> String {
    let mut value = request.to_json();
    let Json::Obj(fields) = &mut value else {
        unreachable!("requests encode as objects")
    };
    fields.push(("id".to_string(), Json::Num(id as f64)));
    if let Some(trace) = trace {
        fields.push(("trace".to_string(), Json::Str(format!("{trace:016x}"))));
    }
    value.render()
}

fn sql_request(query: &str) -> Request {
    Request::Sql {
        query: query.to_string(),
    }
}

/// One request per round trip: the latency-bound baseline.
fn drive_sequential(wire: &mut Wire, queries: &[String]) -> Vec<f64> {
    let mut values = vec![0.0; queries.len()];
    for (i, query) in queries.iter().enumerate() {
        writeln!(
            wire.stream,
            "{}",
            json_line(&sql_request(query), i as u64, None)
        )
        .expect("write request");
        let response = wire.read_json();
        assert_eq!(response.get("ok").and_then(Json::as_bool), Some(true));
        values[i] = response.get("value").and_then(Json::as_f64).expect("value");
    }
    values
}

/// Every line in flight at once; responses matched by echoed id.
fn drive_pipelined(wire: &mut Wire, queries: &[String]) -> Vec<f64> {
    let mut blob = String::new();
    for (i, query) in queries.iter().enumerate() {
        blob.push_str(&json_line(&sql_request(query), i as u64, None));
        blob.push('\n');
    }
    wire.stream
        .write_all(blob.as_bytes())
        .expect("write pipeline");
    let mut values = vec![0.0; queries.len()];
    for _ in 0..queries.len() {
        let response = wire.read_json();
        assert_eq!(response.get("ok").and_then(Json::as_bool), Some(true));
        let id = response
            .get("id")
            .and_then(Json::as_usize)
            .expect("id echo");
        values[id] = response.get("value").and_then(Json::as_f64).expect("value");
    }
    values
}

/// One `batch` op carrying the whole workload: one round trip.
fn drive_batch(wire: &mut Wire, queries: &[String]) -> Vec<f64> {
    let request = Json::Obj(vec![
        ("op".into(), Json::Str("batch".into())),
        (
            "requests".into(),
            Json::Arr(
                queries
                    .iter()
                    .enumerate()
                    .map(|(i, q)| {
                        Json::parse(&json_line(&sql_request(q), i as u64, None))
                            .expect("round-trips")
                    })
                    .collect(),
            ),
        ),
    ]);
    writeln!(wire.stream, "{}", request.render()).expect("write batch");
    let response = wire.read_json();
    assert_eq!(response.get("ok").and_then(Json::as_bool), Some(true));
    let results = response
        .get("results")
        .and_then(Json::as_arr)
        .expect("results");
    let mut values = vec![0.0; queries.len()];
    for item in results {
        assert_eq!(item.get("ok").and_then(Json::as_bool), Some(true));
        let id = item.get("id").and_then(Json::as_usize).expect("id echo");
        values[id] = item.get("value").and_then(Json::as_f64).expect("value");
    }
    values
}

/// All 32 suggests in flight at once over JSON lines; every response is
/// parsed and its suggestion count folded in (the canonical JSON client
/// cannot skip the parse).
fn drive_suggest_json(wire: &mut Wire, session: u64) -> usize {
    let mut blob = String::new();
    for claim in 0..REQUESTS {
        blob.push_str(&json_line(
            &Request::Suggest { session, claim },
            claim as u64,
            None,
        ));
        blob.push('\n');
    }
    wire.stream
        .write_all(blob.as_bytes())
        .expect("write pipeline");
    let mut suggestions = 0usize;
    for _ in 0..REQUESTS {
        let response = wire.read_json();
        assert_eq!(response.get("ok").and_then(Json::as_bool), Some(true));
        response
            .get("id")
            .and_then(Json::as_usize)
            .expect("id echo");
        suggestions += response
            .get("suggestions")
            .and_then(Json::as_arr)
            .expect("suggestions")
            .len();
    }
    suggestions
}

/// The same 32 suggests over binary frames: requests encoded into one
/// reused buffer, responses checked off the envelope without a tree
/// decode — the framing makes the cheap read legitimate (byte-level
/// parity with the JSON responses is asserted before timing).
fn drive_suggest_binary(wire: &mut BinWire, session: u64) -> usize {
    wire.send.clear();
    for claim in 0..REQUESTS {
        wire::request_frame(
            &mut wire.send,
            &Request::Suggest { session, claim },
            Some(claim as u64),
            None,
        );
    }
    wire.stream.write_all(&wire.send).expect("write pipeline");
    let mut bytes = 0usize;
    wire.read_frames(REQUESTS, |payload| {
        let (ok, id) = response_head(payload);
        assert!(ok, "suggest succeeds");
        id.expect("id echo");
        bytes += payload.len();
    });
    bytes
}

/// Byte-level codec parity: the same request with the same `id` and
/// `trace` over both codecs must yield responses that render to exactly
/// the same JSON text.
fn assert_codec_parity(json: &mut Wire, bin: &mut BinWire, request: &Request, id: u64, trace: u64) {
    writeln!(json.stream, "{}", json_line(request, id, Some(trace))).expect("write JSON request");
    let json_response = json.read_raw();

    bin.send.clear();
    wire::request_frame(&mut bin.send, request, Some(id), Some(trace));
    bin.stream
        .write_all(&bin.send)
        .expect("write binary request");
    let mut binary_rendered = String::new();
    bin.read_frames(1, |payload| {
        binary_rendered = codec::decode_response(payload)
            .expect("binary response decodes")
            .render();
    });
    assert_eq!(
        binary_rendered, json_response,
        "codecs must agree byte-for-byte on {request:?}"
    );
}

/// The zero-allocation invariant: after warmup, one in-process binary
/// suggest (decode → dispatch → cache-hit `Arc` clone → encode into the
/// reused write buffer) performs no heap allocation at all. Tracing is
/// disabled for the measurement, as a tuned serving deployment would run.
fn assert_zero_alloc_suggest(engine: &Arc<Engine>, session: u64) {
    let mut frame = Vec::new();
    wire::request_frame(
        &mut frame,
        &Request::Suggest { session, claim: 0 },
        Some(7),
        Some(0x5EED),
    );
    let payload = wire::split_frame(&frame).expect("complete frame").0;
    let mut out = Vec::new();
    obs::set_tracing(false);
    for _ in 0..64 {
        out.clear();
        wire::handle_frame(engine, payload, &mut out);
        let (ok, id) = response_head(wire::split_frame(&out).expect("response frame").0);
        assert!(ok && id == Some(7), "warmup suggest succeeds");
    }
    let rounds = 1024u64;
    let before = allocations();
    for _ in 0..rounds {
        out.clear();
        wire::handle_frame(engine, payload, &mut out);
    }
    let allocated = allocations() - before;
    obs::set_tracing(true);
    println!(
        "binary suggest hot path: {allocated} heap allocations over {rounds} warm requests \
         ({} response bytes each)",
        out.len(),
    );
    assert_eq!(
        allocated, 0,
        "the warm binary suggest path must not touch the heap \
         ({allocated} allocations over {rounds} requests)"
    );
}

fn median_secs(rounds: usize, mut routine: impl FnMut()) -> f64 {
    let mut samples: Vec<f64> = (0..rounds)
        .map(|_| {
            let start = Instant::now();
            routine();
            start.elapsed().as_secs_f64()
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    samples[samples.len() / 2]
}

fn bench_serve(c: &mut Criterion) {
    let engine = Engine::new(
        Corpus::generate(CorpusConfig::small()),
        SystemConfig::test(),
        EngineOptions {
            retrain_interval: None,
            ordering: OrderingStrategy::Sequential,
        },
    );
    let queries: Vec<String> = (0..REQUESTS)
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

    // the suggest workload: one session with the first 32 corpus claims
    // submitted and their property screens answered with ground truth, so
    // every suggest returns a real ranked candidate list; each claim task
    // memoizes its suggestion list (keyed by model epoch and screen
    // state), so the repeated rounds are codec-bound rather than
    // scoring-bound.
    let session = engine.open_session("serve-bench");
    engine
        .submit_report(session, &(0..REQUESTS).collect::<Vec<_>>())
        .expect("submit bench claims");
    for claim_id in 0..REQUESTS {
        let claim = &engine.corpus().claims[claim_id];
        let screens = engine.screens(session, claim_id).expect("screens").screens;
        for screen in screens {
            let truth = match screen.kind {
                PropertyKind::Relation => claim.relation.clone(),
                PropertyKind::Key => claim.key.clone(),
                PropertyKind::Attribute => claim.attributes[0].clone(),
                PropertyKind::Formula => unreachable!("formula has no screen"),
            };
            engine
                .post_answer(session, claim_id, screen.kind, &truth)
                .expect("answer screen");
        }
        let ranked = engine.suggest(session, claim_id).expect("suggest");
        assert!(!ranked.is_empty(), "claim {claim_id} yields suggestions");
    }

    // ---- the allocation invariant, measured in-process before the
    // server's worker threads add unrelated heap traffic ----
    assert_zero_alloc_suggest(&engine, session.0);

    let server = Server::bind(Arc::clone(&engine), "127.0.0.1:0", ServerOptions::default())
        .expect("bind loopback");
    let addr = server.local_addr().expect("bound address");
    let handle = server.handle();
    let server_thread = std::thread::spawn(move || server.run());

    // ---- parity before timing: every mode reproduces the in-process
    // values exactly, over its own connection ----
    let mut wire = Wire::connect(addr);
    assert_eq!(drive_sequential(&mut wire, &queries), expected);
    assert_eq!(drive_pipelined(&mut wire, &queries), expected);
    assert_eq!(drive_batch(&mut wire, &queries), expected);

    // ---- codec parity before timing: for identical id/trace envelopes
    // the binary response renders byte-for-byte as the JSON line, on
    // every workload shape ----
    let mut bin = BinWire::connect(addr);
    for (i, query) in queries.iter().enumerate() {
        assert_codec_parity(
            &mut wire,
            &mut bin,
            &sql_request(query),
            i as u64,
            0x1000 + i as u64,
        );
    }
    for claim in 0..REQUESTS {
        assert_codec_parity(
            &mut wire,
            &mut bin,
            &Request::Suggest {
                session: session.0,
                claim,
            },
            claim as u64,
            0x2000 + claim as u64,
        );
    }

    let mut group = c.benchmark_group("serve");
    group.sample_size(10);
    group.bench_function("sequential_roundtrips", |b| {
        b.iter(|| drive_sequential(&mut wire, &queries).len())
    });
    group.bench_function("pipelined", |b| {
        b.iter(|| drive_pipelined(&mut wire, &queries).len())
    });
    group.bench_function("batch_op", |b| {
        b.iter(|| drive_batch(&mut wire, &queries).len())
    });
    group.bench_function("suggest_json", |b| {
        b.iter(|| drive_suggest_json(&mut wire, session.0))
    });
    group.bench_function("suggest_binary", |b| {
        b.iter(|| drive_suggest_binary(&mut bin, session.0))
    });
    group.finish();

    let rounds = if quick_mode() { 1 } else { 7 };

    // ---- the wire-batching claim: pipelining or the batch op must beat
    // one-request-per-round-trip by ≥ 1.5× at equal results ----
    let sequential = median_secs(rounds, || {
        assert_eq!(drive_sequential(&mut wire, &queries), expected);
    });
    let pipelined = median_secs(rounds, || {
        assert_eq!(drive_pipelined(&mut wire, &queries), expected);
    });
    let batch = median_secs(rounds, || {
        assert_eq!(drive_batch(&mut wire, &queries), expected);
    });
    let best = pipelined.min(batch);
    println!(
        "serve throughput ({REQUESTS} sql requests/round): sequential {:.2}ms \
         ({:.1}µs per round trip), pipelined {:.2}ms ({:.1}x), batch op {:.2}ms ({:.1}x)",
        sequential * 1e3,
        sequential * 1e6 / REQUESTS as f64,
        pipelined * 1e3,
        sequential / pipelined,
        batch * 1e3,
        sequential / batch,
    );
    if !quick_mode() {
        assert!(
            sequential / best >= 1.5,
            "wire batching must be ≥ 1.5x the per-round-trip baseline \
             (sequential {:.3}ms vs best {:.3}ms = {:.2}x)",
            sequential * 1e3,
            best * 1e3,
            sequential / best,
        );
    }

    // ---- the end-to-end codec numbers over loopback TCP (informational:
    // kernel sockets and worker handoff dominate both codecs there) ----
    let suggest_json = median_secs(rounds, || {
        drive_suggest_json(&mut wire, session.0);
    });
    let suggest_binary = median_secs(rounds, || {
        drive_suggest_binary(&mut bin, session.0);
    });
    println!(
        "suggest codecs over TCP ({REQUESTS} pipelined suggests/round): json {:.2}ms, \
         binary {:.2}ms ({:.1}x)",
        suggest_json * 1e3,
        suggest_binary * 1e3,
        suggest_json / suggest_binary,
    );

    // ---- the codec claim: through the production serving state machine
    // (in-memory transport, so the measurement is codec + framing +
    // dispatch, not scheduler noise) the binary codec must beat JSON
    // lines by ≥ 2× on the pipelined suggest workload ----
    let mut sim_json = SimServer::new(&engine, false);
    let mut sim_binary = SimServer::new(&engine, true);
    assert!(drive_suggest_sim(&mut sim_json, session.0, false) > 0);
    assert!(drive_suggest_sim(&mut sim_binary, session.0, true) > 0);
    let sim_rounds = if quick_mode() { 3 } else { 101 };
    let codec_json = median_secs(sim_rounds, || {
        drive_suggest_sim(&mut sim_json, session.0, false);
    });
    let codec_binary = median_secs(sim_rounds, || {
        drive_suggest_sim(&mut sim_binary, session.0, true);
    });
    println!(
        "suggest codecs in-process ({REQUESTS} pipelined suggests/round): json {:.0}µs, \
         binary {:.0}µs ({:.1}x)",
        codec_json * 1e6,
        codec_binary * 1e6,
        codec_json / codec_binary,
    );
    if !quick_mode() {
        assert!(
            codec_json / codec_binary >= 2.0,
            "the binary codec must be ≥ 2x JSON lines on the pipelined suggest \
             workload (json {:.1}µs vs binary {:.1}µs = {:.2}x)",
            codec_json * 1e6,
            codec_binary * 1e6,
            codec_json / codec_binary,
        );
    }

    let stats = engine.stats();
    println!(
        "server saw pipeline depth {} with {} connection(s) open; codec split {:?}",
        stats.pipeline_depth.get(),
        stats.connections_open.get(),
        stats.requests_by_codec.each_ref().map(|c| c.get())
    );
    drop(wire);
    drop(bin);
    handle.shutdown();
    server_thread
        .join()
        .expect("server thread")
        .expect("clean shutdown");
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_serve
}
criterion_main!(benches);
