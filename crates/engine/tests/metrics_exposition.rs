//! Integration tests for the `metrics` op: the Prometheus text
//! exposition parses under the strict lint, round-trips the same values
//! as the `stats` op (one registry, two views), and the request counters
//! conserve inside the exposition itself.

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
use scrutinizer_obs::expo::{lint_exposition, Exposition};

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

fn roundtrip(stream: &mut TcpStream, reader: &mut BufReader<TcpStream>, line: &str) -> Json {
    writeln!(stream, "{line}").expect("write request");
    let mut response = String::new();
    reader.read_line(&mut response).expect("read response");
    Json::parse(response.trim()).expect("response is JSON")
}

fn stat(stats: &Json, key: &str) -> f64 {
    stats
        .get(key)
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("stats payload missing {key}"))
}

fn expo_value(expo: &Exposition, name: &str) -> f64 {
    expo.value(name)
        .unwrap_or_else(|| panic!("exposition missing series {name}"))
}

#[test]
fn metrics_op_round_trips_the_stats_op_and_lints_clean() {
    let engine = cheap_engine();
    let (addr, handle, join) = spawn_server(&engine);
    let (mut stream, mut reader) = connect(addr);

    // deterministic traffic on one ordered connection: two sessions
    // opened, one closed, one wire error
    for line in [
        r#"{"op":"open","checker":"m1"}"#,
        r#"{"op":"open","checker":"m2"}"#,
        r#"{"op":"close","session":1}"#,
    ] {
        let response = roundtrip(&mut stream, &mut reader, line);
        assert_eq!(response.get("ok").and_then(Json::as_bool), Some(true));
    }
    let error = roundtrip(&mut stream, &mut reader, r#"{"op":"no_such_op"}"#);
    assert_eq!(error.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(error.get("code").and_then(Json::as_str), Some("unknown_op"));

    let stats = roundtrip(&mut stream, &mut reader, r#"{"op":"stats"}"#);
    let stats = stats.get("stats").expect("stats payload").clone();
    let metrics = roundtrip(&mut stream, &mut reader, r#"{"op":"metrics"}"#);
    assert_eq!(metrics.get("ok").and_then(Json::as_bool), Some(true));
    let text = metrics
        .get("metrics")
        .and_then(Json::as_str)
        .expect("metrics payload is the exposition text");

    // the exposition must parse under the strict lint (well-formed
    // lines, no duplicate series, coherent histograms)
    let expo = lint_exposition(text).expect("exposition lints clean");

    // one registry, two views: the shared series agree exactly
    for (json_key, series) in [
        ("sessions_opened", "scrutinizer_sessions_opened_total"),
        ("sessions_closed", "scrutinizer_sessions_closed_total"),
        ("sessions_live", "scrutinizer_sessions_live"),
        ("sql_executed", "scrutinizer_sql_executed_total"),
        ("model_epoch", "scrutinizer_model_epoch"),
    ] {
        assert_eq!(
            stat(&stats, json_key),
            expo_value(&expo, series),
            "stats `{json_key}` and exposition `{series}` diverged"
        );
    }
    // the retrains' copy-on-write counters are exposition-only series
    // (no v1 `stats` field); nothing retrained here
    for series in [
        "scrutinizer_retrain_rows_copied_total",
        "scrutinizer_retrain_rows_recycled_total",
    ] {
        assert_eq!(expo_value(&expo, series), 0.0, "{series}");
    }
    assert_eq!(expo_value(&expo, "scrutinizer_sessions_opened_total"), 2.0);
    assert_eq!(expo_value(&expo, "scrutinizer_sessions_closed_total"), 1.0);
    assert_eq!(expo_value(&expo, "scrutinizer_sessions_live"), 1.0);
    assert_eq!(
        expo.labeled_value("scrutinizer_wire_errors_total", "code", "unknown_op"),
        Some(1.0)
    );

    // the stats snapshot was taken one rendered response before the
    // exposition (the stats response itself), nothing else ran
    assert_eq!(
        expo_value(&expo, "scrutinizer_requests_total"),
        stat(&stats, "requests_total") + 1.0
    );

    // conservation holds inside the exposition document itself
    let errors: f64 = expo
        .samples
        .iter()
        .filter(|sample| sample.name == "scrutinizer_wire_errors_total")
        .map(|sample| sample.value)
        .sum();
    assert_eq!(
        expo_value(&expo, "scrutinizer_requests_total"),
        expo_value(&expo, "scrutinizer_requests_ok_total") + errors
    );

    drop((stream, reader));
    handle.shutdown();
    join.join().expect("server thread").expect("clean shutdown");
}

#[test]
fn stats_op_exports_quantile_estimates_next_to_means() {
    let engine = cheap_engine();
    let (addr, handle, join) = spawn_server(&engine);
    let (mut stream, mut reader) = connect(addr);

    let stats = roundtrip(&mut stream, &mut reader, r#"{"op":"stats"}"#);
    let stats = stats.get("stats").expect("stats payload");
    for histogram in ["plan_latency", "suggest_latency", "verify_latency"] {
        let payload = stats
            .get(histogram)
            .unwrap_or_else(|| panic!("stats payload missing {histogram}"));
        let p50 = stat(payload, "p50_est_micros");
        let p95 = stat(payload, "p95_est_micros");
        let p99 = stat(payload, "p99_est_micros");
        assert!(
            p50 <= p95 && p95 <= p99,
            "{histogram} quantiles not monotone: {p50} {p95} {p99}"
        );
        assert!(payload.get("mean_micros").is_some());
    }

    drop((stream, reader));
    handle.shutdown();
    join.join().expect("server thread").expect("clean shutdown");
}
