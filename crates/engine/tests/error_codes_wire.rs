//! Every [`ErrorCode`] variant is reachable over the wire and renders
//! byte-stably.
//!
//! The probe table is built by an exhaustive `match` over
//! [`ErrorCode::ALL`] — adding a variant without teaching this test how
//! to provoke it is a compile error, so the wire error surface can never
//! silently grow. Each probe runs against a real TCP server, asserts the
//! structured `code` string, checks the per-code counter moved, and
//! replays the identical request to pin the exact response bytes
//! (modulo the generated trace id on unparseable lines).

use std::collections::BTreeSet;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use scrutinizer_core::{OrderingStrategy, SystemConfig};
use scrutinizer_corpus::{Corpus, CorpusConfig};
use scrutinizer_engine::engine::{Engine, EngineOptions};
use scrutinizer_engine::protocol::Json;
use scrutinizer_engine::server::{Server, ServerOptions};
use scrutinizer_engine::ErrorCode;

/// How one error code is demonstrated.
enum Probe {
    /// Send `setup` lines (all must succeed), then `line`, which must
    /// fail with the code under test.
    Wire { setup: Vec<String>, line: String },
    /// Provoked by the connection limit, not by a request line.
    Overload,
    /// Unreachable without a genuine dispatch panic; its rendering and
    /// counter are pinned by `api::tests::caught_panics_answer_internal`
    /// on the in-process seam.
    InternalOnly,
}

/// The exhaustive map — NO wildcard arm, by design.
fn probe_for(code: ErrorCode, session: usize, mismatch: &Mismatch, done_claim: usize) -> Probe {
    match code {
        ErrorCode::ParseError => Probe::Wire {
            setup: vec![],
            line: "this is not json".to_string(),
        },
        ErrorCode::InvalidArgument => Probe::Wire {
            setup: vec![],
            line: r#"{"op":"submit","v":1,"trace":"00000000000000aa"}"#.to_string(),
        },
        ErrorCode::UnknownOp => Probe::Wire {
            setup: vec![],
            line: r#"{"op":"warp","v":1,"trace":"00000000000000aa"}"#.to_string(),
        },
        ErrorCode::UnsupportedVersion => Probe::Wire {
            setup: vec![],
            line: r#"{"op":"stats","v":99,"trace":"00000000000000aa"}"#.to_string(),
        },
        ErrorCode::UnknownSession => Probe::Wire {
            setup: vec![],
            line: r#"{"op":"close","v":1,"session":987654321,"trace":"00000000000000aa"}"#
                .to_string(),
        },
        ErrorCode::UnknownClaim => Probe::Wire {
            setup: vec![],
            line: format!(
                r#"{{"op":"submit","v":1,"session":{session},"claims":[999999],"trace":"00000000000000aa"}}"#
            ),
        },
        ErrorCode::NotInBatch => Probe::Wire {
            setup: vec![],
            line: format!(
                r#"{{"op":"suggest","v":1,"session":{session},"claim":0,"trace":"00000000000000aa"}}"#
            ),
        },
        ErrorCode::WrongPhase => Probe::Wire {
            // verdict the claim, then verdict it again: Done is terminal
            setup: vec![format!(
                r#"{{"op":"verdict","v":1,"session":{session},"claim":{done_claim},"correct":true}}"#
            )],
            line: format!(
                r#"{{"op":"verdict","v":1,"session":{session},"claim":{done_claim},"correct":true,"trace":"00000000000000aa"}}"#
            ),
        },
        ErrorCode::UnexpectedAnswer => Probe::Wire {
            setup: vec![],
            line: format!(
                r#"{{"op":"answer","v":1,"session":{session},"claim":{},"kind":"{}","answer":"x","trace":"00000000000000aa"}}"#,
                mismatch.claim, mismatch.wrong_kind
            ),
        },
        ErrorCode::Sql => Probe::Wire {
            setup: vec![],
            line: r#"{"op":"sql","v":1,"query":"SELECT a.Nope FROM NoSuchRelation a WHERE a.Index = 'x'","trace":"00000000000000aa"}"#
                .to_string(),
        },
        ErrorCode::Overloaded => Probe::Overload,
        ErrorCode::Internal => Probe::InternalOnly,
    }
}

/// A submitted claim with an outstanding screen, plus a property kind
/// that is NOT that screen — answering it must be `unexpected_answer`.
struct Mismatch {
    claim: usize,
    wrong_kind: String,
}

fn connect(addr: SocketAddr) -> (TcpStream, BufReader<TcpStream>) {
    let stream = TcpStream::connect(addr).expect("connect to server");
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .expect("read timeout");
    let reader = BufReader::new(stream.try_clone().expect("clone stream"));
    (stream, reader)
}

fn roundtrip(stream: &mut TcpStream, reader: &mut BufReader<TcpStream>, line: &str) -> String {
    stream.write_all(line.as_bytes()).expect("write request");
    stream.write_all(b"\n").expect("write newline");
    let mut response = String::new();
    reader.read_line(&mut response).expect("read response");
    response.trim_end().to_string()
}

/// The response with its `trace` field blanked — unparseable lines get a
/// generated (nondeterministic) trace; everything else about the bytes
/// must be identical across sends.
fn sans_trace(line: &str) -> String {
    let parsed = Json::parse(line).expect("response parses");
    let Json::Obj(fields) = parsed else {
        panic!("response is not an object: {line}")
    };
    Json::Obj(
        fields
            .into_iter()
            .map(|(key, value)| {
                if key == "trace" {
                    (key, Json::Null)
                } else {
                    (key, value)
                }
            })
            .collect(),
    )
    .render()
}

#[test]
fn every_error_code_is_wire_reachable_and_stable() {
    // untrained bootstrap models: classifier confidence stays low, so
    // property screens are never skipped and the mismatch probe has a
    // screen to answer wrongly
    let engine = Engine::new(
        Corpus::generate(CorpusConfig::small()),
        SystemConfig::test(),
        EngineOptions {
            retrain_interval: None,
            ordering: OrderingStrategy::Sequential,
        },
    );
    let server = Server::bind(
        Arc::clone(&engine),
        "127.0.0.1:0",
        ServerOptions {
            max_connections: 1,
            ..ServerOptions::default()
        },
    )
    .expect("bind loopback");
    let addr = server.local_addr().expect("bound address");
    let handle = server.handle();
    let join = std::thread::spawn(move || server.run());

    let (mut stream, mut reader) = connect(addr);

    // one session with claims 0..=2 submitted backs the session-state
    // probes (not_in_batch uses claim 0 in a second, empty session)
    let open = Json::parse(&roundtrip(
        &mut stream,
        &mut reader,
        r#"{"op":"open","v":1}"#,
    ))
    .expect("open parses");
    let session = open
        .get("session")
        .and_then(Json::as_usize)
        .expect("open succeeds");
    let submit = Json::parse(&roundtrip(
        &mut stream,
        &mut reader,
        &format!(r#"{{"op":"submit","v":1,"session":{session},"claims":[1,2,3]}}"#),
    ))
    .expect("submit parses");
    assert_eq!(submit.get("ok").and_then(Json::as_bool), Some(true));
    let empty_session_open = Json::parse(&roundtrip(
        &mut stream,
        &mut reader,
        r#"{"op":"open","v":1}"#,
    ))
    .expect("open parses");
    let empty_session = empty_session_open
        .get("session")
        .and_then(Json::as_usize)
        .expect("second open succeeds");

    // find a submitted claim whose first outstanding screen we can
    // answer with the WRONG property kind
    let batch = submit.get("batch").and_then(Json::as_arr).expect("batch");
    let mismatch = batch
        .iter()
        .find_map(|questions| {
            let claim = questions.get("claim").and_then(Json::as_usize)?;
            let screens = questions.get("screens").and_then(Json::as_arr)?;
            let first = screens.first()?.get("kind").and_then(Json::as_str)?;
            let wrong = ["relation", "key", "attribute"]
                .into_iter()
                .find(|kind| *kind != first)?;
            Some(Mismatch {
                claim,
                wrong_kind: wrong.to_string(),
            })
        })
        .expect("an untrained engine leaves at least one screen outstanding");
    // the wrong-phase probe drives a claim to Done; it must not be the
    // one the unexpected-answer probe still needs in Screening
    let done_claim = [1usize, 2, 3]
        .into_iter()
        .find(|claim| *claim != mismatch.claim)
        .expect("three submitted claims, at most one reserved");

    let mut seen_names = BTreeSet::new();
    for code in ErrorCode::ALL {
        assert!(
            seen_names.insert(code.name()),
            "duplicate wire name {}",
            code.name()
        );
        let probing_session = if code == ErrorCode::NotInBatch {
            empty_session
        } else {
            session
        };
        match probe_for(code, probing_session, &mismatch, done_claim) {
            Probe::Wire { setup, line } => {
                for prelude in setup {
                    let response = roundtrip(&mut stream, &mut reader, &prelude);
                    let parsed = Json::parse(&response).expect("setup response parses");
                    assert_eq!(
                        parsed.get("ok").and_then(Json::as_bool),
                        Some(true),
                        "setup for {} failed: {response}",
                        code.name()
                    );
                }
                let before = engine.stats().wire_error(code);
                let first = roundtrip(&mut stream, &mut reader, &line);
                let parsed = Json::parse(&first).expect("error response parses");
                assert_eq!(
                    parsed.get("ok").and_then(Json::as_bool),
                    Some(false),
                    "{}: expected an error, got {first}",
                    code.name()
                );
                assert_eq!(
                    parsed.get("code").and_then(Json::as_str),
                    Some(code.name()),
                    "{}: wrong code in {first}",
                    code.name()
                );
                assert!(
                    parsed.get("error").and_then(Json::as_str).is_some(),
                    "{}: missing human-readable message in {first}",
                    code.name()
                );
                assert_eq!(
                    engine.stats().wire_error(code),
                    before + 1,
                    "{}: per-code counter did not move",
                    code.name()
                );
                // byte stability: the identical request draws the
                // identical response (the generated trace on unparseable
                // lines is the one sanctioned exception)
                let second = roundtrip(&mut stream, &mut reader, &line);
                assert_eq!(
                    sans_trace(&first),
                    sans_trace(&second),
                    "{}: response bytes drifted between identical requests",
                    code.name()
                );
            }
            Probe::Overload => {
                let before = engine.stats().wire_error(code);
                for _ in 0..2 {
                    // the limit is 1 and the probe connection holds it
                    let (mut extra, _) = connect(addr);
                    let mut rejection = String::new();
                    extra
                        .read_to_string(&mut rejection)
                        .expect("read the overload line to EOF");
                    let parsed = Json::parse(rejection.trim_end()).expect("rejection parses");
                    assert_eq!(parsed.get("ok").and_then(Json::as_bool), Some(false));
                    assert_eq!(parsed.get("code").and_then(Json::as_str), Some(code.name()));
                }
                assert_eq!(
                    engine.stats().wire_error(code),
                    before + 2,
                    "overload counter did not move"
                );
            }
            Probe::InternalOnly => {
                assert_eq!(code.name(), "internal");
            }
        }
    }
    assert_eq!(seen_names.len(), ErrorCode::COUNT);

    drop(stream);
    drop(reader);
    handle.shutdown();
    join.join()
        .expect("server thread joins")
        .expect("server.run returns cleanly");
}
