//! Graceful shutdown racing an in-flight background retrain.
//!
//! A verdict schedules a retrain on the background trainer; shutdown can
//! land at any point of that pipeline — before the trainer drains the
//! pending log, mid-train, or between training and publishing. Whatever
//! the interleaving, three things must hold once the dust settles:
//!
//! * `Server::run` returns (no deadlock between the drain loop and the
//!   trainer),
//! * the retrain publishes atomically or not at all (`model_epoch` always
//!   equals the retrain count — no half-published snapshot),
//! * no pending example is lost: after a final `flush_retrains`, every
//!   unique verified claim is accounted for as trained.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use scrutinizer_core::{OrderingStrategy, SystemConfig};
use scrutinizer_corpus::{Corpus, CorpusConfig};
use scrutinizer_engine::engine::{Engine, EngineOptions};
use scrutinizer_engine::protocol::Json;
use scrutinizer_engine::server::{Server, ServerOptions};

fn retraining_engine() -> Arc<Engine> {
    let engine = Engine::new(
        Corpus::generate(CorpusConfig::small()),
        SystemConfig::test(),
        EngineOptions {
            // every verdict schedules a background retrain — the widest
            // possible window for shutdown to land inside one
            retrain_interval: Some(1),
            ordering: OrderingStrategy::Sequential,
        },
    );
    engine.pretrain(None);
    engine
}

fn roundtrip(stream: &mut TcpStream, reader: &mut BufReader<TcpStream>, line: &str) -> Json {
    stream.write_all(line.as_bytes()).expect("write request");
    stream.write_all(b"\n").expect("write newline");
    let mut response = String::new();
    reader.read_line(&mut response).expect("read response");
    Json::parse(&response).expect("response parses")
}

fn connect(addr: SocketAddr) -> (TcpStream, BufReader<TcpStream>) {
    let stream = TcpStream::connect(addr).expect("connect to server");
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .expect("read timeout");
    let reader = BufReader::new(stream.try_clone().expect("clone stream"));
    (stream, reader)
}

#[test]
fn shutdown_mid_retrain_never_deadlocks_or_loses_examples() {
    // several rounds so shutdown samples different points of the
    // verdict → drain → train → publish pipeline
    for round in 0..4u64 {
        let engine = retraining_engine();
        let server = Server::bind(
            Arc::clone(&engine),
            "127.0.0.1:0",
            ServerOptions {
                shutdown_grace: Duration::from_secs(5),
                ..ServerOptions::default()
            },
        )
        .expect("bind loopback");
        let addr = server.local_addr().expect("bound address");
        let handle = server.handle();
        let join = std::thread::spawn(move || server.run());

        let (mut stream, mut reader) = connect(addr);
        let open = roundtrip(&mut stream, &mut reader, r#"{"op":"open","v":1,"id":1}"#);
        let session = open
            .get("session")
            .and_then(Json::as_usize)
            .expect("open succeeds");
        let claims: Vec<usize> = (0..6).map(|i| (round as usize * 3 + i) % 20).collect();
        let claim_list: Vec<String> = claims.iter().map(usize::to_string).collect();
        let submit = roundtrip(
            &mut stream,
            &mut reader,
            &format!(
                r#"{{"op":"submit","v":1,"id":2,"session":{session},"claims":[{}]}}"#,
                claim_list.join(",")
            ),
        );
        assert_eq!(submit.get("ok").and_then(Json::as_bool), Some(true));

        // every verdict schedules a retrain; fire them back-to-back so at
        // least one is still in flight when shutdown lands
        let mut unique = std::collections::BTreeSet::new();
        for (offset, claim) in claims.iter().enumerate() {
            let verdict = roundtrip(
                &mut stream,
                &mut reader,
                &format!(
                    r#"{{"op":"verdict","v":1,"id":{},"session":{session},"claim":{claim},"correct":true}}"#,
                    3 + offset
                ),
            );
            assert_eq!(
                verdict.get("ok").and_then(Json::as_bool),
                Some(true),
                "verdict on claim {claim} failed: {}",
                verdict.render()
            );
            unique.insert(*claim);
        }
        drop(stream);
        drop(reader);

        // race: the trainer is (very likely) mid-drain or mid-train now
        handle.shutdown();
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let watchdog = std::thread::spawn(move || {
            let result = join.join();
            let _ = done_tx.send(result);
        });
        let outcome = done_rx
            .recv_timeout(Duration::from_secs(30))
            .expect("server.run deadlocked against the in-flight retrain");
        outcome
            .expect("server thread panicked")
            .expect("server.run returned an error");
        watchdog.join().expect("watchdog joins");

        // the engine outlives the server; settle the trainer completely
        engine.flush_retrains();
        let stats = engine.stats();
        assert_eq!(
            stats.model_epoch.get(),
            stats.retrains.get(),
            "round {round}: a retrain published non-atomically"
        );
        assert_eq!(
            stats.pending_examples.get(),
            0,
            "round {round}: flush drains"
        );
        assert_eq!(
            stats.examples_trained.get(),
            unique.len() as u64,
            "round {round}: pending examples were lost across shutdown"
        );
        assert!(
            stats.model_epoch.get() >= 1,
            "round {round}: at least the flush retrain published"
        );
    }
}
