//! Integration test: many checker sessions drive one shared engine from
//! separate threads. Verdicts must be independent of thread scheduling
//! (workers are seeded per claim), and suggest/verify traffic evaluates
//! Algorithm 2 directly.

use std::collections::BTreeMap;
use std::sync::Arc;

use scrutinizer_core::report::Verdict;
use scrutinizer_core::{OrderingStrategy, SystemConfig};
use scrutinizer_corpus::{Corpus, CorpusConfig};
use scrutinizer_crowd::{Worker, WorkerConfig};
use scrutinizer_engine::engine::{Engine, EngineOptions};
use scrutinizer_engine::protocol::{handle_request, Json};

const THREADS: usize = 8;
const CLAIMS_PER_THREAD: usize = 10;

fn fresh_engine() -> Arc<Engine> {
    let corpus = Corpus::generate(CorpusConfig::small());
    let engine = Engine::with_options(
        corpus,
        SystemConfig::test(),
        EngineOptions {
            // deterministic serving: pretrain once, then freeze the models
            retrain_interval: None,
            ordering: OrderingStrategy::Sequential,
            ..EngineOptions::default()
        },
    );
    engine.pretrain(None);
    engine
}

/// Runs THREADS interleaved sessions, each verifying its own slice of
/// claims (slices overlap on purpose: neighbors share half their
/// claims, so sessions re-derive each other's queries). Returns the
/// verdict map.
fn drive_concurrently(engine: &Arc<Engine>) -> BTreeMap<usize, (bool, bool)> {
    let total_claims = engine.corpus().claims.len();
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let engine = Arc::clone(engine);
            std::thread::spawn(move || {
                let session = engine.open_session(&format!("checker-{t}"));
                let claims: Vec<usize> = (0..CLAIMS_PER_THREAD)
                    .map(|i| (t * CLAIMS_PER_THREAD / 2 + i) % total_claims)
                    .collect();
                let batch = engine
                    .submit_report(session, &claims)
                    .expect("submit succeeds");
                assert!(!batch.is_empty(), "a non-empty report plans a batch");
                let mut outcomes = Vec::new();
                for &claim_id in &claims {
                    // per-claim deterministic checker, independent of thread
                    let mut worker = Worker::new(
                        format!("w{claim_id}"),
                        WorkerConfig {
                            accuracy: 1.0,
                            skip_probability: 0.0,
                            seed: 1000 + claim_id as u64,
                            ..WorkerConfig::default()
                        },
                    );
                    let outcome = engine.verify_claim_with(claim_id, &mut worker);
                    let correct = matches!(outcome.verdict, Verdict::Correct { .. });
                    outcomes.push((claim_id, (correct, outcome.verdict_matches_truth)));
                }
                let verified = engine.close_session(session).expect("close succeeds");
                assert!(
                    verified.is_empty(),
                    "simulated drives use their own sessions"
                );
                outcomes
            })
        })
        .collect();
    let mut verdicts = BTreeMap::new();
    for handle in handles {
        for (claim_id, verdict) in handle.join().expect("no thread panicked") {
            // overlapping slices see one deterministic verdict per claim
            if let Some(previous) = verdicts.insert(claim_id, verdict) {
                assert_eq!(
                    previous, verdict,
                    "claim {claim_id}: two sessions disagreed within one run"
                );
            }
        }
    }
    verdicts
}

#[test]
fn concurrent_sessions_are_deterministic_and_evaluate_directly() {
    let first = fresh_engine();
    let verdicts_a = drive_concurrently(&first);
    let stats = first.stats();

    // ---- bookkeeping: 8 explicit sessions plus one ephemeral session
    // per simulated claim drive ----
    assert_eq!(
        stats.sessions_opened.get() as usize,
        THREADS + THREADS * CLAIMS_PER_THREAD
    );
    assert_eq!(stats.sessions_live.get(), 0, "every session was closed");
    assert_eq!(
        stats.claims_verified.get() as usize,
        THREADS * CLAIMS_PER_THREAD
    );
    assert!(stats.suggestions_served.get() as usize >= THREADS * CLAIMS_PER_THREAD);
    assert!(stats.verify_latency.snapshot().count >= (THREADS * CLAIMS_PER_THREAD) as u64);

    // ---- determinism: a fresh engine re-derives identical verdicts ----
    let second = fresh_engine();
    let verdicts_b = drive_concurrently(&second);
    assert_eq!(
        verdicts_a, verdicts_b,
        "verdicts changed across identical runs"
    );

    // ---- quality floor: perfect workers + trained models track truth ----
    let matched = verdicts_a.values().filter(|(_, matches)| *matches).count();
    assert!(
        matched * 10 >= verdicts_a.len() * 7,
        "only {matched}/{} verdicts matched ground truth",
        verdicts_a.len()
    );
}

#[test]
fn batch_mode_matches_sequential_results() {
    let engine = fresh_engine();
    let claims: Vec<usize> = (0..30).collect();
    let base = WorkerConfig {
        accuracy: 1.0,
        skip_probability: 0.0,
        seed: 7,
        ..Default::default()
    };

    // concurrent batch over the pool
    let concurrent = engine
        .verify_batch(&claims, base)
        .expect("all claim ids are in the corpus");

    // same claims, fresh engine, strictly sequential
    let reference_engine = fresh_engine();
    let sequential: Vec<_> = claims
        .iter()
        .map(|&id| {
            let config = WorkerConfig {
                seed: base.seed ^ (id as u64).wrapping_mul(0x9E37_79B9),
                ..base
            };
            let mut worker = Worker::new(format!("batch-{id}"), config);
            reference_engine.verify_claim_with(id, &mut worker)
        })
        .collect();

    assert_eq!(concurrent.len(), sequential.len());
    for (a, b) in concurrent.iter().zip(&sequential) {
        assert_eq!(a.claim_id, b.claim_id);
        assert_eq!(
            matches!(a.verdict, Verdict::Correct { .. }),
            matches!(b.verdict, Verdict::Correct { .. }),
            "claim {}: concurrent and sequential verdicts disagree",
            a.claim_id
        );
        assert_eq!(a.verdict_matches_truth, b.verdict_matches_truth);
    }
}

#[test]
fn interactive_protocol_session_full_loop() {
    let engine = fresh_engine();
    let claim_id = 0;

    let open = Json::parse(&handle_request(
        &engine,
        r#"{"op":"open","checker":"proto"}"#,
    ))
    .expect("valid response json");
    assert_eq!(open.get("ok").and_then(Json::as_bool), Some(true));
    let session = open
        .get("session")
        .and_then(Json::as_usize)
        .expect("session id");

    let submit = Json::parse(&handle_request(
        &engine,
        &format!(r#"{{"op":"submit","session":{session},"claims":[{claim_id}]}}"#),
    ))
    .unwrap();
    assert_eq!(submit.get("ok").and_then(Json::as_bool), Some(true));
    let batch = submit
        .get("batch")
        .and_then(Json::as_arr)
        .expect("batch array");
    assert!(!batch.is_empty());

    // answer every planned screen with the ground truth
    let claim = &engine.corpus().claims[claim_id];
    let screens = batch[0]
        .get("screens")
        .and_then(Json::as_arr)
        .unwrap()
        .to_vec();
    for screen in &screens {
        let kind = screen
            .get("kind")
            .and_then(Json::as_str)
            .unwrap()
            .to_string();
        let truth = match kind.as_str() {
            "relation" => claim.relation.clone(),
            "key" => claim.key.clone(),
            "attribute" => claim.attributes[0].clone(),
            other => panic!("unexpected screen kind {other}"),
        };
        let answer = Json::parse(&handle_request(
            &engine,
            &Json::Obj(vec![
                ("op".into(), Json::Str("answer".into())),
                ("session".into(), Json::Num(session as f64)),
                ("claim".into(), Json::Num(claim_id as f64)),
                ("kind".into(), Json::Str(kind)),
                ("answer".into(), Json::Str(truth)),
            ])
            .render(),
        ))
        .unwrap();
        assert_eq!(
            answer.get("ok").and_then(Json::as_bool),
            Some(true),
            "{answer:?}"
        );
    }

    let suggest = Json::parse(&handle_request(
        &engine,
        &format!(r#"{{"op":"suggest","session":{session},"claim":{claim_id}}}"#),
    ))
    .unwrap();
    assert_eq!(suggest.get("ok").and_then(Json::as_bool), Some(true));

    let verdict = Json::parse(&handle_request(
        &engine,
        &format!(
            r#"{{"op":"verdict","session":{session},"claim":{claim_id},"correct":{}}}"#,
            claim.is_correct
        ),
    ))
    .unwrap();
    assert_eq!(verdict.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(
        verdict.get("matches_truth").and_then(Json::as_bool),
        Some(true)
    );

    let close = Json::parse(&handle_request(
        &engine,
        &format!(r#"{{"op":"close","session":{session}}}"#),
    ))
    .unwrap();
    let verified = close.get("verified").and_then(Json::as_arr).unwrap();
    assert_eq!(verified.len(), 1);

    // malformed input must answer, not panic
    let bad = Json::parse(&handle_request(&engine, "{nonsense")).unwrap();
    assert_eq!(bad.get("ok").and_then(Json::as_bool), Some(false));
    let unknown = Json::parse(&handle_request(&engine, r#"{"op":"warp"}"#)).unwrap();
    assert_eq!(unknown.get("ok").and_then(Json::as_bool), Some(false));
    let bad_ids = Json::parse(&handle_request(
        &engine,
        r#"{"op":"verify_batch","claims":["3",1.5,-2]}"#,
    ))
    .unwrap();
    assert_eq!(
        bad_ids.get("ok").and_then(Json::as_bool),
        Some(false),
        "non-integer claim ids must be rejected, not dropped: {bad_ids:?}"
    );
}

#[test]
fn session_errors_are_reported_not_panicked() {
    let engine = fresh_engine();
    let session = engine.open_session("e");
    assert!(
        engine.submit_report(session, &[999_999]).is_err(),
        "unknown claim"
    );
    // a bad id anywhere in the report must not partially register it
    assert!(engine.submit_report(session, &[1, 999_999]).is_err());
    assert!(
        engine.screens(session, 1).is_err(),
        "claim 1 must not be registered by the failed submit"
    );
    let ghost = scrutinizer_engine::session::SessionId(404);
    assert!(
        engine.submit_report(ghost, &[0]).is_err(),
        "unknown session"
    );
    assert!(engine.suggest(session, 0).is_err(), "claim not submitted");
    engine.submit_report(session, &[0]).unwrap();
    assert!(
        engine.post_verdict(session, 0, true, None).is_ok(),
        "verdict without suggestions is a legal manual override"
    );
    assert!(
        engine.post_verdict(session, 0, true, None).is_err(),
        "double verdict is rejected"
    );
    // resubmitting a verified claim is idempotent: it keeps its verdict
    engine.submit_report(session, &[0]).unwrap();
    assert!(
        engine.post_verdict(session, 0, true, None).is_err(),
        "resubmission must not reopen a decided claim"
    );
    engine.close_session(session).unwrap();
    assert!(engine.close_session(session).is_err(), "double close");
}
