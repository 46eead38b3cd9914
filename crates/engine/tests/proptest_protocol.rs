//! Protocol property tests for the typed v1 API:
//!
//! 1. **Codec round trip** — random typed [`Request`]s survive
//!    `to_json → render → parse → from_json` unchanged.
//! 2. **Total parsing** — random malformed lines (arbitrary printable
//!    strings and truncated valid requests) always yield a structured
//!    response line with a stable error code; never a panic.
//! 3. **Golden session** — a scripted mixed-initiative session (happy
//!    path, every error class and the parse leniencies) decodes to the
//!    same typed requests and binary request bytes, and answers over JSON
//!    lines and binary frames, exactly as recorded in
//!    `tests/golden/protocol_session.jsonl`.
//! 4. **Binary codec ≡ JSON codec** — random requests and dispatched
//!    sessions decode to the same canonical JSON over either codec.

use std::sync::{Arc, OnceLock};

use proptest::prelude::*;
use scrutinizer_core::{OrderingStrategy, PropertyKind, SystemConfig};
use scrutinizer_corpus::{Corpus, CorpusConfig};
use scrutinizer_engine::api::{ErrorCode, Request};
use scrutinizer_engine::engine::{Engine, EngineOptions};
use scrutinizer_engine::protocol::{handle_request, Json};

fn frozen_engine() -> Arc<Engine> {
    let corpus = Corpus::generate(CorpusConfig::small());
    let engine = Engine::new(
        corpus,
        SystemConfig::test(),
        EngineOptions {
            retrain_interval: None,
            ordering: OrderingStrategy::Sequential,
        },
    );
    engine.pretrain(None);
    engine
}

/// One engine shared by every malformed-line case: garbage never reaches
/// the models, so pretraining is unnecessary.
fn shared_engine() -> &'static Arc<Engine> {
    static ENGINE: OnceLock<Arc<Engine>> = OnceLock::new();
    ENGINE.get_or_init(|| {
        Engine::new(
            Corpus::generate(CorpusConfig::small()),
            SystemConfig::test(),
            EngineOptions {
                retrain_interval: None,
                ordering: OrderingStrategy::Sequential,
            },
        )
    })
}

// ---- 1. codec round trip ------------------------------------------------

fn session_strategy() -> impl Strategy<Value = u64> {
    prop_oneof![Just(0u64), 1u64..10_000]
}

fn claim_strategy() -> impl Strategy<Value = usize> {
    0usize..100_000
}

fn claims_strategy() -> impl Strategy<Value = Vec<usize>> {
    prop::collection::vec(claim_strategy(), 0..8)
}

fn text_strategy() -> impl Strategy<Value = String> {
    // printable ASCII with occasional multi-byte scalars, plus JSON's
    // favorite troublemakers via explicit escapes
    prop_oneof![
        4 => "\\PC{0,16}",
        1 => Just("with \"quotes\" and \\ backslash".to_string()),
        1 => Just("newline\nand tab\t".to_string()),
        1 => Just("astral \u{1D11E}\u{1F600}".to_string()),
    ]
}

fn kind_strategy() -> impl Strategy<Value = PropertyKind> {
    prop_oneof![
        Just(PropertyKind::Relation),
        Just(PropertyKind::Key),
        Just(PropertyKind::Attribute),
        Just(PropertyKind::Formula),
    ]
}

fn option_of<T: Clone + std::fmt::Debug + 'static>(
    inner: impl Strategy<Value = T> + 'static,
) -> impl Strategy<Value = Option<T>> {
    prop_oneof![
        1 => Just(None),
        2 => inner.prop_map(Some),
    ]
}

fn request_strategy() -> impl Strategy<Value = Request> {
    prop_oneof![
        option_of(text_strategy()).prop_map(|checker| Request::Open { checker }),
        (session_strategy(), claims_strategy())
            .prop_map(|(session, claims)| Request::Submit { session, claims }),
        session_strategy().prop_map(|session| Request::NextBatch { session }),
        (session_strategy(), claim_strategy())
            .prop_map(|(session, claim)| Request::Screens { session, claim }),
        (
            session_strategy(),
            claim_strategy(),
            kind_strategy(),
            text_strategy()
        )
            .prop_map(|(session, claim, kind, answer)| Request::Answer {
                session,
                claim,
                kind,
                answer,
            }),
        (session_strategy(), claim_strategy())
            .prop_map(|(session, claim)| Request::Suggest { session, claim }),
        (
            session_strategy(),
            claim_strategy(),
            prop_oneof![Just(true), Just(false)],
            option_of(0usize..16)
        )
            .prop_map(|(session, claim, correct, chosen)| Request::Verdict {
                session,
                claim,
                correct,
                chosen,
            }),
        text_strategy().prop_map(|query| Request::Sql { query }),
        (claims_strategy(), option_of(0u64..1 << 40))
            .prop_map(|(claims, seed)| Request::VerifyBatch { claims, seed }),
        Just(Request::Stats),
        Just(Request::Metrics),
        session_strategy().prop_map(|session| Request::Close { session }),
    ]
}

proptest! {
    #[test]
    fn typed_requests_round_trip_through_the_wire(request in request_strategy()) {
        let rendered = request.to_json().render();
        let parsed = Json::parse(&rendered).expect("codec renders valid JSON");
        let decoded = Request::from_json(&parsed).expect("codec output decodes");
        prop_assert_eq!(request, decoded);
    }
}

// ---- 2. malformed lines never panic ------------------------------------

/// Whatever comes in, the response must be one valid JSON object with a
/// boolean `ok`; failures must carry a stable code and a message.
fn assert_structured_response(line: &str) {
    let engine = shared_engine();
    let response = handle_request(engine, line);
    let parsed = Json::parse(&response)
        .unwrap_or_else(|e| panic!("response for {line:?} is not JSON ({e}): {response}"));
    let ok = parsed
        .get("ok")
        .and_then(Json::as_bool)
        .unwrap_or_else(|| panic!("response for {line:?} has no boolean `ok`: {response}"));
    if !ok {
        let code = parsed
            .get("code")
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("error for {line:?} has no `code`: {response}"));
        assert!(
            ErrorCode::ALL.iter().any(|c| c.name() == code),
            "error code `{code}` is not in the stable set"
        );
        assert!(
            parsed.get("error").and_then(Json::as_str).is_some(),
            "error for {line:?} has no message: {response}"
        );
    }
}

proptest! {
    #[test]
    fn arbitrary_lines_yield_structured_errors(line in "\\PC{0,60}") {
        assert_structured_response(&line);
    }

    #[test]
    fn truncated_requests_yield_structured_errors(
        request in request_strategy(),
        keep in 0usize..80,
    ) {
        let rendered = request.to_json().render();
        let truncated: String = rendered.chars().take(keep).collect();
        assert_structured_response(&truncated);
    }

    #[test]
    fn json_shaped_garbage_yields_structured_errors(fragment in "[{}\\[\\]:,\"0-9a-z ]{0,40}") {
        assert_structured_response(&fragment);
    }
}

// ---- 3. the scripted session ≡ its recorded golden fixture -----------

/// Drops the generated top-level `trace` envelope field: JSON requests
/// carry no trace id, so the server draws a fresh one per request.
fn strip_trace(value: Json) -> Json {
    match value {
        Json::Obj(fields) => Json::Obj(fields.into_iter().filter(|(k, _)| k != "trace").collect()),
        other => other,
    }
}

/// The key skeleton of a JSON value: object keys in order, array arity,
/// scalar kinds erased.
fn shape(value: &Json) -> String {
    match value {
        Json::Obj(fields) => {
            let inner: Vec<String> = fields
                .iter()
                .map(|(k, v)| format!("{k}:{}", shape(v)))
                .collect();
            format!("{{{}}}", inner.join(","))
        }
        Json::Arr(items) => format!(
            "[{}]",
            items.iter().map(shape).collect::<Vec<_>>().join(",")
        ),
        _ => "_".to_string(),
    }
}

/// The scripted mixed-initiative session: the happy path op by op, then
/// every error class, then close. `send` answers one request line with
/// its parsed response; the script reads the session id and the first
/// batch's screens back out of those responses.
fn scripted_session(engine: &Engine, mut send: impl FnMut(&str) -> Json) {
    let claim = engine.corpus().claims[0].clone();

    // -- happy path: open → submit → screens → answers → suggest →
    //    verdict → next_batch → sql → verify_batch → stats → close
    let open = send(r#"{"op":"open","checker":"diff"}"#);
    let session = open
        .get("session")
        .and_then(Json::as_usize)
        .expect("a fresh engine assigns a session id");

    let submit = send(&format!(
        r#"{{"op":"submit","session":{session},"claims":[0,1,2]}}"#
    ));
    let screens = submit.get("batch").and_then(Json::as_arr).unwrap()[0]
        .get("screens")
        .and_then(Json::as_arr)
        .unwrap()
        .to_vec();
    send(&format!(
        r#"{{"op":"screens","session":{session},"claim":0}}"#
    ));
    for screen in &screens {
        let kind = screen.get("kind").and_then(Json::as_str).unwrap();
        let truth = match kind {
            "relation" => claim.relation.clone(),
            "key" => claim.key.clone(),
            "attribute" => claim.attributes[0].clone(),
            other => panic!("unexpected screen kind {other}"),
        };
        let line = Json::Obj(vec![
            ("op".into(), Json::Str("answer".into())),
            ("session".into(), Json::Num(session as f64)),
            ("claim".into(), Json::Num(0.0)),
            ("kind".into(), Json::Str(kind.to_string())),
            ("answer".into(), Json::Str(truth)),
        ])
        .render();
        send(&line);
    }
    send(&format!(
        r#"{{"op":"suggest","session":{session},"claim":0}}"#
    ));
    send(&format!(
        r#"{{"op":"verdict","session":{session},"claim":0,"correct":{}}}"#,
        claim.is_correct
    ));
    send(&format!(r#"{{"op":"next_batch","session":{session}}}"#));

    let lookup = &claim.lookups[0];
    let sql = format!(
        "SELECT a.{} FROM {} a WHERE a.Index = '{}'",
        lookup.attribute, lookup.relation, lookup.key
    );
    send(
        &Json::Obj(vec![
            ("op".into(), Json::Str("sql".into())),
            ("query".into(), Json::Str(sql)),
        ])
        .render(),
    );
    send(r#"{"op":"verify_batch","claims":[3,4],"seed":5}"#);
    send(r#"{"op":"stats"}"#);

    // -- every error class, op for op
    let error_lines = [
        "{nonsense".to_string(),
        r#"{"claims":[0]}"#.to_string(),               // missing op
        r#"{"op":"warp"}"#.to_string(),                // unknown op
        r#"{"op":"submit","claims":[0]}"#.to_string(), // missing session
        r#"{"op":"submit","session":9999,"claims":[0]}"#.to_string(), // unknown session
        format!(r#"{{"op":"submit","session":{session},"claims":[999999]}}"#), // unknown claim
        format!(r#"{{"op":"submit","session":{session}}}"#), // missing claims
        format!(r#"{{"op":"submit","session":{session},"claims":["3",1.5,-2]}}"#), // invalid ids
        format!(r#"{{"op":"screens","session":{session},"claim":55}}"#), // not in batch
        format!(r#"{{"op":"suggest","session":{session},"claim":55}}"#), // not in batch
        format!(r#"{{"op":"verdict","session":{session},"claim":0,"correct":true}}"#), // wrong phase
        format!(r#"{{"op":"verdict","session":{session},"claim":1}}"#), // missing correct
        format!(
            r#"{{"op":"answer","session":{session},"claim":1,"kind":"sideways","answer":"x"}}"#
        ), // bad kind
        format!(r#"{{"op":"answer","session":{session},"claim":1,"kind":"relation"}}"#), // missing answer
        format!(r#"{{"op":"answer","session":{session},"claim":1,"kind":"formula","answer":"x"}}"#), // unexpected answer
        r#"{"op":"sql"}"#.to_string(), // missing query
        r#"{"op":"sql","query":"SELECT nope"}"#.to_string(), // sql failure
        r#"{"op":"verify_batch","claims":[999999]}"#.to_string(), // unknown claim, engine-validated
        r#"{"op":"close","session":9999}"#.to_string(), // unknown session
        // -- the parse paths' leniencies and their remaining messages
        r#"{"op":"open"}"#.to_string(), // checker defaults to "anonymous"
        format!(r#"{{"op":"screens","session":{session}}}"#), // missing claim
        format!(r#"{{"op":"answer","session":{session},"claim":1,"kind":3,"answer":"x"}}"#), // non-string kind
        format!(r#"{{"op":"verdict","session":{session},"claim":1,"correct":true,"chosen":"x"}}"#), // malformed chosen reads as none
        r#"{"op":"verify_batch","claims":[3],"seed":2.5}"#.to_string(), // a fractional seed reads as none
    ];
    for line in &error_lines {
        send(line);
    }

    // -- close last so the session survives the error probes above
    send(&format!(r#"{{"op":"close","session":{session}}}"#));
    send(&format!(r#"{{"op":"close","session":{session}}}"#)); // double close
}

const PROTOCOL_FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/protocol_session.jsonl"
);

/// The `stats` fields whose values are not deterministic: the six
/// wall-clock fields of every latency histogram (each `count` stays
/// pinned).
const VOLATILE_STATS: [&str; 6] = [
    "mean_micros",
    "p50_micros",
    "p99_micros",
    "p50_est_micros",
    "p95_est_micros",
    "p99_est_micros",
];

/// A `stats` response with every [`VOLATILE_STATS`] value replaced by
/// `"masked"`; keys, their order and every other value stay as they are.
fn mask_volatile(value: Json) -> Json {
    match value {
        Json::Obj(fields) => Json::Obj(
            fields
                .into_iter()
                .map(|(key, inner)| {
                    let inner = if VOLATILE_STATS.contains(&key.as_str()) {
                        Json::Str("masked".to_string())
                    } else {
                        mask_volatile(inner)
                    };
                    (key, inner)
                })
                .collect(),
        ),
        Json::Arr(items) => Json::Arr(items.into_iter().map(mask_volatile).collect()),
        other => other,
    }
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// Answers one scripted line twice, in lockstep — as a JSON line on
/// `json_engine` and, when the line decodes to a typed request, as a
/// binary frame (id and trace pinned to `seq`) on `bin_engine` — and
/// records both as one fixture line, together with the typed request
/// rendered back to JSON and its binary request payload in hex (both
/// null when the line does not decode). Returns the JSON response.
fn record(
    json_engine: &Arc<Engine>,
    bin_engine: &Arc<Engine>,
    seq: u64,
    line: &str,
    out: &mut String,
) -> Json {
    use scrutinizer_engine::codec::{decode_response, encode_request};
    use scrutinizer_engine::wire::{handle_frame, split_frame};

    let response = strip_trace(Json::parse(&handle_request(json_engine, line)).expect("JSON"));
    let request = Json::parse(line)
        .ok()
        .and_then(|value| Request::from_json(&value).ok());
    let payload = request.as_ref().map(|request| {
        let mut payload = Vec::new();
        encode_request(&mut payload, request, Some(seq), Some(seq));
        payload
    });
    let frame = payload.as_ref().map(|payload| {
        let mut frame = Vec::new();
        handle_frame(bin_engine, payload, &mut frame);
        let (body, consumed) = split_frame(&frame).expect("one whole response frame");
        assert_eq!(consumed, frame.len(), "exactly one frame per request");
        (frame.clone(), decode_response(body).expect("frame decodes"))
    });
    let mut fields = vec![
        ("request".to_string(), Json::Str(line.to_string())),
        (
            "typed".to_string(),
            request.map_or(Json::Null, |request| Json::Str(request.to_json().render())),
        ),
        (
            "payload".to_string(),
            payload.map_or(Json::Null, |payload| Json::Str(hex(&payload))),
        ),
    ];
    if response.get("stats").is_some() {
        fields.push(("response".to_string(), mask_volatile(response.clone())));
        let decoded = frame.map_or(Json::Null, |(_, decoded)| mask_volatile(decoded));
        fields.push(("frame".to_string(), decoded));
    } else {
        fields.push(("response".to_string(), response.clone()));
        let frame = frame.map_or(Json::Null, |(bytes, _)| Json::Str(hex(&bytes)));
        fields.push(("frame".to_string(), frame));
    }
    out.push_str(&Json::Obj(fields).render());
    out.push('\n');
    response
}

/// The scripted session, recorded one request per line: the typed
/// request as JSON and as a binary payload in hex, the JSON response
/// (trace stripped) and the binary response frame in hex, or — for
/// `stats` — the JSON response and the decoded binary frame, with the
/// wall-clock values masked. Regenerate after an
/// intended wire change with `BLESS_GOLDEN=1 cargo test -p
/// scrutinizer-engine --test proptest_protocol
/// scripted_session_matches_the_protocol_golden_fixture` and review the
/// diff.
#[test]
fn scripted_session_matches_the_protocol_golden_fixture() {
    let json_engine = frozen_engine();
    let bin_engine = frozen_engine();
    let mut actual = String::new();
    let mut seq = 0;
    scripted_session(&json_engine, |line| {
        seq += 1;
        record(&json_engine, &bin_engine, seq, line, &mut actual)
    });

    if std::env::var_os("BLESS_GOLDEN").is_some() {
        std::fs::write(PROTOCOL_FIXTURE, &actual).expect("fixture is writable");
        return;
    }
    let expected = std::fs::read_to_string(PROTOCOL_FIXTURE).expect("golden fixture exists");
    for (line, (want, got)) in expected.lines().zip(actual.lines()).enumerate() {
        assert_eq!(want, got, "fixture line {} differs", line + 1);
    }
    assert_eq!(expected.lines().count(), actual.lines().count());
}

// ---- 4. binary codec ≡ JSON codec ---------------------------------------
//
// The binary framing from the zero-copy wire PR must be a *codec*, not a
// dialect: any typed request survives the binary encoder/decoder exactly,
// and a whole session answered over binary frames decodes to the same
// canonical JSON the text codec produces.

/// `id` field stripped alongside `trace`: the JSON twin sends no request
/// ids, so the binary side's echo must not count as divergence.
fn strip_envelope(value: Json) -> Json {
    match strip_trace(value) {
        Json::Obj(fields) => Json::Obj(fields.into_iter().filter(|(k, _)| k != "id").collect()),
        other => other,
    }
}

/// Stats/metrics payloads carry wall-clock latencies: two engines answer
/// with the same shape but different numbers.
fn volatile(request: &Request) -> bool {
    matches!(request, Request::Stats | Request::Metrics)
}

/// Gives a seedless `verify_batch` the explicit seed 11. `dispatch`
/// defaults a missing seed to 1, so both engines would agree without the
/// pin; it keeps every differential case on the explicit-seed path.
fn pin_seed(request: Request) -> Request {
    match request {
        Request::VerifyBatch { claims, seed: None } => Request::VerifyBatch {
            claims,
            seed: Some(11),
        },
        other => other,
    }
}

proptest! {
    #[test]
    fn typed_requests_round_trip_through_the_binary_codec(
        request in request_strategy(),
        id in option_of(0u64..u64::MAX),
        trace in option_of(1u64..u64::MAX),
    ) {
        use scrutinizer_engine::codec::{decode_body, decode_envelope, encode_request};

        let mut payload = Vec::new();
        encode_request(&mut payload, &request, id, trace);
        let (envelope, mut reader) = decode_envelope(&payload).expect("envelope decodes");
        prop_assert_eq!(envelope.id, id);
        prop_assert_eq!(envelope.trace, trace);
        let decoded = decode_body(&mut reader).expect("body decodes").to_owned();
        prop_assert_eq!(request, decoded);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn binary_dispatch_answers_exactly_like_json_dispatch(
        requests in prop::collection::vec(request_strategy().prop_map(pin_seed), 1..5),
    ) {
        use scrutinizer_engine::codec::{decode_response, encode_request};
        use scrutinizer_engine::wire::{handle_frame, split_frame};

        // two engines from the same deterministic corpus: running the
        // same request sequence through each codec must tell the same
        // story byte for byte (modulo trace ids and the id echo). The
        // pair is private to this test — the junk-injection proptests
        // run concurrently, and if one of their random payloads ever
        // decoded to a session-allocating request against a shared
        // engine, the twins would fall out of lockstep.
        let (json_engine, bin_engine) = differential_engines();
        for request in &requests {
            let json_response = handle_request(json_engine, &request.to_json().render());
            let json_canonical =
                strip_envelope(Json::parse(&json_response).expect("json response parses"));

            let mut payload = Vec::new();
            encode_request(&mut payload, request, None, None);
            let mut out = Vec::new();
            handle_frame(bin_engine, &payload, &mut out);
            let (frame, consumed) = split_frame(&out).expect("one whole response frame");
            prop_assert_eq!(consumed, out.len(), "exactly one frame per request");
            let bin_canonical =
                strip_envelope(decode_response(frame).expect("binary response decodes"));

            if volatile(request) {
                prop_assert_eq!(
                    shape(&json_canonical),
                    shape(&bin_canonical),
                    "shape diverged for {:?}",
                    request
                );
            } else {
                prop_assert_eq!(
                    json_canonical.render(),
                    bin_canonical.render(),
                    "codecs diverged for {:?}",
                    request
                );
            }
        }
    }
}

/// The differential proptest's private engine pair: JSON side and binary
/// side built from the same deterministic corpus, so session-allocating
/// requests stay in lockstep across every case.
fn differential_engines() -> (&'static Arc<Engine>, &'static Arc<Engine>) {
    static ENGINES: OnceLock<(Arc<Engine>, Arc<Engine>)> = OnceLock::new();
    let build = || {
        Engine::new(
            Corpus::generate(CorpusConfig::small()),
            SystemConfig::test(),
            EngineOptions {
                retrain_interval: None,
                ordering: OrderingStrategy::Sequential,
            },
        )
    };
    let (json, bin) = ENGINES.get_or_init(|| (build(), build()));
    (json, bin)
}

proptest! {
    #[test]
    fn malformed_binary_payloads_never_panic(bytes in prop::collection::vec(0u8..=255, 0..64)) {
        use scrutinizer_engine::codec::decode_response;
        use scrutinizer_engine::wire::{handle_frame, split_frame};

        let engine = shared_engine();
        let mut out = Vec::new();
        handle_frame(engine, &bytes, &mut out);
        let (frame, consumed) = split_frame(&out).expect("always answers one frame");
        prop_assert_eq!(consumed, out.len());
        let response = decode_response(frame).expect("response always decodes");
        let ok = response.get("ok").and_then(Json::as_bool).expect("boolean ok");
        if !ok {
            let code = response.get("code").and_then(Json::as_str).expect("stable code");
            prop_assert!(ErrorCode::ALL.iter().any(|c| c.name() == code));
        }
    }

    #[test]
    fn truncated_binary_requests_yield_structured_errors(
        request in request_strategy(),
        keep_fraction in 0.0f64..1.0,
    ) {
        use scrutinizer_engine::codec::{decode_response, encode_request};
        use scrutinizer_engine::wire::{handle_frame, split_frame};

        let engine = shared_engine();
        let mut payload = Vec::new();
        encode_request(&mut payload, &request, Some(7), None);
        let keep = ((payload.len() as f64) * keep_fraction) as usize;
        let mut out = Vec::new();
        handle_frame(engine, &payload[..keep], &mut out);
        let (frame, consumed) = split_frame(&out).expect("always answers one frame");
        prop_assert_eq!(consumed, out.len());
        let response = decode_response(frame).expect("response always decodes");
        prop_assert!(response.get("ok").and_then(Json::as_bool).is_some());
    }
}
