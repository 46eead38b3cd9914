//! One simulated checker: a `crowd::Worker` driving the session loop
//! (open → submit → screens → answer → suggest → verdict → next_batch →
//! close) over its own connection, in a closed loop with no think time.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use scrutinizer_core::{PropertyKind, Verifier};
use scrutinizer_corpus::{ClaimKind, Corpus};
use scrutinizer_crowd::{CostModel, Worker, WorkerConfig};
use scrutinizer_engine::protocol::{obj, Json};
use scrutinizer_engine::Request;
use scrutinizer_formula::{instantiate, parse_formula};

use crate::conn::{Codec, Conn};

/// What the client knows about a claim's ground truth, precomputed from
/// the same `Corpus::generate(seed)` the server runs.
pub struct Truth {
    /// The ground-truth check rendered as SQL, as a suggestion shows it.
    sql: Option<String>,
    /// The explicit parameter, for explicit claims.
    parameter: Option<f64>,
}

pub fn truths(corpus: &Corpus) -> Vec<Truth> {
    corpus
        .claims
        .iter()
        .map(|claim| Truth {
            sql: parse_formula(&claim.formula_text)
                .ok()
                .and_then(|formula| instantiate(&formula, &claim.lookups).ok())
                .map(|stmt| stmt.to_string()),
            parameter: match claim.kind {
                ClaimKind::Explicit => Verifier::extract_parameter(&claim.claim_text),
                ClaimKind::General => None,
            },
        })
        .collect()
}

/// State every checker of a run reads.
pub struct Shared<'a> {
    pub corpus: &'a Corpus,
    pub truth: &'a [Truth],
    pub cost: CostModel,
    pub report_size: usize,
    /// Wrap around the checker's share instead of stopping after one pass.
    pub cycle: bool,
    /// Shared run origin for request timestamps.
    pub origin: Instant,
    /// Set by the first checker that fails, so the other stops too.
    pub abort: AtomicBool,
}

/// Every counter a [`Tally`] keeps: requests sent, requests that failed,
/// acknowledged requests by op name, verdict responses with
/// `matches_truth`, and claims the worker skipped outright (never sent).
const COUNTERS: [&str; 13] = [
    "requests",
    "failed",
    "open",
    "submit",
    "next_batch",
    "screens",
    "answer",
    "suggest",
    "verdict",
    "close",
    "stats",
    "matches",
    "skipped",
];

/// Ops whose acknowledgement means one WAL record.
const STATE_OPS: [&str; 5] = ["open", "submit", "answer", "verdict", "close"];

/// Client-side counts, one slot per name in [`COUNTERS`].
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally([u64; COUNTERS.len()]);

impl Tally {
    fn slot(name: &str) -> usize {
        COUNTERS
            .iter()
            .position(|counter| *counter == name)
            .unwrap_or_else(|| panic!("no tally counter `{name}`"))
    }

    pub fn get(&self, name: &str) -> u64 {
        self.0[Self::slot(name)]
    }

    fn bump(&mut self, name: &str) {
        self.0[Self::slot(name)] += 1;
    }

    /// Acknowledged state-changing ops: one WAL record each.
    pub fn state_ops(&self) -> u64 {
        STATE_OPS.iter().map(|op| self.get(op)).sum()
    }

    pub fn add(&mut self, other: &Tally) {
        for (count, more) in self.0.iter_mut().zip(other.0) {
            *count += more;
        }
    }

    pub fn minus(&self, earlier: &Tally) -> Tally {
        let mut delta = *self;
        for (count, before) in delta.0.iter_mut().zip(earlier.0) {
            *count -= before;
        }
        delta
    }

    pub fn to_json(self) -> Json {
        obj(COUNTERS
            .iter()
            .zip(self.0)
            .map(|(name, count)| (*name, Json::Num(count as f64)))
            .collect())
    }
}

/// Client id of the control connection. Ids fit in 7 bits, so the trace
/// id's client byte (id + 1) never spills into its server byte.
pub const CONTROL_ID: u8 = 0x7f;

/// One request as the client saw it.
pub struct Record {
    pub op: &'static str,
    /// Checker index, or [`CONTROL_ID`] for the control connection.
    pub client: u8,
    /// Which server process answered (see `ServerProc::gen`).
    pub gen: u32,
    pub start_ns: u64,
    pub rtt_ns: u64,
    pub bytes_out: usize,
    pub bytes_in: usize,
    pub trace: u64,
    pub ok: bool,
}

/// A connection plus the bookkeeping every request goes through.
pub struct Client {
    pub id: u8,
    conn: Conn,
    gen: u32,
    seq: u64,
    pub tally: Tally,
    pub records: Vec<Record>,
}

impl Client {
    pub fn connect(id: u8, addr: &str, gen: u32, codec: Codec) -> Result<Client, String> {
        assert!(id <= CONTROL_ID, "client id {id} does not fit in 7 bits");
        Ok(Client {
            id,
            conn: Conn::connect(addr, codec).map_err(|e| format!("connect to {addr}: {e}"))?,
            gen,
            seq: 0,
            tally: Tally::default(),
            records: Vec::new(),
        })
    }

    /// Moves to a restarted server, keeping tallies and records.
    pub fn reconnect(&mut self, addr: &str, gen: u32, codec: Codec) -> Result<(), String> {
        self.conn = Conn::connect(addr, codec).map_err(|e| format!("connect to {addr}: {e}"))?;
        self.gen = gen;
        Ok(())
    }

    /// Sends one request; a transport failure or an `ok:false` response
    /// is an error (the benchmark's workloads never expect one). The trace
    /// id is one byte of server (gen + 1), one of client (id + 1), then a
    /// 48-bit sequence number.
    pub fn call(&mut self, origin: Instant, request: Request) -> Result<Json, String> {
        self.seq += 1;
        let trace = (u64::from(self.gen) + 1) << 56 | (u64::from(self.id) + 1) << 48 | self.seq;
        let op = request.op_name();
        let start_ns = origin.elapsed().as_nanos() as u64;
        self.tally.bump("requests");
        let reply = match self.conn.call(&request, trace) {
            Ok(reply) => reply,
            Err(error) => {
                self.tally.bump("failed");
                return Err(format!("{op}: {error}"));
            }
        };
        let ok = reply.ok();
        self.records.push(Record {
            op,
            client: self.id,
            gen: self.gen,
            start_ns,
            rtt_ns: reply.rtt.as_nanos() as u64,
            bytes_out: reply.bytes_out,
            bytes_in: reply.bytes_in,
            trace,
            ok,
        });
        if !ok {
            self.tally.bump("failed");
            return Err(format!("{op} refused: {}", reply.json.render()));
        }
        self.tally.bump(op);
        Ok(reply.json)
    }
}

/// When a checker stops driving.
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    pub deadline: Instant,
    /// Suspend mid-screen once this many claims of the share are resolved
    /// (or the deadline passed); `None` runs to the end of the share.
    pub suspend_after: Option<usize>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Share exhausted or deadline reached at a claim boundary.
    Finished,
    /// Left mid-screen on a claim, to be resumed after a restart.
    Suspended,
}

struct OpenSession {
    id: u64,
    batch: VecDeque<usize>,
}

pub struct Checker {
    pub client: Client,
    worker: Worker,
    share: Vec<usize>,
    cursor: usize,
    /// Claims of the share verified or skipped so far.
    pub resolved: usize,
    open: Option<OpenSession>,
    /// The claim left mid-screen by a suspension.
    mid_claim: Option<usize>,
    /// Simulated human seconds spent on verified claims.
    pub checker_seconds: f64,
}

fn field<'a>(json: &'a Json, name: &str) -> Result<&'a Json, String> {
    json.get(name)
        .ok_or_else(|| format!("response lacks `{name}`: {}", json.render()))
}

fn claim_ids(batch: &Json) -> Result<VecDeque<usize>, String> {
    batch
        .as_arr()
        .ok_or("`batch` is not an array")?
        .iter()
        .map(|q| {
            field(q, "claim")?
                .as_usize()
                .ok_or_else(|| "bad claim id".to_string())
        })
        .collect()
}

fn kind_of(label: &str) -> Result<PropertyKind, String> {
    match label {
        "relation" => Ok(PropertyKind::Relation),
        "key" => Ok(PropertyKind::Key),
        "attribute" => Ok(PropertyKind::Attribute),
        other => Err(format!("unexpected screen kind `{other}`")),
    }
}

impl Checker {
    pub fn new(client: Client, seed: u64, share: Vec<usize>) -> Checker {
        let name = format!("C{}", client.id);
        let worker = Worker::new(
            name,
            WorkerConfig {
                seed,
                ..WorkerConfig::default()
            },
        );
        Checker {
            client,
            worker,
            share,
            cursor: 0,
            resolved: 0,
            open: None,
            mid_claim: None,
            checker_seconds: 0.0,
        }
    }

    pub fn share_len(&self) -> usize {
        self.share.len()
    }

    pub fn drive(&mut self, shared: &Shared<'_>, limits: Limits) -> Result<Outcome, String> {
        let outcome = self.drive_inner(shared, limits);
        if outcome.is_err() {
            shared.abort.store(true, Ordering::Relaxed);
        }
        outcome
    }

    fn drive_inner(&mut self, shared: &Shared<'_>, limits: Limits) -> Result<Outcome, String> {
        let origin = shared.origin;
        loop {
            if shared.abort.load(Ordering::Relaxed) {
                return Err("stopped: another checker failed".to_string());
            }
            if let Some(claim) = self.mid_claim.take() {
                let session = self.open.as_ref().ok_or("mid-claim without a session")?.id;
                self.work_claim(shared, session, claim, false)?;
                continue;
            }
            let past_deadline = Instant::now() >= limits.deadline;
            if past_deadline && limits.suspend_after.is_none() {
                return Ok(Outcome::Finished);
            }
            let Some(open) = &mut self.open else {
                let report = self.next_report(shared);
                if report.is_empty() {
                    return Ok(Outcome::Finished);
                }
                let checker = Some(format!("C{}", self.client.id));
                let opened = self.client.call(origin, Request::Open { checker })?;
                let session = field(&opened, "session")?.as_usize().ok_or("bad session")? as u64;
                let submitted = self.client.call(
                    origin,
                    Request::Submit {
                        session,
                        claims: report,
                    },
                )?;
                let batch = claim_ids(field(&submitted, "batch")?)?;
                self.open = Some(OpenSession { id: session, batch });
                continue;
            };
            let session = open.id;
            match open.batch.pop_front() {
                Some(claim) => {
                    let suspend = limits
                        .suspend_after
                        .is_some_and(|n| self.resolved >= n || past_deadline);
                    if self.work_claim(shared, session, claim, suspend)? {
                        self.mid_claim = Some(claim);
                        return Ok(Outcome::Suspended);
                    }
                }
                None => {
                    let next = self.client.call(origin, Request::NextBatch { session })?;
                    let batch = claim_ids(field(&next, "batch")?)?;
                    if batch.is_empty() {
                        self.client.call(origin, Request::Close { session })?;
                        self.open = None;
                    } else {
                        open.batch = batch;
                    }
                }
            }
        }
    }

    /// The next report: up to `report_size` claims of the share, minus the
    /// ones the worker skips outright.
    fn next_report(&mut self, shared: &Shared<'_>) -> Vec<usize> {
        let mut report = Vec::with_capacity(shared.report_size);
        while report.len() < shared.report_size {
            if self.cursor == self.share.len() {
                if !shared.cycle || self.share.is_empty() {
                    break;
                }
                self.cursor = 0;
                if !report.is_empty() {
                    break; // a report never repeats a claim
                }
            }
            let claim = self.share[self.cursor];
            self.cursor += 1;
            if self.worker.skips() {
                self.client.tally.bump("skipped");
                self.resolved += 1;
            } else {
                report.push(claim);
            }
        }
        report
    }

    /// Works one claim: outstanding screens, suggestions, the final screen
    /// and the verdict. With `suspend`, stops right after the first
    /// acknowledged answer, with the claim's verdict outstanding, and
    /// returns `true`; a claim with no screen left is worked to the end.
    fn work_claim(
        &mut self,
        shared: &Shared<'_>,
        session: u64,
        claim_id: usize,
        suspend: bool,
    ) -> Result<bool, String> {
        let origin = shared.origin;
        let claim = &shared.corpus.claims[claim_id];
        let cost = shared.cost;
        let questions = self.client.call(
            origin,
            Request::Screens {
                session,
                claim: claim_id,
            },
        )?;
        let screens = field(field(&questions, "questions")?, "screens")?
            .as_arr()
            .ok_or("`screens` is not an array")?
            .to_vec();
        let mut seconds = 0.0;
        for screen in &screens {
            let kind = kind_of(field(screen, "kind")?.as_str().ok_or("bad kind")?)?;
            let options: Vec<String> = field(screen, "options")?
                .as_arr()
                .ok_or("bad options")?
                .iter()
                .map(|o| o.as_str().unwrap_or_default().to_string())
                .collect();
            let truth = match kind {
                PropertyKind::Relation => claim.relation.as_str(),
                PropertyKind::Key => claim.key.as_str(),
                PropertyKind::Attribute => claim.attributes[0].as_str(),
                PropertyKind::Formula => unreachable!("kind_of never yields Formula"),
            };
            let answered = self.worker.answer_screen(&options, truth, cost.vp, cost.sp);
            seconds += answered.seconds;
            self.client.call(
                origin,
                Request::Answer {
                    session,
                    claim: claim_id,
                    kind,
                    answer: answered.answer,
                },
            )?;
            if suspend {
                self.checker_seconds += seconds;
                return Ok(true);
            }
        }
        let suggested = self.client.call(
            origin,
            Request::Suggest {
                session,
                claim: claim_id,
            },
        )?;
        let suggestions = field(&suggested, "suggestions")?
            .as_arr()
            .ok_or("`suggestions` is not an array")?;
        let (correct, chosen, final_seconds) = self.final_screen(shared, claim_id, suggestions);
        seconds += final_seconds;
        let verdict = self.client.call(
            origin,
            Request::Verdict {
                session,
                claim: claim_id,
                correct,
                chosen,
            },
        )?;
        if field(&verdict, "matches_truth")?.as_bool() == Some(true) {
            self.client.tally.bump("matches");
        }
        self.checker_seconds += seconds;
        self.resolved += 1;
        Ok(false)
    }

    /// The final-screen rule of `Engine::verify_claim_inner`, on the
    /// fields the wire returns: a suggestion is truth-equivalent when it
    /// shows the ground-truth check or, for a correct claim, confirms the
    /// stated value. Returns the judgment, the accepted rank and the
    /// seconds it cost.
    fn final_screen(
        &mut self,
        shared: &Shared<'_>,
        claim_id: usize,
        suggestions: &[Json],
    ) -> (bool, Option<usize>, f64) {
        let claim = &shared.corpus.claims[claim_id];
        let truth = &shared.truth[claim_id];
        let cost = shared.cost;
        let text = |s: &Json, name: &str| s.get(name).and_then(Json::as_str).map(str::to_string);
        let truth_shown = suggestions.iter().position(|s| {
            let shows_check = text(s, "formula").as_deref() == Some(claim.formula_text.as_str())
                && truth.sql.is_some()
                && text(s, "sql") == truth.sql;
            let confirms = s.get("matches_parameter").and_then(Json::as_bool) == Some(true);
            shows_check || (claim.is_correct && confirms)
        });
        match truth_shown {
            Some(position) if claim.is_correct => {
                let labels: Vec<String> = suggestions[..=position]
                    .iter()
                    .map(|s| {
                        format!(
                            "{} \u{2192} {:.4}",
                            text(s, "sql").unwrap_or_default(),
                            s.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN)
                        )
                    })
                    .collect();
                let shown = self
                    .worker
                    .answer_screen(&labels, &labels[position], cost.vf, cost.sf);
                (true, shown.chosen, shown.seconds)
            }
            _ => {
                let mut seconds = 0.0;
                let extra_scans = if truth.parameter.is_some() {
                    0
                } else {
                    suggestions.len().saturating_sub(1).min(1)
                };
                seconds += cost.vf * extra_scans as f64;
                let (judged_correct, judge_seconds) =
                    self.worker.judge_result(claim.is_correct, &cost);
                seconds += judge_seconds;
                if suggestions.is_empty() {
                    seconds += if judged_correct {
                        cost.sf
                    } else {
                        cost.sf * 0.5
                    };
                }
                (judged_correct, None, seconds)
            }
        }
    }
}
