//! Executing one schedule against one simulated engine.
//!
//! The harness plays the client side of [`N_SLOTS`] JSON-lines
//! connections plus one dedicated binary-codec connection (`BIN_SLOT`)
//! over in-memory [`SimStream`] pairs, while the *server* side runs the
//! very same [`step_conn`] per-connection step production uses — the
//! simulation model-checks the real serving code, not a stand-in. Requests execute
//! inline (single-threaded, in slot order), the background trainer runs
//! only when the schedule says so, and every step ends with the full
//! invariant battery.
//!
//! Determinism: everything a response contains is a function of the
//! schedule prefix — ids and trace ids are assigned from a counter, the
//! trainer is driven explicitly, verification runs inline under
//! simulation, and the planner is pinned to one thread. The only
//! nondeterministic observable is wall-clock latency, so the run digest
//! skips `stats` response bodies (their histograms) and hashes
//! everything else byte-for-byte.

use std::collections::HashMap;
use std::sync::Arc;

use scrutinizer_engine::engine::Engine;
use scrutinizer_engine::protocol::{handle_payload, Json};
use scrutinizer_engine::{codec, step_conn, wire, ConnState, ServiceLimits};
use scrutinizer_engine::{EngineStats, Request, WireCodec, BINARY_MAGIC};
use scrutinizer_sim::storage::{FAULT_CRASH_TORN, FAULT_CRASH_ZERO_TAIL};
use scrutinizer_sim::{FaultPlan, SimEndpoint, SimScheduler, SimStorage, SimStream};

use crate::invariants::{
    check_durability, check_sql_outcome, check_stats, DurableSnapshot, InvariantKind, Mirror,
    Violation,
};
use crate::schedule::{SimOp, N_SLOTS};
use crate::world::SharedWorld;

/// The dedicated binary-codec connection slot: `binframe` ops send
/// length-prefixed frames here after negotiating with the magic byte,
/// while slots `0..N_SLOTS` stay JSON-lines. Fault ops target this slot
/// too, so binary connections see drops, stalls, and partial writes.
const BIN_SLOT: usize = N_SLOTS;

/// Outcome of one schedule run.
pub struct RunResult {
    /// The first invariant violation, if any.
    pub violation: Option<Violation>,
    /// FNV-1a digest over every deterministic response byte and the
    /// final counters — bitwise equal across runs of the same schedule.
    pub digest: u64,
    /// Requests the engine answered (including error responses).
    pub requests: u64,
}

/// What the harness remembers about a request it sent, keyed by id.
struct Meta {
    slot: usize,
    trace: String,
    op: MetaOp,
    /// Skip the response body in the digest (stats histograms carry real
    /// wall-clock timings).
    skip_body: bool,
}

enum MetaOp {
    Open,
    Submit(Vec<usize>),
    Verdict(usize),
    Sql(usize),
    /// A batch whose first sub-request is this SQL-pool query.
    Batch(usize),
    Close,
    Other,
}

/// One client connection slot: the server-side state machine, the
/// client-side endpoint, and the delivery ledger for this incarnation.
#[derive(Default)]
struct Slot {
    conn: Option<(ConnState<SimStream>, SimEndpoint)>,
    session: Option<u64>,
    claims: Vec<usize>,
    sent: Vec<u64>,
    delivered: Vec<u64>,
    recv_buf: Vec<u8>,
    /// The held-back tail of a split binary frame, flushed at the next
    /// `binframe` op on this slot or at quiesce — fault ops in between
    /// land mid-frame.
    pending_tail: Vec<u8>,
}

/// Runs `ops` against a fresh simulated engine in `world`. With `canary`
/// the deliberately-injected trainer bug is enabled: an armed crash
/// *discards* the batch it took instead of rolling its cursor back, which
/// the verdict-loss invariant must catch.
pub fn run_schedule(world: &SharedWorld, ops: &[SimOp], canary: bool) -> RunResult {
    // the storage fault plan outlives engine incarnations (the storage
    // holds it), unlike the per-incarnation engine fault plan below
    let storage_faults = Arc::new(FaultPlan::new());
    let storage = SimStorage::with_faults(Arc::clone(&storage_faults));
    let (engine, scheduler, faults, _) = world
        .spawn_engine(Arc::clone(&storage) as _)
        .expect("fresh simulated storage cannot fail to open");
    let mut harness = Harness {
        world,
        engine,
        scheduler,
        faults,
        storage,
        storage_faults,
        crashed: None,
        canary,
        limits: ServiceLimits {
            max_line_bytes: 1 << 16,
            write_buffer_limit: 1 << 20,
            max_pipeline: 128,
        },
        slots: Vec::from_iter((0..=N_SLOTS).map(|_| Slot::default())),
        meta: HashMap::new(),
        mirror: Mirror::default(),
        next_id: 1,
        step: 0,
        digest: 0xCBF2_9CE4_8422_2325,
    };
    let violation = harness.run(ops).err();
    // a clone, so the stats borrow does not pin the harness
    let engine = Arc::clone(&harness.engine);
    let stats = engine.stats();
    harness.fold_final_stats(stats);
    RunResult {
        violation,
        digest: harness.digest,
        requests: stats.requests_total.get(),
    }
}

struct Harness<'w> {
    world: &'w SharedWorld,
    engine: Arc<Engine>,
    scheduler: Arc<SimScheduler>,
    faults: Arc<FaultPlan>,
    /// Durable storage shared across engine incarnations.
    storage: Arc<SimStorage>,
    /// The fault plan the *storage* consults (kill-time torn tails) —
    /// distinct from `faults`, which dies with the engine incarnation.
    storage_faults: Arc<FaultPlan>,
    /// `Some(durable state at the kill)` while the process is dead; ops
    /// other than `recover` are no-ops in that window.
    crashed: Option<DurableSnapshot>,
    canary: bool,
    limits: ServiceLimits,
    slots: Vec<Slot>,
    meta: HashMap<u64, Meta>,
    mirror: Mirror,
    next_id: u64,
    step: usize,
    digest: u64,
}

impl Harness<'_> {
    fn run(&mut self, ops: &[SimOp]) -> Result<(), Violation> {
        for (index, op) in ops.iter().enumerate() {
            self.step = index;
            self.apply(op)?;
            if self.crashed.is_some() {
                // the process is dead: nothing to pump, no engine whose
                // stats could meaningfully be checked
                continue;
            }
            self.pump()?;
            check_stats(self.engine.stats(), &mut self.mirror, self.step)?;
        }
        self.step = ops.len();
        self.quiesce()
    }

    /// Executes one schedule op: either a fault/driver action or a
    /// request line pushed onto a slot's client endpoint.
    fn apply(&mut self, op: &SimOp) -> Result<(), Violation> {
        if self.crashed.is_some() && !matches!(op, SimOp::Recover) {
            // a dead process takes no requests and fires no faults
            return Ok(());
        }
        match op {
            SimOp::Open { slot } => {
                let (id, trace) = self.fresh_id();
                let line = format!(
                    "{{\"op\":\"open\",\"v\":1,\"id\":{id},\"trace\":\"{trace}\",\"checker\":\"sim-{slot}\"}}"
                );
                self.send(*slot, id, trace, MetaOp::Open, false, &line);
            }
            SimOp::Submit { slot, claims } => {
                let (id, trace) = self.fresh_id();
                let session = self.session_of(*slot);
                let ids: Vec<String> = claims.iter().map(usize::to_string).collect();
                let line = format!(
                    "{{\"op\":\"submit\",\"v\":1,\"id\":{id},\"trace\":\"{trace}\",\"session\":{session},\"claims\":[{}]}}",
                    ids.join(",")
                );
                self.send(
                    *slot,
                    id,
                    trace,
                    MetaOp::Submit(claims.clone()),
                    false,
                    &line,
                );
            }
            SimOp::Answer { slot, pick } => {
                let (id, trace) = self.fresh_id();
                let session = self.session_of(*slot);
                let claim = self.claim_of(*slot, *pick);
                let relation = self.world.relation_of(claim).to_string();
                let line = format!(
                    "{{\"op\":\"answer\",\"v\":1,\"id\":{id},\"trace\":\"{trace}\",\"session\":{session},\"claim\":{claim},\"kind\":\"relation\",\"answer\":\"{relation}\"}}"
                );
                self.send(*slot, id, trace, MetaOp::Other, false, &line);
            }
            SimOp::Suggest { slot, pick } => {
                let (id, trace) = self.fresh_id();
                let session = self.session_of(*slot);
                let claim = self.claim_of(*slot, *pick);
                let line = format!(
                    "{{\"op\":\"suggest\",\"v\":1,\"id\":{id},\"trace\":\"{trace}\",\"session\":{session},\"claim\":{claim}}}"
                );
                self.send(*slot, id, trace, MetaOp::Other, false, &line);
            }
            SimOp::Verdict {
                slot,
                pick,
                correct,
            } => {
                let (id, trace) = self.fresh_id();
                let session = self.session_of(*slot);
                let claim = self.claim_of(*slot, *pick);
                let line = format!(
                    "{{\"op\":\"verdict\",\"v\":1,\"id\":{id},\"trace\":\"{trace}\",\"session\":{session},\"claim\":{claim},\"correct\":{correct}}}"
                );
                self.send(*slot, id, trace, MetaOp::Verdict(claim), false, &line);
            }
            SimOp::Sql { slot, query } => {
                let (id, trace) = self.fresh_id();
                let index = query % self.world.sql_pool.len();
                let sql = &self.world.sql_pool[index];
                let line = format!(
                    "{{\"op\":\"sql\",\"v\":1,\"id\":{id},\"trace\":\"{trace}\",\"query\":\"{sql}\"}}"
                );
                self.send(*slot, id, trace, MetaOp::Sql(index), false, &line);
            }
            SimOp::Batch { slot, query } => {
                let (id, trace) = self.fresh_id();
                let index = query % self.world.sql_pool.len();
                let sql = &self.world.sql_pool[index];
                let line = format!(
                    "{{\"op\":\"batch\",\"v\":1,\"id\":{id},\"trace\":\"{trace}\",\"requests\":[{{\"op\":\"sql\",\"query\":\"{sql}\"}},{{\"op\":\"stats\"}}]}}"
                );
                self.send(*slot, id, trace, MetaOp::Batch(index), true, &line);
            }
            SimOp::Stats { slot } => {
                let (id, trace) = self.fresh_id();
                let line =
                    format!("{{\"op\":\"stats\",\"v\":1,\"id\":{id},\"trace\":\"{trace}\"}}");
                self.send(*slot, id, trace, MetaOp::Other, true, &line);
            }
            SimOp::Close { slot } => {
                let (id, trace) = self.fresh_id();
                let session = self.session_of(*slot);
                let line = format!(
                    "{{\"op\":\"close\",\"v\":1,\"id\":{id},\"trace\":\"{trace}\",\"session\":{session}}}"
                );
                self.send(*slot, id, trace, MetaOp::Close, false, &line);
            }
            SimOp::DriveTrainer => {
                self.scheduler.drive_one();
            }
            SimOp::DropConn { slot } => {
                if let Some((_, endpoint)) = &self.slots[*slot].conn {
                    endpoint.drop_hard();
                }
            }
            SimOp::Stall { slot, on } => {
                if let Some((_, endpoint)) = &self.slots[*slot].conn {
                    endpoint.set_stalled(*on);
                }
            }
            SimOp::PartialWrites { slot, cap } => {
                if let Some((_, endpoint)) = &self.slots[*slot].conn {
                    endpoint.set_write_cap(if *cap == 0 { None } else { Some(*cap) });
                }
            }
            SimOp::CrashTrainer => {
                self.faults.arm("trainer.crash", 1);
                if self.canary {
                    self.faults.arm("canary.trainer.drop_batch", 1);
                }
            }
            SimOp::Crash { torn } => {
                // what the WAL guaranteed at this instant: every op the
                // harness saw acknowledged (requests execute inline, so
                // post-pump counters are all-acked counters)
                self.crashed = Some(DurableSnapshot::capture(self.engine.stats()));
                if *torn {
                    self.storage_faults.arm(FAULT_CRASH_TORN, 1);
                }
                // production storage zero-fills the active segment ahead
                // of its records, so every real kill leaves a zero tail
                // (the only file appended since its last trim)
                self.storage_faults.arm(FAULT_CRASH_ZERO_TAIL, 1);
                self.storage.crash();
                // connections die with the process; sessions are durable
                // state and survive in the log, so slots keep their
                // session ids and accepted claims for after recovery
                for state in &mut self.slots {
                    state.conn = None;
                    state.sent.clear();
                    state.delivered.clear();
                    state.recv_buf.clear();
                    state.pending_tail.clear();
                }
                self.meta.clear();
            }
            SimOp::Recover => {
                if self.crashed.is_some() {
                    self.recover()?;
                }
            }
            SimOp::BinFrame { query, split } => {
                self.flush_pending_tail(BIN_SLOT);
                let (id, trace) = self.fresh_id();
                let index = query % self.world.sql_pool.len();
                let sql = self.world.sql_pool[index].clone();
                let mut frame = Vec::new();
                // the binary trace is the raw u64 id; its wire rendering
                // is the same 16 hex digits `fresh_id` recorded, so the
                // echo check works unchanged across codecs
                wire::request_frame(&mut frame, &Request::Sql { query: sql }, Some(id), Some(id));
                self.send_binary(id, trace, MetaOp::Sql(index), *split, &frame);
            }
        }
        Ok(())
    }

    /// Restarts the process: a fresh engine incarnation recovers from
    /// the shared durable storage (fresh scheduler and
    /// per-incarnation fault plan — queued trainer jobs died with the
    /// old process), then the durability invariant holds recovery to the
    /// state captured at the kill.
    fn recover(&mut self) -> Result<(), Violation> {
        let expected = self.crashed.take().expect("recover only while crashed");
        let spawned = self
            .world
            .spawn_engine(Arc::clone(&self.storage) as _)
            .map_err(|error| Violation {
                kind: InvariantKind::Durability,
                step: self.step,
                detail: format!("recovery failed to open the WAL: {error}"),
            })?;
        let (engine, scheduler, faults, _report) = spawned;
        self.engine = engine;
        self.scheduler = scheduler;
        self.faults = faults;
        let recovered = DurableSnapshot::capture(self.engine.stats());
        check_durability(&expected, &recovered, self.step)
    }

    /// Delivers a held-back frame tail, if any, completing the frame a
    /// previous split `binframe` op left half-sent.
    fn flush_pending_tail(&mut self, slot: usize) {
        let state = &mut self.slots[slot];
        if state.pending_tail.is_empty() {
            return;
        }
        if let Some((_, endpoint)) = &state.conn {
            endpoint.send(&state.pending_tail);
        }
        state.pending_tail.clear();
    }

    /// Queues one binary frame (or its first half) on the dedicated
    /// binary slot, opening the connection with the codec magic byte on
    /// first use.
    fn send_binary(&mut self, id: u64, trace: String, op: MetaOp, split: bool, frame: &[u8]) {
        if self.slots[BIN_SLOT].conn.is_none() {
            let (server, client) = scrutinizer_sim::sim_pair();
            let state = &mut self.slots[BIN_SLOT];
            state.conn = Some((ConnState::new(server), client));
            state.sent.clear();
            state.delivered.clear();
            state.recv_buf.clear();
            state.pending_tail.clear();
            let (_, endpoint) = state.conn.as_ref().expect("slot connection just ensured");
            endpoint.send(&[BINARY_MAGIC]);
        }
        let state = &mut self.slots[BIN_SLOT];
        let (_, endpoint) = state.conn.as_ref().expect("slot connection just ensured");
        if split {
            let cut = frame.len() / 2;
            endpoint.send(&frame[..cut]);
            state.pending_tail.extend_from_slice(&frame[cut..]);
        } else {
            endpoint.send(frame);
        }
        state.sent.push(id);
        self.meta.insert(
            id,
            Meta {
                slot: BIN_SLOT,
                trace,
                op,
                skip_body: false,
            },
        );
    }

    /// Assigns the next request id and its trace id (the id in 16 hex
    /// digits, so `scrutinizer_obs::TraceId::from_wire` round-trips it
    /// and responses must echo it byte-for-byte).
    fn fresh_id(&mut self) -> (u64, String) {
        let id = self.next_id;
        self.next_id += 1;
        (id, format!("{id:016x}"))
    }

    /// The slot's session id for request construction; a sentinel that no
    /// engine ever issues when the slot has none (the request then draws
    /// a structured `unknown_session`, which is itself valid behavior to
    /// explore).
    fn session_of(&self, slot: usize) -> u64 {
        self.slots[slot].session.unwrap_or(999_999_999)
    }

    /// Resolves a schedule `pick` against the slot's accepted claims, or
    /// the whole corpus when none are accepted yet.
    fn claim_of(&self, slot: usize, pick: usize) -> usize {
        let claims = &self.slots[slot].claims;
        if claims.is_empty() {
            pick % self.world.n_claims
        } else {
            claims[pick % claims.len()]
        }
    }

    /// Queues one request line on the slot's client endpoint, opening a
    /// fresh connection pair if the slot has none (first use, or after a
    /// drop — the session survives reconnects, as over TCP).
    fn send(
        &mut self,
        slot: usize,
        id: u64,
        trace: String,
        op: MetaOp,
        skip_body: bool,
        line: &str,
    ) {
        if self.slots[slot].conn.is_none() {
            let (server, client) = scrutinizer_sim::sim_pair();
            let state = &mut self.slots[slot];
            state.conn = Some((ConnState::new(server), client));
            state.sent.clear();
            state.delivered.clear();
            state.recv_buf.clear();
        }
        let state = &mut self.slots[slot];
        let (_, endpoint) = state.conn.as_ref().expect("slot connection just ensured");
        endpoint.send(line.as_bytes());
        endpoint.send(b"\n");
        state.sent.push(id);
        self.meta.insert(
            id,
            Meta {
                slot,
                trace,
                op,
                skip_body,
            },
        );
    }

    /// Steps every connection in slot order until nothing moves, through
    /// the production `step_conn`: flush → read → split, queued payloads
    /// executed inline through the production `handle_payload` under the
    /// connection's negotiated codec while the write backlog is under its
    /// limit, each response checked as it is rendered, then client bytes
    /// drained and receipted. Single-threaded and ordered, so identical
    /// schedules take identical paths.
    fn pump(&mut self) -> Result<(), Violation> {
        let limits = self.limits;
        let engine = Arc::clone(&self.engine);
        loop {
            let mut progress = false;
            for slot_index in 0..self.slots.len() {
                let Some((mut conn, endpoint)) = self.slots[slot_index].conn.take() else {
                    continue;
                };
                let stepped = step_conn(
                    &mut conn,
                    &limits,
                    false,
                    engine.stats_ref(),
                    |wire_codec, payload, out| {
                        let start = out.len();
                        handle_payload(&engine, wire_codec, payload, out);
                        self.note_response(wire_codec, &out[start..])
                    },
                );
                match stepped {
                    Ok(moved) => progress |= moved,
                    Err(violation) => {
                        self.slots[slot_index].conn = Some((conn, endpoint));
                        return Err(violation);
                    }
                }
                let dead = conn.dead || endpoint.is_dropped();
                if dead {
                    // the incarnation's delivery ledger dies with it: a
                    // dropped client has no delivery guarantees
                    let state = &mut self.slots[slot_index];
                    state.sent.clear();
                    state.delivered.clear();
                    state.recv_buf.clear();
                    state.pending_tail.clear();
                    progress = true;
                } else {
                    self.drain_client(slot_index, &endpoint)?;
                    self.slots[slot_index].conn = Some((conn, endpoint));
                }
            }
            if !progress {
                return Ok(());
            }
        }
    }

    /// Pulls server→client bytes, splits complete responses (lines on
    /// JSON slots, length-prefixed frames on the binary slot), and
    /// receipts each delivered response id in order.
    fn drain_client(&mut self, slot: usize, endpoint: &SimEndpoint) -> Result<(), Violation> {
        let bytes = endpoint.recv();
        if bytes.is_empty() {
            return Ok(());
        }
        let step = self.step;
        let state = &mut self.slots[slot];
        state.recv_buf.extend_from_slice(&bytes);
        if slot == BIN_SLOT {
            loop {
                let (id, used) = {
                    let Some((payload, used)) = wire::split_frame(&state.recv_buf) else {
                        break;
                    };
                    let parsed = codec::decode_response(payload).map_err(|error| Violation {
                        kind: InvariantKind::Delivery,
                        step,
                        detail: format!("slot {slot} received an undecodable frame: {error:?}"),
                    })?;
                    let id = parsed
                        .get("id")
                        .and_then(Json::as_usize)
                        .ok_or_else(|| Violation {
                            kind: InvariantKind::Delivery,
                            step,
                            detail: format!("slot {slot} received a frame without an id"),
                        })? as u64;
                    (id, used)
                };
                state.delivered.push(id);
                state.recv_buf.drain(..used);
            }
            return Ok(());
        }
        while let Some(newline) = state.recv_buf.iter().position(|&b| b == b'\n') {
            let rest = state.recv_buf.split_off(newline + 1);
            let mut line = std::mem::replace(&mut state.recv_buf, rest);
            line.pop();
            let text = String::from_utf8_lossy(&line);
            let parsed = Json::parse(&text).map_err(|_| Violation {
                kind: InvariantKind::Delivery,
                step,
                detail: format!("slot {slot} received an unparseable response: {text}"),
            })?;
            let id = parsed
                .get("id")
                .and_then(Json::as_usize)
                .ok_or_else(|| Violation {
                    kind: InvariantKind::Delivery,
                    step,
                    detail: format!("slot {slot} received a response without an id: {text}"),
                })? as u64;
            state.delivered.push(id);
        }
        Ok(())
    }

    /// Bookkeeping at execution time: the response updates the mirror
    /// *when the request runs*, not when the client reads it — a dropped
    /// connection may discard a delivered response, but the engine-side
    /// effect already happened and the invariants must account for it.
    /// Binary frames are decoded into the same JSON object shape the
    /// JSON codec produces, so the checks below are codec-agnostic.
    fn note_response(&mut self, wire_codec: WireCodec, response: &[u8]) -> Result<(), Violation> {
        let parsed = match wire_codec {
            WireCodec::Json => {
                let text = String::from_utf8_lossy(response);
                Json::parse(text.trim_end()).map_err(|_| Violation {
                    kind: InvariantKind::Delivery,
                    step: self.step,
                    detail: format!("engine produced an unparseable response: {text}"),
                })?
            }
            WireCodec::Binary => {
                let (payload, _) = wire::split_frame(response).ok_or_else(|| Violation {
                    kind: InvariantKind::Delivery,
                    step: self.step,
                    detail: "engine produced a partial binary frame".to_string(),
                })?;
                codec::decode_response(payload).map_err(|error| Violation {
                    kind: InvariantKind::Delivery,
                    step: self.step,
                    detail: format!("engine produced an undecodable frame: {error:?}"),
                })?
            }
        };
        let id = parsed
            .get("id")
            .and_then(Json::as_usize)
            .ok_or_else(|| Violation {
                kind: InvariantKind::Delivery,
                step: self.step,
                detail: format!(
                    "response lost its request id: {}",
                    String::from_utf8_lossy(response)
                ),
            })? as u64;
        let meta = self.meta.remove(&id).ok_or_else(|| Violation {
            kind: InvariantKind::Delivery,
            step: self.step,
            detail: format!(
                "response for an id never sent: {}",
                String::from_utf8_lossy(response)
            ),
        })?;

        let echoed = parsed.get("trace").and_then(Json::as_str).unwrap_or("");
        if echoed != meta.trace {
            return Err(Violation {
                kind: InvariantKind::TraceStitching,
                step: self.step,
                detail: format!(
                    "request {id} carried trace {} but the response says {echoed:?}",
                    meta.trace
                ),
            });
        }
        let ok = parsed.get("ok").and_then(Json::as_bool).unwrap_or(false);

        match meta.op {
            MetaOp::Open => {
                if ok {
                    let session = parsed.get("session").and_then(Json::as_usize);
                    self.slots[meta.slot].session = session.map(|s| s as u64);
                }
            }
            MetaOp::Submit(claims) => {
                if ok {
                    let accepted = &mut self.slots[meta.slot].claims;
                    for claim in claims {
                        if !accepted.contains(&claim) {
                            accepted.push(claim);
                        }
                    }
                }
            }
            MetaOp::Verdict(claim) => {
                if ok {
                    self.mirror.verified.insert(claim);
                }
            }
            MetaOp::Sql(query) => {
                let outcome = sql_outcome(&parsed, ok);
                check_sql_outcome(&mut self.mirror, query, outcome, self.step)?;
            }
            MetaOp::Batch(query) => {
                if let Some(results) = parsed.get("results").and_then(Json::as_arr) {
                    for sub in results {
                        let sub_trace = sub.get("trace").and_then(Json::as_str).unwrap_or("");
                        if sub_trace != meta.trace {
                            return Err(Violation {
                                kind: InvariantKind::TraceStitching,
                                step: self.step,
                                detail: format!(
                                    "batch {id} carried trace {} but a sub-response says {sub_trace:?}",
                                    meta.trace
                                ),
                            });
                        }
                    }
                    if let Some(sql) = results.first() {
                        let sub_ok = sql.get("ok").and_then(Json::as_bool).unwrap_or(false);
                        let outcome = sql_outcome(sql, sub_ok);
                        check_sql_outcome(&mut self.mirror, query, outcome, self.step)?;
                    }
                }
            }
            MetaOp::Close => {
                if ok {
                    let state = &mut self.slots[meta.slot];
                    state.session = None;
                    state.claims.clear();
                }
            }
            MetaOp::Other => {}
        }

        // the determinism digest: full bytes for deterministic bodies
        // (raw frame bytes on the binary slot), envelope only where
        // wall-clock timings leak in (stats)
        self.fold(&id.to_le_bytes());
        if meta.skip_body {
            self.fold(&[u8::from(ok)]);
            self.fold(meta.trace.as_bytes());
        } else {
            self.fold(response);
        }
        Ok(())
    }

    /// End of schedule: lift every fault, drain the trainer, flush every
    /// connection, then hold the engine to the final reckoning — delivery
    /// integrity per surviving connection and one last invariant pass.
    fn quiesce(&mut self) -> Result<(), Violation> {
        // a schedule may end mid-crash; the reckoning below needs a live
        // engine, and ending on a recovery checks durability once more
        if self.crashed.is_some() {
            self.recover()?;
        }
        for slot in 0..self.slots.len() {
            self.flush_pending_tail(slot);
        }
        for state in &self.slots {
            if let Some((_, endpoint)) = &state.conn {
                endpoint.set_stalled(false);
                endpoint.set_write_cap(None);
            }
        }
        self.pump()?;
        self.engine.flush_retrains();
        self.pump()?;

        for slot in 0..self.slots.len() {
            let state = &self.slots[slot];
            if state.conn.is_none() {
                continue;
            }
            if state.delivered != state.sent {
                return Err(Violation {
                    kind: InvariantKind::Delivery,
                    step: self.step,
                    detail: format!(
                        "slot {slot} sent ids {:?} but received responses for {:?}",
                        state.sent, state.delivered
                    ),
                });
            }
        }

        let stats = self.engine.stats();
        check_stats(stats, &mut self.mirror, self.step)?;
        let pending = stats.pending_examples.get();
        if pending != 0 {
            return Err(Violation {
                kind: InvariantKind::VerdictLoss,
                step: self.step,
                detail: format!("{pending} examples still pending after flush_retrains"),
            });
        }
        Ok(())
    }

    /// Folds the deterministic subset of the final counters into the
    /// digest, so two runs must also agree on ending state — not just on
    /// response bytes.
    fn fold_final_stats(&mut self, stats: &EngineStats) {
        for value in [
            stats.sessions_opened.get(),
            stats.sessions_closed.get(),
            stats.claims_verified.get(),
            stats.answers_posted.get(),
            stats.suggestions_served.get(),
            stats.retrains.get(),
            stats.background_retrains.get(),
            stats.examples_trained.get(),
            stats.model_epoch.get(),
            stats.pending_examples.get(),
            stats.sql_executed.get(),
            stats.requests_total.get(),
            stats.requests_ok.get(),
        ] {
            self.fold(&value.to_le_bytes());
        }
        for errors in &stats.wire_errors {
            self.fold(&errors.get().to_le_bytes());
        }
    }

    /// FNV-1a, byte at a time.
    fn fold(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.digest ^= u64::from(byte);
            self.digest = self.digest.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

/// Extracts the SQL mirror outcome from a response object: `Some(bits)`
/// for an evaluated value, `None` for a structured `sql` failure, and
/// nothing to record for other error codes (those depend on session
/// state, not on the query).
fn sql_outcome(parsed: &Json, ok: bool) -> Option<u64> {
    if ok {
        parsed.get("value").and_then(Json::as_f64).map(f64::to_bits)
    } else {
        None
    }
}
