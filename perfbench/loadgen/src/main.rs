//! `loadgen` — plays seeded simulated checkers through the full session
//! loop against a durable `scrutinizer-serve` child process, and writes
//! what it measured and checked to an output directory:
//!
//! * `summary.json` — the run's cold starts, its server processes, the
//!   host's pace (see [`pace`]) and, per round: restart and traffic
//!   windows, tallies, stats deltas, data-dir file sizes, peak server
//!   memory and every correctness gate;
//! * `requests.tsv` — one line per request (round, op, client, server
//!   process, start, round trip, bytes, trace id, ok), joined offline
//!   against the server's `--trace-log` spans;
//! * `server-<gen>.log` / `trace-<gen>.jsonl` — each server process's
//!   stderr and, with `--trace`, its span log.
//!
//! ```text
//! loadgen --server BIN --workload paper_json|small_binary|paper_recover
//!         --seed N --seconds S --rounds R --out DIR [--trace]
//! ```
//!
//! A run first cold-starts the server on fresh data dirs (corpus
//! generation, pretrain, first epoch written); the first one's data dir is
//! the template. Then come `R` rounds, each on a fresh server started on a
//! copy of the template, so a round recovers the pretrained epoch instead
//! of training it again. `paper_recover` kills and restarts the server
//! mid-pass; every round ends with one more kill → restart.
//!
//! `perfbench/run.py` builds this and the server, calls it, and turns the
//! output into the benchmark's metrics.

mod checker;
mod conn;
mod pace;
mod server;

use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::process::exit;
use std::sync::atomic::AtomicBool;
use std::time::{Duration, Instant};

use scrutinizer_corpus::{Corpus, CorpusConfig};
use scrutinizer_crowd::CostModel;
use scrutinizer_engine::protocol::{obj, Json};
use scrutinizer_engine::Request;

use checker::{Checker, Client, Limits, Outcome, Shared, Tally, CONTROL_ID};
use conn::Codec;
use pace::Pace;
use server::{Launcher, ServerProc};

/// Simulated checkers per run: one thread and one connection each.
const CHECKERS: usize = 2;

/// Kill → restart cycles in the middle of each `paper_recover` round.
const RESTARTS: usize = 3;

/// The trace sink drains every 250 ms; waiting two intervals before a
/// SIGKILL keeps the spans of acknowledged requests in the log.
const TRACE_DRAIN_WAIT: Duration = Duration::from_millis(600);

struct Args {
    server: PathBuf,
    workload: String,
    seed: u64,
    seconds: f64,
    rounds: usize,
    out: PathBuf,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let (mut server, mut workload, mut out) = (None, None, None);
    let (mut seed, mut seconds, mut rounds, mut trace) = (1u64, 10.0f64, 1usize, false);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--server" => server = Some(PathBuf::from(value()?)),
            "--workload" => workload = Some(value()?),
            "--out" => out = Some(PathBuf::from(value()?)),
            "--seed" => seed = value()?.parse().map_err(|_| "--seed needs an integer")?,
            "--seconds" => seconds = value()?.parse().map_err(|_| "--seconds needs a number")?,
            "--rounds" => rounds = value()?.parse().map_err(|_| "--rounds needs an integer")?,
            "--trace" => trace = true,
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Args {
        server: server.ok_or("--server is required")?,
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        rounds: rounds.max(1),
        out: out.ok_or("--out is required")?,
        trace,
    })
}

/// One traffic mix: server flags, codec and session shape.
struct Workload {
    scale: &'static str,
    /// A fixed corpus seed; `None` generates the corpus from the workload
    /// seed.
    corpus_seed: Option<u64>,
    server_flags: &'static [&'static str],
    codec: Codec,
    report_size: usize,
    /// Cycle through the corpus until the deadline (else: one pass).
    cycle: bool,
    /// Kill the server mid-run and resume on a restarted one.
    crash_resume: bool,
    /// Cold starts per run; their median is `setup_s` (except in
    /// `paper_recover`, where it is the restarts').
    cold_starts: usize,
}

impl Workload {
    /// Whether verdicts feed background retrains: on unless the server
    /// flags set `--retrain-interval 0`.
    fn retrains(&self) -> bool {
        !self
            .server_flags
            .windows(2)
            .any(|pair| pair == ["--retrain-interval", "0"])
    }
}

fn workload(name: &str) -> Result<Workload, String> {
    match name {
        "paper_json" | "paper_recover" => Ok(Workload {
            scale: "paper",
            corpus_seed: None,
            server_flags: &[],
            codec: Codec::Json,
            report_size: 10,
            cycle: false,
            crash_resume: name == "paper_recover",
            // a paper cold start pretrains for 11-16 s
            cold_starts: 1,
        }),
        "small_binary" => Ok(Workload {
            scale: "small",
            // 80 claims are too few to average out: across corpus seeds
            // goodput and suggest latency swing by ~20 %, so the corpus
            // is the server's default and the seed drives the traffic
            corpus_seed: Some(17),
            server_flags: &["--retrain-interval", "0", "--cache-capacity", "1048576"],
            codec: Codec::Binary,
            report_size: 4,
            cycle: true,
            crash_resume: false,
            // a small cold start takes 40-80 ms; its time is bimodal from
            // one minute to the next, so take enough of them
            cold_starts: 9,
        }),
        other => Err(format!(
            "unknown workload `{other}` (paper_json|small_binary|paper_recover)"
        )),
    }
}

/// SplitMix64: the client's only randomness besides the workers.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The corpus in a seeded order, dealt round-robin into one disjoint
/// share per checker.
fn shares(n_claims: usize, seed: u64) -> Vec<Vec<usize>> {
    let mut order: Vec<usize> = (0..n_claims).collect();
    let mut state = seed ^ 0x5EED_C1A1_5EED_C1A1;
    for i in (1..order.len()).rev() {
        let j = (splitmix(&mut state) % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    (0..CHECKERS)
        .map(|c| order.iter().copied().skip(c).step_by(CHECKERS).collect())
        .collect()
}

fn num(stats: &Json, path: &str) -> f64 {
    path.split('.')
        .try_fold(stats, |json, key| json.get(key))
        .and_then(Json::as_f64)
        .unwrap_or(f64::NAN)
}

/// Stats counters whose deltas over the traffic windows the benchmark
/// reports.
const DELTA_FIELDS: &[&str] = &[
    "background_retrains",
    "planner_plans",
    "planner_incremental_repairs",
    "planner_nodes",
    "cache_hits",
    "cache_misses",
    "wal.bytes_written",
    "wal.fsyncs",
];

/// The counters a restart must reproduce exactly.
const ACKED_FIELDS: &[&str] = &[
    "sessions_opened",
    "sessions_closed",
    "sessions_live",
    "claims_verified",
    "answers_posted",
];

/// The trainer's durable state, equal across a restart when no retrain
/// runs.
const TRAINER_FIELDS: &[&str] = &[
    "retrains",
    "background_retrains",
    "examples_trained",
    "model_epoch",
    "pending_examples",
];

fn error_sum(stats: &Json) -> f64 {
    match stats.get("errors") {
        Some(Json::Obj(fields)) => fields.iter().filter_map(|(_, v)| v.as_f64()).sum(),
        _ => f64::NAN,
    }
}

/// The run's correctness gates, in the order they were checked.
#[derive(Default)]
struct Gates(Vec<(String, bool, String)>);

impl Gates {
    fn check(&mut self, name: impl Into<String>, ok: bool, detail: impl Into<String>) {
        let (name, detail) = (name.into(), detail.into());
        if !ok {
            eprintln!("loadgen: gate `{name}` failed: {detail}");
        }
        self.0.push((name, ok, detail));
    }

    fn equal(&mut self, name: &str, got: f64, want: f64) {
        self.check(name, got == want, format!("server {got} vs client {want}"));
    }

    fn to_json(&self) -> Json {
        Json::Arr(
            self.0
                .iter()
                .map(|(name, ok, detail)| {
                    obj(vec![
                        ("name", Json::Str(name.clone())),
                        ("ok", Json::Bool(*ok)),
                        ("detail", Json::Str(detail.clone())),
                    ])
                })
                .collect(),
        )
    }
}

/// The JSON control connection the main thread uses for `stats`.
struct Control {
    client: Client,
    origin: Instant,
}

impl Control {
    fn connect(server: &ServerProc, origin: Instant) -> Result<Control, String> {
        Ok(Control {
            client: Client::connect(CONTROL_ID, &server.addr, server.gen, Codec::Json)?,
            origin,
        })
    }

    fn stats(&mut self) -> Result<Json, String> {
        let reply = self.client.call(self.origin, Request::Stats)?;
        reply
            .get("stats")
            .cloned()
            .ok_or_else(|| "stats response without `stats`".to_string())
    }

    /// Requests sent before the latest `stats` call, which its own
    /// snapshot does not yet count.
    fn sent_before_last(&self) -> u64 {
        self.client.tally.get("requests") - 1
    }
}

/// One stats window on one server process: the server's counters moved
/// by exactly what the clients were acknowledged.
fn check_window(
    gates: &mut Gates,
    label: &str,
    before: &Json,
    after: &Json,
    checkers: &Tally,
    control_requests: u64,
    codec: Codec,
) {
    let delta = |path: &str| num(after, path) - num(before, path);
    gates.equal(
        &format!("{label}: requests_total = requests_ok + errors"),
        num(after, "requests_total"),
        num(after, "requests_ok") + error_sum(after),
    );
    let sent = (checkers.get("requests") + control_requests) as f64;
    gates.equal(
        &format!("{label}: Δrequests_total"),
        delta("requests_total"),
        sent,
    );
    gates.equal(
        &format!("{label}: Δrequests_ok"),
        delta("requests_ok"),
        sent,
    );
    gates.equal(
        &format!("{label}: Δerrors"),
        error_sum(after) - error_sum(before),
        0.0,
    );
    // checkers speak the workload's codec; the control connection is JSON
    if codec == Codec::Binary {
        gates.equal(
            &format!("{label}: Δcodec.binary.requests_total"),
            delta("codec.binary.requests_total"),
            checkers.get("requests") as f64,
        );
        gates.equal(
            &format!("{label}: Δcodec.json.requests_total"),
            delta("codec.json.requests_total"),
            control_requests as f64,
        );
    }
    for (field, op) in [
        ("claims_verified", "verdict"),
        ("answers_posted", "answer"),
        ("sessions_opened", "open"),
        ("sessions_closed", "close"),
    ] {
        gates.equal(
            &format!("{label}: Δ{field}"),
            delta(field),
            checkers.get(op) as f64,
        );
    }
    // one record per acknowledged state-changing op, plus one
    // EpochPublished per epoch the trainer published meanwhile. A
    // snapshot reads the WAL counters before the model epoch, and an epoch
    // is published, then logged, then checkpointed, so the epoch records
    // a snapshot counts lie between its checkpoint epoch and its epoch
    let epochs = delta("wal.appends") - checkers.state_ops() as f64;
    let low = num(after, "wal.last_checkpoint_epoch") - num(before, "model_epoch");
    let high = num(after, "model_epoch") - num(before, "wal.last_checkpoint_epoch");
    gates.check(
        format!("{label}: Δwal.appends = acked writes + epoch records"),
        (low..=high).contains(&epochs),
        format!(
            "Δappends {} = {} acked writes + {epochs}, epoch records in [{low}, {high}]",
            delta("wal.appends"),
            checkers.state_ops()
        ),
    );
}

/// A restarted server reports exactly the durable counters acknowledged
/// before the kill. With retrains on, no verified claim may be lost
/// between the trainer and its log; with them off, the trainer state must
/// match `before` exactly.
fn check_restart(
    gates: &mut Gates,
    label: &str,
    recovered: &Json,
    acked: &Tally,
    retrains: bool,
    before: &Json,
) {
    let want = [
        acked.get("open"),
        acked.get("close"),
        acked.get("open") - acked.get("close"),
        acked.get("verdict"),
        acked.get("answer"),
    ];
    for (field, want) in ACKED_FIELDS.iter().zip(want) {
        gates.equal(
            &format!("{label}: {field}"),
            num(recovered, field),
            want as f64,
        );
    }
    if retrains {
        gates.equal(
            &format!("{label}: pending_examples + examples_trained"),
            num(recovered, "pending_examples") + num(recovered, "examples_trained"),
            num(recovered, "claims_verified"),
        );
    } else {
        for field in TRAINER_FIELDS {
            gates.equal(
                &format!("{label}: {field}"),
                num(recovered, field),
                num(before, field),
            );
        }
    }
}

/// Bytes of the epoch blob, the checkpoint and the log segments.
fn data_sizes(dir: &Path) -> Json {
    let (mut blob, mut checkpoint, mut segments) = (0u64, 0u64, 0u64);
    if let Ok(entries) = std::fs::read_dir(dir) {
        for entry in entries.flatten() {
            let name = entry.file_name().to_string_lossy().to_string();
            let len = entry.metadata().map(|m| m.len()).unwrap_or(0);
            if name.starts_with("epoch-") {
                blob += len;
            } else if name == "CHECKPOINT" {
                checkpoint += len;
            } else {
                segments += len;
            }
        }
    }
    obj(vec![
        ("blob_bytes", Json::Num(blob as f64)),
        ("checkpoint_bytes", Json::Num(checkpoint as f64)),
        ("segment_bytes", Json::Num(segments as f64)),
    ])
}

/// Copies a data dir for a round. Epoch blobs (~140 MB at paper scale)
/// are hard-linked: the server writes a blob once, under a new name, and
/// only ever replaces or removes it by name. Log segments and the
/// checkpoint are copied, since segments are appended and truncated in
/// place.
fn clone_data_dir(from: &Path, to: &Path) -> io::Result<()> {
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        let target = to.join(entry.file_name());
        if entry.file_name().to_string_lossy().starts_with("epoch-") {
            std::fs::hard_link(entry.path(), target)?;
        } else {
            std::fs::copy(entry.path(), target)?;
        }
    }
    Ok(())
}

fn sum_tallies(checkers: &[Checker]) -> Tally {
    let mut total = Tally::default();
    for checker in checkers {
        total.add(&checker.client.tally);
    }
    total
}

/// `[start, end]` in seconds since the run's origin.
fn window(origin: Instant, start: Instant, end: Instant) -> Json {
    let at = |t: Instant| Json::Num(t.duration_since(origin).as_secs_f64());
    Json::Arr(vec![at(start), at(end)])
}

/// Runs the checkers on scoped threads until each stops; returns their
/// outcomes and the phase's start and end.
fn run_phase(
    checkers: &mut [Checker],
    shared: &Shared<'_>,
    limits: Limits,
) -> Result<(Vec<Outcome>, Instant, Instant), String> {
    let start = Instant::now();
    let outcomes: Vec<Result<Outcome, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = checkers
            .iter_mut()
            .map(|checker| scope.spawn(move || checker.drive(shared, limits)))
            .collect();
        handles
            .into_iter()
            .map(|handle| handle.join().expect("checker thread panicked"))
            .collect()
    });
    let end = Instant::now();
    Ok((outcomes.into_iter().collect::<Result<_, _>>()?, start, end))
}

/// Keeps the in-flight server alive across the run and kills it on the
/// way out, whatever path that takes.
struct Run {
    launcher: Launcher,
    gens: u32,
    server: Option<ServerProc>,
    roles: Vec<(u32, &'static str)>,
}

impl Run {
    fn start(&mut self, dir: &Path, role: &'static str) -> Result<ServerProc, String> {
        let gen = self.gens;
        self.gens += 1;
        self.roles.push((gen, role));
        self.launcher
            .start(gen, dir)
            .map_err(|e| format!("starting server {gen}: {e}"))
    }

    fn server(&self) -> &ServerProc {
        self.server.as_ref().expect("a server is running")
    }

    /// Lets the trace sink drain before a SIGKILL.
    fn drain_trace(&self) {
        if self.launcher.trace {
            std::thread::sleep(TRACE_DRAIN_WAIT);
        }
    }

    /// SIGKILLs the running server and starts a new one on the same data
    /// dir; returns the kill's and the port file's time.
    fn restart(&mut self, dir: &Path, role: &'static str) -> Result<(Instant, Instant), String> {
        self.drain_trace();
        let start = Instant::now();
        if let Some(server) = self.server.take() {
            server
                .kill()
                .map_err(|e| format!("killing the server: {e}"))?;
        }
        self.server = Some(self.start(dir, role)?);
        Ok((start, Instant::now()))
    }
}

/// What every round of a run shares.
struct Context<'a> {
    args: &'a Args,
    spec: &'a Workload,
    corpus: &'a Corpus,
    truth: &'a [checker::Truth],
    /// The data dir of the run's first cold start.
    template: &'a Path,
    /// Time zero of every request, window and pace sample of the run.
    origin: Instant,
}

/// One round: a fresh server on a copy of the template data dir, one
/// traffic episode, the gates, and a last kill → restart. Appends the
/// round's requests to `tsv` and returns its summary.
fn round(cx: &Context<'_>, run: &mut Run, index: usize, tsv: &mut String) -> Result<Json, String> {
    let (args, spec) = (cx.args, cx.spec);
    let data = args.out.join(format!("data-{index}"));
    clone_data_dir(cx.template, &data).map_err(|e| format!("copying the data dir: {e}"))?;
    let mut gates = Gates::default();
    run.server = Some(run.start(&data, "traffic")?);

    let origin = cx.origin;
    let mut control = Control::connect(run.server(), origin)?;
    let shared = Shared {
        corpus: cx.corpus,
        truth: cx.truth,
        cost: CostModel::default(),
        report_size: spec.report_size,
        cycle: spec.cycle,
        origin,
        abort: AtomicBool::new(false),
    };
    // each round deals the corpus in its own order to its own workers
    let round_seed = args.seed ^ (index as u64).wrapping_mul(0xA076_1D64_78BD_642F);
    let mut checkers: Vec<Checker> = shares(cx.corpus.claims.len(), round_seed)
        .into_iter()
        .enumerate()
        .map(|(i, share)| {
            let server = run.server();
            let client = Client::connect(i as u8, &server.addr, server.gen, spec.codec)?;
            let seed = round_seed
                .wrapping_mul(0x9E37_79B9)
                .wrapping_add(i as u64 + 1);
            Ok(Checker::new(client, seed, share))
        })
        .collect::<Result<_, String>>()?;

    let budget = if spec.cycle {
        Duration::from_secs_f64(args.seconds / args.rounds as f64)
    } else {
        Duration::from_secs_f64(args.seconds)
    };
    let mut windows: Vec<(Json, Json, Tally, u64)> = Vec::new();
    let mut window_start = control.stats()?;
    let mut window_tally = Tally::default();
    let mut window_control = control.sent_before_last();
    let mut restarts = Vec::new();
    let mut traffic_windows = Vec::new();
    let mut traffic = Duration::ZERO;
    let mut rss_kib = 0u64;

    if spec.crash_resume {
        // phase 1: half of each share, until a background epoch has
        // published; each checker stops right after an acknowledged
        // answer, with that claim's verdict outstanding
        let half = checkers.iter().map(Checker::share_len).max().unwrap_or(0) / 2;
        let limits = Limits {
            deadline: Instant::now() + budget / 2,
            suspend_after: Some(half),
        };
        let (outcomes, start, end) = run_phase(&mut checkers, &shared, limits)?;
        traffic += end - start;
        traffic_windows.push(window(origin, start, end));
        gates.check(
            "paper_recover: every checker left mid-claim",
            outcomes.iter().all(|o| *o == Outcome::Suspended),
            format!("{outcomes:?}"),
        );
        let epoch_deadline = Instant::now() + Duration::from_secs(60);
        while num(&control.stats()?, "model_epoch") < 2.0 {
            if Instant::now() > epoch_deadline {
                return Err("no background epoch published in phase 1".to_string());
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        let before_kill = control.stats()?;
        let tally = sum_tallies(&checkers);
        windows.push((
            window_start,
            before_kill.clone(),
            tally.minus(&window_tally),
            control.sent_before_last() - window_control,
        ));
        rss_kib = rss_kib.max(run.server().peak_rss_kib().map_err(|e| e.to_string())?);
        // kill → restart, RESTARTS times on the same dir: each restart
        // replays the same checkpoint and tail and must reproduce every
        // acknowledged counter
        let mut recovered = before_kill.clone();
        for r in 0..RESTARTS {
            let (kill, ready) = run.restart(&data, "recover")?;
            restarts.push(window(origin, kill, ready));
            control
                .client
                .reconnect(&run.server().addr, run.server().gen, Codec::Json)?;
            recovered = control.stats()?;
            check_restart(
                &mut gates,
                &format!("restart {}", r + 1),
                &recovered,
                &tally,
                spec.retrains(),
                &before_kill,
            );
        }
        window_start = recovered;
        window_tally = sum_tallies(&checkers);
        window_control = control.sent_before_last();
        for checker in &mut checkers {
            checker
                .client
                .reconnect(&run.server().addr, run.server().gen, spec.codec)?;
        }
        let limits = Limits {
            deadline: Instant::now() + budget.saturating_sub(traffic),
            suspend_after: None,
        };
        let (_, start, end) = run_phase(&mut checkers, &shared, limits)?;
        traffic_windows.push(window(origin, start, end));
    } else {
        let limits = Limits {
            deadline: Instant::now() + budget,
            suspend_after: None,
        };
        let (_, start, end) = run_phase(&mut checkers, &shared, limits)?;
        traffic_windows.push(window(origin, start, end));
    }

    let settled = control.stats()?;
    let pending_at_end = num(&settled, "pending_examples");
    let tally = sum_tallies(&checkers);
    windows.push((
        window_start,
        settled.clone(),
        tally.minus(&window_tally),
        control.sent_before_last() - window_control,
    ));
    for (i, (before, after, checkers_tally, control_requests)) in windows.iter().enumerate() {
        check_window(
            &mut gates,
            &format!("window {}", i + 1),
            before,
            after,
            checkers_tally,
            *control_requests,
            spec.codec,
        );
    }
    rss_kib = rss_kib.max(run.server().peak_rss_kib().map_err(|e| e.to_string())?);
    let sizes = data_sizes(&data);

    // a last kill → restart: replays the tail since the last checkpoint
    // and must reproduce every acknowledged counter
    run.restart(&data, "final")?;
    let mut last = Control::connect(run.server(), origin)?;
    let recovered = last.stats()?;
    check_restart(
        &mut gates,
        "final restart",
        &recovered,
        &tally,
        spec.retrains(),
        &settled,
    );
    run.drain_trace();
    if let Some(server) = run.server.take() {
        server
            .kill()
            .map_err(|e| format!("killing the server: {e}"))?;
    }
    let _ = std::fs::remove_dir_all(&data);

    let mut delta: Vec<(&str, Json)> = Vec::new();
    for field in DELTA_FIELDS {
        let sum: f64 = windows
            .iter()
            .map(|(before, after, _, _)| num(after, field) - num(before, field))
            .sum();
        delta.push((field, Json::Num(sum)));
    }
    let mut all = tally;
    all.add(&control.client.tally);
    all.add(&last.client.tally);
    let checker_seconds: f64 = checkers.iter().map(|c| c.checker_seconds).sum();

    let records = checkers
        .iter()
        .flat_map(|c| c.client.records.iter())
        .chain(control.client.records.iter())
        .chain(last.client.records.iter());
    for r in records {
        tsv.push_str(&format!(
            "{index}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{:016x}\t{}\n",
            r.op,
            r.client,
            r.gen,
            r.start_ns,
            r.rtt_ns,
            r.bytes_out,
            r.bytes_in,
            r.trace,
            u8::from(r.ok)
        ));
    }
    Ok(obj(vec![
        ("restart_windows", Json::Arr(restarts)),
        ("traffic_windows", Json::Arr(traffic_windows)),
        ("checker_seconds", Json::Num(checker_seconds)),
        ("checkers_tally", tally.to_json()),
        ("all_tally", all.to_json()),
        ("pending_at_end", Json::Num(pending_at_end)),
        ("delta", obj(delta)),
        ("peak_rss_kib", Json::Num(rss_kib as f64)),
        ("data", sizes),
        ("gates", gates.to_json()),
    ]))
}

/// Cold-starts the server `count` times, each on a fresh data dir, and
/// returns their spawn → port file windows. The first data dir is kept at
/// `template`. A server has nothing left to write once its port file
/// exists, so each is killed at once.
fn cold_starts(
    run: &mut Run,
    count: usize,
    template: &Path,
    origin: Instant,
) -> Result<Vec<Json>, String> {
    let mut windows = Vec::with_capacity(count);
    for i in 0..count {
        let dir = match i {
            0 => template.to_path_buf(),
            _ => template.with_file_name(format!("cold-{i}")),
        };
        let _ = std::fs::remove_dir_all(&dir);
        let start = Instant::now();
        let server = run.start(&dir, "cold")?;
        windows.push(window(origin, start, Instant::now()));
        run.drain_trace();
        server
            .kill()
            .map_err(|e| format!("killing the server: {e}"))?;
        if i > 0 {
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
    Ok(windows)
}

fn run(args: Args) -> Result<(), String> {
    let spec = workload(&args.workload)?;
    std::fs::create_dir_all(&args.out).map_err(|e| format!("creating {:?}: {e}", args.out))?;
    let corpus_seed = spec.corpus_seed.unwrap_or(args.seed);
    let base = match spec.scale {
        "paper" => CorpusConfig::paper_scale(),
        _ => CorpusConfig::small(),
    };
    let corpus = Corpus::generate(CorpusConfig {
        seed: corpus_seed,
        ..base
    });
    let truth = checker::truths(&corpus);
    let mut run = Run {
        launcher: Launcher {
            bin: args.server.clone(),
            scale: spec.scale,
            seed: corpus_seed,
            extra: spec.server_flags.iter().map(|s| s.to_string()).collect(),
            out: args.out.clone(),
            trace: args.trace,
        },
        gens: 0,
        server: None,
        roles: Vec::new(),
    };
    let template = args.out.join("template");
    let origin = Instant::now();
    let pace = Pace::start(origin);
    let cold = cold_starts(&mut run, spec.cold_starts, &template, origin)?;

    let cx = Context {
        args: &args,
        spec: &spec,
        corpus: &corpus,
        truth: &truth,
        template: &template,
        origin,
    };
    let mut tsv =
        String::from("round\top\tclient\tgen\tstart_ns\trtt_ns\tbytes_out\tbytes_in\ttrace\tok\n");
    let rounds = (0..args.rounds)
        .map(|index| round(&cx, &mut run, index, &mut tsv))
        .collect::<Result<Vec<Json>, String>>();
    let _ = std::fs::remove_dir_all(&template);
    let rounds = rounds?;
    let pace = pace
        .finish()
        .into_iter()
        .map(|sample| Json::Arr(sample.iter().map(|&v| Json::Num(v as f64)).collect()))
        .collect();

    let servers = run
        .roles
        .iter()
        .map(|(gen, role)| {
            obj(vec![
                ("gen", Json::Num(f64::from(*gen))),
                ("role", Json::Str(role.to_string())),
            ])
        })
        .collect();
    let summary = obj(vec![
        ("workload", Json::Str(args.workload.clone())),
        ("scale", Json::Str(spec.scale.to_string())),
        ("report_size", Json::Num(spec.report_size as f64)),
        ("cold_start_windows", Json::Arr(cold)),
        ("pace", Json::Arr(pace)),
        ("servers", Json::Arr(servers)),
        ("rounds", Json::Arr(rounds)),
    ]);
    std::fs::write(args.out.join("summary.json"), summary.render())
        .map_err(|e| format!("writing summary: {e}"))?;
    std::fs::File::create(args.out.join("requests.tsv"))
        .and_then(|mut f| f.write_all(tsv.as_bytes()))
        .map_err(|e| format!("writing requests: {e}"))?;
    Ok(())
}

fn main() {
    let result = parse_args().and_then(run);
    if let Err(error) = result {
        eprintln!("loadgen: {error}");
        exit(1);
    }
}
