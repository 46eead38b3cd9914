//! Schedules: the op language the simulation speaks, seeded generation,
//! and a line-oriented text form for replay files.
//!
//! A schedule is a flat `Vec<SimOp>` — no hidden state. Everything an op
//! needs is either in the op itself or derived deterministically from
//! the prefix that executed before it (e.g. `pick` indexes into whatever
//! claims the slot's session has accepted so far). That property is what
//! makes delta-debug shrinking sound: removing ops changes later
//! resolutions, but never makes a schedule ambiguous.

use rand::{Rng, SeedableRng, Xoshiro256PlusPlus};

/// Client connection slots the harness multiplexes over.
pub const N_SLOTS: usize = 3;

/// One step of a simulated schedule.
///
/// `slot` addresses one of [`N_SLOTS`] client connections; `pick`
/// resolves against the slot's accepted claims at execution time (or the
/// corpus when none), so ops stay meaningful under shrinking.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimOp {
    /// Open a session on the slot's connection.
    Open {
        /// Target connection slot.
        slot: usize,
    },
    /// Submit a set of corpus claim ids to the slot's session.
    Submit {
        /// Target connection slot.
        slot: usize,
        /// Corpus claim ids to submit.
        claims: Vec<usize>,
    },
    /// Answer the relation screen of one submitted claim (ground truth).
    Answer {
        /// Target connection slot.
        slot: usize,
        /// Index into the slot's accepted claims.
        pick: usize,
    },
    /// Ask for top-k query suggestions on one submitted claim.
    Suggest {
        /// Target connection slot.
        slot: usize,
        /// Index into the slot's accepted claims.
        pick: usize,
    },
    /// Record a checker verdict on one submitted claim.
    Verdict {
        /// Target connection slot.
        slot: usize,
        /// Index into the slot's accepted claims.
        pick: usize,
        /// The checker's judgment.
        correct: bool,
    },
    /// Evaluate a raw SQL statement from the world's query pool.
    Sql {
        /// Target connection slot.
        slot: usize,
        /// Index into the world's SQL pool.
        query: usize,
    },
    /// A pipelined `batch` envelope: one SQL sub-request plus a `stats`.
    Batch {
        /// Target connection slot.
        slot: usize,
        /// Index into the world's SQL pool for the SQL sub-request.
        query: usize,
    },
    /// Fetch the stats over the wire.
    Stats {
        /// Target connection slot.
        slot: usize,
    },
    /// Close the slot's session.
    Close {
        /// Target connection slot.
        slot: usize,
    },
    /// Run one queued background-trainer job to completion.
    DriveTrainer,
    /// Hard-drop the slot's connection (simulated RST, buffers lost).
    DropConn {
        /// Target connection slot.
        slot: usize,
    },
    /// Stall (`on`) or resume (`!on`) the slot's client: while stalled
    /// the server reads `WouldBlock` even with bytes queued.
    Stall {
        /// Target connection slot.
        slot: usize,
        /// Stall when `true`, resume when `false`.
        on: bool,
    },
    /// Cap server-side writes to the slot at `cap` bytes per call;
    /// `cap == 0` lifts the cap.
    PartialWrites {
        /// Target connection slot.
        slot: usize,
        /// Per-call write cap in bytes (`0` lifts it).
        cap: usize,
    },
    /// Arm a one-shot trainer crash: the next background retrain dies
    /// after draining its batch (and, under the canary, loses it).
    CrashTrainer,
    /// Kill the whole process: storage loses every unsynced tail (with
    /// `torn`, one file keeps half of its tail — a torn write recovery
    /// must detect), the active log segment ends in the zeros
    /// production storage preallocates, every connection dies, and
    /// subsequent ops are
    /// no-ops until a `Recover`. Rendered as `kill` (`crash` was already
    /// taken by the trainer fault above).
    Crash {
        /// Leave a torn tail on one file instead of a clean truncation.
        torn: bool,
    },
    /// Restart from durable storage: replay the WAL, resume the last
    /// published epoch, and check the durability invariant — the
    /// recovered engine must report exactly the durable state captured
    /// at the kill. A no-op unless crashed.
    Recover,
    /// Send one SQL request as a length-prefixed binary frame on the
    /// dedicated binary connection slot (slot index [`N_SLOTS`], which
    /// negotiates the codec with the `0x00` magic byte on open). With
    /// `split`, only the head of the frame is sent now and the tail
    /// stays pending until the next `binframe` op or quiesce — so fault
    /// ops in between land mid-frame: a drop between the length prefix
    /// and the payload, a stall halfway through a frame.
    BinFrame {
        /// Index into the world's SQL pool.
        query: usize,
        /// Hold back the tail of the frame for later delivery.
        split: bool,
    },
}

/// Generates the schedule for `seed`: a short prelude that opens every
/// slot and submits claims (so the random tail has sessions to act on),
/// followed by `n_ops` weighted random ops. With `crash`, kill/recover
/// ops join the mix (off, the op stream is bit-identical to what the
/// same seed generated before the durability subsystem existed).
pub fn generate(seed: u64, n_ops: usize, n_claims: usize, crash: bool) -> Vec<SimOp> {
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(seed);
    let mut ops = Vec::with_capacity(2 * N_SLOTS + n_ops);
    for slot in 0..N_SLOTS {
        ops.push(SimOp::Open { slot });
        let count = rng.gen_range(2..=5usize);
        let claims = (0..count).map(|_| rng.gen_range(0..n_claims)).collect();
        ops.push(SimOp::Submit { slot, claims });
    }
    for _ in 0..n_ops {
        ops.push(random_op(&mut rng, n_claims, crash));
    }
    ops
}

/// One weighted random op. Verdicts dominate so schedules actually
/// exercise the pending-log → background-retrain → publish pipeline; the
/// fault ops stay frequent enough that most schedules carry at least one.
fn random_op(rng: &mut Xoshiro256PlusPlus, n_claims: usize, crash: bool) -> SimOp {
    // the kill/recover draw happens only in crash mode, so plain-mode
    // streams stay reproducible across versions
    if crash {
        match rng.gen_range(0..100u32) {
            0..=2 => {
                return SimOp::Crash {
                    torn: rng.gen_bool(0.3),
                }
            }
            3..=8 => return SimOp::Recover,
            _ => {}
        }
    }
    let slot = rng.gen_range(0..N_SLOTS);
    match rng.gen_range(0..100u32) {
        0..=7 => SimOp::Open { slot },
        8..=16 => {
            let count = rng.gen_range(1..=4usize);
            let claims = (0..count).map(|_| rng.gen_range(0..n_claims)).collect();
            SimOp::Submit { slot, claims }
        }
        17..=24 => SimOp::Answer {
            slot,
            pick: rng.gen_range(0..n_claims),
        },
        25..=27 => SimOp::Suggest {
            slot,
            pick: rng.gen_range(0..n_claims),
        },
        28..=49 => SimOp::Verdict {
            slot,
            pick: rng.gen_range(0..n_claims),
            correct: rng.gen_bool(0.7),
        },
        50..=57 => SimOp::Sql {
            slot,
            query: rng.gen_range(0..n_claims),
        },
        58..=60 => SimOp::BinFrame {
            query: rng.gen_range(0..n_claims),
            split: rng.gen_bool(0.25),
        },
        61..=65 => SimOp::Batch {
            slot,
            query: rng.gen_range(0..n_claims),
        },
        66..=69 => SimOp::Stats { slot },
        70..=71 => SimOp::Close { slot },
        72..=85 => SimOp::DriveTrainer,
        // fault ops also target the binary slot (index N_SLOTS), so
        // binary connections see drops, stalls, and partial writes too
        86..=88 => SimOp::DropConn {
            slot: rng.gen_range(0..=N_SLOTS),
        },
        89..=92 => SimOp::Stall {
            slot: rng.gen_range(0..=N_SLOTS),
            on: rng.gen_bool(0.5),
        },
        93..=96 => SimOp::PartialWrites {
            slot: rng.gen_range(0..=N_SLOTS),
            cap: rng.gen_range(0..=7usize),
        },
        _ => SimOp::CrashTrainer,
    }
}

/// Derives the per-schedule seed from the base seed and schedule index —
/// a splitmix-style mix so adjacent indices land far apart.
pub fn schedule_seed(base: u64, index: u64) -> u64 {
    let mut z = base ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Renders a schedule in the replay text form, one op per line.
pub fn render(ops: &[SimOp]) -> String {
    let mut out = String::from("# simcheck schedule v1\n");
    for op in ops {
        let line = match op {
            SimOp::Open { slot } => format!("open {slot}"),
            SimOp::Submit { slot, claims } => {
                let ids: Vec<String> = claims.iter().map(usize::to_string).collect();
                format!("submit {slot} {}", ids.join(","))
            }
            SimOp::Answer { slot, pick } => format!("answer {slot} {pick}"),
            SimOp::Suggest { slot, pick } => format!("suggest {slot} {pick}"),
            SimOp::Verdict {
                slot,
                pick,
                correct,
            } => format!("verdict {slot} {pick} {correct}"),
            SimOp::Sql { slot, query } => format!("sql {slot} {query}"),
            SimOp::Batch { slot, query } => format!("batch {slot} {query}"),
            SimOp::Stats { slot } => format!("stats {slot}"),
            SimOp::Close { slot } => format!("close {slot}"),
            SimOp::DriveTrainer => "drive".to_string(),
            SimOp::DropConn { slot } => format!("drop {slot}"),
            SimOp::Stall { slot, on } => {
                format!("stall {slot} {}", if *on { "on" } else { "off" })
            }
            SimOp::PartialWrites { slot, cap } => format!("partial {slot} {cap}"),
            SimOp::CrashTrainer => "crash".to_string(),
            SimOp::Crash { torn } => format!("kill {torn}"),
            SimOp::Recover => "recover".to_string(),
            SimOp::BinFrame { query, split } => format!("binframe {query} {split}"),
        };
        out.push_str(&line);
        out.push('\n');
    }
    out
}

/// Parses the replay text form back into a schedule. Blank lines and
/// `#` comments are skipped; anything else malformed is an error naming
/// the line.
pub fn parse(text: &str) -> Result<Vec<SimOp>, String> {
    let mut ops = Vec::new();
    for (number, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let word = parts.next().expect("non-empty line has a first token");
        let mut arg = |name: &str| -> Result<String, String> {
            parts
                .next()
                .map(str::to_string)
                .ok_or_else(|| format!("line {}: `{word}` missing {name}", number + 1))
        };
        let op = match word {
            "open" => SimOp::Open {
                slot: parse_num(&arg("slot")?, number)?,
            },
            "submit" => {
                let slot = parse_num(&arg("slot")?, number)?;
                let list = arg("claims")?;
                let claims = list
                    .split(',')
                    .map(|id| parse_num(id, number))
                    .collect::<Result<Vec<usize>, String>>()?;
                SimOp::Submit { slot, claims }
            }
            "answer" => SimOp::Answer {
                slot: parse_num(&arg("slot")?, number)?,
                pick: parse_num(&arg("pick")?, number)?,
            },
            "suggest" => SimOp::Suggest {
                slot: parse_num(&arg("slot")?, number)?,
                pick: parse_num(&arg("pick")?, number)?,
            },
            "verdict" => SimOp::Verdict {
                slot: parse_num(&arg("slot")?, number)?,
                pick: parse_num(&arg("pick")?, number)?,
                correct: match arg("correct")?.as_str() {
                    "true" => true,
                    "false" => false,
                    other => return Err(format!("line {}: bad bool `{other}`", number + 1)),
                },
            },
            "sql" => SimOp::Sql {
                slot: parse_num(&arg("slot")?, number)?,
                query: parse_num(&arg("query")?, number)?,
            },
            "batch" => SimOp::Batch {
                slot: parse_num(&arg("slot")?, number)?,
                query: parse_num(&arg("query")?, number)?,
            },
            "stats" => SimOp::Stats {
                slot: parse_num(&arg("slot")?, number)?,
            },
            "close" => SimOp::Close {
                slot: parse_num(&arg("slot")?, number)?,
            },
            "drive" => SimOp::DriveTrainer,
            "drop" => SimOp::DropConn {
                slot: parse_num(&arg("slot")?, number)?,
            },
            "stall" => SimOp::Stall {
                slot: parse_num(&arg("slot")?, number)?,
                on: match arg("state")?.as_str() {
                    "on" => true,
                    "off" => false,
                    other => return Err(format!("line {}: bad stall state `{other}`", number + 1)),
                },
            },
            "partial" => SimOp::PartialWrites {
                slot: parse_num(&arg("slot")?, number)?,
                cap: parse_num(&arg("cap")?, number)?,
            },
            "crash" => SimOp::CrashTrainer,
            "kill" => SimOp::Crash {
                torn: match arg("torn")?.as_str() {
                    "true" => true,
                    "false" => false,
                    other => return Err(format!("line {}: bad bool `{other}`", number + 1)),
                },
            },
            "recover" => SimOp::Recover,
            "binframe" => SimOp::BinFrame {
                query: parse_num(&arg("query")?, number)?,
                split: match arg("split")?.as_str() {
                    "true" => true,
                    "false" => false,
                    other => return Err(format!("line {}: bad bool `{other}`", number + 1)),
                },
            },
            other => return Err(format!("line {}: unknown op `{other}`", number + 1)),
        };
        ops.push(op);
    }
    Ok(ops)
}

fn parse_num<T: std::str::FromStr>(text: &str, line: usize) -> Result<T, String> {
    text.trim()
        .parse()
        .map_err(|_| format!("line {}: bad number `{text}`", line + 1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        assert_eq!(generate(42, 50, 32, false), generate(42, 50, 32, false));
        assert_ne!(generate(42, 50, 32, false), generate(43, 50, 32, false));
        assert_eq!(generate(42, 50, 32, true), generate(42, 50, 32, true));
    }

    #[test]
    fn crash_mode_generates_kill_and_recover_ops() {
        let ops: Vec<SimOp> = (0..64)
            .flat_map(|index| generate(schedule_seed(9, index), 40, 32, true))
            .collect();
        assert!(ops.iter().any(|op| matches!(op, SimOp::Crash { .. })));
        assert!(ops.iter().any(|op| matches!(op, SimOp::Recover)));
        let plain = generate(42, 50, 32, false);
        assert!(!plain
            .iter()
            .any(|op| matches!(op, SimOp::Crash { .. } | SimOp::Recover)));
    }

    #[test]
    fn render_parse_round_trips() {
        let ops = generate(7, 80, 32, true);
        let text = render(&ops);
        assert_eq!(parse(&text).expect("rendered schedules parse"), ops);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse("open zero").is_err());
        assert!(parse("warp 9").is_err());
        assert!(parse("verdict 0 1 maybe").is_err());
        assert!(parse("kill maybe").is_err());
        // schedules saved by older builds may name the retired `jump`
        // op: they must fail to replay, not replay as something else
        let error = parse("jump 5").unwrap_err();
        assert!(error.contains("unknown op `jump`"), "{error}");
    }
}
