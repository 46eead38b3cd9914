//! # scrutinizer-simcheck
//!
//! The deterministic simulation harness: model-checks the whole serving
//! system — sessions, planning, raw SQL, the wire protocol, the
//! background trainer — by driving thousands of seeded random op
//! schedules with fault injection against global invariants, and
//! shrinking any failure to a minimal reproduction.
//!
//! ```text
//!   seed ──▶ schedule (ops over 3 simulated connections + faults)
//!              │ open / submit / answer / suggest / verdict / sql /
//!              │ batch / stats / close  +  drive / drop /
//!              │ stall / partial / crash  +  kill / recover (--crash)
//!              ▼
//!   run: SimStream pairs ──▶ step_conn (the production connection
//!        step) ──▶ handle_request (the production protocol) ──▶
//!        invariants after EVERY step
//!              │ violation?
//!              ▼
//!   shrink: ddmin to a minimal schedule, printed with its seed
//! ```
//!
//! The six invariant families (see [`invariants`]):
//!
//! 1. **Epoch accounting** — `model_epoch` is monotone and equals the
//!    retrain count.
//! 2. **Verdict loss** — `examples_trained + pending_examples` equals
//!    the unique claims ever verified; a crashed trainer may not lose
//!    drained examples. (The `--canary` mode deliberately breaks exactly
//!    this, proving the harness catches real interleaving bugs.)
//! 3. **SQL stability** — one query, one answer: repeated SQL returns
//!    bit-identical values, or the same structured failure.
//! 4. **Conservation** — `requests_total == requests_ok + Σ errors` at
//!    every step, and surviving connections receive exactly their
//!    responses, in order.
//! 5. **Trace stitching** — every response echoes its request's trace
//!    id; batch sub-responses inherit the batch's.
//! 6. **Durability** — after a `kill`/`recover` round trip over the
//!    simulated storage (unsynced tails lost, optionally torn, the
//!    active segment ending in preallocated zeros), the
//!    recovered engine reports exactly the durable state captured at
//!    the kill: no acknowledged op lost, none invented, the model epoch
//!    resumed. Every sim engine is WAL-backed, so plain schedules also
//!    exercise the record path; `--crash` arms the kills.
//!
//! Determinism is bitwise: one seed ⇒ one schedule ⇒ one digest over
//! every deterministic response byte and the final counters
//! ([`run::RunResult::digest`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod invariants;
pub mod run;
pub mod schedule;
pub mod shrink;
pub mod world;

pub use invariants::{InvariantKind, Violation};
pub use run::{run_schedule, RunResult};
pub use schedule::{generate, parse, render, schedule_seed, SimOp, N_SLOTS};
pub use shrink::shrink;
pub use world::SharedWorld;
