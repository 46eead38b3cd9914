//! # scrutinizer-sim
//!
//! The deterministic-simulation substrate: every source of
//! nondeterminism the serving stack touches — **time**, **background
//! threads**, and the **network** — sits behind a small seam, so
//! the whole service can run either on the real operating system or
//! inside a single-threaded, seeded, perfectly reproducible simulation
//! (the FoundationDB discipline: test the real code, simulate the
//! world around it).
//!
//! | ambient resource | seam | production (zero-cost passthrough) | simulation |
//! |------------------|-------------------------|------------------------------------|------------|
//! | monotonic time   | [`Clock`]               | [`SystemClock`] (`Instant`)        | [`VirtualClock`] (atomic nanos, jumps on demand) |
//! | background tasks | [`SimEnv::scheduler`]   | the engine's trainer thread        | [`SimScheduler`] (deterministic queue, driven by the harness) |
//! | byte streams     | [`ByteStream`]          | `std::net::TcpStream`              | [`SimStream`] (in-memory duplex with fault injection) |
//! | durable storage  | [`Storage`]             | [`FsStorage`] (`std::fs`)          | [`SimStorage`] (in-memory files with a durable/volatile split and crash faults) |
//! | rare-path faults | [`FaultPlan`] (buggify) | disarmed (`fault()` is `false`)    | armed per-point by the schedule |
//!
//! [`SimEnv`] bundles one choice of each and is what the engine is
//! constructed with. `SimEnv::production()` is the default everywhere;
//! the simulation harness (`crates/simcheck`) builds a simulated one per
//! schedule.
//!
//! Nothing here depends on the rest of the workspace: the engine depends
//! on this crate, never the reverse. The harness that drives schedules
//! and checks invariants lives above the engine, in `scrutinizer-simcheck`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clock;
pub mod env;
pub mod fault;
pub mod net;
pub mod spawn;
pub mod storage;

pub use clock::{Clock, SystemClock, VirtualClock};
pub use env::SimEnv;
pub use fault::FaultPlan;
pub use net::{sim_pair, ByteStream, IoPoll, SimEndpoint, SimStream};
pub use spawn::{SimScheduler, Task};
pub use storage::{FsStorage, SimStorage, Storage};
