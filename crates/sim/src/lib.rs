//! # scrutinizer-sim
//!
//! The deterministic-simulation substrate: every source of
//! nondeterminism the serving stack touches — **background threads**,
//! the **network** and **durable storage** — sits behind a small seam, so
//! the whole service can run either on the real operating system or
//! inside a single-threaded, seeded, perfectly reproducible simulation
//! (the FoundationDB discipline: test the real code, simulate the
//! world around it).
//!
//! | ambient resource | seam | production (zero-cost passthrough) | simulation |
//! |------------------|-------------------------|------------------------------------|------------|
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
//! Time is not a seam: no code a simulation runs reads it. The server's
//! shutdown drain and the engine's wait for a trainer thread read
//! `std::time` directly, and neither runs under simulation.
//!
//! Nothing here depends on the rest of the workspace: the engine depends
//! on this crate, never the reverse. The harness that drives schedules
//! and checks invariants lives above the engine, in `scrutinizer-simcheck`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod env;
pub mod fault;
pub mod net;
pub mod spawn;
pub mod storage;

pub use env::SimEnv;
pub use fault::FaultPlan;
pub use net::{sim_pair, ByteStream, IoPoll, SimEndpoint, SimStream};
pub use spawn::{SimScheduler, Task};
pub use storage::{FsStorage, SimStorage, Storage};
