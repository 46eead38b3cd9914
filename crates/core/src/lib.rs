//! # scrutinizer-core
//!
//! The Scrutinizer system (Algorithm 1): mixed-initiative verification of
//! statistical claims against relational data.
//!
//! ```text
//!            ┌────────────── claims C in document T ──────────────┐
//!            ▼                                                    │
//!   OptBatch (ordering, §5.2: ILP over utility/cost)              │
//!            ▼                                                    │
//!   OptQuestions (planner, §5.1: greedy sub-modular pruning)      │
//!            ▼                                                    │
//!   GetAnswers (crowd screens, Cor. 2 option ordering)            │
//!            ▼                                                    │
//!   Validate (query generation, Alg. 2 + execution)               │
//!            ▼                                                    │
//!   Retrain (classifiers on newly verified claims) ───────────────┘
//! ```
//!
//! * [`models`] — the four property classifiers over shared claim features,
//! * [`feature_store`] — every claim featurized exactly once (CSR rows
//!   shared by translation, utility scoring and retraining),
//! * [`qgen`] — Algorithm 2's query generation,
//! * [`screens`] / [`planner`] / [`pruning`] — single-claim question
//!   planning (Theorems 1–6),
//! * [`ordering`] — claim-batch selection (Definitions 7–9, ILP),
//! * [`policy`] — Algorithm 1's per-claim rules (context, simulated
//!   checker, verdict, OptBatch budget), which the engine
//!   (`scrutinizer-engine`) drives, the paper's experiments included,
//! * [`report`] — per-claim outcomes and the [`report::VerificationReport`]
//!   a report run produces,
//! * [`verify`] — the explicit claim parameter (Definition 2),
//! * [`sim`] — top-k accuracy (Figure 10); the user study, Table 2 and
//!   Figures 7–9 live in `scrutinizer_engine::experiments`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod feature_store;
pub mod models;
pub mod ordering;
pub mod planner;
pub mod policy;
pub mod pruning;
pub mod qgen;
pub mod report;
pub mod screens;
pub mod sim;
pub mod stats;
pub mod verify;

pub use config::SystemConfig;
pub use feature_store::FeatureStore;
pub use models::{ModelsState, PropertyKind, SystemModels, TrainingState, Translation};
pub use ordering::{select_batch, BatchMethod, BatchSelection, OrderingStrategy};
pub use planner::ClaimPlan;
pub use qgen::{
    generate_queries, generate_queries_unprepared, generate_survivors, QueryCandidate, Survivors,
};
pub use report::{ClaimOutcome, Verdict, VerificationReport};
pub use verify::Verifier;
