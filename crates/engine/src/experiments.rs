//! The paper's experiments (§6), driven through the engine: the report
//! simulation (Table 2, Figures 7–9) and the simulated user study
//! (Figures 5–6). Both verify claims with [`Engine::verify_claim_with`],
//! the session path that serves checkers, so what they measure is what a
//! checker gets. Top-k accuracy (Figure 10) needs no driver and stays in
//! `scrutinizer_core::sim::topk`.

use std::sync::Arc;

use scrutinizer_core::{OrderingStrategy, SystemConfig};
use scrutinizer_corpus::Corpus;

use crate::engine::{Engine, EngineOptions};

pub mod report;
pub mod user_study;

/// An untrained engine whose models change only through
/// [`Engine::pretrain`]: verdicts never schedule a background retrain,
/// so every experiment is deterministic and retrains where it says.
fn frozen_engine(corpus: &Corpus, config: SystemConfig, ordering: OrderingStrategy) -> Arc<Engine> {
    let options = EngineOptions {
        retrain_interval: None,
        ordering,
    };
    Engine::new(corpus.clone(), config, options)
}
