//! The shared world: one corpus, one feature store, one set of
//! pretrained models — built once, shared by every simulated engine.
//!
//! A schedule run needs a fresh engine (fresh sessions, pending
//! log, epoch counter) but nothing about the *data* differs between
//! runs. Featurization and pretraining are by far the expensive part of
//! engine construction, so the harness pays them once here and spawns
//! per-schedule engines through [`Engine::open`] on a clone of the
//! [`EngineParts`], which copies only the model weights and their
//! training state. That is what makes
//! ten-thousand-schedule CI scopes affordable.

use std::sync::Arc;

use scrutinizer_core::models::available_threads;
use scrutinizer_core::{OrderingStrategy, SystemConfig};
use scrutinizer_corpus::{Corpus, CorpusConfig};
use scrutinizer_engine::engine::{Engine, EngineOptions, EngineParts};
use scrutinizer_engine::{DurableEnv, RecoveryReport};
use scrutinizer_sim::{FaultPlan, SimEnv, SimScheduler, Storage};
use scrutinizer_wal::WalOptions;

/// Background-retrain interval for simulated engines — deliberately tiny
/// so a few verdicts already exercise the take → train → publish path.
pub const RETRAIN_INTERVAL: usize = 2;

/// A freshly spawned simulated engine and its simulation handles: the
/// engine itself, the deterministic scheduler, the armable fault plan,
/// and the recovery report describing what (if anything) was replayed
/// from `storage`.
pub type SpawnedEngine = (
    Arc<Engine>,
    Arc<SimScheduler>,
    Arc<FaultPlan>,
    RecoveryReport,
);

/// Everything schedule runs share: the corpus, its features, pretrained
/// model weights and their training state, the config, and a pool of
/// valid SQL statements.
pub struct SharedWorld {
    parts: EngineParts,
    config: SystemConfig,
    /// Claims in the corpus; op generation indexes into this range.
    pub n_claims: usize,
    /// One valid statement per claim (its first ground-truth lookup), the
    /// pool `sql` and `batch` ops draw from.
    pub sql_pool: Vec<String>,
}

impl SharedWorld {
    /// Generates the corpus, featurizes it, and pretrains the models —
    /// the one-time cost every schedule run amortizes.
    pub fn build() -> SharedWorld {
        let corpus_config = CorpusConfig {
            n_claims: 32,
            n_sentences: 160,
            n_relations: 8,
            n_keys: 16,
            n_attributes: 16,
            n_formulas: 8,
            n_sections: 4,
            ..CorpusConfig::small()
        };
        let mut config = SystemConfig::test();
        // bound Algorithm 2's enumeration: schedule runs must be fast
        config.max_assignments = 2_000;
        // what `Engine::pretrain(None)` does to a fresh engine's models
        let mut parts = EngineParts::bootstrap(Corpus::generate(corpus_config), &config);
        let all: Vec<usize> = (0..parts.corpus.claims.len()).collect();
        parts.models.retrain_from_store(
            &mut parts.training,
            &parts.features,
            &parts.corpus.claims,
            &all,
            available_threads(),
        );
        let sql_pool = parts
            .corpus
            .claims
            .iter()
            .map(|claim| {
                let lookup = &claim.lookups[0];
                format!(
                    "SELECT a.{} FROM {} a WHERE a.Index = '{}'",
                    lookup.attribute, lookup.relation, lookup.key
                )
            })
            .collect();
        SharedWorld {
            n_claims: parts.corpus.claims.len(),
            sql_pool,
            parts,
            config,
        }
    }

    /// Spawns an engine under full simulation — deterministic scheduler,
    /// armable fault plan — durable over `storage`. With fresh storage,
    /// the engine starts at epoch 0 with empty sessions; with storage a
    /// previous incarnation wrote (and crashed on), it recovers the
    /// durable state. Every schedule run therefore also model-checks the
    /// WAL record/replay path.
    pub fn spawn_engine(&self, storage: Arc<dyn Storage>) -> std::io::Result<SpawnedEngine> {
        let (env, scheduler, faults) = SimEnv::simulated();
        let (engine, report) = Engine::open(
            self.parts.clone(),
            self.config,
            EngineOptions {
                retrain_interval: Some(RETRAIN_INTERVAL),
                ordering: OrderingStrategy::Sequential,
            },
            env,
            Some(DurableEnv {
                storage,
                dir: "wal".to_string(),
                wal: WalOptions::default(),
            }),
        )?;
        Ok((engine, scheduler, faults, report))
    }

    /// Ground-truth relation text for a claim — the harness answers
    /// property screens with it.
    pub fn relation_of(&self, claim: usize) -> &str {
        &self.parts.corpus.claims[claim].relation
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spawned_engines_share_the_world_but_not_state() {
        let world = SharedWorld::build();
        let storage_a = scrutinizer_sim::SimStorage::new();
        let storage_b = scrutinizer_sim::SimStorage::new();
        let (a, _, _, _) = world.spawn_engine(storage_a).expect("spawn a");
        let (b, _, _, _) = world.spawn_engine(storage_b).expect("spawn b");
        assert_eq!(
            a.stats().model_epoch.get(),
            0,
            "fresh engines start at epoch 0"
        );
        assert!(a.is_durable(), "sim engines carry a WAL");
        a.open_session("sim");
        assert_eq!(a.stats().sessions_opened.get(), 1);
        assert_eq!(b.stats().sessions_opened.get(), 0, "stats are per-engine");
        assert_eq!(world.sql_pool.len(), world.n_claims);
    }
}
