//! Epoch-versioned model snapshots: the read side of non-blocking learning.
//!
//! Before PR 4 the engine kept its models in a `RwLock<SystemModels>` and
//! retrained **under the write lock** — every suggest/submit/translate in
//! flight stalled for the full retrain latency. The snapshot cell applies
//! the same prepare-once/swap discipline PR 2 used for query plans and
//! PR 3 for batch plans to the models themselves:
//!
//! * readers call [`SnapshotCell::load`] and get an `Arc` to an immutable
//!   [`ModelSnapshot`]; the cell's lock is held only for the pointer clone
//!   (nanoseconds), never across any model work, so a reader can *never*
//!   wait on a trainer;
//! * the background trainer works on a **copy** of the current snapshot's
//!   models and, when done, [`publish`](SnapshotCell::publish)es the result
//!   as a new snapshot with the epoch advanced — an atomic pointer swap.
//!
//! A snapshot holds only the read side of the learned state
//! ([`SystemModels`]: labels, weights, biases), and its weights are one
//! shared row per feature, so that copy shares every row with the
//! published snapshot: training copies a row only when it first writes
//! it, about a quarter of the 67 MB of weights for a 50-claim epoch at
//! paper scale. The snapshot a publish retires
//! ([`publish`](SnapshotCell::publish) hands it back) alone holds the
//! old values of the rows the new epoch copied; once no reader holds
//! it, the next retrain writes its copies into those rows instead of new
//! allocations. The AdaGrad accumulators and the rehearsal log — the
//! [`TrainingState`](scrutinizer_core::TrainingState), read only by
//! training and persistence — have a single owner: the engine keeps them
//! inside the lock that serializes trainers, never copies them, and each
//! retrain advances them in place with the epoch it publishes.
//!
//! The epoch is the invalidation token for everything derived from the
//! models (session translations, cached utilities): one monotone counter
//! is enough because models only ever advance wholesale.

use std::sync::{Arc, RwLock};

use scrutinizer_core::SystemModels;

/// One immutable published generation of the four property classifiers.
#[derive(Debug)]
pub struct ModelSnapshot {
    /// Monotone generation counter; bumped by every publish.
    pub epoch: u64,
    /// The models themselves — weights and labels, no training state.
    /// Immutable: retraining clones them (sharing their weight rows),
    /// trains the copy off-lock, and publishes a fresh snapshot.
    pub models: SystemModels,
}

/// The swap cell holding the current [`ModelSnapshot`].
///
/// Reads and writes both touch the lock only for an `Arc` clone or a
/// pointer swap; all model computation happens outside it. `RwLock` (not
/// `Mutex`) so concurrent readers do not even serialize against each other
/// on the uncontended path.
#[derive(Debug)]
pub struct SnapshotCell {
    current: RwLock<Arc<ModelSnapshot>>,
}

impl SnapshotCell {
    /// Wraps the bootstrap models as epoch 0.
    pub fn new(models: SystemModels) -> Self {
        Self::with_epoch(models, 0)
    }

    /// Wraps already-trained models at a given starting epoch — the
    /// recovery path's constructor: a restarted engine resumes at the
    /// last durable epoch instead of restarting the counter at zero.
    pub fn with_epoch(models: SystemModels, epoch: u64) -> Self {
        SnapshotCell {
            current: RwLock::new(Arc::new(ModelSnapshot { epoch, models })),
        }
    }

    /// The current snapshot. Wait-free in practice: the read lock guards a
    /// single `Arc::clone`, and writers hold the write lock only for a
    /// pointer swap.
    pub fn load(&self) -> Arc<ModelSnapshot> {
        Arc::clone(&self.current.read().expect("snapshot cell poisoned"))
    }

    /// The current epoch (shorthand for `load().epoch`).
    pub fn epoch(&self) -> u64 {
        self.current.read().expect("snapshot cell poisoned").epoch
    }

    /// Publishes freshly trained models as the next epoch, returning the
    /// new epoch and the snapshot it retired. Readers holding the retired
    /// snapshot keep it alive via their `Arc` until they finish — no
    /// reader is ever invalidated mid-operation.
    pub fn publish(&self, models: SystemModels) -> (u64, Arc<ModelSnapshot>) {
        let mut slot = self.current.write().expect("snapshot cell poisoned");
        let epoch = slot.epoch + 1;
        let retired = std::mem::replace(&mut *slot, Arc::new(ModelSnapshot { epoch, models }));
        (epoch, retired)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scrutinizer_core::SystemConfig;
    use scrutinizer_corpus::{Corpus, CorpusConfig};

    #[test]
    fn publish_advances_the_epoch_and_readers_keep_their_snapshot() {
        let corpus = Corpus::generate(CorpusConfig::small());
        let models = SystemModels::bootstrap(&corpus, &SystemConfig::test());
        let cell = SnapshotCell::new(models.clone());
        assert_eq!(cell.epoch(), 0);

        let held = cell.load();
        let (epoch, retired) = cell.publish(models.clone());
        assert_eq!((epoch, retired.epoch), (1, 0));
        assert_eq!(cell.publish(models).0, 2);
        assert_eq!(cell.epoch(), 2);
        // the reader's generation is untouched by later publishes
        assert_eq!(held.epoch, 0);
        assert_eq!(cell.load().epoch, 2);
    }
}
