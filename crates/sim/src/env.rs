//! The bundle the engine is constructed with: optionally a deterministic
//! scheduler, optionally an armed fault plan.
//!
//! [`SimEnv::production`] is the ambient-world configuration — no
//! scheduler override (the engine keeps its trainer thread), no faults —
//! and is what every existing constructor uses, so production
//! behaviour is unchanged: the `Option`s are `None` and every check
//! folds to a branch on a null pointer. [`SimEnv::simulated`] is built
//! per schedule by the harness.

use std::sync::Arc;

use crate::fault::FaultPlan;
use crate::spawn::SimScheduler;

/// The injected environment: background scheduling, faults.
#[derive(Clone, Default)]
pub struct SimEnv {
    tasks: Option<Arc<SimScheduler>>,
    faults: Option<Arc<FaultPlan>>,
}

impl SimEnv {
    /// The real world: the engine's own threads, no faults.
    pub fn production() -> Self {
        Self::default()
    }

    /// A fresh simulated world: deterministic scheduler, empty fault
    /// plan. The harness keeps clones of the parts to drive them.
    pub fn simulated() -> (Self, Arc<SimScheduler>, Arc<FaultPlan>) {
        let tasks = Arc::new(SimScheduler::new());
        let faults = Arc::new(FaultPlan::new());
        let env = SimEnv {
            tasks: Some(Arc::clone(&tasks)),
            faults: Some(Arc::clone(&faults)),
        };
        (env, tasks, faults)
    }

    /// The deterministic scheduler, when simulated.
    pub fn scheduler(&self) -> Option<&Arc<SimScheduler>> {
        self.tasks.as_ref()
    }

    /// `true` when background work is harness-driven.
    pub fn is_simulated(&self) -> bool {
        self.tasks.is_some()
    }

    /// Consult a named fault point. Constant `false` in production.
    #[inline]
    pub fn fault(&self, point: &str) -> bool {
        match &self.faults {
            Some(plan) => plan.fire(point),
            None => false,
        }
    }

    /// Run one queued background task if simulated; `false` otherwise
    /// (callers then wait for real threads instead).
    pub fn drive_one(&self) -> bool {
        match &self.tasks {
            Some(sched) => sched.drive_one(),
            None => false,
        }
    }
}

impl std::fmt::Debug for SimEnv {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimEnv")
            .field("simulated", &self.is_simulated())
            .field("faults", &self.faults)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn production_env_is_passthrough() {
        let env = SimEnv::production();
        assert!(!env.is_simulated());
        assert!(!env.fault("anything"));
        assert!(!env.drive_one());
    }

    #[test]
    fn simulated_env_wires_the_parts_together() {
        let (env, sched, faults) = SimEnv::simulated();
        assert!(env.is_simulated());

        faults.arm("x", 1);
        assert!(env.fault("x"));
        assert!(!env.fault("x"));

        let hit = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let h = Arc::clone(&hit);
        sched.spawn(Box::new(move || {
            h.store(true, std::sync::atomic::Ordering::SeqCst)
        }));
        assert!(env.drive_one());
        assert!(hit.load(std::sync::atomic::Ordering::SeqCst));
    }
}
