//! Rare-path fault injection ("buggify" points).
//!
//! Production code sprinkles named fault points at the branches a test
//! could never hit on demand — `env.fault("trainer.crash")` right after
//! the trainer takes its batch, say. In production the plan is absent
//! and the call is a constant `false`; under simulation the schedule
//! arms specific points a specific number of times, so "the trainer
//! dies exactly between taking its batch and publishing" is one line of
//! schedule, not a prayer.

use std::collections::HashMap;
use std::sync::Mutex;

/// Armed fault points: a map from point name to remaining trigger count.
#[derive(Default)]
pub struct FaultPlan {
    armed: Mutex<HashMap<&'static str, u32>>,
}

impl FaultPlan {
    /// An empty (fully disarmed) plan.
    pub fn new() -> Self {
        Self::default()
    }

    /// Arm `point` to fire the next `times` times it is consulted.
    pub fn arm(&self, point: &'static str, times: u32) {
        if times == 0 {
            self.armed.lock().unwrap().remove(point);
        } else {
            self.armed.lock().unwrap().insert(point, times);
        }
    }

    /// Consult `point`: fires (returns `true`) while armed, decrementing
    /// the remaining count.
    pub fn fire(&self, point: &str) -> bool {
        let mut armed = self.armed.lock().unwrap();
        match armed.get_mut(point) {
            Some(n) => {
                *n -= 1;
                if *n == 0 {
                    armed.remove(point);
                }
                true
            }
            None => false,
        }
    }

    /// Remaining trigger count for `point` (0 when disarmed).
    pub fn remaining(&self, point: &str) -> u32 {
        self.armed.lock().unwrap().get(point).copied().unwrap_or(0)
    }
}

impl std::fmt::Debug for FaultPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let armed = self.armed.lock().unwrap();
        f.debug_struct("FaultPlan").field("armed", &*armed).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_points_never_fire() {
        let plan = FaultPlan::new();
        assert!(!plan.fire("trainer.crash"));
    }

    #[test]
    fn armed_point_fires_exactly_n_times() {
        let plan = FaultPlan::new();
        plan.arm("trainer.crash", 2);
        assert!(plan.fire("trainer.crash"));
        assert!(plan.fire("trainer.crash"));
        assert!(!plan.fire("trainer.crash"));
        assert_eq!(plan.remaining("trainer.crash"), 0);
    }

    #[test]
    fn arming_zero_disarms() {
        let plan = FaultPlan::new();
        plan.arm("p", 3);
        plan.arm("p", 0);
        assert!(!plan.fire("p"));
    }
}
