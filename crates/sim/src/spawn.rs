//! Harness-driven background tasks.
//!
//! The engine's trainer does not own a thread when it runs under
//! simulation. Instead, work it would have sent to its trainer thread
//! goes to the [`SimScheduler`], which just queues the closure and lets
//! the *harness* decide when — and whether — it runs, via
//! [`drive_one`](SimScheduler::drive_one). That turns "the trainer raced
//! the shutdown" from a once-in-a-thousand-runs flake into an explicitly
//! schedulable interleaving.

use std::collections::VecDeque;
use std::sync::Mutex;

/// A unit of background work.
pub type Task = Box<dyn FnOnce() + Send + 'static>;

/// The deterministic scheduler: a FIFO of queued tasks that run only
/// when the harness calls [`drive_one`](SimScheduler::drive_one). Single
/// queue, strict submission order — determinism comes from the harness
/// choosing *when* to interleave driving with foreground ops, not from
/// reordering.
#[derive(Default)]
pub struct SimScheduler {
    queue: Mutex<VecDeque<Task>>,
}

impl SimScheduler {
    /// An empty scheduler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Queues `task` until the harness drives it.
    pub fn spawn(&self, task: Task) {
        self.queue.lock().unwrap().push_back(task);
    }

    /// Runs the oldest queued task on the calling thread, if any is
    /// pending; returns `true` if a task ran.
    pub fn drive_one(&self) -> bool {
        // Pop under the lock, run after releasing it: a task may itself
        // spawn (the trainer re-arms its backlog check), and must not
        // deadlock on the queue.
        let next = self.queue.lock().unwrap().pop_front();
        match next {
            Some(task) => {
                task();
                true
            }
            None => false,
        }
    }

    /// Number of queued-but-unrun tasks.
    pub fn pending(&self) -> usize {
        self.queue.lock().unwrap().len()
    }
}

impl std::fmt::Debug for SimScheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimScheduler")
            .field("pending", &self.pending())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn tasks_run_in_submission_order_when_driven() {
        let sched = SimScheduler::new();
        let log = Arc::new(Mutex::new(Vec::new()));
        for i in 0..3 {
            let log = Arc::clone(&log);
            sched.spawn(Box::new(move || log.lock().unwrap().push(i)));
        }
        assert_eq!(sched.pending(), 3);
        assert!(log.lock().unwrap().is_empty(), "nothing runs until driven");
        while sched.drive_one() {}
        assert_eq!(*log.lock().unwrap(), vec![0, 1, 2]);
        assert!(!sched.drive_one());
    }

    #[test]
    fn driven_task_may_respawn_without_deadlock() {
        let sched = Arc::new(SimScheduler::new());
        let ran = Arc::new(AtomicUsize::new(0));
        let (s2, r2) = (Arc::clone(&sched), Arc::clone(&ran));
        sched.spawn(Box::new(move || {
            r2.fetch_add(1, Ordering::SeqCst);
            let r3 = Arc::clone(&r2);
            s2.spawn(Box::new(move || {
                r3.fetch_add(1, Ordering::SeqCst);
            }));
        }));
        assert!(sched.drive_one());
        assert_eq!(ran.load(Ordering::SeqCst), 1);
        assert!(sched.drive_one());
        assert_eq!(ran.load(Ordering::SeqCst), 2);
    }
}
