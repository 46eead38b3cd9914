//! A std-only thread-pool executor with a bounded work queue.
//!
//! Batch claim verification fans hundreds of independent claim sessions
//! out over a fixed set of worker threads. The queue is **bounded**:
//! producers submitting faster than the pool drains block in
//! [`ThreadPool::execute`] — backpressure instead of unbounded memory
//! growth when a serving frontend floods the engine.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;

type Job = Box<dyn FnOnce() + Send + 'static>;

struct PoolState {
    queue: VecDeque<Job>,
    shutdown: bool,
}

struct PoolShared {
    state: Mutex<PoolState>,
    /// Signaled when a job is enqueued or shutdown begins.
    job_ready: Condvar,
    /// Signaled when a job is dequeued (space for blocked producers).
    space_ready: Condvar,
    capacity: usize,
    /// Jobs enqueued but not yet started (the metrics' queue depth).
    depth: AtomicUsize,
    /// Jobs currently executing.
    in_flight: AtomicUsize,
}

/// A fixed-size worker pool over a bounded queue.
pub struct ThreadPool {
    shared: Arc<PoolShared>,
    workers: Vec<JoinHandle<()>>,
}

impl ThreadPool {
    /// A pool of `threads` workers over a queue of at most `queue_capacity`
    /// waiting jobs (both floored at 1).
    pub fn new(threads: usize, queue_capacity: usize) -> Self {
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState {
                queue: VecDeque::new(),
                shutdown: false,
            }),
            job_ready: Condvar::new(),
            space_ready: Condvar::new(),
            capacity: queue_capacity.max(1),
            depth: AtomicUsize::new(0),
            in_flight: AtomicUsize::new(0),
        });
        let workers = (0..threads.max(1))
            .map(|index| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("engine-worker-{index}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn engine worker")
            })
            .collect();
        ThreadPool { shared, workers }
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    /// Jobs waiting in the queue.
    pub fn queue_depth(&self) -> usize {
        self.shared.depth.load(Ordering::Relaxed)
    }

    /// Jobs currently executing.
    pub fn in_flight(&self) -> usize {
        self.shared.in_flight.load(Ordering::Relaxed)
    }

    /// Enqueues a job, blocking while the queue is at capacity. If the
    /// pool shuts down while (or before) the producer waits, the job runs
    /// on the calling thread instead — degraded but never lost, and no
    /// panic while holding the queue lock.
    pub fn execute(&self, job: impl FnOnce() + Send + 'static) {
        let mut state = self.shared.state.lock().expect("pool state poisoned");
        while state.queue.len() >= self.shared.capacity && !state.shutdown {
            state = self
                .shared
                .space_ready
                .wait(state)
                .expect("pool state poisoned");
        }
        if state.shutdown {
            drop(state);
            job();
            return;
        }
        state.queue.push_back(Box::new(job));
        self.shared
            .depth
            .store(state.queue.len(), Ordering::Relaxed);
        drop(state);
        self.shared.job_ready.notify_one();
    }

    /// Runs every task on the pool and returns their results in input
    /// order, blocking until all complete. The calling thread participates
    /// in backpressure: submission stalls while the queue is full.
    pub fn run_all<T, F>(&self, tasks: Vec<F>) -> Vec<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        let (sender, receiver) = mpsc::channel::<(usize, T)>();
        let count = tasks.len();
        for (index, task) in tasks.into_iter().enumerate() {
            let sender = sender.clone();
            self.execute(move || {
                let result = task();
                // receiver alive until all results are in
                let _ = sender.send((index, result));
            });
        }
        drop(sender);
        let mut slots: Vec<Option<T>> = (0..count).map(|_| None).collect();
        for (index, result) in receiver {
            slots[index] = Some(result);
        }
        slots
            .into_iter()
            .map(|slot| slot.expect("worker died before sending"))
            .collect()
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        {
            let mut state = self.shared.state.lock().expect("pool state poisoned");
            state.shutdown = true;
        }
        self.shared.job_ready.notify_all();
        self.shared.space_ready.notify_all();
        // A job may own the last handle to the structure holding this pool
        // (e.g. the engine's background trainer holds an `Arc<Engine>`), in
        // which case the pool is dropped *on one of its own workers* when
        // that job finishes. Joining the current thread would deadlock it
        // against itself forever — skip it; it exits on its own as soon as
        // this drop (running inside its job) returns and the worker loop
        // sees the shutdown flag.
        let current = std::thread::current().id();
        for worker in self.workers.drain(..) {
            if worker.thread().id() != current {
                let _ = worker.join();
            }
        }
    }
}

fn worker_loop(shared: &PoolShared) {
    loop {
        let job = {
            let mut state = shared.state.lock().expect("pool state poisoned");
            loop {
                if let Some(job) = state.queue.pop_front() {
                    shared.depth.store(state.queue.len(), Ordering::Relaxed);
                    break job;
                }
                if state.shutdown {
                    return;
                }
                state = shared.job_ready.wait(state).expect("pool state poisoned");
            }
        };
        shared.space_ready.notify_one();
        shared.in_flight.fetch_add(1, Ordering::Relaxed);
        job();
        shared.in_flight.fetch_sub(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::time::Duration;

    #[test]
    fn runs_every_job() {
        let pool = ThreadPool::new(4, 16);
        let counter = Arc::new(AtomicU64::new(0));
        for _ in 0..100 {
            let counter = Arc::clone(&counter);
            pool.execute(move || {
                counter.fetch_add(1, Ordering::Relaxed);
            });
        }
        drop(pool); // join workers
        assert_eq!(counter.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn run_all_preserves_input_order() {
        let pool = ThreadPool::new(8, 8);
        let tasks: Vec<_> = (0..50usize)
            .map(|i| {
                move || {
                    if i % 7 == 0 {
                        std::thread::sleep(Duration::from_millis(2));
                    }
                    i * i
                }
            })
            .collect();
        let results = pool.run_all(tasks);
        assert_eq!(results, (0..50).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn dropping_pool_from_its_own_worker_does_not_deadlock() {
        struct Holder {
            pool: ThreadPool,
        }
        let (done_tx, done_rx) = mpsc::channel::<()>();
        let holder = Arc::new(Holder {
            pool: ThreadPool::new(1, 2),
        });
        let job_holder = Arc::clone(&holder);
        let (started_tx, started_rx) = mpsc::channel::<()>();
        holder.pool.execute(move || {
            started_tx.send(()).expect("main alive");
            // wait until main has released its handle, so this drop is the
            // last one and Holder (pool included) drops on this worker
            std::thread::sleep(Duration::from_millis(50));
            drop(job_holder);
            done_tx.send(()).expect("receiver alive");
        });
        started_rx.recv().expect("job started");
        drop(holder);
        // with a self-join in ThreadPool::drop the job never finishes
        done_rx
            .recv_timeout(Duration::from_secs(10))
            .expect("dropping the pool from its own worker must not deadlock");
    }

    #[test]
    fn blocking_execute_waits_for_space() {
        let pool = ThreadPool::new(1, 1);
        let done = Arc::new(AtomicU64::new(0));
        for _ in 0..20 {
            let done = Arc::clone(&done);
            pool.execute(move || {
                std::thread::sleep(Duration::from_micros(200));
                done.fetch_add(1, Ordering::Relaxed);
            });
        }
        drop(pool);
        assert_eq!(done.load(Ordering::Relaxed), 20);
    }
}
