//! The host's speed while a run goes on. A shared box runs the same CPU
//! work 20–30 % slower in some minutes than in others, and that drift
//! moves every timing of the system under test together. A probe thread
//! runs a fixed kernel every [`PERIOD`] and times it by its own CPU time
//! (so being preempted by the server or the checkers does not count);
//! the benchmark divides the timings taken meanwhile by how much slower
//! the kernel ran than its reference time. A thread's CPU time leaves
//! out the time the hypervisor gave the box's vCPUs to other guests, so
//! each probe also reads that (`steal` in `/proc/stat`).
//!
//! The kernel is this file's own code, so no change to the system under
//! test changes it.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Gap between two probes: about 1 ms of kernel per 20 ms, 5 % of one core.
const PERIOD: Duration = Duration::from_millis(20);

/// Table the kernel walks: larger than a core's L2, as the server's
/// tables are.
const TABLE_WORDS: usize = 1 << 20;
/// Dependent loads per probe.
const WALK_STEPS: usize = 40_000;
/// Length of the float vectors the kernel takes dot products of.
const DOT_LEN: usize = 4096;
const DOTS: usize = 64;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// CPU time of the calling thread, in nanoseconds.
fn thread_cpu_ns() -> u64 {
    let mut tp = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `tp` is a valid, writable timespec and the clock id is a
    // constant Linux defines.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut tp) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    tp.tv_sec as u64 * 1_000_000_000 + tp.tv_nsec as u64
}

/// Clock ticks the hypervisor has stolen from all of the box's vCPUs
/// since boot; 0 where the kernel does not account them.
fn steal_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|stat| {
            let cpu = stat.lines().next()?.split_whitespace().nth(8)?;
            cpu.parse().ok()
        })
        .unwrap_or(0)
}

/// The fixed work one probe times: a dependent pseudo-random walk over a
/// table (memory latency) and float dot products (arithmetic).
struct Kernel {
    table: Vec<u32>,
    a: Vec<f32>,
    b: Vec<f32>,
}

impl Kernel {
    fn new() -> Kernel {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let table = (0..TABLE_WORDS)
            .map(|_| (next() % TABLE_WORDS as u64) as u32)
            .collect();
        let a = (0..DOT_LEN).map(|i| (i % 97) as f32 * 0.01).collect();
        let b = (0..DOT_LEN).map(|i| (i % 89) as f32 * 0.02).collect();
        Kernel { table, a, b }
    }

    fn run(&self, salt: u32) -> f32 {
        let mut at = salt as usize % TABLE_WORDS;
        for _ in 0..WALK_STEPS {
            at = self.table[at] as usize;
        }
        let mut acc = at as f32;
        for d in 0..DOTS {
            let scale = 1.0 + d as f32 * 1e-3;
            acc += self
                .a
                .iter()
                .zip(&self.b)
                .map(|(x, y)| x * y * scale)
                .sum::<f32>();
        }
        acc
    }
}

/// A probe thread, stopped and joined on drop.
pub struct Pace {
    samples: Arc<Mutex<Vec<[u64; 3]>>>,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl Pace {
    /// Starts probing; sample times are nanoseconds since `origin`. The
    /// kernel's tables are built before this returns, so building them
    /// overlaps no measurement.
    pub fn start(origin: Instant) -> Pace {
        let samples = Arc::new(Mutex::new(Vec::new()));
        let stop = Arc::new(AtomicBool::new(false));
        let kernel = Kernel::new();
        let handle = {
            let (samples, stop) = (Arc::clone(&samples), Arc::clone(&stop));
            std::thread::spawn(move || {
                let mut salt = 0u32;
                while !stop.load(Ordering::Relaxed) {
                    let at = origin.elapsed().as_nanos() as u64;
                    let cpu = thread_cpu_ns();
                    std::hint::black_box(kernel.run(salt));
                    let took = thread_cpu_ns() - cpu;
                    let stolen = steal_ticks();
                    samples
                        .lock()
                        .expect("pace samples")
                        .push([at, took, stolen]);
                    salt = salt.wrapping_add(7919);
                    std::thread::sleep(PERIOD);
                }
            })
        };
        Pace {
            samples,
            stop,
            handle: Some(handle),
        }
    }

    /// Stops the probe and returns its samples: start and kernel CPU time
    /// in nanoseconds, and the steal ticks read after the kernel.
    pub fn finish(mut self) -> Vec<[u64; 3]> {
        self.halt();
        std::mem::take(&mut *self.samples.lock().expect("pace samples"))
    }

    fn halt(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Pace {
    fn drop(&mut self) {
        self.halt();
    }
}
