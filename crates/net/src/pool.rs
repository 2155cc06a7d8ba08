//! A persistent, deterministic fork-join worker pool.
//!
//! The all-pairs shortest-path kernels behind [`CostMatrix::from_graph`]
//! (the Dijkstra row fan-out and the flat Floyd–Warshall) share one
//! lazily-started pool instead of re-spawning scoped threads per call;
//! spawning costs tens of microseconds per thread.
//!
//! The canonical implementation lives here, at the bottom of the workspace
//! dependency DAG, so `drp-net` itself can use it; everything above should
//! import it as `drp_core::pool`.
//!
//! # Determinism
//!
//! The pool provides *fork-join over index ranges*: [`WorkerPool::run`]
//! executes a pure function once per index, and
//! [`WorkerPool::for_each_chunk_mut`] hands each task a fixed, disjoint
//! chunk of one slice. Which worker executes which index is scheduling-
//! dependent, but the mapping from index to input and output location is
//! not — so as long as the task function itself is a pure function of its
//! index (all our kernels are), results are bitwise-identical across
//! thread counts, including `DRP_THREADS=1`.
//!
//! # Thread count
//!
//! [`WorkerPool::global`] sizes itself from the `DRP_THREADS` environment
//! variable when set (a positive integer), falling back to
//! [`std::thread::available_parallelism`]. Explicit pools from
//! [`WorkerPool::new`] ignore the environment — benchmarks use
//! `WorkerPool::new(1)` as the sequential reference.
//!
//! # Examples
//!
//! ```
//! use drp_net::pool::WorkerPool;
//!
//! let pool = WorkerPool::new(4);
//! let mut squares = vec![0u64; 100];
//! pool.for_each_chunk_mut(&mut squares, 25, |chunk_index, chunk| {
//!     for (offset, slot) in chunk.iter_mut().enumerate() {
//!         let i = (chunk_index * 25 + offset) as u64;
//!         *slot = i * i;
//!     }
//! });
//! assert_eq!(squares[9], 81);
//! ```
//!
//! [`CostMatrix::from_graph`]: crate::CostMatrix::from_graph

use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;

type Job = Box<dyn FnOnce() + Send + 'static>;

#[derive(Default)]
struct QueueState {
    jobs: VecDeque<Job>,
    shutdown: bool,
}

struct Queue {
    state: Mutex<QueueState>,
    ready: Condvar,
}

/// Counts outstanding tasks of one `run` call; the caller blocks on it so
/// borrowed task closures provably outlive every job that references them.
struct Latch {
    state: Mutex<(usize, bool)>,
    done: Condvar,
}

impl Latch {
    fn new(tasks: usize) -> Self {
        Self {
            state: Mutex::new((tasks, false)),
            done: Condvar::new(),
        }
    }

    fn complete(&self, panicked: bool) {
        let mut state = self.state.lock().unwrap();
        state.0 -= 1;
        state.1 |= panicked;
        if state.0 == 0 {
            self.done.notify_all();
        }
    }

    /// Blocks until every task completed; returns whether any panicked.
    fn wait(&self) -> bool {
        let mut state = self.state.lock().unwrap();
        while state.0 > 0 {
            state = self.done.wait(state).unwrap();
        }
        state.1
    }
}

/// Fat-pointer to a borrowed task function, smuggled into `'static` jobs.
/// Sound because [`WorkerPool::run`] does not return before the latch
/// confirms every job holding the pointer has finished.
#[derive(Clone, Copy)]
struct RawTask(*const (dyn Fn(usize) + Sync));
unsafe impl Send for RawTask {}

/// Raw base pointer of a slice being chunked across tasks. Each task index
/// reconstructs its own disjoint sub-slice, so no two tasks alias.
struct RawSlice<T>(*mut T);
unsafe impl<T: Send> Send for RawSlice<T> {}
unsafe impl<T: Send> Sync for RawSlice<T> {}

/// A persistent pool of worker threads executing chunked fork-join calls.
///
/// See the [module docs](self) for the determinism contract and sizing.
pub struct WorkerPool {
    queue: Arc<Queue>,
    workers: Vec<JoinHandle<()>>,
    threads: usize,
}

impl WorkerPool {
    /// A pool that fans work over `threads` threads. `threads <= 1` builds
    /// an inline pool that spawns nothing and runs every task on the
    /// caller — the sequential reference the parity tests compare against.
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let queue = Arc::new(Queue {
            state: Mutex::new(QueueState::default()),
            ready: Condvar::new(),
        });
        // The caller participates in every fork-join (it drains the queue
        // while waiting), so `threads - 1` workers saturate `threads` cores.
        let workers = (1..threads)
            .map(|i| {
                let queue = Arc::clone(&queue);
                std::thread::Builder::new()
                    .name(format!("drp-pool-{i}"))
                    .spawn(move || worker_loop(&queue))
                    .expect("spawn worker thread")
            })
            .collect();
        Self {
            queue,
            workers,
            threads,
        }
    }

    /// The process-wide pool, started on first use. Honors `DRP_THREADS`
    /// (a positive integer) and otherwise sizes itself to
    /// [`std::thread::available_parallelism`].
    pub fn global() -> &'static WorkerPool {
        static GLOBAL: OnceLock<WorkerPool> = OnceLock::new();
        GLOBAL.get_or_init(|| WorkerPool::new(default_threads()))
    }

    /// The parallelism this pool fans out to (including the calling
    /// thread); 1 means fully inline execution.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `task(0), task(1), …, task(tasks - 1)` to completion, fanned
    /// over the pool. Blocks until every index finished.
    ///
    /// `task` must be a pure function of its index for the determinism
    /// contract to hold; the pool guarantees only that all indices run
    /// exactly once and that their effects are visible when `run` returns.
    ///
    /// # Panics
    ///
    /// Panics if any task panicked (after all of them finished or
    /// unwound).
    pub fn run<F>(&self, tasks: usize, task: F)
    where
        F: Fn(usize) + Sync,
    {
        if tasks == 0 {
            return;
        }
        if self.workers.is_empty() || tasks == 1 {
            for index in 0..tasks {
                task(index);
            }
            return;
        }

        let latch = Arc::new(Latch::new(tasks));
        let task_ref: &(dyn Fn(usize) + Sync) = &task;
        // SAFETY: erases the borrow's lifetime. Every job created below
        // signals `latch` when it finishes (even by panic), and this
        // function blocks on `latch.wait()` before returning, so `task`
        // strictly outlives every dereference of the pointer.
        let raw: RawTask = RawTask(unsafe {
            std::mem::transmute::<&(dyn Fn(usize) + Sync), *const (dyn Fn(usize) + Sync)>(task_ref)
        });

        {
            let mut state = self.queue.state.lock().unwrap();
            for index in 0..tasks {
                let latch = Arc::clone(&latch);
                state.jobs.push_back(Box::new(move || {
                    // Rebind the whole wrapper so the closure captures the
                    // `Send` newtype, not its raw-pointer field.
                    let raw = raw;
                    let panicked = panic::catch_unwind(AssertUnwindSafe(|| {
                        // SAFETY: see above — the pointee outlives the job.
                        (unsafe { &*raw.0 })(index);
                    }))
                    .is_err();
                    latch.complete(panicked);
                }));
            }
        }
        self.queue.ready.notify_all();

        // Help drain the queue instead of blocking idle: the caller is a
        // full participant, which also keeps a 1-worker pool deadlock-free
        // and lets nested `run` calls make progress on their own jobs.
        loop {
            let job = self.queue.state.lock().unwrap().jobs.pop_front();
            match job {
                Some(job) => job(),
                None => break,
            }
        }
        if latch.wait() {
            propagate_worker_panic();
        }
    }

    /// Splits `data` into consecutive chunks of `chunk` elements (the last
    /// one may be shorter) and runs `f(chunk_index, chunk)` for each,
    /// fanned over the pool.
    ///
    /// The chunk boundaries depend only on `data.len()` and `chunk`, never
    /// on the thread count — the heart of the determinism argument: every
    /// output element has exactly one writer, chosen before any thread
    /// runs.
    ///
    /// # Panics
    ///
    /// Panics if `chunk == 0`, or if any task panicked.
    pub fn for_each_chunk_mut<T, F>(&self, data: &mut [T], chunk: usize, f: F)
    where
        T: Send,
        F: Fn(usize, &mut [T]) + Sync,
    {
        assert!(chunk > 0, "chunk size must be positive");
        let len = data.len();
        let tasks = len.div_ceil(chunk);
        if tasks <= 1 {
            if len > 0 {
                f(0, data);
            }
            return;
        }
        let base = RawSlice(data.as_mut_ptr());
        self.run(tasks, move |index| {
            // Rebind the whole wrapper so the closure captures the `Sync`
            // newtype, not its raw-pointer field.
            let base = &base;
            let start = index * chunk;
            let end = (start + chunk).min(len);
            // SAFETY: tasks cover `[0, len)` in disjoint `[start, end)`
            // ranges, so no two tasks alias, and `data` outlives `run`.
            let chunk = unsafe { std::slice::from_raw_parts_mut(base.0.add(start), end - start) };
            f(index, chunk);
        });
    }
}

/// Re-raises a worker panic on the caller. Kept out of line and marked
/// cold so the panic machinery stays off the fork-join exit path every
/// generation takes.
#[cold]
#[inline(never)]
fn propagate_worker_panic() -> ! {
    panic!("a WorkerPool task panicked");
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut state = self.queue.state.lock().unwrap();
            state.shutdown = true;
        }
        self.queue.ready.notify_all();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

fn worker_loop(queue: &Queue) {
    loop {
        let job = {
            let mut state = queue.state.lock().unwrap();
            loop {
                if let Some(job) = state.jobs.pop_front() {
                    break Some(job);
                }
                if state.shutdown {
                    break None;
                }
                state = queue.ready.wait(state).unwrap();
            }
        };
        match job {
            Some(job) => job(),
            None => return,
        }
    }
}

fn default_threads() -> usize {
    match std::env::var("DRP_THREADS")
        .ok()
        .and_then(|s| parse_threads(&s))
    {
        Some(n) => n,
        None => std::thread::available_parallelism().map_or(1, usize::from),
    }
}

/// Parses a `DRP_THREADS` value: a positive integer; anything else is
/// ignored (the pool falls back to the detected parallelism).
fn parse_threads(value: &str) -> Option<usize> {
    value.trim().parse::<usize>().ok().filter(|&n| n >= 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn run_covers_every_index_exactly_once() {
        let pool = WorkerPool::new(4);
        let hits: Vec<AtomicUsize> = (0..100).map(|_| AtomicUsize::new(0)).collect();
        pool.run(100, |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn chunked_results_match_inline_execution() {
        let kernel = |chunk_index: usize, chunk: &mut [u64]| {
            for (offset, slot) in chunk.iter_mut().enumerate() {
                let i = (chunk_index * 7 + offset) as u64;
                *slot = i.wrapping_mul(i) ^ 0x9e37;
            }
        };
        let mut inline = vec![0u64; 103];
        WorkerPool::new(1).for_each_chunk_mut(&mut inline, 7, kernel);
        for threads in [2, 3, 8] {
            let mut pooled = vec![0u64; 103];
            WorkerPool::new(threads).for_each_chunk_mut(&mut pooled, 7, kernel);
            assert_eq!(pooled, inline, "{threads} threads");
        }
    }

    #[test]
    fn pool_survives_reuse_across_many_rounds() {
        let pool = WorkerPool::new(3);
        for round in 0..50u64 {
            let mut data = vec![0u64; 64];
            pool.for_each_chunk_mut(&mut data, 16, |ci, chunk| {
                for slot in chunk.iter_mut() {
                    *slot = round + ci as u64;
                }
            });
            assert_eq!(data[63], round + 3);
        }
    }

    #[test]
    fn task_panic_propagates_to_caller() {
        let pool = WorkerPool::new(2);
        let result = panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run(16, |i| {
                if i == 11 {
                    panic!("boom");
                }
            });
        }));
        assert!(result.is_err());
        // The pool is still usable afterwards.
        let mut data = vec![0u8; 8];
        pool.for_each_chunk_mut(&mut data, 2, |_, chunk| chunk.fill(1));
        assert_eq!(data, vec![1; 8]);
    }

    #[test]
    fn empty_and_tiny_inputs_run_inline() {
        let pool = WorkerPool::new(4);
        pool.run(0, |_| panic!("never called"));
        let mut empty: Vec<u64> = Vec::new();
        pool.for_each_chunk_mut(&mut empty, 5, |_, _| panic!("never called"));
        let mut one = vec![0u64];
        pool.for_each_chunk_mut(&mut one, 5, |_, chunk| chunk.fill(9));
        assert_eq!(one, vec![9]);
    }

    #[test]
    fn thread_count_parsing() {
        assert_eq!(parse_threads("4"), Some(4));
        assert_eq!(parse_threads(" 12 "), Some(12));
        assert_eq!(parse_threads("0"), None);
        assert_eq!(parse_threads("-2"), None);
        assert_eq!(parse_threads("many"), None);
        assert_eq!(parse_threads(""), None);
    }

    #[test]
    fn global_pool_is_shared_and_alive() {
        let a = WorkerPool::global();
        let b = WorkerPool::global();
        assert!(std::ptr::eq(a, b));
        assert!(a.threads() >= 1);
        let mut data = vec![0u64; 32];
        a.for_each_chunk_mut(&mut data, 8, |_, chunk| chunk.fill(3));
        assert_eq!(data, vec![3; 32]);
    }
}
