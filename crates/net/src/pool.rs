//! The process-wide thread budget.
//!
//! [`WorkerPool`] runs nothing: it starts no thread and holds no queue. It
//! only records how many threads the process may use — `DRP_THREADS` when
//! set (a positive integer), otherwise [`std::thread::available_parallelism`].
//! `drp-serve` sizes its ingestion shards from it when
//! `ServeConfig::threads` is 0, and the bench artifacts record it as an
//! environment field. The all-pairs build behind
//! [`CostMatrix::from_graph`] runs on the calling thread.
//!
//! The name is kept only until the benchmark stops reading
//! `WorkerPool::global().threads()` and the threaded ingest is deleted
//! (ROADMAP items 4 and 6). Everything above `drp-net` should import it
//! as `drp_core::pool`.
//!
//! # Examples
//!
//! ```
//! use drp_net::pool::WorkerPool;
//!
//! assert!(WorkerPool::global().threads() >= 1);
//! ```
//!
//! [`CostMatrix::from_graph`]: crate::CostMatrix::from_graph

use std::sync::OnceLock;

/// The thread budget read once from the environment; see the
/// [module docs](self).
pub struct WorkerPool {
    threads: usize,
}

impl WorkerPool {
    /// The process-wide budget, read on first use. Honors `DRP_THREADS`
    /// (a positive integer) and otherwise uses
    /// [`std::thread::available_parallelism`].
    pub fn global() -> &'static WorkerPool {
        static GLOBAL: OnceLock<WorkerPool> = OnceLock::new();
        GLOBAL.get_or_init(|| WorkerPool {
            threads: default_threads(),
        })
    }

    /// The number of threads the process may use; at least 1.
    pub fn threads(&self) -> usize {
        self.threads
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
/// ignored (the budget falls back to the detected parallelism).
fn parse_threads(value: &str) -> Option<usize> {
    value.trim().parse::<usize>().ok().filter(|&n| n >= 1)
}

#[cfg(test)]
mod tests {
    use super::*;

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
    }
}
