//! Shared fixtures for the Criterion benchmarks.
//!
//! The benches quantify the paper's timing claims on today's hardware:
//!
//! * `cost_model` — full vs incremental NTC evaluation (the ablation behind
//!   the "incremental cost maintenance" design decision in DESIGN.md);
//! * `scaling` — SRA and GRA wall-clock versus the number of sites and
//!   objects (Figures 2(a)/2(b));
//! * `adaptive` — AGRA variants versus warm/fresh GRA (Figure 4(d));
//! * `ga_ops` — the genetic operators and selection schemes in isolation.
//!
//! The machine-readable `BENCH_*.json` bins (`cost_eval`, `faults`,
//! `telemetry`, `scale`, `adapt`) all emit the shared [`report`] shape.

pub mod ratchet;
pub mod report;

use std::time::Instant;

use drp_core::Problem;
use drp_workload::WorkloadSpec;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A deterministic paper-style instance for benchmarking.
pub fn instance(sites: usize, objects: usize, update_percent: f64) -> Problem {
    WorkloadSpec::paper(sites, objects, update_percent, 15.0)
        .generate(&mut StdRng::seed_from_u64(0xbe4c))
        .expect("benchmark instance generates")
}

/// A deterministic rng for solver runs.
pub fn rng() -> StdRng {
    StdRng::seed_from_u64(0xfeed)
}

/// Appends the host fields every artifact's config records: the cores
/// the host offers, the thread budget ingestion sizes its shards from
/// (`DRP_THREADS` wins over auto-detection), the raw `DRP_THREADS` value,
/// and the instruction set the Eq. 4 cost kernels run on (`"avx2"` or
/// `"baseline"`, see [`drp_core::kernels::isa`]). The ratchet treats all
/// four as environment, not benchmark identity.
#[must_use]
pub fn thread_fields(fields: report::Fields) -> report::Fields {
    let available = std::thread::available_parallelism().map_or(1, usize::from);
    let drp_threads = std::env::var("DRP_THREADS").unwrap_or_else(|_| "unset".to_string());
    fields
        .int("available_parallelism", available as u64)
        .int(
            "pool_threads",
            drp_core::pool::WorkerPool::global().threads() as u64,
        )
        .text("drp_threads", &drp_threads)
        .text("kernel_isa", drp_core::kernels::isa())
}

/// Times `f` once, calibrating the iteration count to ~5 ms of wall clock;
/// returns nanoseconds per call.
fn measure_once<F: FnMut()>(mut f: F) -> f64 {
    let warm = Instant::now();
    f();
    let once = (warm.elapsed().as_nanos() as u64).max(1);
    let iters = (5_000_000 / once).clamp(1, 5_000_000) as u32;
    let timed = Instant::now();
    for _ in 0..iters {
        f();
    }
    timed.elapsed().as_nanos() as f64 / f64::from(iters)
}

/// The fastest and slowest of one variant's [`round_robin`] passes, in
/// nanoseconds per call.
#[derive(Debug, Clone, Copy)]
pub struct Passes {
    /// The best pass: the stable estimator on a noisy host.
    pub best: f64,
    /// The worst pass.
    pub worst: f64,
}

impl Passes {
    /// Worst pass over best pass; 1.0 when every pass agreed.
    pub fn spread(&self) -> f64 {
        self.worst / self.best
    }
}

/// Times every variant over `passes` rounds, round-robin: each round times
/// one calibrated ~5 ms pass of each closure, so every variant's passes
/// come from the same stretch of wall clock and host-speed drift hits all
/// of them alike. One discarded round comes first: the very first timed
/// closure otherwise pays the cold instruction cache and page-fault bill
/// for everyone.
pub fn round_robin<const K: usize>(
    passes: usize,
    variants: &mut [&mut dyn FnMut(); K],
) -> [Passes; K] {
    for f in variants.iter_mut() {
        measure_once(&mut **f);
    }
    let mut times = [Passes {
        best: f64::MAX,
        worst: 0.0,
    }; K];
    for _ in 0..passes {
        for (slot, f) in times.iter_mut().zip(variants.iter_mut()) {
            let ns = measure_once(&mut **f);
            slot.best = slot.best.min(ns);
            slot.worst = slot.worst.max(ns);
        }
    }
    times
}
