//! Synthetic workload substrate reproducing Section 6.1 of the paper.
//!
//! The generator builds [`drp_core::Problem`] instances the way the paper's
//! evaluation does:
//!
//! * complete network with link costs Uniform(1, 10) (other topologies are
//!   available as reproduction extensions);
//! * one randomly placed primary copy per object;
//! * reads per (site, object) drawn Uniform(1, 40);
//! * total updates per object set to `U%` of its total reads, jittered
//!   Uniform(T/2, 3T/2) and scattered over random sites;
//! * object sizes uniform with mean 35;
//! * site capacities Uniform(C·S/2, 3C·S/2) where `S` is the total size of
//!   all objects and `C` the capacity percentage.
//!
//! [`PatternChange`] implements the fifth experiment's read/write pattern
//! shifts (parameters `Ch`, `OCh`, `R/U` split, with half of the update
//! surges clustered around a random site via a Normal(μ, M/5) — sampled with
//! our own Box–Muller to avoid an extra dependency).
//!
//! Extensions beyond the paper: [`zipf`] read skew (web-like popularity) and
//! [`trace`] timed request streams for the serve epoch engine.
//!
//! # Examples
//!
//! ```
//! use drp_workload::WorkloadSpec;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(1);
//! // The paper's AGRA test case: M=50, N=200, U=5%, C=15%.
//! let problem = WorkloadSpec::paper(50, 200, 5.0, 15.0).generate(&mut rng)?;
//! assert_eq!(problem.num_sites(), 50);
//! assert_eq!(problem.num_objects(), 200);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

mod change;
mod generator;
pub mod rngutil;
mod scenario;
mod spec;
pub mod trace;
pub mod zipf;

pub use change::{ChangeKind, PatternChange, PatternShift};
pub use generator::WorkloadError;
pub use scenario::{EpochShift, FaultSpec, ObjectSurge, Scenario};
pub use spec::{TopologyKind, WorkloadSpec};

/// Convenience alias for results in this crate.
pub type Result<T> = std::result::Result<T, WorkloadError>;
