//! The paper's replica-placement algorithms and the baselines they are
//! measured against.
//!
//! * [`Sra`] — the greedy *Simple Replication Algorithm* (Section 3): sites
//!   take turns replicating the object with the highest positive benefit
//!   value until no candidate remains.
//! * [`distributed`] — the paper's distributed SRA variant: a leader passes
//!   a token around; each site decides locally and broadcasts its
//!   replication so everyone updates their nearest-site tables. Runs on the
//!   `drp-net` discrete-event simulator and produces the same scheme as the
//!   centralized round-robin SRA.
//! * [`Gra`] — the *Genetic Replication Algorithm* (Section 4): an
//!   `M·N`-bit GA seeded by randomized SRA runs, with two-point crossover
//!   plus gene repair, constraint-checked mutation, stochastic-remainder
//!   selection over the enlarged `(μ+λ)` space, and periodic elitism.
//! * [`Agra`] — the *Adaptive* GRA (Section 5): per-object micro-GAs react
//!   to read/write pattern shifts, transcribe their solutions into the GRA
//!   population (repairing capacity with the Eq. 6 estimator) and optionally
//!   polish with a short "mini-GRA".
//! * [`baselines`] — primary-only, random placement and hill climbing;
//!   [`exact`] — a branch-and-bound optimum for small instances, used to
//!   measure heuristic optimality gaps.
//! * [`shard`] — the sharded hierarchical driver for `M` in the
//!   thousands: partition the network into connected clusters, solve each
//!   as a small dense sub-problem with aggregated border traffic, then
//!   reconcile and refine over sparse k-nearest cost structures.
//!
//! # Examples
//!
//! ```
//! use drp_algo::{Gra, Sra};
//! use drp_core::ReplicationAlgorithm;
//! use drp_workload::WorkloadSpec;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(1);
//! let problem = WorkloadSpec::paper(8, 12, 2.0, 20.0).generate(&mut rng)?;
//! let greedy = Sra::new().solve(&problem, &mut rng)?;
//! assert!(problem.savings_percent(&greedy) >= 0.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod adr;
mod agra;
pub mod annealing;
pub mod baselines;
pub mod distributed;
mod encoding;
pub mod exact;
pub mod fault_tolerance;
mod gra;
pub mod monitor;
pub mod shard;
mod sra;
#[cfg(test)]
mod testkit;

pub use agra::{detect_changed_objects, AdaptiveOutcome, Agra, AgraConfig};
pub use encoding::{
    chromosome_cost, chromosome_cost_with, decode_scheme, encode_scheme, EvalScratch,
};
pub use gra::{evaluate_population, CrossoverOp, Gra, GraConfig, GraRun};
pub use sra::{SiteOrder, Sra};
