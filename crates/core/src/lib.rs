//! The Data Replication Problem (DRP) of Loukopoulos & Ahmad (ICDCS 2000).
//!
//! A distributed system has `M` sites with storage capacities and `N`
//! objects, each with one undeletable *primary copy*. Given per-site read and
//! write frequencies, the DRP asks for the set of additional replicas (the
//! *replication scheme*) minimizing the total network transfer cost (NTC):
//! reads travel from the nearest replica, writes go to the primary which
//! broadcasts updates to every replica. The problem is NP-complete.
//!
//! This crate defines:
//!
//! * [`Problem`] — a validated DRP instance (network costs, sizes,
//!   capacities, read/write patterns, primary sites);
//! * [`ReplicationScheme`] — the X-matrix of replicas with capacity tracking;
//! * the exact Eq. 4 cost model ([`Problem::total_cost`],
//!   [`Problem::object_cost`]);
//! * [`Evaluator`] — the one incremental Eq. 4 flip engine: cached
//!   nearest/second-nearest replicators over a [`CandidateRows`] source.
//!   [`CostEvaluator`] (dense rows) makes a replica flip O(M) with
//!   exact-integer agreement with [`Problem::total_cost`];
//!   [`SparseEvaluator`] (k-nearest rows over a [`SparseProblem`]) makes
//!   it O(k);
//! * the greedy *benefit* value of Eq. 5 ([`Problem::local_benefit`]) and the
//!   adaptive *deallocation estimator* of Eq. 6
//!   ([`Problem::replica_value_estimate`]);
//! * the [`ReplicationAlgorithm`] trait implemented by the solvers in
//!   `drp-algo`.
//!
//! # Examples
//!
//! Build a tiny instance by hand and compare a replica against the
//! primary-only allocation:
//!
//! ```
//! use drp_core::{Problem, ReplicationScheme, SiteId, ObjectId};
//! use drp_net::CostMatrix;
//!
//! // Three sites on a line: C(0,1)=1, C(1,2)=1, C(0,2)=2.
//! let costs = CostMatrix::from_rows(3, vec![0, 1, 2, 1, 0, 1, 2, 1, 0])?;
//! let problem = Problem::builder(costs)
//!     .object(10, SiteId::new(0))          // one object of size 10, primary at site 0
//!     .capacities(vec![100, 100, 100])
//!     .reads(vec![0, 5, 9])                // site 2 reads a lot
//!     .writes(vec![1, 0, 0])
//!     .build()?;
//!
//! let mut scheme = ReplicationScheme::primary_only(&problem);
//! let before = problem.total_cost(&scheme);
//! scheme.add_replica(&problem, SiteId::new(2), ObjectId::new(0))?;
//! let after = problem.total_cost(&scheme);
//! assert!(after < before, "replicating near the reader saves traffic");
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

mod algorithm;
pub mod availability;
mod benefit;
mod cost;
mod error;
mod evaluator;
pub mod format;
mod ids;
pub mod kernels;
mod matrix;
mod metrics;
pub mod migration;
pub mod narrow;
pub mod pool;
mod problem;
mod scheme;
mod sparse;
pub mod telemetry;

pub use algorithm::ReplicationAlgorithm;
pub use error::{CoreError, ServeError};
pub use evaluator::{CandidateRows, CostEvaluator, DenseRows, Evaluator, ObjectTerms};
pub use ids::{ObjectId, SiteId};
pub use matrix::DenseMatrix;
pub use metrics::{IngestReport, SolutionReport};
pub use narrow::NarrowMirror;
pub use problem::{Problem, ProblemBuilder};
pub use scheme::ReplicationScheme;
pub use sparse::{SparseEvaluator, SparseProblem, SparseRows};

/// Convenience alias for results in this crate.
pub type Result<T> = std::result::Result<T, CoreError>;
