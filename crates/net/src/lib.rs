//! Network substrate for the data-replication reproduction.
//!
//! This crate provides everything the replica-placement algorithms need to
//! know (and simulate) about the communication network:
//!
//! * [`Graph`] — an undirected weighted multigraph of sites.
//! * [`shortest`] — Dijkstra and Floyd–Warshall all-pairs shortest paths.
//! * [`CostMatrix`] — the validated, symmetric per-unit transfer cost
//!   `C(i, j)` used throughout the paper's cost model (cumulative cost of the
//!   shortest path between sites `i` and `j`).
//! * [`SparseCostRows`] — per-site k-nearest candidate lists (plus reverse
//!   lists) over the graph metric, the `O(M·k)` substitute for the dense
//!   matrix at scales where `M²` does not fit.
//! * [`topology`] — random and regular topology generators, including the
//!   paper's complete graph with Uniform(1, 10) link costs and the
//!   two-level [`topology::hierarchical`] clusters-over-backbone family.
//! * [`pool`] — a persistent, deterministic worker pool behind the
//!   all-pairs shortest-path build, instead of re-spawning scoped threads.
//! * [`sim`] — a deterministic discrete-event message simulator used to run
//!   the distributed version of the greedy algorithm and to serve request
//!   epochs against a replication scheme (`drp-serve`'s epoch engine).
//!
//! # Examples
//!
//! ```
//! use drp_net::{topology, CostMatrix};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(7);
//! let graph = topology::complete_uniform(8, 1, 10, &mut rng)?;
//! let costs = CostMatrix::from_graph(&graph)?;
//! assert_eq!(costs.num_sites(), 8);
//! // The matrix is symmetric with a zero diagonal.
//! assert_eq!(costs.cost(2, 5), costs.cost(5, 2));
//! assert_eq!(costs.cost(3, 3), 0);
//! # Ok::<(), drp_net::NetError>(())
//! ```

mod cost;
mod error;
mod graph;
pub mod pool;
mod routes;
pub mod shortest;
pub mod sim;
mod sparse;
pub mod telemetry;
pub mod topology;

pub use cost::CostMatrix;
pub use error::NetError;
pub use graph::{Edge, Graph};
pub use routes::Routes;
pub use sparse::SparseCostRows;

/// Convenience alias for results in this crate.
pub type Result<T> = std::result::Result<T, NetError>;
