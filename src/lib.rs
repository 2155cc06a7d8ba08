//! # drp — static and adaptive data replication algorithms
//!
//! A full reproduction of *"Static and Adaptive Data Replication Algorithms
//! for Fast Information Access in Large Distributed Systems"* (Loukopoulos &
//! Ahmad, ICDCS 2000) as a Rust workspace. This facade crate re-exports the
//! member crates:
//!
//! * [`net`] — graphs, shortest paths, cost matrices, topology generators
//!   and a deterministic discrete-event message simulator;
//! * [`core`] — the Data Replication Problem: instances, replication
//!   schemes, the exact NTC cost model, benefit/estimator values;
//! * [`workload`] — the paper's synthetic workload generator and the
//!   pattern-change generator for adaptive experiments;
//! * [`ga`] — the genetic-algorithm toolkit (selection schemes, operators,
//!   engine);
//! * [`algo`] — SRA (greedy, plus its distributed token-passing variant),
//!   GRA (genetic), AGRA (adaptive), baselines and an exact
//!   branch-and-bound solver;
//! * [`serve`] — the closed-loop online adaptation runtime: streaming
//!   traffic epochs on the simulator, windowed statistics into the
//!   monitor, live staged migration of new schemes.
//!
//! The most common items are also re-exported at the top level.
//!
//! # Examples
//!
//! Generate a paper-style workload, place replicas greedily, then improve
//! genetically:
//!
//! ```
//! use drp::{Gra, GraConfig, ReplicationAlgorithm, Sra, WorkloadSpec};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(7);
//! let problem = WorkloadSpec::paper(10, 15, 5.0, 20.0).generate(&mut rng)?;
//!
//! let greedy = Sra::new().solve(&problem, &mut rng)?;
//! let config = GraConfig { population_size: 10, generations: 30, ..GraConfig::default() };
//! let genetic = Gra::with_config(config).solve(&problem, &mut rng)?;
//!
//! // Both beat doing nothing; the genetic search refines the greedy seed.
//! assert!(problem.total_cost(&greedy) <= problem.d_prime());
//! assert!(problem.total_cost(&genetic) <= problem.d_prime());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub use drp_algo as algo;
pub use drp_core as core;
pub use drp_ga as ga;
pub use drp_net as net;
pub use drp_serve as serve;
pub use drp_workload as workload;

pub use drp_algo::{baselines, distributed, exact, Agra, AgraConfig, Gra, GraConfig, Sra};
pub use drp_core::{
    CoreError, ObjectId, Problem, ReplicationAlgorithm, ReplicationScheme, SiteId, SolutionReport,
};
pub use drp_net::sim::FaultPlan;
pub use drp_net::{CostMatrix, Graph};
pub use drp_workload::{PatternChange, WorkloadSpec};
