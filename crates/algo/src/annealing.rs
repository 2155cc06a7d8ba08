//! Simulated annealing — a single-solution metaheuristic baseline.
//!
//! A reproduction extension: the paper compares GRA only against SRA, which
//! leaves open whether the *population* buys anything over a classic
//! single-solution search with the same evaluation budget. This module
//! provides that comparison point (see the `ablation` experiment).
//!
//! Moves are single replica additions/removals scored with the exact
//! incremental deltas; acceptance follows the Metropolis criterion under a
//! geometric cooling schedule.

use drp_core::{
    CostEvaluator, ObjectId, Problem, ReplicationAlgorithm, ReplicationScheme, Result, SiteId,
};
use rand::{Rng, RngCore};

/// Simulated annealing over replica add/remove moves.
#[derive(Debug, Clone)]
pub struct SimulatedAnnealing {
    /// Moves attempted (the evaluation budget).
    pub iterations: usize,
    /// Initial temperature as a fraction of `D_prime` (temperature scales
    /// with instance cost so acceptance is size-independent; a typical
    /// single-move delta is ~10⁻³ of `D_prime`, so the default starts at
    /// roughly that scale).
    pub initial_temperature: f64,
    /// Geometric cooling factor per iteration, in `(0, 1)`.
    pub cooling: f64,
    /// Start from SRA's solution instead of primary-only.
    pub warm_start: bool,
}

impl Default for SimulatedAnnealing {
    fn default() -> Self {
        Self {
            iterations: 20_000,
            initial_temperature: 0.001,
            cooling: 0.9995,
            warm_start: true,
        }
    }
}

impl ReplicationAlgorithm for SimulatedAnnealing {
    fn name(&self) -> &str {
        "SimulatedAnnealing"
    }

    fn solve(&self, problem: &Problem, rng: &mut dyn RngCore) -> Result<ReplicationScheme> {
        let m = problem.num_sites();
        let n = problem.num_objects();
        let start = if self.warm_start {
            crate::Sra::new().solve(problem, rng)?
        } else {
            ReplicationScheme::primary_only(problem)
        };
        // The evaluator's cached nearest/second-nearest state makes every
        // move peek O(M) instead of O(M · |R_k|), and its running total
        // replaces the manual cost accounting.
        let mut eval = CostEvaluator::new(problem, start);
        let mut best = eval.scheme().clone();
        let mut best_cost = eval.total();
        let mut temperature = self.initial_temperature * problem.d_prime().max(1) as f64;

        for _ in 0..self.iterations {
            let site = SiteId::new(rng.random_range(0..m));
            let object = ObjectId::new(rng.random_range(0..n));
            let removing = eval.scheme().holds(site, object);
            let delta = if removing {
                if problem.primary(object) == site {
                    temperature *= self.cooling;
                    continue;
                }
                eval.delta_remove(site, object)
            } else {
                if problem.object_size(object) > eval.scheme().free_capacity(problem, site) {
                    temperature *= self.cooling;
                    continue;
                }
                eval.delta_add(site, object)
            };

            let accept = delta <= 0
                || (temperature > 0.0
                    && rng.random::<f64>() < (-(delta as f64) / temperature).exp());
            if accept {
                if removing {
                    eval.apply_remove(site, object)?;
                } else {
                    eval.apply_add(site, object)?;
                }
                if eval.total() < best_cost {
                    best_cost = eval.total();
                    best = eval.scheme().clone();
                }
            }
            temperature *= self.cooling;
        }
        Ok(best)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Sra;
    use drp_workload::WorkloadSpec;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn problem(seed: u64) -> Problem {
        WorkloadSpec::paper(10, 15, 5.0, 20.0)
            .generate(&mut StdRng::seed_from_u64(seed))
            .unwrap()
    }

    #[test]
    fn annealing_is_valid_and_never_worse_than_primary_only() {
        let p = problem(1);
        let mut rng = StdRng::seed_from_u64(2);
        let sa = SimulatedAnnealing {
            iterations: 3_000,
            ..SimulatedAnnealing::default()
        };
        let scheme = sa.solve(&p, &mut rng).unwrap();
        scheme.validate(&p).unwrap();
        assert!(p.total_cost(&scheme) <= p.d_prime());
    }

    #[test]
    fn warm_start_never_loses_to_sra() {
        // Best-so-far tracking starts at the SRA solution.
        let p = problem(3);
        let mut rng = StdRng::seed_from_u64(4);
        let sra_cost = p.total_cost(&Sra::new().solve(&p, &mut rng).unwrap());
        let sa = SimulatedAnnealing {
            iterations: 2_000,
            ..SimulatedAnnealing::default()
        };
        let sa_cost = p.total_cost(&sa.solve(&p, &mut rng).unwrap());
        assert!(sa_cost <= sra_cost);
    }

    #[test]
    fn cold_start_still_improves() {
        let p = problem(5);
        let mut rng = StdRng::seed_from_u64(6);
        let sa = SimulatedAnnealing {
            iterations: 5_000,
            warm_start: false,
            ..SimulatedAnnealing::default()
        };
        let scheme = sa.solve(&p, &mut rng).unwrap();
        assert!(p.total_cost(&scheme) < p.d_prime());
    }
}
