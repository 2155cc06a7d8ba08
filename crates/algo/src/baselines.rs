//! Baseline solvers the heuristics are compared against.
//!
//! The paper's quality metric is always relative to the primary-only
//! allocation; [`PrimaryOnly`] materializes that baseline. [`RandomFill`]
//! and [`HillClimb`] are reproduction additions that bracket the heuristics
//! from below and above: random placement shows how much of SRA/GRA's gain
//! is *search* rather than mere replication, and steepest-ascent hill
//! climbing is the natural single-solution local search to contrast with
//! GRA's population search.

use drp_core::{
    CostEvaluator, ObjectId, Problem, ReplicationAlgorithm, ReplicationScheme, Result, SiteId,
};
use rand::{Rng, RngCore};

/// The initial allocation: no replicas beyond the primary copies.
#[derive(Debug, Clone, Copy, Default)]
pub struct PrimaryOnly;

impl ReplicationAlgorithm for PrimaryOnly {
    fn name(&self) -> &str {
        "PrimaryOnly"
    }

    fn solve(&self, problem: &Problem, _rng: &mut dyn RngCore) -> Result<ReplicationScheme> {
        Ok(ReplicationScheme::primary_only(problem))
    }
}

/// Random valid placement: attempts `attempts_per_cell · M · N` uniformly
/// random `(site, object)` insertions, keeping those that fit.
///
/// With `attempts_per_cell ≈ 1` the expected fill is capacity-bound, like
/// the heuristics' solutions — but chosen blindly.
#[derive(Debug, Clone, Copy)]
pub struct RandomFill {
    /// Insertion attempts per matrix cell.
    pub attempts_per_cell: f64,
}

impl Default for RandomFill {
    fn default() -> Self {
        Self {
            attempts_per_cell: 1.0,
        }
    }
}

impl ReplicationAlgorithm for RandomFill {
    fn name(&self) -> &str {
        "RandomFill"
    }

    fn solve(&self, problem: &Problem, rng: &mut dyn RngCore) -> Result<ReplicationScheme> {
        let mut scheme = ReplicationScheme::primary_only(problem);
        let m = problem.num_sites();
        let n = problem.num_objects();
        let attempts = (self.attempts_per_cell * (m * n) as f64) as usize;
        for _ in 0..attempts {
            let site = SiteId::new(rng.random_range(0..m));
            let object = ObjectId::new(rng.random_range(0..n));
            if !scheme.holds(site, object)
                && problem.object_size(object) <= scheme.free_capacity(problem, site)
            {
                scheme.add_replica(problem, site, object)?;
            }
        }
        Ok(scheme)
    }
}

/// Steepest-ascent hill climbing over single replica additions and
/// removals, starting from the primary-only allocation.
///
/// Each step scans every feasible move with the exact incremental deltas
/// ([`CostEvaluator::delta_add`] / [`CostEvaluator::delta_remove`]) and
/// applies the best strictly-improving one; it stops at a local optimum or
/// after `max_steps`.
#[derive(Debug, Clone, Copy)]
pub struct HillClimb {
    /// Upper bound on applied moves (safety valve; local optima usually
    /// arrive much sooner).
    pub max_steps: usize,
}

impl Default for HillClimb {
    fn default() -> Self {
        Self { max_steps: 10_000 }
    }
}

impl ReplicationAlgorithm for HillClimb {
    fn name(&self) -> &str {
        "HillClimb"
    }

    fn solve(&self, problem: &Problem, _rng: &mut dyn RngCore) -> Result<ReplicationScheme> {
        let mut eval = CostEvaluator::primary_only(problem);
        for _ in 0..self.max_steps {
            let mut best: Option<(i64, SiteId, ObjectId, bool)> = None;
            for k in problem.objects() {
                for i in problem.sites() {
                    if eval.holds(i, k) {
                        if problem.primary(k) != i {
                            let delta = eval.delta_remove(i, k);
                            if delta < best.map_or(0, |(d, ..)| d) {
                                best = Some((delta, i, k, false));
                            }
                        }
                    } else if problem.object_size(k) <= eval.free_capacity(i) {
                        let delta = eval.delta_add(i, k);
                        if delta < best.map_or(0, |(d, ..)| d) {
                            best = Some((delta, i, k, true));
                        }
                    }
                }
            }
            match best {
                Some((_, i, k, true)) => eval.apply_add(i, k)?,
                Some((_, i, k, false)) => eval.apply_remove(i, k)?,
                None => break, // local optimum
            };
        }
        Ok(eval.into_scheme())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drp_workload::WorkloadSpec;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn problem(seed: u64) -> Problem {
        WorkloadSpec::paper(8, 10, 5.0, 20.0)
            .generate(&mut StdRng::seed_from_u64(seed))
            .unwrap()
    }

    #[test]
    fn primary_only_scores_zero_savings() {
        let p = problem(1);
        let mut rng = StdRng::seed_from_u64(2);
        let s = PrimaryOnly.solve(&p, &mut rng).unwrap();
        assert_eq!(p.savings_percent(&s), 0.0);
        assert_eq!(s.extra_replica_count(), 0);
    }

    #[test]
    fn random_fill_is_valid_and_nonempty() {
        let p = problem(3);
        let mut rng = StdRng::seed_from_u64(4);
        let s = RandomFill::default().solve(&p, &mut rng).unwrap();
        s.validate(&p).unwrap();
        assert!(s.extra_replica_count() > 0);
    }

    #[test]
    fn hill_climb_never_hurts_and_reaches_local_optimum() {
        let p = problem(5);
        let mut rng = StdRng::seed_from_u64(6);
        let s = HillClimb::default().solve(&p, &mut rng).unwrap();
        s.validate(&p).unwrap();
        assert!(p.total_cost(&s) <= p.d_prime());
        // Local optimality: no single move improves.
        let eval = CostEvaluator::new(&p, s.clone());
        for k in p.objects() {
            for i in p.sites() {
                if s.holds(i, k) {
                    if p.primary(k) != i {
                        assert!(eval.delta_remove(i, k) >= 0);
                    }
                } else if p.object_size(k) <= s.free_capacity(&p, i) {
                    assert!(eval.delta_add(i, k) >= 0);
                }
            }
        }
    }

    #[test]
    fn hill_climb_step_budget_is_respected() {
        let p = problem(7);
        let mut rng = StdRng::seed_from_u64(8);
        let s = HillClimb { max_steps: 1 }.solve(&p, &mut rng).unwrap();
        assert!(s.extra_replica_count() <= 1);
    }

    #[test]
    fn names_are_distinct() {
        let solvers: Vec<Box<dyn ReplicationAlgorithm>> = vec![
            Box::new(PrimaryOnly),
            Box::new(RandomFill::default()),
            Box::new(HillClimb::default()),
        ];
        let names: Vec<&str> = solvers.iter().map(|s| s.name()).collect();
        assert_eq!(names, vec!["PrimaryOnly", "RandomFill", "HillClimb"]);
    }
}
