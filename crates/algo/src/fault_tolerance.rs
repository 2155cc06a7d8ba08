//! Minimum replication degree — a fault-tolerance extension.
//!
//! The paper's conclusions name fault tolerance as future work: a purely
//! NTC-driven placement may leave an object with a single copy, so one site
//! failure makes it unreadable. This module adds the classic *k-of-N*
//! guard: every object must hold at least `d` replicas.
//!
//! [`MinDegree`] wraps any [`ReplicationAlgorithm`]: the inner solver
//! optimizes NTC as usual, then under-replicated objects are topped up with
//! the replicas that hurt the objective least (exact incremental deltas,
//! capacity permitting). The availability gain and the NTC price of `d` are
//! both measurable via [`drp_core::availability`].

use drp_core::{
    CoreError, CostEvaluator, Problem, ReplicationAlgorithm, ReplicationScheme, Result, SiteId,
};
use rand::RngCore;

/// Outcome of a min-degree top-up pass: what was added, and which objects
/// could not reach the floor.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MinDegreeReport {
    /// Replicas added across all objects.
    pub added: usize,
    /// Objects whose degree floor is unsatisfiable under the current
    /// capacities — they were topped up as far as room allowed and then
    /// left below the floor. Sorted by object id.
    pub unsatisfiable: Vec<drp_core::ObjectId>,
}

impl MinDegreeReport {
    /// Did every object reach the floor?
    pub fn is_complete(&self) -> bool {
        self.unsatisfiable.is_empty()
    }
}

/// Tops up every object to at least `degree` replicas, choosing for each
/// missing slot the site with the smallest exact NTC delta that still has
/// room.
///
/// Objects that cannot reach the floor (not enough sites with room) are
/// *reported*, not silently skipped and not fatal: they are topped up as
/// far as capacity allows and listed in
/// [`MinDegreeReport::unsatisfiable`], so callers — the serve engine's
/// degree floor in particular — can distinguish "topped up" from
/// "impossible".
///
/// # Errors
///
/// Returns an error only if a chosen addition is rejected by the scheme,
/// which indicates an internal inconsistency (candidates are pre-filtered
/// for room).
pub fn ensure_min_degree(
    problem: &Problem,
    scheme: &mut ReplicationScheme,
    degree: usize,
) -> Result<MinDegreeReport> {
    let target = degree.min(problem.num_sites());
    let mut report = MinDegreeReport::default();
    // The common floor of 1 (and any floor already met) needs no cache.
    if problem
        .objects()
        .all(|k| scheme.replica_degree(k) >= target)
    {
        return Ok(report);
    }
    let mut eval = CostEvaluator::new(problem, scheme.clone());
    for k in problem.objects() {
        while eval.replicas(k).len() < target {
            let candidate = problem
                .sites()
                .filter(|&i| !eval.holds(i, k) && problem.object_size(k) <= eval.free_capacity(i))
                .min_by_key(|&i| eval.delta_add(i, k));
            match candidate {
                Some(site) => {
                    eval.apply_add(site, k)?;
                    report.added += 1;
                }
                None => {
                    report.unsatisfiable.push(k);
                    break;
                }
            }
        }
    }
    *scheme = eval.into_scheme();
    Ok(report)
}

/// A solver wrapper enforcing a minimum replication degree on the inner
/// solver's output.
///
/// # Examples
///
/// ```
/// use drp_algo::fault_tolerance::MinDegree;
/// use drp_algo::Sra;
/// use drp_core::{availability, ReplicationAlgorithm};
/// use drp_workload::WorkloadSpec;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(9);
/// let problem = WorkloadSpec::paper(10, 12, 5.0, 60.0).generate(&mut rng)?;
/// let plain = Sra::new().solve(&problem, &mut rng)?;
/// let guarded = MinDegree { degree: 2, inner: Sra::new() }.solve(&problem, &mut rng)?;
/// let before = availability::mean_availability(&plain, 0.1);
/// let after = availability::mean_availability(&guarded, 0.1);
/// assert!(after >= before);
/// assert!(after >= 1.0 - 0.1 * 0.1); // every object has ≥ 2 copies
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct MinDegree<A> {
    /// Minimum replicas per object (clamped to the number of sites).
    pub degree: usize,
    /// The NTC-optimizing solver run first.
    pub inner: A,
}

impl<A: ReplicationAlgorithm> ReplicationAlgorithm for MinDegree<A> {
    fn name(&self) -> &str {
        "MinDegree"
    }

    fn solve(&self, problem: &Problem, rng: &mut dyn RngCore) -> Result<ReplicationScheme> {
        let mut scheme = self.inner.solve(problem, rng)?;
        let report = ensure_min_degree(problem, &mut scheme, self.degree)?;
        // The wrapper promises the floor; an unsatisfiable object is fatal
        // here even though the bare function merely reports it.
        if let Some(&object) = report.unsatisfiable.first() {
            return Err(CoreError::InsufficientCapacity {
                site: SiteId::new(0),
                object,
                free: 0,
                size: problem.object_size(object),
            });
        }
        Ok(scheme)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Sra;
    use drp_core::availability;
    use drp_workload::WorkloadSpec;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn problem(seed: u64, capacity: f64) -> Problem {
        WorkloadSpec::paper(10, 12, 8.0, capacity)
            .generate(&mut StdRng::seed_from_u64(seed))
            .unwrap()
    }

    #[test]
    fn every_object_reaches_the_degree() {
        // Generous capacity: a 40%-of-total budget can make degree 3
        // genuinely infeasible on an unlucky random instance (SRA fills
        // sites unevenly first), which is a property of the instance, not a
        // bug in the top-up. 150% guarantees room for any degree ≤ M.
        let p = problem(1, 150.0);
        let mut rng = StdRng::seed_from_u64(2);
        for degree in [1usize, 2, 3] {
            let scheme = MinDegree {
                degree,
                inner: Sra::new(),
            }
            .solve(&p, &mut rng)
            .unwrap();
            scheme.validate(&p).unwrap();
            for k in p.objects() {
                assert!(
                    scheme.replica_degree(k) >= degree,
                    "object {k} at degree {degree}"
                );
            }
        }
    }

    #[test]
    fn degree_is_clamped_to_site_count() {
        let p = problem(3, 200.0);
        let mut scheme = drp_core::ReplicationScheme::primary_only(&p);
        ensure_min_degree(&p, &mut scheme, 10_000).unwrap();
        for k in p.objects() {
            assert_eq!(scheme.replica_degree(k), p.num_sites());
        }
    }

    #[test]
    fn top_up_uses_cheapest_deltas() {
        // The added replicas must never cost more than any alternative
        // single choice would have: verify the greedy pick is locally
        // optimal at each step by re-deriving the first addition.
        let p = problem(4, 40.0);
        let scheme = drp_core::ReplicationScheme::primary_only(&p);
        let eval = CostEvaluator::new(&p, scheme.clone());
        let k = p.objects().next().unwrap();
        let best_site = p
            .sites()
            .filter(|&i| !scheme.holds(i, k) && p.object_size(k) <= scheme.free_capacity(&p, i))
            .min_by_key(|&i| eval.delta_add(i, k))
            .unwrap();
        let mut topped = scheme.clone();
        ensure_min_degree(&p, &mut topped, 2).unwrap();
        // Object k received exactly the best site (others too, but k's
        // first top-up happens before any other object touches capacity at
        // degree 2 of a primary-only start).
        assert!(topped.holds(best_site, k));
    }

    #[test]
    fn impossible_degrees_are_reported_not_fatal() {
        // Minimal capacities: only primaries fit, degree 2 is infeasible.
        use drp_net::CostMatrix;
        let costs = CostMatrix::from_rows(3, vec![0, 1, 2, 1, 0, 1, 2, 1, 0]).unwrap();
        let p = Problem::builder(costs)
            .capacities(vec![10, 0, 0])
            .object(10, SiteId::new(0))
            .reads(vec![0, 5, 5])
            .build()
            .unwrap();
        let mut scheme = drp_core::ReplicationScheme::primary_only(&p);
        let report = ensure_min_degree(&p, &mut scheme, 2).unwrap();
        assert_eq!(report.added, 0);
        assert!(!report.is_complete());
        let k = p.objects().next().unwrap();
        assert_eq!(report.unsatisfiable, vec![k]);
        // The scheme stays valid, just under-replicated.
        scheme.validate(&p).unwrap();

        // The MinDegree *wrapper* still promises the floor and errors out.
        let mut rng = StdRng::seed_from_u64(0);
        assert!(matches!(
            MinDegree {
                degree: 2,
                inner: Sra::new()
            }
            .solve(&p, &mut rng),
            Err(CoreError::InsufficientCapacity { .. })
        ));
    }

    #[test]
    fn partial_top_up_still_adds_what_fits() {
        // Room for exactly one extra copy: degree 3 is unsatisfiable but
        // the pass must still take the one replica it can get.
        use drp_net::CostMatrix;
        let costs = CostMatrix::from_rows(3, vec![0, 1, 2, 1, 0, 1, 2, 1, 0]).unwrap();
        let p = Problem::builder(costs)
            .capacities(vec![10, 10, 0])
            .object(10, SiteId::new(0))
            .reads(vec![0, 5, 5])
            .build()
            .unwrap();
        let mut scheme = drp_core::ReplicationScheme::primary_only(&p);
        let report = ensure_min_degree(&p, &mut scheme, 3).unwrap();
        assert_eq!(report.added, 1);
        let k = p.objects().next().unwrap();
        assert_eq!(report.unsatisfiable, vec![k]);
        assert_eq!(scheme.replica_degree(k), 2);
    }

    #[test]
    fn availability_rises_with_degree_and_cost_is_paid() {
        let p = problem(5, 60.0);
        let mut rng = StdRng::seed_from_u64(6);
        let plain = Sra::new().solve(&p, &mut rng).unwrap();
        let guarded = MinDegree {
            degree: 3,
            inner: Sra::new(),
        }
        .solve(&p, &mut rng)
        .unwrap();
        let a_plain = availability::mean_availability(&plain, 0.1);
        let a_guarded = availability::mean_availability(&guarded, 0.1);
        assert!(a_guarded >= a_plain);
        assert!(a_guarded >= 1.0 - 0.1f64.powi(3) - 1e-12);
        // No assertion on the NTC direction: forced replicas usually cost,
        // but can also *improve* the objective when SRA's local view missed
        // a globally beneficial placement.
        let _ = (p.total_cost(&guarded), p.total_cost(&plain));
    }
}
