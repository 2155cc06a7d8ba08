//! Migration planning between replication schemes.
//!
//! Section 5 of the paper: "The newly defined schemes are realized during
//! night hours through object migration and deallocation." This module
//! computes that realization plan — which replicas to create (each fetched
//! from the nearest *existing* holder) and which to deallocate — plus the
//! one-off NTC the migration itself costs, so a monitor can weigh a scheme
//! switch against its transition price.

use serde::{Deserialize, Serialize};

use crate::{CoreError, ObjectId, Problem, ReplicationScheme, Result, SiteId};

/// One replica creation: fetch `object` to `site` from `source`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Addition {
    /// The site gaining the replica.
    pub site: SiteId,
    /// The replicated object.
    pub object: ObjectId,
    /// The nearest old holder the data is fetched from.
    pub source: SiteId,
    /// Transfer cost of the fetch (`o_k · C(site, source)`).
    pub transfer_cost: u64,
}

/// The realization plan between two schemes over the same instance.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MigrationPlan {
    /// Replicas to create, each with its cheapest source.
    pub additions: Vec<Addition>,
    /// Replicas to deallocate (free, in NTC terms).
    pub removals: Vec<(SiteId, ObjectId)>,
}

impl MigrationPlan {
    /// Total one-off NTC of carrying out the plan.
    pub fn transfer_cost(&self) -> u64 {
        self.additions.iter().map(|a| a.transfer_cost).sum()
    }

    /// Number of replica movements (additions + removals).
    pub fn moves(&self) -> usize {
        self.additions.len() + self.removals.len()
    }

    /// Applies the plan to `old`, producing the target scheme (removals
    /// first, so freed capacity is available to the additions).
    ///
    /// # Errors
    ///
    /// Propagates scheme-manipulation errors; a plan produced by
    /// [`plan_migration`] over matching schemes always applies cleanly.
    pub fn apply(&self, problem: &Problem, old: &ReplicationScheme) -> Result<ReplicationScheme> {
        let mut scheme = old.clone();
        for &(site, object) in &self.removals {
            scheme.remove_replica(problem, site, object)?;
        }
        for addition in &self.additions {
            scheme.add_replica(problem, addition.site, addition.object)?;
        }
        Ok(scheme)
    }

    /// How many access periods of the new scheme's per-period savings are
    /// needed to amortize the migration (`None` when the new scheme saves
    /// nothing over the old one).
    pub fn payback_periods(
        &self,
        problem: &Problem,
        old: &ReplicationScheme,
        new: &ReplicationScheme,
    ) -> Option<f64> {
        let old_cost = problem.total_cost(old);
        let new_cost = problem.total_cost(new);
        (new_cost < old_cost).then(|| self.transfer_cost() as f64 / (old_cost - new_cost) as f64)
    }
}

/// Plans the migration from `old` to `new`.
///
/// Additions are sourced from the nearest holder in the *old* scheme (all
/// fetches can proceed in parallel before any deallocation, so sources are
/// guaranteed to exist).
///
/// # Errors
///
/// Returns [`CoreError::InvalidInstance`] when the schemes' shapes differ
/// from the instance.
pub fn plan_migration(
    problem: &Problem,
    old: &ReplicationScheme,
    new: &ReplicationScheme,
) -> Result<MigrationPlan> {
    for scheme in [old, new] {
        if scheme.num_sites() != problem.num_sites()
            || scheme.num_objects() != problem.num_objects()
        {
            return Err(CoreError::InvalidInstance {
                reason: "scheme shape differs from the instance".into(),
            });
        }
    }
    let mut additions = Vec::new();
    let mut removals = Vec::new();
    for k in problem.objects() {
        for i in problem.sites() {
            match (old.holds(i, k), new.holds(i, k)) {
                (false, true) => {
                    let (source, cost) = old.nearest_replica(problem, i, k);
                    additions.push(Addition {
                        site: i,
                        object: k,
                        source,
                        transfer_cost: problem.object_size(k) * cost,
                    });
                }
                (true, false) => removals.push((i, k)),
                _ => {}
            }
        }
    }
    Ok(MigrationPlan {
        additions,
        removals,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use drp_net::CostMatrix;

    fn problem() -> Problem {
        let costs = CostMatrix::from_rows(3, vec![0, 1, 2, 1, 0, 1, 2, 1, 0]).unwrap();
        Problem::builder(costs)
            .capacities(vec![40, 40, 40])
            .object(10, SiteId::new(0))
            .reads(vec![0, 4, 20])
            .writes(vec![1, 0, 0])
            .object(5, SiteId::new(2))
            .reads(vec![3, 0, 2])
            .build()
            .unwrap()
    }

    #[test]
    fn identical_schemes_need_no_moves() {
        let p = problem();
        let s = ReplicationScheme::primary_only(&p);
        let plan = plan_migration(&p, &s, &s).unwrap();
        assert_eq!(plan.moves(), 0);
        assert_eq!(plan.transfer_cost(), 0);
    }

    #[test]
    fn additions_fetch_from_nearest_old_holder() {
        let p = problem();
        let old = ReplicationScheme::primary_only(&p);
        let mut new = old.clone();
        new.add_replica(&p, SiteId::new(2), ObjectId::new(0))
            .unwrap();
        let plan = plan_migration(&p, &old, &new).unwrap();
        assert_eq!(plan.additions.len(), 1);
        let a = plan.additions[0];
        assert_eq!(a.source, SiteId::new(0)); // only old holder
        assert_eq!(a.transfer_cost, 10 * 2); // o=10 × C(2,0)=2
        assert!(plan.removals.is_empty());
    }

    #[test]
    fn removals_are_free_and_listed() {
        let p = problem();
        let mut old = ReplicationScheme::primary_only(&p);
        old.add_replica(&p, SiteId::new(1), ObjectId::new(0))
            .unwrap();
        let new = ReplicationScheme::primary_only(&p);
        let plan = plan_migration(&p, &old, &new).unwrap();
        assert_eq!(plan.removals, vec![(SiteId::new(1), ObjectId::new(0))]);
        assert_eq!(plan.transfer_cost(), 0);
    }

    #[test]
    fn payback_reflects_the_savings_rate() {
        let p = problem();
        let old = ReplicationScheme::primary_only(&p);
        let mut new = old.clone();
        // Site 2 reads object 0 heavily: replicating there pays back fast.
        new.add_replica(&p, SiteId::new(2), ObjectId::new(0))
            .unwrap();
        let plan = plan_migration(&p, &old, &new).unwrap();
        let payback = plan.payback_periods(&p, &old, &new).unwrap();
        // Migration costs 20; per-period saving is 20·10·2 − broadcast
        // overhead (1·10·2) = 380.
        assert!(payback < 0.1, "payback {payback}");
        // Reverse direction saves nothing.
        assert_eq!(
            plan_migration(&p, &new, &old)
                .unwrap()
                .payback_periods(&p, &new, &old),
            None
        );
    }

    #[test]
    fn shape_mismatch_is_rejected() {
        let p = problem();
        let other = {
            let costs = CostMatrix::from_rows(2, vec![0, 1, 1, 0]).unwrap();
            Problem::builder(costs)
                .capacities(vec![10, 10])
                .object(1, SiteId::new(0))
                .build()
                .unwrap()
        };
        let s_small = ReplicationScheme::primary_only(&other);
        let s_big = ReplicationScheme::primary_only(&p);
        assert!(plan_migration(&p, &s_small, &s_big).is_err());
    }
}
