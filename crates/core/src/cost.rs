//! The Eq. 4 network-transfer-cost model, implemented as methods on
//! [`Problem`].
//!
//! All quantities are exact integers: costs, sizes and frequencies are
//! integral, so the NTC is too. Savings percentages are the only floating
//! point values.

use crate::{kernels, ObjectId, Problem, ReplicationScheme};

impl Problem {
    /// Fills `nearest[i] = min { C(i, j) : j ∈ replicas }` without
    /// allocating — one [`kernels::min_scan`] per replica row. `replicas`
    /// may be in any order; an empty list leaves every slot at
    /// [`u64::MAX`].
    ///
    /// # Panics
    ///
    /// Panics if `nearest.len() != num_sites()` or a replica index is out of
    /// range.
    pub fn nearest_costs_into(&self, replicas: &[usize], nearest: &mut [u64]) {
        assert_eq!(nearest.len(), self.num_sites());
        kernels::nearest_fill(self.costs().as_slice(), replicas, nearest);
    }

    /// Eq. 4 per-object NTC for an explicit replica set, using `nearest` as
    /// scratch — the zero-allocation kernel behind [`Self::object_cost`]
    /// and the chromosome/subset evaluators in `drp-algo`. The sums come
    /// from [`kernels::object_sums`]; the update volume `write_volume(k)
    /// = Σ_x w_k(x) · o_k` scales the broadcast, the object size the rest.
    ///
    /// `replicas` must be sorted ascending and contain the primary;
    /// `nearest` is overwritten.
    ///
    /// # Panics
    ///
    /// Panics if ids are out of range, `nearest.len() != num_sites()`, or
    /// `replicas` is unsorted (debug builds).
    pub fn object_cost_from_replicas(
        &self,
        object: ObjectId,
        replicas: &[usize],
        nearest: &mut [u64],
    ) -> u64 {
        let rows = kernels::ObjectRows {
            costs: self.costs().as_slice(),
            reads: self.object_reads(object),
            writes: self.object_writes(object),
            primary: self.primary(object).index(),
        };
        let sums = kernels::object_sums(&rows, replicas, nearest);
        self.write_volume(object) * sums.broadcast + self.object_size(object) * sums.traffic
    }

    /// Per-object NTC `V_k` (Eq. 4 restricted to one object): the reads of
    /// non-replicators from their nearest replica, their writes shipped to
    /// the primary, and the update broadcast received by every replicator.
    ///
    /// # Panics
    ///
    /// Panics if `object` is out of range or the scheme shape mismatches.
    pub fn object_cost(&self, scheme: &ReplicationScheme, object: ObjectId) -> u64 {
        let mut nearest = vec![u64::MAX; self.num_sites()];
        self.object_cost_from_replicas(
            object,
            scheme.replicator_indices(object.index()),
            &mut nearest,
        )
    }

    /// The total NTC `D` of Eq. 4 under `scheme`.
    ///
    /// # Panics
    ///
    /// Panics if the scheme shape mismatches the problem.
    pub fn total_cost(&self, scheme: &ReplicationScheme) -> u64 {
        let mut nearest = vec![u64::MAX; self.num_sites()];
        self.objects()
            .map(|k| {
                self.object_cost_from_replicas(
                    k,
                    scheme.replicator_indices(k.index()),
                    &mut nearest,
                )
            })
            .sum()
    }

    /// Percentage of NTC saved relative to the primary-only allocation —
    /// the solution-quality metric of the paper's evaluation. Negative when
    /// the scheme is *worse* than doing nothing.
    pub fn savings_percent(&self, scheme: &ReplicationScheme) -> f64 {
        let dp = self.d_prime();
        if dp == 0 {
            return 0.0;
        }
        let d = self.total_cost(scheme);
        100.0 * (dp as f64 - d as f64) / dp as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CostEvaluator, SiteId};
    use drp_net::CostMatrix;

    /// 3 sites on a line (C(0,1)=1, C(1,2)=1, C(0,2)=2), 2 objects.
    fn problem() -> Problem {
        let costs = CostMatrix::from_rows(3, vec![0, 1, 2, 1, 0, 1, 2, 1, 0]).unwrap();
        Problem::builder(costs)
            .capacities(vec![40, 40, 40])
            .object(10, SiteId::new(0))
            .reads(vec![0, 4, 6])
            .writes(vec![1, 2, 0])
            .object(5, SiteId::new(2))
            .reads(vec![3, 0, 2])
            .writes(vec![0, 0, 1])
            .build()
            .unwrap()
    }

    #[test]
    fn primary_only_cost_equals_d_prime() {
        let p = problem();
        let s = ReplicationScheme::primary_only(&p);
        assert_eq!(p.total_cost(&s), p.d_prime());
        assert_eq!(p.savings_percent(&s), 0.0);
        for k in p.objects() {
            assert_eq!(p.object_cost(&s, k), p.v_prime(k));
        }
    }

    #[test]
    fn object_cost_matches_hand_computation_with_replica() {
        let p = problem();
        let mut s = ReplicationScheme::primary_only(&p);
        s.add_replica(&p, SiteId::new(2), ObjectId::new(0)).unwrap();
        // Object 0: o=10, SP=0, replicas {0, 2}, total writes = 3.
        // Broadcast: 3·10·C(0,0) + 3·10·C(2,0) = 0 + 60.
        // Site 1 (non-replicator): reads 4·10·min(C(1,0), C(1,2))=4·10·1=40,
        //                          writes 2·10·C(1,0)=20.
        assert_eq!(p.object_cost(&s, ObjectId::new(0)), 60 + 40 + 20);
        // Object 1 unchanged: V_prime = site0 3r·5·2=30, site1 0·...=0.
        assert_eq!(
            p.object_cost(&s, ObjectId::new(1)),
            p.v_prime(ObjectId::new(1))
        );
        assert_eq!(p.total_cost(&s), 120 + 30);
    }

    #[test]
    fn nearest_costs_reflect_replicas() {
        let p = problem();
        let mut s = ReplicationScheme::primary_only(&p);
        let mut nearest = vec![u64::MAX; p.num_sites()];
        p.nearest_costs_into(s.replicator_indices(0), &mut nearest);
        assert_eq!(nearest, vec![0, 1, 2]);
        s.add_replica(&p, SiteId::new(2), ObjectId::new(0)).unwrap();
        p.nearest_costs_into(s.replicator_indices(0), &mut nearest);
        assert_eq!(nearest, vec![0, 1, 0]);
    }

    #[test]
    fn delta_add_matches_full_recomputation() {
        let p = problem();
        let s = ReplicationScheme::primary_only(&p);
        for k in p.objects() {
            for i in p.sites() {
                if s.holds(i, k) {
                    continue;
                }
                let predicted = CostEvaluator::new(&p, s.clone()).delta_add(i, k);
                let mut t = s.clone();
                t.add_replica(&p, i, k).unwrap();
                let actual = p.total_cost(&t) as i64 - p.total_cost(&s) as i64;
                assert_eq!(predicted, actual, "add ({i}, {k})");
            }
        }
    }

    #[test]
    fn delta_remove_matches_full_recomputation() {
        let p = problem();
        let mut s = ReplicationScheme::primary_only(&p);
        s.add_replica(&p, SiteId::new(2), ObjectId::new(0)).unwrap();
        s.add_replica(&p, SiteId::new(1), ObjectId::new(0)).unwrap();
        s.add_replica(&p, SiteId::new(0), ObjectId::new(1)).unwrap();
        for k in p.objects() {
            for i in p.sites() {
                if !s.holds(i, k) || p.primary(k) == i {
                    continue;
                }
                let predicted = CostEvaluator::new(&p, s.clone()).delta_remove(i, k);
                let mut t = s.clone();
                t.remove_replica(&p, i, k).unwrap();
                let actual = p.total_cost(&t) as i64 - p.total_cost(&s) as i64;
                assert_eq!(predicted, actual, "remove ({i}, {k})");
            }
        }
    }

    #[test]
    fn savings_track_cost_reduction() {
        let p = problem();
        let mut s = ReplicationScheme::primary_only(&p);
        s.add_replica(&p, SiteId::new(2), ObjectId::new(0)).unwrap();
        let d = p.total_cost(&s);
        let expected = 100.0 * (p.d_prime() as f64 - d as f64) / p.d_prime() as f64;
        assert!((p.savings_percent(&s) - expected).abs() < 1e-12);
        assert!(p.savings_percent(&s) > 0.0);
    }

    #[test]
    fn full_replication_can_hurt_under_writes() {
        // One heavily-written object: replicating everywhere must raise D.
        let costs = CostMatrix::from_rows(3, vec![0, 1, 2, 1, 0, 1, 2, 1, 0]).unwrap();
        let p = Problem::builder(costs)
            .capacities(vec![50, 50, 50])
            .object(10, SiteId::new(0))
            .reads(vec![0, 1, 0])
            .writes(vec![5, 5, 5])
            .build()
            .unwrap();
        let full = ReplicationScheme::from_fn(&p, |_, _| true).unwrap();
        assert!(p.total_cost(&full) > p.d_prime());
        assert!(p.savings_percent(&full) < 0.0);
    }
}
