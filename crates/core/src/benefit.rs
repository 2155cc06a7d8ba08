//! The greedy benefit value (Eq. 5) and the adaptive deallocation estimator
//! (Eq. 6), implemented as methods on [`Problem`].

use crate::{ObjectId, Problem, ReplicationScheme, SiteId};

impl Problem {
    /// The replication benefit `B_k(i)` of Eq. 5: the *local* NTC saved per
    /// storage unit if `site` replicated `object`.
    ///
    /// It is the read cost that replication would eliminate minus the update
    /// traffic the new replica would attract, normalized by object size.
    /// Because every NTC term scales with `o_k`, the size cancels and the
    /// value is the exact integer
    ///
    /// ```text
    /// B_k(i) = r_k(i)·C(i, SN_k(i)) + (w_k(i) − Σ_x w_k(x))·C(i, SP_k)
    /// ```
    ///
    /// Negative values mean replication is inefficient from the site's local
    /// view (the paper notes it could still help globally — see
    /// [`CostEvaluator::delta_add`](crate::CostEvaluator::delta_add) for the
    /// global delta).
    ///
    /// # Panics
    ///
    /// Panics if ids are out of range. A site that already replicates the
    /// object gets `SN = self`, so its benefit is the (non-positive) update
    /// burden alone.
    pub fn local_benefit(&self, scheme: &ReplicationScheme, site: SiteId, object: ObjectId) -> i64 {
        let (_, nearest_cost) = scheme.nearest_replica(self, site, object);
        let c_sp = self
            .costs()
            .cost(site.index(), self.primary(object).index());
        let r = self.reads(site, object) as i64;
        let w = self.writes(site, object) as i64;
        let w_tot = self.total_writes(object) as i64;
        r * nearest_cost as i64 + (w - w_tot) * c_sp as i64
    }

    /// The replica value estimate `E_k(i)` of Eq. 6 — AGRA's O(M) proxy for
    /// how much a replica at `site` is worth. During transcription repair
    /// the object with the *lowest* estimate at an over-capacity site is
    /// deallocated first.
    ///
    /// ```text
    ///          Σ_x r_k(x) + w_k(i) − Σ_x w_k(x) + r_k(i)·s(i) / o_k
    /// E_k(i) = ----------------------------------------------------
    ///          [ Σ_x C(i,x) / (Σ_l Σ_x C(l,x) / M) ] · Σ_x X_xk
    /// ```
    ///
    /// Intuition: widely-replicated, update-heavy objects score low (good
    /// deallocation victims); objects with strong local read demand relative
    /// to their size score high, and the site's "proportional link weight"
    /// discounts sites that are poor nearest-neighbour candidates.
    ///
    /// # Panics
    ///
    /// Panics if ids are out of range.
    pub fn replica_value_estimate(
        &self,
        scheme: &ReplicationScheme,
        site: SiteId,
        object: ObjectId,
    ) -> f64 {
        self.replica_value_estimate_with_degree(site, object, scheme.replica_degree(object))
    }

    /// [`replica_value_estimate`](Self::replica_value_estimate) with the
    /// replica degree supplied explicitly — the fast path for callers that
    /// track degrees incrementally (AGRA's transcription repair works on raw
    /// chromosomes rather than [`ReplicationScheme`]s).
    ///
    /// # Panics
    ///
    /// Panics if ids are out of range or `degree == 0`.
    pub fn replica_value_estimate_with_degree(
        &self,
        site: SiteId,
        object: ObjectId,
        degree: usize,
    ) -> f64 {
        assert!(degree > 0, "every object has at least its primary copy");
        let r_total = self.total_reads(object) as f64;
        let w_total = self.total_writes(object) as f64;
        let r_local = self.reads(site, object) as f64;
        let w_local = self.writes(site, object) as f64;
        let capacity = self.capacity(site) as f64;
        let size = self.object_size(object) as f64;

        let numerator = r_total + w_local - w_total + r_local * capacity / size;

        let mean_row = self.costs().mean_row_sum();
        let weight = if mean_row > 0.0 {
            self.costs().row_sum(site.index()) as f64 / mean_row
        } else {
            1.0 // degenerate single-site network
        };
        numerator / (weight.max(f64::MIN_POSITIVE) * degree as f64)
    }
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
            .reads(vec![0, 4, 6])
            .writes(vec![1, 2, 0])
            .object(5, SiteId::new(2))
            .reads(vec![3, 0, 2])
            .writes(vec![0, 0, 1])
            .build()
            .unwrap()
    }

    #[test]
    fn benefit_matches_hand_computation() {
        let p = problem();
        let s = ReplicationScheme::primary_only(&p);
        // Site 2, object 0: r=6, SN=SP=0, C(2,0)=2, w=0, W_tot=3.
        // B = 6·2 + (0 − 3)·2 = 6.
        assert_eq!(p.local_benefit(&s, SiteId::new(2), ObjectId::new(0)), 6);
        // Site 1, object 0: r=4, C(1,0)=1, w=2, W_tot=3. B = 4 + (2−3)·1 = 3.
        assert_eq!(p.local_benefit(&s, SiteId::new(1), ObjectId::new(0)), 3);
    }

    #[test]
    fn benefit_is_local_delta_per_unit() {
        // For every non-replicator pair, B must equal the site-local part of
        // −delta_add / o (the global delta additionally includes other
        // sites' read improvements, so B ≥ −delta/o in general).
        let p = problem();
        let s = ReplicationScheme::primary_only(&p);
        let eval = crate::CostEvaluator::new(&p, s.clone());
        for k in p.objects() {
            for i in p.sites() {
                if s.holds(i, k) {
                    continue;
                }
                let b = p.local_benefit(&s, i, k);
                let global = -eval.delta_add(i, k) as f64 / p.object_size(k) as f64;
                assert!(
                    (b as f64) <= global + 1e-9,
                    "local benefit must not exceed the global saving"
                );
            }
        }
    }

    #[test]
    fn benefit_negative_when_updates_dominate() {
        let costs = CostMatrix::from_rows(2, vec![0, 3, 3, 0]).unwrap();
        let p = Problem::builder(costs)
            .capacities(vec![20, 20])
            .object(4, SiteId::new(0))
            .reads(vec![0, 1])
            .writes(vec![9, 0])
            .build()
            .unwrap();
        let s = ReplicationScheme::primary_only(&p);
        // B(site 1) = 1·3 + (0 − 9)·3 = −24.
        assert_eq!(p.local_benefit(&s, SiteId::new(1), ObjectId::new(0)), -24);
    }

    #[test]
    fn benefit_for_replicator_is_update_burden() {
        let p = problem();
        let mut s = ReplicationScheme::primary_only(&p);
        s.add_replica(&p, SiteId::new(2), ObjectId::new(0)).unwrap();
        // Site 2 now holds it: SN = self (cost 0), so B = (w − W_tot)·C = −6.
        assert_eq!(p.local_benefit(&s, SiteId::new(2), ObjectId::new(0)), -6);
    }

    #[test]
    fn estimate_penalizes_replica_degree() {
        let p = problem();
        let mut s = ReplicationScheme::primary_only(&p);
        let e1 = p.replica_value_estimate(&s, SiteId::new(0), ObjectId::new(0));
        s.add_replica(&p, SiteId::new(2), ObjectId::new(0)).unwrap();
        let e2 = p.replica_value_estimate(&s, SiteId::new(0), ObjectId::new(0));
        assert!(e2 < e1, "a second replica halves the estimate");
        assert!((e1 / e2 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn estimate_rewards_local_reads() {
        let p = problem();
        let s = ReplicationScheme::primary_only(&p);
        // Same object viewed from heavy-reader site 2 vs idle site 0:
        let hot = p.replica_value_estimate(&s, SiteId::new(2), ObjectId::new(0));
        let cold = p.replica_value_estimate(&s, SiteId::new(0), ObjectId::new(0));
        // Site 2 reads 6× object 0 (r·s/o = 6·40/10 = 24 extra), site 0 zero —
        // even though site 2's link weight is worse, the local reads win here.
        assert!(hot > cold);
    }

    #[test]
    fn estimate_matches_hand_computation() {
        let p = problem();
        let s = ReplicationScheme::primary_only(&p);
        // Site 1, object 0: r_tot=10, w_loc=2, w_tot=3, r_loc=4, s=40, o=10.
        // numerator = 10 + 2 − 3 + 16 = 25.
        // row sums: site0=3, site1=2, site2=3 → mean = 8/3.
        // weight(site1) = 2 / (8/3) = 0.75; degree = 1.
        let e = p.replica_value_estimate(&s, SiteId::new(1), ObjectId::new(0));
        assert!((e - 25.0 / 0.75).abs() < 1e-9);
    }
}
