use drp_core::telemetry::{self, Recorder};
use drp_core::{
    kernels, ObjectId, Problem, ReplicationAlgorithm, ReplicationScheme, Result, SiteId,
};
use rand::{Rng, RngCore};

/// How SRA picks the next site from the candidate list `LS`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SiteOrder {
    /// The paper's algorithm: cycle through the remaining sites in index
    /// order.
    #[default]
    RoundRobin,
    /// Pick uniformly at random — used to diversify GRA's seed population
    /// (Section 4, "instead of picking up the start-up sites in a
    /// round-robin way, we do it randomly").
    Random,
}

/// The greedy *Simple Replication Algorithm* of Section 3.
///
/// Sites take turns; each computes the Eq. 5 benefit `B_k(i)` of every
/// candidate object, replicates the best strictly-positive one, and drops
/// candidates that turned non-beneficial or no longer fit. Benefits only
/// decrease as replicas appear (the nearest-replica distance is monotone
/// non-increasing and the update burden is constant), so dropped candidates
/// never need revisiting — this is what bounds the run at `O(M²N + MN²)`.
///
/// # Examples
///
/// ```
/// use drp_algo::{SiteOrder, Sra};
/// use drp_core::ReplicationAlgorithm;
/// use drp_workload::WorkloadSpec;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(2);
/// let problem = WorkloadSpec::paper(10, 15, 2.0, 20.0).generate(&mut rng)?;
/// let scheme = Sra::with_order(SiteOrder::RoundRobin).solve(&problem, &mut rng)?;
/// assert!(problem.total_cost(&scheme) <= problem.d_prime());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct Sra {
    order: SiteOrder,
}

impl Sra {
    /// SRA with the paper's round-robin site order.
    pub fn new() -> Self {
        Self::default()
    }

    /// SRA with an explicit site order.
    pub fn with_order(order: SiteOrder) -> Self {
        Self { order }
    }

    /// The configured site order.
    pub fn order(&self) -> SiteOrder {
        self.order
    }

    /// [`solve`](ReplicationAlgorithm::solve) with telemetry: each
    /// benefit-sweep iteration (one site's turn) closes an `sra.sweep`
    /// span, and the number of replicas placed lands in the `sra.adds`
    /// counter. Instrumentation reads no randomness, so results are
    /// identical to `solve`.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`solve`](ReplicationAlgorithm::solve).
    pub fn solve_recorded(
        &self,
        problem: &Problem,
        rng: &mut dyn RngCore,
        recorder: &dyn Recorder,
    ) -> Result<ReplicationScheme> {
        let m = problem.num_sites();
        let n = problem.num_objects();
        let costs = problem.costs();
        let mut scheme = ReplicationScheme::primary_only(problem);
        // `nearest[k·M + x] = C(x, SN_k(x))`, the only cost the Eq. 5
        // benefit reads: it starts as each primary's cost row, and every
        // add folds the new replica's row in with one min-scan.
        let mut nearest = Vec::with_capacity(n * m);
        for object in problem.objects() {
            nearest.extend_from_slice(costs.row(problem.primary(object).index()));
        }
        let mut adds = 0u64;

        // L(i): candidate objects per site (everything but own primaries).
        let mut lists: Vec<Vec<usize>> = (0..m)
            .map(|i| {
                (0..n)
                    .filter(|&k| !scheme.holds(SiteId::new(i), ObjectId::new(k)))
                    .collect()
            })
            .collect();
        // LS: sites with a non-empty candidate list.
        let mut ls: Vec<usize> = (0..m).filter(|&i| !lists[i].is_empty()).collect();

        let mut cursor = 0usize;
        while !ls.is_empty() {
            let _sweep = telemetry::span(recorder, "sra.sweep");
            let slot = match self.order {
                SiteOrder::RoundRobin => {
                    let s = cursor % ls.len();
                    cursor = s + 1;
                    s
                }
                SiteOrder::Random => rng.random_range(0..ls.len()),
            };
            let i = ls[slot];
            let site = SiteId::new(i);
            let free = scheme.free_capacity(problem, site);
            // The sweep walks objects for a fixed site, so the site-major
            // `r_x(i, ·)` / `w_x(i, ·)` rows and the cost row `C(i, ·)` are
            // the contiguous ones — hoist them out of the retain closure.
            let r_row = problem.read_matrix().row(i);
            let w_row = problem.write_matrix().row(i);
            let c_row = costs.row(i);

            // One pass: find the best positive benefit that fits and prune
            // candidates that are dead (non-positive benefit or oversize).
            let mut best: Option<(i64, usize)> = None;
            lists[i].retain(|&k| {
                let object = ObjectId::new(k);
                let size = problem.object_size(object);
                if size > free {
                    return false;
                }
                let c_sp = c_row[problem.primary(object).index()];
                let benefit = r_row[k] as i64 * nearest[k * m + i] as i64
                    + (w_row[k] as i64 - problem.total_writes(object) as i64) * c_sp as i64;
                if benefit <= 0 {
                    return false;
                }
                if best.is_none_or(|(b, _)| benefit > b) {
                    best = Some((benefit, k));
                }
                true
            });

            if let Some((_, k)) = best {
                scheme.add_replica(problem, site, ObjectId::new(k))?;
                kernels::min_scan(&mut nearest[k * m..(k + 1) * m], c_row);
                adds += 1;
                lists[i].retain(|&x| x != k);
            }
            if lists[i].is_empty() {
                // Keep the round-robin cursor aligned after removal.
                let removed_before = cursor > slot;
                ls.remove(slot);
                if removed_before && cursor > 0 {
                    cursor -= 1;
                }
            }
        }
        if recorder.enabled() {
            recorder.add_counter("sra.adds", adds);
        }
        Ok(scheme)
    }
}

impl ReplicationAlgorithm for Sra {
    fn name(&self) -> &str {
        "SRA"
    }

    fn solve(&self, problem: &Problem, rng: &mut dyn RngCore) -> Result<ReplicationScheme> {
        self.solve_recorded(problem, rng, &telemetry::NoopRecorder)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drp_net::CostMatrix;
    use drp_workload::WorkloadSpec;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    #[test]
    fn never_worse_than_primary_only() {
        let mut r = rng();
        for seed in 0..5 {
            let p = WorkloadSpec::paper(12, 20, 5.0, 15.0)
                .generate(&mut StdRng::seed_from_u64(seed))
                .unwrap();
            let s = Sra::new().solve(&p, &mut r).unwrap();
            assert!(p.total_cost(&s) <= p.d_prime(), "seed {seed}");
            s.validate(&p).unwrap();
        }
    }

    #[test]
    fn replicates_the_obviously_beneficial_object() {
        // Site 1 reads object 0 heavily, no writes anywhere: SRA must
        // replicate it there.
        let costs = CostMatrix::from_rows(2, vec![0, 5, 5, 0]).unwrap();
        let p = Problem::builder(costs)
            .capacities(vec![50, 50])
            .object(10, SiteId::new(0))
            .reads(vec![0, 30])
            .build()
            .unwrap();
        let s = Sra::new().solve(&p, &mut rng()).unwrap();
        assert!(s.holds(SiteId::new(1), ObjectId::new(0)));
        assert_eq!(p.total_cost(&s), 0);
    }

    #[test]
    fn skips_update_dominated_objects() {
        // Updates dwarf reads: benefit is negative everywhere, no replicas.
        let costs = CostMatrix::from_rows(2, vec![0, 5, 5, 0]).unwrap();
        let p = Problem::builder(costs)
            .capacities(vec![100, 100])
            .object(10, SiteId::new(0))
            .reads(vec![0, 2])
            .writes(vec![20, 20])
            .build()
            .unwrap();
        let s = Sra::new().solve(&p, &mut rng()).unwrap();
        assert_eq!(s.extra_replica_count(), 0);
    }

    #[test]
    fn respects_capacity() {
        // Site 1 can hold only one of the two attractive objects.
        let costs = CostMatrix::from_rows(2, vec![0, 5, 5, 0]).unwrap();
        let p = Problem::builder(costs)
            .capacities(vec![50, 10])
            .object(10, SiteId::new(0))
            .reads(vec![0, 30])
            .object(10, SiteId::new(0))
            .reads(vec![0, 10])
            .build()
            .unwrap();
        let s = Sra::new().solve(&p, &mut rng()).unwrap();
        // The higher-benefit object 0 wins the single slot.
        assert!(s.holds(SiteId::new(1), ObjectId::new(0)));
        assert!(!s.holds(SiteId::new(1), ObjectId::new(1)));
    }

    #[test]
    fn greedy_picks_highest_benefit_first() {
        // Two objects fit, but the order of replication is by benefit; both
        // end up replicated when capacity allows.
        let costs = CostMatrix::from_rows(2, vec![0, 5, 5, 0]).unwrap();
        let p = Problem::builder(costs)
            .capacities(vec![50, 20])
            .object(10, SiteId::new(0))
            .reads(vec![0, 30])
            .object(10, SiteId::new(0))
            .reads(vec![0, 10])
            .build()
            .unwrap();
        let s = Sra::new().solve(&p, &mut rng()).unwrap();
        assert_eq!(s.extra_replica_count(), 2);
        assert_eq!(p.total_cost(&s), 0);
    }

    #[test]
    fn round_robin_is_deterministic() {
        let p = WorkloadSpec::paper(10, 15, 5.0, 15.0)
            .generate(&mut StdRng::seed_from_u64(9))
            .unwrap();
        let a = Sra::new().solve(&p, &mut StdRng::seed_from_u64(1)).unwrap();
        let b = Sra::new().solve(&p, &mut StdRng::seed_from_u64(2)).unwrap();
        assert_eq!(a, b, "round-robin SRA must not consume randomness");
    }

    #[test]
    fn random_order_varies_but_stays_valid() {
        let p = WorkloadSpec::paper(10, 15, 5.0, 15.0)
            .generate(&mut StdRng::seed_from_u64(10))
            .unwrap();
        let mut r = rng();
        for _ in 0..5 {
            let s = Sra::with_order(SiteOrder::Random)
                .solve(&p, &mut r)
                .unwrap();
            s.validate(&p).unwrap();
            assert!(p.total_cost(&s) <= p.d_prime());
        }
    }

    #[test]
    fn recorded_solve_matches_plain_solve_and_counts_sweeps() {
        use drp_core::telemetry::InMemoryRecorder;

        let p = WorkloadSpec::paper(10, 15, 5.0, 15.0)
            .generate(&mut StdRng::seed_from_u64(9))
            .unwrap();
        let plain = Sra::new().solve(&p, &mut StdRng::seed_from_u64(1)).unwrap();
        let recorder = InMemoryRecorder::new();
        let recorded = Sra::new()
            .solve_recorded(&p, &mut StdRng::seed_from_u64(1), &recorder)
            .unwrap();
        assert_eq!(plain, recorded, "recording must not perturb the result");
        assert!(recorder.span_count("sra.sweep") > 0);
        // Every extra replica is one add.
        assert_eq!(
            recorder.counter("sra.adds"),
            recorded.extra_replica_count() as u64
        );
    }

    /// The evaluator-driven SRA loop the nearest-cost table replaced, kept
    /// as its oracle: a full [`CostEvaluator`] supplies the nearest cost
    /// and applies each add.
    fn solve_with_evaluator(
        order: SiteOrder,
        problem: &Problem,
        rng: &mut dyn RngCore,
    ) -> Result<ReplicationScheme> {
        use drp_core::CostEvaluator;

        let m = problem.num_sites();
        let n = problem.num_objects();
        let mut eval = CostEvaluator::primary_only(problem);
        let mut lists: Vec<Vec<usize>> = (0..m)
            .map(|i| {
                (0..n)
                    .filter(|&k| !eval.scheme().holds(SiteId::new(i), ObjectId::new(k)))
                    .collect()
            })
            .collect();
        let mut ls: Vec<usize> = (0..m).filter(|&i| !lists[i].is_empty()).collect();
        let mut cursor = 0usize;
        while !ls.is_empty() {
            let slot = match order {
                SiteOrder::RoundRobin => {
                    let s = cursor % ls.len();
                    cursor = s + 1;
                    s
                }
                SiteOrder::Random => rng.random_range(0..ls.len()),
            };
            let i = ls[slot];
            let site = SiteId::new(i);
            let free = eval.scheme().free_capacity(problem, site);
            let mut best: Option<(i64, usize)> = None;
            lists[i].retain(|&k| {
                let object = ObjectId::new(k);
                if problem.object_size(object) > free {
                    return false;
                }
                let c_sp = problem.costs().cost(i, problem.primary(object).index());
                let benefit = problem.reads(site, object) as i64
                    * eval.nearest(site, object).1 as i64
                    + (problem.writes(site, object) as i64 - problem.total_writes(object) as i64)
                        * c_sp as i64;
                if benefit <= 0 {
                    return false;
                }
                if best.is_none_or(|(b, _)| benefit > b) {
                    best = Some((benefit, k));
                }
                true
            });
            if let Some((_, k)) = best {
                eval.apply_add(site, ObjectId::new(k))?;
                lists[i].retain(|&x| x != k);
            }
            if lists[i].is_empty() {
                let removed_before = cursor > slot;
                ls.remove(slot);
                if removed_before && cursor > 0 {
                    cursor -= 1;
                }
            }
        }
        Ok(eval.into_scheme())
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(200))]

        #[test]
        fn nearest_table_matches_the_evaluator_oracle(
            m in 2usize..=40,
            n in 1usize..=30,
            tight in proptest::any::<bool>(),
            random_order in proptest::any::<bool>(),
            seed in proptest::any::<u64>(),
        ) {
            let problem = crate::testkit::random_instance(m, n, tight, seed);
            let order = if random_order { SiteOrder::Random } else { SiteOrder::RoundRobin };
            let mut table_rng = StdRng::seed_from_u64(seed ^ 1);
            let mut oracle_rng = table_rng.clone();
            let table = Sra::with_order(order).solve(&problem, &mut table_rng).unwrap();
            let oracle = solve_with_evaluator(order, &problem, &mut oracle_rng).unwrap();
            proptest::prop_assert_eq!(&table, &oracle, "{}x{} tight={} {:?}", m, n, tight, order);
            // Both runs drew the same number of site picks.
            proptest::prop_assert_eq!(table_rng.random::<u64>(), oracle_rng.random::<u64>());
        }
    }

    #[test]
    fn zero_capacity_slack_yields_primary_only() {
        // Capacities exactly fit the primaries: no replica can be added.
        let costs = CostMatrix::from_rows(2, vec![0, 5, 5, 0]).unwrap();
        let p = Problem::builder(costs)
            .capacities(vec![10, 10])
            .object(10, SiteId::new(0))
            .reads(vec![0, 30])
            .object(10, SiteId::new(1))
            .reads(vec![30, 0])
            .build()
            .unwrap();
        let s = Sra::new().solve(&p, &mut rng()).unwrap();
        assert_eq!(s.extra_replica_count(), 0);
    }
}
