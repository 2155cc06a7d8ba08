//! Property-based validation of the Eq. 4 cost model against both the
//! discrete-event simulator and brute-force recomputation.

use drp::core::replay::replay_total_cost;
use drp::core::CostEvaluator;
use drp::{ObjectId, Problem, ReplicationScheme, SiteId, WorkloadSpec};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A random instance plus a random valid scheme, driven by proptest seeds.
fn instance_and_scheme(seed: u64, fill: usize) -> (Problem, ReplicationScheme) {
    let mut rng = StdRng::seed_from_u64(seed);
    let problem = WorkloadSpec::paper(6, 8, 10.0, 30.0)
        .generate(&mut rng)
        .unwrap();
    let mut scheme = ReplicationScheme::primary_only(&problem);
    use rand::Rng;
    for _ in 0..fill {
        let site = SiteId::new(rng.random_range(0..problem.num_sites()));
        let object = ObjectId::new(rng.random_range(0..problem.num_objects()));
        if !scheme.holds(site, object)
            && problem.object_size(object) <= scheme.free_capacity(&problem, site)
        {
            scheme.add_replica(&problem, site, object).unwrap();
        }
    }
    (problem, scheme)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn simulator_replay_equals_analytic_cost(seed in 0u64..10_000, fill in 0usize..30) {
        let (problem, scheme) = instance_and_scheme(seed, fill);
        prop_assert_eq!(replay_total_cost(&problem, &scheme).unwrap(),
                        problem.total_cost(&scheme));
    }

    #[test]
    fn object_costs_sum_to_total(seed in 0u64..10_000, fill in 0usize..30) {
        let (problem, scheme) = instance_and_scheme(seed, fill);
        let sum: u64 = problem.objects().map(|k| problem.object_cost(&scheme, k)).sum();
        prop_assert_eq!(sum, problem.total_cost(&scheme));
    }

    #[test]
    fn incremental_deltas_match_recomputation(seed in 0u64..10_000, fill in 0usize..20) {
        let (problem, scheme) = instance_and_scheme(seed, fill);
        let base = problem.total_cost(&scheme) as i64;
        let eval = CostEvaluator::new(&problem, scheme.clone());
        for k in problem.objects() {
            for i in problem.sites() {
                if scheme.holds(i, k) {
                    if problem.primary(k) != i {
                        let predicted = eval.delta_remove(i, k);
                        let mut t = scheme.clone();
                        t.remove_replica(&problem, i, k).unwrap();
                        prop_assert_eq!(predicted, problem.total_cost(&t) as i64 - base);
                    }
                } else if problem.object_size(k) <= scheme.free_capacity(&problem, i) {
                    let predicted = eval.delta_add(i, k);
                    let mut t = scheme.clone();
                    t.add_replica(&problem, i, k).unwrap();
                    prop_assert_eq!(predicted, problem.total_cost(&t) as i64 - base);
                }
            }
        }
    }

    #[test]
    fn local_benefit_never_exceeds_global_saving(seed in 0u64..10_000) {
        let (problem, scheme) = instance_and_scheme(seed, 5);
        let eval = CostEvaluator::new(&problem, scheme.clone());
        for k in problem.objects() {
            for i in problem.sites() {
                if scheme.holds(i, k) {
                    continue;
                }
                let local = problem.local_benefit(&scheme, i, k) as f64
                    * problem.object_size(k) as f64;
                let global = -eval.delta_add(i, k) as f64;
                // Other sites re-routing reads can only add to the saving.
                prop_assert!(local <= global + 1e-9);
            }
        }
    }

    #[test]
    fn savings_are_bounded_above_by_100(seed in 0u64..10_000, fill in 0usize..40) {
        let (problem, scheme) = instance_and_scheme(seed, fill);
        prop_assert!(problem.savings_percent(&scheme) <= 100.0);
    }

    #[test]
    fn scheme_mutations_preserve_invariants(seed in 0u64..10_000, ops in 0usize..60) {
        let mut rng = StdRng::seed_from_u64(seed);
        let problem = WorkloadSpec::paper(6, 8, 10.0, 30.0).generate(&mut rng).unwrap();
        let mut scheme = ReplicationScheme::primary_only(&problem);
        use rand::Rng;
        for _ in 0..ops {
            let site = SiteId::new(rng.random_range(0..problem.num_sites()));
            let object = ObjectId::new(rng.random_range(0..problem.num_objects()));
            if rng.random_bool(0.5) {
                let _ = scheme.add_replica(&problem, site, object);
            } else {
                let _ = scheme.remove_replica(&problem, site, object);
            }
        }
        prop_assert!(scheme.validate(&problem).is_ok());
    }
}
