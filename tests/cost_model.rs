//! Property-based validation of the Eq. 4 cost model against both the
//! serve epoch engine on the discrete-event simulator and brute-force
//! recomputation, and of the GA fitness that scores it.

use drp::algo::{chromosome_cost, evaluate_population, EvalScratch};
use drp::core::migration::MigrationPlan;
use drp::core::telemetry;
use drp::core::CostEvaluator;
use drp::ga::BitString;
use drp::serve::{execute_migration, EpochTraffic, MigrationOutcome, MigrationTuning};
use drp::workload::trace::{self, RequestKind};
use drp::{ObjectId, Problem, ReplicationScheme, SiteId, WorkloadSpec};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Simulated time units one served period spreads its requests over.
const PERIOD: u64 = 200;

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

/// An instance of the same shape with room for every object at every site
/// (capacities of at least the total object size), fully replicated.
fn full_replication(seed: u64) -> (Problem, ReplicationScheme) {
    let problem = WorkloadSpec::paper(6, 8, 10.0, 200.0)
        .generate(&mut StdRng::seed_from_u64(seed))
        .unwrap();
    let scheme = ReplicationScheme::from_fn(&problem, |_, _| true).unwrap();
    (problem, scheme)
}

/// One clean epoch of the serve engine: no migration, no faults, one
/// period of the pattern's requests timestamped from the stream `seed`.
fn clean_epoch(problem: &Problem, scheme: &ReplicationScheme, seed: u64) -> MigrationOutcome {
    execute_migration(
        problem,
        scheme,
        &MigrationPlan::default(),
        None,
        MigrationTuning::default(),
        Some(EpochTraffic {
            period: PERIOD,
            seed,
        }),
        telemetry::noop(),
    )
    .unwrap()
}

/// What the Eq. 4 policy sends for the same request stream, in closed
/// form: a remote read is a control request plus `o_k` units back, a write
/// from `i != SP_k` ships to the primary (`o_k` units unless `i` holds a
/// replica), and the primary sends every other replicator one `o_k`
/// update.
#[derive(Default)]
struct Expected {
    requests: u64,
    messages: u64,
    data_units: u64,
    completion_time: u64,
}

fn expected(problem: &Problem, scheme: &ReplicationScheme, seed: u64) -> Expected {
    let cost = |a: SiteId, b: SiteId| problem.costs().cost(a.index(), b.index());
    let mut e = Expected::default();
    let mut rng = StdRng::seed_from_u64(seed);
    for r in trace::stream(problem, PERIOD, &mut rng) {
        let (i, k) = (r.site, r.object);
        let o = problem.object_size(k);
        e.requests += 1;
        let mut done = r.time;
        match r.kind {
            RequestKind::Read => {
                let (sn, c) = scheme.nearest_replica(problem, i, k);
                if sn != i {
                    e.messages += 2;
                    e.data_units += o;
                    done += 2 * c;
                }
            }
            RequestKind::Write => {
                let sp = problem.primary(k);
                if i != sp {
                    e.messages += 1;
                    if !scheme.holds(i, k) {
                        e.data_units += o;
                    }
                    done += cost(i, sp);
                }
                let arrival = done;
                for j in scheme.replicators(k).filter(|&j| j != sp) {
                    e.messages += 1;
                    e.data_units += o;
                    done = done.max(arrival + cost(sp, j));
                }
            }
        }
        e.completion_time = e.completion_time.max(done);
    }
    e
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn simulator_replay_equals_analytic_cost(seed in 0u64..10_000, fill in 0usize..30) {
        // Every case covers primary-only, a random fill and full
        // replication: the edge schemes are where a lost or extra update
        // and a mis-sized replicator write ship show up.
        for (problem, scheme) in [
            instance_and_scheme(seed, 0),
            instance_and_scheme(seed, fill),
            full_replication(seed),
        ] {
            let epoch = clean_epoch(&problem, &scheme, seed);
            let want = expected(&problem, &scheme, seed);
            prop_assert_eq!(epoch.sim.transfer_cost, problem.total_cost(&scheme));
            prop_assert_eq!(epoch.sim.messages, want.messages);
            prop_assert_eq!(epoch.sim.data_units, want.data_units);
            prop_assert_eq!(epoch.completion_time, want.completion_time);
            prop_assert_eq!(epoch.sim.timers, want.requests);
            prop_assert_eq!(epoch.sim_events, epoch.sim.messages + epoch.sim.timers);
            prop_assert_eq!(epoch.migration_ntc, 0);
        }
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

proptest! {
    #[test]
    fn population_scoring_is_identical_across_scratch_widths(
        instance_seed in 0u64..50,
        pop_seed in 0u64..1000,
        pop_size in 1usize..40,
    ) {
        // GRA's Eq. 4 fitness through the u32 mirror kernels must equal the
        // u64 path bitwise: fitness values AND the chromosomes the
        // negative-fitness rule resets to primary-only.
        let problem = WorkloadSpec::paper(8, 10, 5.0, 30.0)
            .generate(&mut StdRng::seed_from_u64(instance_seed))
            .unwrap();
        let len = problem.num_sites() * problem.num_objects();
        let mut rng = StdRng::seed_from_u64(pop_seed);
        let seeded: Vec<(BitString, f64)> = (0..pop_size)
            .map(|_| (BitString::random(len, &mut rng), -1.0))
            .collect();
        let mut narrow_scratch = EvalScratch::new(&problem);
        let mut wide_scratch = EvalScratch::with_mirror(&problem, None);
        let mut narrow = seeded.clone();
        let mut wide = seeded;
        evaluate_population(&problem, &mut narrow, &mut narrow_scratch);
        evaluate_population(&problem, &mut wide, &mut wide_scratch);
        prop_assert_eq!(&narrow, &wide);
        // Spot-check the scores against the plain chromosome cost.
        let dp = problem.d_prime();
        prop_assume!(dp > 0);
        for (chromosome, fitness) in &wide {
            let expected = (dp as f64 - chromosome_cost(&problem, chromosome) as f64) / dp as f64;
            prop_assert_eq!(*fitness, expected.max(0.0));
        }
    }
}
