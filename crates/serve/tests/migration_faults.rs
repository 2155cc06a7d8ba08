//! Property tests for the live migration executor under faults.
//!
//! Same style as the failover property suite: plain seeded loops
//! rather than `proptest!` generators, because the interesting inputs
//! (schemes, plans, crash windows) are already deterministic functions of
//! a seed and enumerating seeds reproduces failures by construction.
//!
//! The two properties the executor owes the rest of the runtime:
//!
//! 1. **Cost fidelity** — with no faults, the executed migration's NTC is
//!    exactly the static [`MigrationPlan::transfer_cost`] computed by
//!    `drp_core::migration`: one fetch per addition from the planned
//!    source, nothing billed twice, retries never fire early.
//! 2. **Crash convergence** — a crash window covering an addition's
//!    planned source still converges to the same target directory: the
//!    retry path re-sources the fetch from surviving holders, and whatever
//!    stays deferred is re-planned in a later round.

use drp_algo::Sra;
use drp_core::format::{read_instance, read_scheme};
use drp_core::migration::{plan_migration, MigrationPlan};
use drp_core::telemetry;
use drp_core::{Problem, ReplicationAlgorithm, ReplicationScheme};
use drp_net::sim::FaultPlan;
use drp_serve::{
    execute_migration, run_service, FaultSpec, MigrationOutcome, MigrationTuning, Policy,
    ServeConfig,
};
use drp_workload::WorkloadSpec;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A standalone migration-only epoch (no client traffic).
fn migrate(
    problem: &Problem,
    old: &ReplicationScheme,
    plan: &MigrationPlan,
    faults: Option<FaultPlan>,
    tuning: MigrationTuning,
) -> MigrationOutcome {
    execute_migration(problem, old, plan, faults, tuning, None, telemetry::noop()).unwrap()
}

fn instance(seed: u64) -> Problem {
    WorkloadSpec::paper(8, 10, 6.0, 40.0)
        .generate(&mut StdRng::seed_from_u64(seed))
        .unwrap()
}

/// Old scheme = primaries only, new scheme = SRA's placement: the plan is
/// pure additions, each sourced from the object's primary.
fn expansion(seed: u64) -> (Problem, ReplicationScheme, ReplicationScheme) {
    let problem = instance(seed);
    let old = ReplicationScheme::primary_only(&problem);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xa5a5);
    let new = Sra::new().solve(&problem, &mut rng).unwrap();
    (problem, old, new)
}

#[test]
fn fault_free_execution_costs_exactly_the_static_plan() {
    let mut nontrivial = 0;
    for seed in 0..12u64 {
        let (problem, old, new) = expansion(seed);
        let plan = plan_migration(&problem, &old, &new).unwrap();
        if plan.moves() == 0 {
            continue;
        }
        nontrivial += 1;
        let out = migrate(&problem, &old, &plan, None, MigrationTuning::default());
        assert!(out.converged, "seed {seed}: fault-free migration must land");
        assert_eq!(out.rounds, 1, "seed {seed}: one round suffices");
        assert_eq!(
            out.migration_ntc,
            plan.transfer_cost(),
            "seed {seed}: executed NTC must equal the planner's static cost"
        );
        assert_eq!(out.retries, 0, "seed {seed}: no retry may fire early");
        assert_eq!(out.installed, plan.additions.len());
        assert_eq!(out.deallocated, plan.removals.len());
        assert_eq!(out.scheme, plan.apply(&problem, &old).unwrap());
    }
    assert!(nontrivial >= 8, "the seed sweep must exercise real plans");
}

#[test]
fn pure_deallocation_moves_no_data() {
    let (problem, old, new) = expansion(3);
    // Migrate backwards: SRA scheme down to primaries only. Every move is
    // a removal, so the executor must finish without any fetch traffic.
    let plan = plan_migration(&problem, &new, &old).unwrap();
    assert!(plan.additions.is_empty());
    assert!(!plan.removals.is_empty());
    let out = migrate(&problem, &new, &plan, None, MigrationTuning::default());
    assert!(out.converged);
    assert_eq!(out.migration_ntc, 0);
    assert_eq!(out.installed, 0);
    assert_eq!(out.deallocated, plan.removals.len());
    assert_eq!(out.scheme, old);
}

#[test]
fn crash_window_over_the_planned_source_still_converges() {
    let mut crashed_runs = 0;
    for seed in 0..12u64 {
        let (problem, old, new) = expansion(seed);
        let plan = plan_migration(&problem, &old, &new).unwrap();
        let Some(first) = plan.additions.first() else {
            continue;
        };
        crashed_runs += 1;
        // Take the first addition's source down from the very start, long
        // enough to outlast the initial fetch and its first retries.
        let faults = FaultPlan::new(seed).crash(first.source.index(), 0, 5_000);
        let out = migrate(
            &problem,
            &old,
            &plan,
            Some(faults),
            MigrationTuning::default(),
        );
        assert!(
            out.converged,
            "seed {seed}: migration must survive a crashed source"
        );
        assert_eq!(
            out.scheme,
            plan.apply(&problem, &old).unwrap(),
            "seed {seed}: the directory must still reach the planned target"
        );
        assert!(
            out.fault_stats.crashes >= 1,
            "seed {seed}: the crash window must have fired"
        );
        assert!(
            out.retries > 0 || out.rounds > 1,
            "seed {seed}: a crashed source must force retries or another round"
        );
        assert_eq!(out.installed, plan.additions.len());
        assert_eq!(out.deallocated, plan.removals.len());
    }
    assert!(crashed_runs >= 8, "the seed sweep must exercise real plans");
}

#[test]
fn drop_probability_and_jitter_do_not_break_convergence() {
    for seed in [1u64, 4, 7] {
        let (problem, old, new) = expansion(seed);
        let plan = plan_migration(&problem, &old, &new).unwrap();
        if plan.moves() == 0 {
            continue;
        }
        let faults = FaultPlan::new(seed).drop_probability(0.15).jitter(3);
        let out = migrate(
            &problem,
            &old,
            &plan,
            Some(faults),
            MigrationTuning::default(),
        );
        assert!(out.converged, "seed {seed}: lossy links must not wedge");
        assert_eq!(out.scheme, plan.apply(&problem, &old).unwrap());
        // Lost fetch data is still paid for (the bandwidth was spent), so
        // the executed cost can only meet or exceed the static plan.
        assert!(out.migration_ntc >= plan.transfer_cost() || out.retries == 0);
    }
}

/// Tight retry budget for the hand-built edge-path scenarios below: retry
/// deadlines land at small, predictable times.
fn tight_tuning() -> MigrationTuning {
    MigrationTuning {
        rpc_timeout: 4,
        backoff_cap: 4,
        max_attempts: 2,
    }
}

#[test]
fn retry_resources_then_defers_when_every_holder_is_down() {
    // One object held at sites 0 and 2; the plan adds it at site 1. Both
    // holders are crashed for the whole round, so the executor must walk
    // the full failover order — initial fetch from the nearest holder,
    // retry re-sourced to the other, retry back — exhaust `max_attempts`,
    // defer the addition, and land it in the fault-free second round.
    let problem = read_instance(
        "drp-instance v1\n\
         sites 3\n\
         objects 1\n\
         costs 0 1 3  1 0 3  3 3 0\n\
         capacities 4 4 4\n\
         sizes 2\n\
         primaries 0\n\
         reads 1  1  1\n\
         writes 1  0  0\n",
    )
    .unwrap();
    let old = read_scheme(
        "drp-scheme v1\nsites 3\nobjects 1\nobject 0 replicas 0 2\n",
        &problem,
    )
    .unwrap();
    let plan = plan_migration(
        &problem,
        &old,
        &read_scheme(
            "drp-scheme v1\nsites 3\nobjects 1\nobject 0 replicas 0 1 2\n",
            &problem,
        )
        .unwrap(),
    )
    .unwrap();
    assert_eq!(plan.additions.len(), 1);
    assert!(plan.removals.is_empty());

    let faults = FaultPlan::new(0).crash(0, 0, 100_000).crash(2, 0, 100_000);
    let out = migrate(&problem, &old, &plan, Some(faults), tight_tuning());
    assert!(out.converged, "the deferred addition must land in round 2");
    assert_eq!(out.rounds, 2, "round 1 defers, round 2 completes");
    assert_eq!(
        out.retries, 2,
        "exactly max_attempts retries before deferring"
    );
    assert_eq!(out.installed, 1);
    assert!(
        out.fault_stats.lost_arrivals >= 3,
        "initial fetch + both re-sourced retries all hit dead holders, got {}",
        out.fault_stats.lost_arrivals
    );
}

#[test]
fn capacity_reclaim_applies_deferred_removals_when_cutover_stalls() {
    // Site 2 (capacity 2) trades object X for object Y: the plan removes
    // X@2 (deferred until X's pending addition at site 1 lands) and adds
    // Y@2. The crash schedule lets Y install at site 2 but keeps every
    // holder of X unreachable for site 1's fetch window, so the epoch ends
    // with site 2 holding X *and* Y — 4 units in a 2-unit site. The
    // executor must fall back to reclaiming capacity (applying the
    // deferred removal early) instead of erroring, then finish X@1 in the
    // fault-free second round.
    let problem = read_instance(
        "drp-instance v1\n\
         sites 3\n\
         objects 2\n\
         costs 0 1 3  1 0 3  3 3 0\n\
         capacities 4 4 2\n\
         sizes 2 2\n\
         primaries 0 1\n\
         reads 1 1  1 1  1 1\n\
         writes 1 0  0 1  0 0\n",
    )
    .unwrap();
    let old = read_scheme(
        "drp-scheme v1\nsites 3\nobjects 2\nobject 0 replicas 0 2\nobject 1 replicas 1\n",
        &problem,
    )
    .unwrap();
    let new = read_scheme(
        "drp-scheme v1\nsites 3\nobjects 2\nobject 0 replicas 0 1\nobject 1 replicas 1 2\n",
        &problem,
    )
    .unwrap();
    let plan = plan_migration(&problem, &old, &new).unwrap();
    assert_eq!(plan.additions.len(), 2);
    assert_eq!(plan.removals.len(), 1);
    for addition in &plan.additions {
        // The crash windows below assume the planner sources X@1 from the
        // nearest holder (site 0) and Y@2 from its only holder (site 1).
        let expected = if addition.object.index() == 0 { 0 } else { 1 };
        assert_eq!(addition.source.index(), expected);
    }

    // Site 0 is down all round (X@1's planned source). Site 2 is up long
    // enough to complete its own Y fetch (req at t=0, data back by t=6)
    // and down from t=7, so site 1's re-sourced retry to X's other holder
    // (site 2, arriving ≥ t=13) is lost too.
    let faults = FaultPlan::new(0).crash(0, 0, 100_000).crash(2, 7, 100_000);
    let out = migrate(&problem, &old, &plan, Some(faults), tight_tuning());
    assert!(out.converged, "reclaim must unwedge the migration");
    assert_eq!(out.rounds, 2, "round 1 reclaims, round 2 finishes X@1");
    assert_eq!(out.scheme, new);
    assert_eq!(out.installed, 2, "Y@2 in round 1, X@1 in round 2");
    assert_eq!(
        out.deallocated, 1,
        "the reclaimed removal must not be double-counted"
    );
    assert_eq!(out.retries, 2, "X@1 exhausts its attempts before deferring");
}

#[test]
fn write_queue_drains_across_a_primary_crash() {
    // Crash a primary for the first 40% of every epoch: writes shipped to
    // it while it is down are lost, writes after it recovers drain and
    // commit. The ledger must stay conservative either way, and the
    // admission front-end (offered/admitted/issued) must be byte-identical
    // to the fault-free run — faults may lose traffic, never invent it.
    let problem = instance(5);
    let primary = problem.primary(drp_core::ObjectId::new(0)).index();
    let config = ServeConfig {
        policy: Policy::Static,
        epochs: 2,
        seed: 5,
        ..ServeConfig::default()
    };
    let clean = run_service(&problem, &config).unwrap();
    let window = config.period * 2 / 5;
    let faulted = run_service(
        &problem,
        &ServeConfig {
            faults: Some(FaultSpec {
                crashes: vec![(primary, 0, window)],
                drop_probability: 0.0,
                jitter: 0,
            }),
            ..config
        },
    )
    .unwrap();

    let mut lost = 0;
    for (c, f) in clean.epochs.iter().zip(&faulted.epochs) {
        assert_eq!(c.offered, f.offered);
        assert_eq!(c.admitted, f.admitted);
        assert_eq!(c.writes_issued, f.writes_issued);
        assert_eq!(c.writes_lost, 0, "fault-free runs lose nothing");
        assert_eq!(
            f.writes_committed + f.writes_lost,
            f.writes_issued,
            "every admitted write is committed or accounted lost"
        );
        assert!(
            f.writes_committed > 0,
            "the queue must drain once the primary recovers"
        );
        assert!(f.crashes >= 1, "the crash window must have fired");
        lost += f.writes_lost;
    }
    assert!(
        lost > 0,
        "writes shipped into the crash window must be lost"
    );
}
