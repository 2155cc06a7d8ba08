//! Property tests for the serving engine under injected faults: reads that
//! fail over to a live holder, writes queued for a dark primary, and the
//! service-level replica-degree floor.
//!
//! Deliberately plain `#[test]` seed loops rather than `proptest!`
//! generators: the inputs that matter (fault schedules, workloads) are
//! already seeded and deterministic, so enumerating seeds gives the same
//! coverage with reproducible failures by construction.

use drp_algo::fault_tolerance::ensure_min_degree;
use drp_core::format::read_scheme;
use drp_core::migration::MigrationPlan;
use drp_core::{telemetry, Problem, ReplicationScheme, SiteId};
use drp_net::sim::FaultPlan;
use drp_net::CostMatrix;
use drp_serve::wal::{decode_stream, WalRecord};
use drp_serve::{
    execute_migration, run_service, run_service_durable, EpochTraffic, MemWalStore,
    MigrationOutcome, MigrationTuning, Policy, RequestTally, ServeConfig, WalStore, WalTuning,
};
use drp_workload::{Scenario, WorkloadSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn random_problem(seed: u64) -> Problem {
    // Paper-style instance, small enough to keep dozens of runs fast.
    WorkloadSpec::paper(8, 6, 6.0, 80.0)
        .generate(&mut StdRng::seed_from_u64(seed))
        .unwrap()
}

fn degree_2_scheme(p: &Problem) -> ReplicationScheme {
    let mut s = ReplicationScheme::primary_only(p);
    ensure_min_degree(p, &mut s, 2).unwrap();
    s
}

/// A seeded plan that crashes two distinct sites for overlapping windows
/// and adds mild message loss and jitter.
fn two_crash_plan(seed: u64, num_sites: usize) -> FaultPlan {
    let a = (seed as usize * 3 + 1) % num_sites;
    let mut b = (seed as usize * 5 + 2) % num_sites;
    if b == a {
        b = (b + 1) % num_sites;
    }
    FaultPlan::new(seed)
        .crash(a, 60, 420)
        .crash(b, 150, 600)
        .drop_probability(0.02)
        .jitter(1)
}

/// One standalone serving epoch of `p`'s pattern over `period` time units
/// with nothing to migrate.
fn serve(
    p: &Problem,
    s: &ReplicationScheme,
    plan: Option<FaultPlan>,
    period: u64,
    seed: u64,
) -> MigrationOutcome {
    let traffic = Some(EpochTraffic { period, seed });
    let tuning = MigrationTuning::default();
    execute_migration(
        p,
        s,
        &MigrationPlan::default(),
        plan,
        tuning,
        traffic,
        telemetry::noop(),
    )
    .unwrap()
}

/// The same plan produces a bitwise-identical outcome: request tally,
/// traffic, fault counters and event count.
#[test]
fn identical_plans_are_bitwise_reproducible() {
    for seed in 0..8u64 {
        let p = random_problem(seed);
        let s = degree_2_scheme(&p);
        let go = || serve(&p, &s, Some(two_crash_plan(seed, p.num_sites())), 800, seed);
        assert_eq!(go(), go(), "seed {seed}");
    }
}

/// Every request is counted exactly once: nothing is served or committed
/// twice (a failed-over read, a re-shipped write), and the faulted run
/// sees the same requests as the clean one. The clean run loses nothing,
/// fails nothing over and bills exactly Eq. 4.
#[test]
fn every_request_is_counted_exactly_once() {
    let mut failed_over = 0;
    let mut queued = 0;
    for seed in 0..12u64 {
        let p = random_problem(seed);
        let s = degree_2_scheme(&p);
        let clean = serve(&p, &s, None, 800, seed).requests;
        assert_eq!(clean.reads_lost() + clean.writes_lost(), 0, "seed {seed}");
        assert_eq!(clean.reads_failed_over + clean.writes_queued, 0);
        assert_eq!(
            serve(&p, &s, None, 800, seed).sim.transfer_cost,
            p.total_cost(&s)
        );

        let run = serve(&p, &s, Some(two_crash_plan(seed, p.num_sites())), 800, seed);
        let r = run.requests;
        assert_eq!(r.reads_issued, clean.reads_issued, "seed {seed}");
        assert_eq!(r.writes_issued, clean.writes_issued, "seed {seed}");
        assert!(r.reads_served <= r.reads_issued, "seed {seed}: {r:?}");
        assert!(r.writes_committed <= r.writes_issued, "seed {seed}: {r:?}");
        assert!(r.reads_failed_over <= r.reads_issued, "seed {seed}: {r:?}");
        assert!(r.writes_queued <= r.writes_issued, "seed {seed}: {r:?}");
        assert_eq!(r.reads_served + r.reads_lost(), r.reads_issued);
        assert_eq!(r.writes_committed + r.writes_lost(), r.writes_issued);
        failed_over += r.reads_failed_over;
        queued += r.writes_queued;
    }
    assert!(failed_over > 0, "the sweep must exercise read failover");
    assert!(queued > 0, "the sweep must exercise write queueing");
}

/// 10-site ring metric with hand-laid workloads — rand-free, so golden
/// values derived from it hold on any platform or dependency version.
fn ten_site_problem() -> Problem {
    // C(i, j) = min distance around a ring of unit-cost hops, doubled.
    let m = 10usize;
    let mut rows = Vec::with_capacity(m * m);
    for i in 0..m {
        for j in 0..m {
            let d = (i as i64 - j as i64).unsigned_abs();
            rows.push(d.min(m as u64 - d) * 2);
        }
    }
    let costs = CostMatrix::from_rows(m, rows).unwrap();
    let mut builder = Problem::builder(costs);
    builder.capacities(vec![40; m]);
    for k in 0..5usize {
        let reads: Vec<u64> = (0..m).map(|i| ((i + k) % 4) as u64).collect();
        let writes: Vec<u64> = (0..m).map(|i| u64::from((i + k) % 5 == 0)).collect();
        builder
            .object(4 + k as u64, SiteId::new((k * 2) % m))
            .reads(reads)
            .writes(writes);
    }
    builder.build().unwrap()
}

/// The acceptance scenario on a hand-built (rand-free) topology: under a
/// plan crashing 2 of 10 sites, every read and write issued by a live
/// site is served — reads fail over to a live holder, writes wait for
/// their primary — and the run is deterministic.
#[test]
fn acceptance_two_of_ten_sites_crash() {
    let p = ten_site_problem();
    let s = degree_2_scheme(&p);
    let plan = FaultPlan::new(0xFA17)
        .crash(2, 80, 380)
        .crash(5, 120, 450)
        .jitter(1);
    let run = serve(&p, &s, Some(plan.clone()), 800, 0xFA17);
    let r = run.requests;
    assert!(r.reads_failed_over > 0 && r.writes_queued > 0, "{r:?}");
    // Each request timer carries one request, so a request a dark site
    // would have fired (or re-fired) dies as exactly one lost timer. Every
    // loss being such a timer means no request of a live issuer was lost.
    let lost = r.reads_lost() + r.writes_lost();
    assert!(lost > 0, "the crash windows must swallow some requests");
    assert_eq!(lost, run.fault_stats.lost_timers, "{r:?}");
    assert_eq!(run, serve(&p, &s, Some(plan), 800, 0xFA17));
}

/// Golden standalone epoch: the fixed plan on the fixed topology must
/// produce exactly this tally. Rand-free inputs make it platform
/// independent; any engine change that shifts it shows up here.
#[test]
fn golden_failover_tally() {
    let p = ten_site_problem();
    let s = degree_2_scheme(&p);
    let plan = FaultPlan::new(0xD0_0D)
        .crash(1, 70, 260)
        .crash(6, 90, 310)
        .jitter(1);
    let run = serve(&p, &s, Some(plan), 400, 0xD0_0D);
    let golden = RequestTally {
        reads_issued: 73,
        reads_served: 65,
        reads_failed_over: 4,
        reads_stale: 2,
        writes_issued: 10,
        writes_committed: 9,
        writes_queued: 1,
    };
    assert_eq!(run.requests, golden, "\nactual:\n{:#?}", run.requests);
    assert_eq!((run.sim_events, run.completion_time), (215, 410));
}

/// Every boundary target a faulted, drifting service journals meets the
/// degree floor for each object the capacities allow; the run is bitwise
/// identical across ingestion thread counts and when resumed from any
/// commit point of its log.
#[test]
fn boundary_targets_meet_the_degree_floor() {
    for seed in 0..4u64 {
        let p = random_problem(seed);
        for policy in [Policy::Static, Policy::Monitor] {
            let config = ServeConfig {
                policy,
                epochs: 4,
                seed,
                night_every: 3,
                min_degree: 2,
                scenario: Some(Scenario::RegionalFailover),
                threads: 1,
                // No compaction: keep every epoch's Retune in the log.
                wal: WalTuning {
                    checkpoint_every: 100,
                },
                ..ServeConfig::default()
            };
            let mut store = MemWalStore::default();
            let durable = run_service_durable(&p, &config, &mut store).unwrap();
            let threaded = run_service(
                &p,
                &ServeConfig {
                    threads: 2,
                    ..config.clone()
                },
            )
            .unwrap();
            assert_eq!(durable.report.fingerprint(), threaded.fingerprint());
            let records = decode_stream(&store.load().unwrap()).records;
            let mut targets = 0;
            for (index, record) in records.iter().enumerate() {
                let WalRecord::Retune { target, .. } = record else {
                    continue;
                };
                let prefix = records[..=index]
                    .iter()
                    .flat_map(WalRecord::frame)
                    .collect();
                let resumed =
                    run_service_durable(&p, &config, &mut MemWalStore::from_bytes(prefix)).unwrap();
                assert_eq!(resumed.report.fingerprint(), threaded.fingerprint());
                let target = read_scheme(std::str::from_utf8(target).unwrap(), &p).unwrap();
                let mut topped = target.clone();
                let gap = ensure_min_degree(&p, &mut topped, 2).unwrap();
                assert_eq!(
                    gap.added, 0,
                    "seed {seed} {policy:?}: target below the floor"
                );
                targets += 1;
            }
            assert_eq!(targets, config.epochs, "seed {seed}");
        }
    }
}
