//! Fault-injector overhead timings: `cargo run --release -p drp-bench
//! --bin faults [out.json]` writes `BENCH_faults.json`.
//!
//! For each paper-style instance size it serves one period of the
//! instance's pattern on the `drp-serve` epoch engine
//! ([`execute_migration`] with traffic) three ways and reports simulator
//! events per second:
//!
//! * **injector off** — no `FaultPlan`: the engine never consults fault
//!   state (the regression baseline);
//! * **empty plan** — a seeded plan with no crashes, drops or jitter:
//!   the injector is armed and consulted on every send but never acts,
//!   isolating the pure bookkeeping overhead;
//! * **active plan** — two crashes plus 1% drops and jitter: the full
//!   machinery including read failover and write queueing.
//!
//! The three are timed round-robin, best of [`REPS`] rounds each, so
//! host-speed drift cancels out of the comparison. The artifact uses the
//! shared [`drp_bench::report`] shape; the budget block asserts the
//! off-vs-empty overhead stays small.

use drp_algo::fault_tolerance::ensure_min_degree;
use drp_algo::Sra;
use drp_bench::report::{Budget, Fields, Report};
use drp_bench::{instance, rng};
use drp_core::migration::MigrationPlan;
use drp_core::telemetry;
use drp_core::{Problem, ReplicationAlgorithm, ReplicationScheme};
use drp_net::sim::FaultPlan;
use drp_serve::{execute_migration, EpochTraffic, MigrationOutcome, MigrationTuning};
use std::time::Instant;

/// The armed-but-inert injector must cost no more than this over the
/// injector-off baseline (generous: single-core CI runners are noisy).
const OVERHEAD_BUDGET_PERCENT: f64 = 15.0;

/// Timed rounds per instance size (serving epochs are milliseconds).
const REPS: u32 = 30;

fn serve(
    problem: &Problem,
    scheme: &ReplicationScheme,
    plan: Option<FaultPlan>,
) -> MigrationOutcome {
    execute_migration(
        problem,
        scheme,
        &MigrationPlan::default(),
        plan,
        MigrationTuning::default(),
        Some(EpochTraffic {
            period: 1_000,
            seed: 11,
        }),
        telemetry::noop(),
    )
    .unwrap()
}

/// Events per second of each plan, timed round-robin — one run of every
/// plan per round, best round kept — so host-speed drift hits all plans
/// alike instead of skewing the off-vs-empty overhead. Also returns each
/// plan's (deterministic) event count.
fn timed_events_per_sec(
    problem: &Problem,
    scheme: &ReplicationScheme,
    plans: &[Option<FaultPlan>],
) -> Vec<(f64, u64)> {
    let events: Vec<u64> = plans
        .iter()
        .map(|plan| serve(problem, scheme, plan.clone()).sim_events)
        .collect();
    let mut best = vec![f64::INFINITY; plans.len()];
    for _ in 0..REPS {
        for (i, plan) in plans.iter().enumerate() {
            let started = Instant::now();
            let run = serve(problem, scheme, plan.clone());
            best[i] = best[i].min(started.elapsed().as_secs_f64());
            assert_eq!(
                run.sim_events, events[i],
                "serving epoch must be deterministic"
            );
        }
    }
    best.iter()
        .zip(&events)
        .map(|(&secs, &events)| (events as f64 / secs, events))
        .collect()
}

struct Row {
    sites: usize,
    objects: usize,
    off_events_per_sec: f64,
    empty_events_per_sec: f64,
    active_events_per_sec: f64,
    events_off: u64,
    events_active: u64,
}

fn bench_size(sites: usize, objects: usize) -> Row {
    let problem = instance(sites, objects, 8.0);
    let mut r = rng();
    let mut scheme = Sra::new().solve(&problem, &mut r).unwrap();
    ensure_min_degree(&problem, &mut scheme, 2).unwrap();

    let active = FaultPlan::new(11)
        .crash(1 % sites, 60, 420)
        .crash(3 % sites, 150, 600)
        .drop_probability(0.01)
        .jitter(1);
    let timed = timed_events_per_sec(
        &problem,
        &scheme,
        &[None, Some(FaultPlan::new(11)), Some(active)],
    );
    let [(off, events_off), (empty, _), (active, events_active)] = timed[..] else {
        unreachable!("one timing per plan");
    };

    Row {
        sites,
        objects,
        off_events_per_sec: off,
        empty_events_per_sec: empty,
        active_events_per_sec: active,
        events_off,
        events_active,
    }
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_faults.json".to_string());

    let rows: Vec<Row> = [(10, 20), (20, 40), (40, 80)]
        .into_iter()
        .map(|(m, n)| bench_size(m, n))
        .collect();

    // Injector-off vs armed-but-inert: the pure cost of consulting the
    // plan on every send. Active runs also do different *work* (failover,
    // queued writes), so their events/sec is reported but not an overhead.
    let overhead = |row: &Row| -> f64 {
        100.0 * (row.off_events_per_sec - row.empty_events_per_sec) / row.off_events_per_sec
    };
    let max_overhead = rows.iter().map(overhead).fold(f64::MIN, f64::max);
    let config = drp_bench::thread_fields(
        Fields::new()
            .text("unit", "events_per_sec")
            .int("reps", u64::from(REPS)),
    );
    let mut report = Report::new(
        "faults",
        config,
        Budget::at_most(
            "max_injector_overhead_percent",
            OVERHEAD_BUDGET_PERCENT,
            max_overhead,
        ),
    );
    for row in &rows {
        report.sample(
            Fields::new()
                .int("sites", row.sites as u64)
                .int("objects", row.objects as u64)
                .int("events_off", row.events_off)
                .int("events_active", row.events_active)
                .float("off_events_per_sec", row.off_events_per_sec, 0)
                .float("empty_plan_events_per_sec", row.empty_events_per_sec, 0)
                .float("active_events_per_sec", row.active_events_per_sec, 0)
                .float("injector_overhead_percent", overhead(row), 2),
        );
    }
    report.write(&out_path);
}
