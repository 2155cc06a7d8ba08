//! Closed-loop adaptation benchmark: `cargo run --release -p drp-bench
//! --bin adapt [out.json]` writes `BENCH_adapt.json`.
//!
//! For each paper-style tree instance it runs the `drp_serve` service loop
//! under pattern drift with the static and monitor policies and reports the
//! measured bill — serving NTC plus the migration NTC each policy's
//! reconfigurations cost — together with the wall-clock per run and the
//! deterministic [`ServiceReport`](drp_serve::ServiceReport) fingerprint.
//!
//! The budget asserts the paper's adaptive-beats-frozen claim end to end:
//! the worst monitor/static total-NTC ratio across instance sizes must stay
//! at or below 1.0. The fingerprints let CI assert bitwise determinism
//! across `DRP_THREADS` settings by diffing the artifacts of two runs.

use drp_bench::report::{Budget, Fields, Report};
use drp_serve::{run_service, Policy, ServeConfig};
use drp_workload::{PatternChange, TopologyKind, WorkloadSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// Adaptive must not bill more than frozen under this much drift.
const RATIO_BUDGET: f64 = 1.0;

const SEED: u64 = 0x5e13e;
const EPOCHS: usize = 4;
const PERIOD: u64 = 256;
const NIGHT_EVERY: usize = 3;

fn drift() -> PatternChange {
    PatternChange {
        change_percent: 500.0,
        objects_percent: 40.0,
        read_share: 0.9,
    }
}

struct Row {
    sites: usize,
    objects: usize,
    policy: &'static str,
    serving_ntc: u64,
    migration_ntc: u64,
    total_ntc: u64,
    moves: u64,
    adaptations: u64,
    rebuilds: u64,
    elapsed_ms: f64,
    fingerprint: String,
}

fn bench_policy(sites: usize, objects: usize, policy: Policy) -> Row {
    // Every policy serves the same binary tree, so the comparison is
    // apples-to-apples.
    let mut spec = WorkloadSpec::paper(sites, objects, 6.0, 35.0);
    spec.topology = TopologyKind::Tree { arity: 2 };
    let problem = spec
        .generate(&mut StdRng::seed_from_u64(SEED))
        .expect("benchmark instance generates");
    let config = ServeConfig {
        policy,
        epochs: EPOCHS,
        period: PERIOD,
        seed: SEED,
        night_every: NIGHT_EVERY,
        drift: Some(drift()),
        ..ServeConfig::default()
    };
    let started = Instant::now();
    let report = run_service(&problem, &config).expect("service runs");
    let elapsed_ms = started.elapsed().as_secs_f64() * 1e3;
    let t = report.totals;
    Row {
        sites,
        objects,
        policy: policy.name(),
        serving_ntc: t.serving_ntc,
        migration_ntc: t.migration_ntc,
        total_ntc: t.total_ntc,
        moves: t.migration_moves,
        adaptations: t.adaptations,
        rebuilds: t.rebuilds,
        elapsed_ms,
        fingerprint: format!("{:016x}", report.fingerprint()),
    }
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_adapt.json".to_string());

    let mut rows = Vec::new();
    for (sites, objects) in [(8, 12), (12, 20)] {
        for policy in [Policy::Static, Policy::Monitor] {
            rows.push(bench_policy(sites, objects, policy));
        }
    }

    // Worst monitor/static ratio across sizes; rows come in fixed
    // static-monitor pairs per size.
    let worst_ratio = rows
        .chunks(2)
        .map(|pair| pair[1].total_ntc as f64 / (pair[0].total_ntc as f64).max(1.0))
        .fold(f64::MIN, f64::max);

    let config = drp_bench::thread_fields(
        Fields::new()
            .text("unit", "ntc")
            .int("seed", SEED)
            .int("epochs", EPOCHS as u64)
            .int("period", PERIOD)
            .int("night_every", NIGHT_EVERY as u64)
            .float("drift_change_percent", drift().change_percent, 0)
            .float("drift_objects_percent", drift().objects_percent, 0)
            .float("drift_read_share", drift().read_share, 2),
    );
    let mut report = Report::new(
        "adapt",
        config,
        Budget::at_most("monitor_over_static_ntc_ratio", RATIO_BUDGET, worst_ratio),
    );
    for row in &rows {
        report.sample(
            Fields::new()
                .int("sites", row.sites as u64)
                .int("objects", row.objects as u64)
                .text("policy", row.policy)
                .int("serving_ntc", row.serving_ntc)
                .int("migration_ntc", row.migration_ntc)
                .int("total_ntc", row.total_ntc)
                .int("moves", row.moves)
                .int("adaptations", row.adaptations)
                .int("rebuilds", row.rebuilds)
                .float("elapsed_ms", row.elapsed_ms, 1)
                .text("fingerprint", &row.fingerprint),
        );
    }
    report.write(&out_path);
}
