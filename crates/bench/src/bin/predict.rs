//! Prediction-policy benchmark: `cargo run --release -p drp-bench
//! --bin predict [out.json]` writes `BENCH_predict.json`.
//!
//! Runs the policy × scenario matrix — the reactive monitor against both
//! predictive policies on every named workload scenario — with each run
//! scored by the offline-optimal replay oracle. Every sample carries the
//! cell's total NTC, its competitive ratio and the deterministic report
//! fingerprint (CI diffs the artifacts of runs at different `DRP_THREADS`
//! to assert bitwise determinism).
//!
//! The budget is the paper-extension claim baked into CI: across all
//! scenarios the *worst* predictive/monitor total-NTC ratio must stay at or
//! below [`RATIO_BUDGET`] — prediction may spend a little on wrong guesses
//! but must never lose more than 5% to the reactive baseline. Two stronger
//! claims are hard asserts: on the periodic scenarios (diurnal,
//! flash-crowd) the *best* predictive policy must strictly beat the
//! reactive monitor, and every competitive ratio must be >= 1.0.

use drp_bench::report::{Budget, Fields, Report};
use drp_serve::{run_service_with_oracle, Policy, ServeConfig};
use drp_workload::{Scenario, TopologyKind, WorkloadSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// Predictive may never bill more than 5% over the reactive monitor.
const RATIO_BUDGET: f64 = 1.05;

const SEED: u64 = 0x9e0d1c7;
const SITES: usize = 8;
const OBJECTS: usize = 12;
const EPOCHS: usize = 6;
const PERIOD: u64 = 256;

/// The reactive monitor against both predictive policies (which run the
/// hot fast path, pre-staged by their forecasts).
const POLICIES: [Policy; 3] = [
    Policy::Monitor,
    Policy::PredictiveEwma,
    Policy::PredictiveRegression,
];

struct Row {
    scenario: &'static str,
    policy: &'static str,
    serving_ntc: u64,
    migration_ntc: u64,
    total_ntc: u64,
    adaptations: u64,
    competitive_ratio: f64,
    online_ntc: u64,
    opt_ntc: u64,
    elapsed_ms: f64,
    fingerprint: String,
}

fn bench_cell(scenario: Scenario, policy: Policy) -> Row {
    let mut spec = WorkloadSpec::paper(SITES, OBJECTS, 6.0, 35.0);
    spec.topology = TopologyKind::Tree { arity: 2 };
    let problem = spec
        .generate(&mut StdRng::seed_from_u64(SEED))
        .expect("benchmark instance generates");
    let config = ServeConfig {
        policy,
        epochs: EPOCHS,
        period: PERIOD,
        seed: SEED,
        scenario: Some(scenario),
        ..ServeConfig::default()
    };
    let started = Instant::now();
    let (report, oracle) = run_service_with_oracle(&problem, &config).expect("service runs");
    let elapsed_ms = started.elapsed().as_secs_f64() * 1e3;
    let t = report.totals;
    Row {
        scenario: scenario.name(),
        policy: policy.name(),
        serving_ntc: t.serving_ntc,
        migration_ntc: t.migration_ntc,
        total_ntc: t.total_ntc,
        adaptations: t.adaptations,
        competitive_ratio: oracle.competitive_ratio,
        online_ntc: oracle.online_ntc,
        opt_ntc: oracle.opt_ntc,
        elapsed_ms,
        fingerprint: format!("{:016x}", report.fingerprint()),
    }
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_predict.json".to_string());

    let mut rows = Vec::new();
    for scenario in Scenario::ALL {
        for policy in POLICIES {
            rows.push(bench_cell(scenario, policy));
        }
    }

    // Every cell's online cost is bounded below by its oracle, and the
    // ratio is recomputable from the two NTCs the artifact carries.
    for row in &rows {
        assert!(
            row.competitive_ratio >= 1.0,
            "{}/{}: competitive ratio {} < 1.0",
            row.scenario,
            row.policy,
            row.competitive_ratio
        );
        let ratio = if row.opt_ntc == 0 {
            1.0
        } else {
            row.online_ntc as f64 / row.opt_ntc as f64
        };
        assert_eq!(
            row.competitive_ratio, ratio,
            "{}/{}: ratio must be online_ntc / opt_ntc",
            row.scenario, row.policy
        );
    }

    // Rows come in fixed monitor/ewma/regression triples per scenario.
    let mut worst_ratio = f64::MIN;
    for triple in rows.chunks(3) {
        let monitor = triple[0].total_ntc as f64;
        let best_predictive = triple[1].total_ntc.min(triple[2].total_ntc) as f64;
        for predictive in &triple[1..] {
            worst_ratio = worst_ratio.max(predictive.total_ntc as f64 / monitor.max(1.0));
        }
        // Foresight must pay on the periodic scenarios.
        if matches!(triple[0].scenario, "diurnal" | "flash-crowd") {
            assert!(
                best_predictive < monitor,
                "{}: best predictive {} must beat reactive monitor {}",
                triple[0].scenario,
                best_predictive,
                monitor
            );
        }
    }

    let config = drp_bench::thread_fields(
        Fields::new()
            .text("unit", "ntc")
            .int("seed", SEED)
            .int("sites", SITES as u64)
            .int("objects", OBJECTS as u64)
            .int("epochs", EPOCHS as u64)
            .int("period", PERIOD),
    );
    let mut report = Report::new(
        "predict",
        config,
        Budget::at_most(
            "predictive_over_monitor_ntc_ratio",
            RATIO_BUDGET,
            worst_ratio,
        ),
    );
    for row in &rows {
        report.sample(
            Fields::new()
                .text("scenario", row.scenario)
                .text("policy", row.policy)
                .int("serving_ntc", row.serving_ntc)
                .int("migration_ntc", row.migration_ntc)
                .int("total_ntc", row.total_ntc)
                .int("adaptations", row.adaptations)
                .float("competitive_ratio", row.competitive_ratio, 4)
                .int("online_ntc", row.online_ntc)
                .int("opt_ntc", row.opt_ntc)
                .float("elapsed_ms", row.elapsed_ms, 1)
                .text("fingerprint", &row.fingerprint),
        );
    }
    report.write(&out_path);
}
