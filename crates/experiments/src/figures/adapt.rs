//! Online adaptation study — the closed-loop extension.
//!
//! The paper's Section 5 motivates AGRA with a drifting access pattern but
//! evaluates it offline, one re-optimization at a time. This experiment
//! closes the loop with `drp_serve`: a long-running service streams timed
//! requests through the simulator epoch by epoch while the true pattern
//! drifts, and the policies compete on the *measured* bill — serving NTC
//! plus the migration NTC their adaptations cost:
//!
//! * **static** — the bootstrap GRA scheme, frozen;
//! * **monitor** — windowed statistics into the replication monitor (AGRA
//!   by day, full GRA every `night_every`-th boundary).
//!
//! The scenario matrix adds the two predictive policies. All of them run on the same binary-tree topology and the same seeds, so
//! they serve byte-identical traffic and differ only in how they adapt.

use std::sync::Arc;

use drp_core::telemetry::{self, Recorder};
use drp_serve::{run_service_recorded, run_service_with_oracle, Policy, ServeConfig};
use drp_workload::{PatternChange, Scenario, TopologyKind, WorkloadSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::figures::mix_seed;
use crate::table::fmt2;
use crate::{aggregate, run_parallel, Scale, Table};

/// Adaptation-study parameters.
#[derive(Debug, Clone)]
pub struct Params {
    /// Instance shape.
    pub size: (usize, usize),
    /// Serving epochs per run.
    pub epochs: usize,
    /// Simulated time units per epoch.
    pub period: u64,
    /// Pattern drift applied before every epoch after the first.
    pub drift: PatternChange,
    /// Every k-th boundary is a nightly GRA rebuild (monitor policy only).
    pub night_every: usize,
    /// Capacity percentage.
    pub capacity: f64,
    /// Instances per policy.
    pub instances: usize,
    /// Base seed.
    pub seed: u64,
}

impl Params {
    /// The reproduction defaults for a scale.
    pub fn from_scale(scale: Scale, seed: u64) -> Self {
        Self {
            size: match scale {
                Scale::Quick => (7, 10),
                Scale::Full => (15, 25),
            },
            epochs: match scale {
                Scale::Quick => 3,
                Scale::Full => 6,
            },
            period: 256,
            drift: PatternChange {
                change_percent: 500.0,
                objects_percent: 40.0,
                read_share: 0.9,
            },
            night_every: 3,
            capacity: 35.0,
            instances: scale.instances(),
            seed,
        }
    }
}

/// Rows of the drift study; `static` comes first because every row is
/// reported relative to it.
const VARIANTS: [Policy; 2] = [Policy::Static, Policy::Monitor];

/// Rows of the policy × scenario matrix; `monitor` comes first because
/// every other row is reported relative to it.
const MATRIX_POLICIES: [Policy; 4] = [
    Policy::Monitor,
    Policy::Static,
    Policy::PredictiveEwma,
    Policy::PredictiveRegression,
];

/// Runs the adaptation study: cumulative NTC per policy under drift, then
/// the policy × scenario matrix scored against the offline oracle.
pub fn run(params: &Params) -> Vec<Table> {
    run_recorded(params, telemetry::noop())
}

/// [`run`] with a telemetry recorder observing every service run (one
/// `adapt.policy` span per policy plus the `serve.*` telemetry of every
/// epoch).
pub fn run_recorded(params: &Params, recorder: Arc<dyn Recorder>) -> Vec<Table> {
    vec![
        drift_table(params, Arc::clone(&recorder)),
        matrix_table(params, recorder),
    ]
}

/// The original drift study: cumulative NTC per policy under uniform drift.
fn drift_table(params: &Params, recorder: Arc<dyn Recorder>) -> Table {
    let (m, n) = params.size;
    let mut spec = WorkloadSpec::paper(m, n, 6.0, params.capacity);
    spec.topology = TopologyKind::Tree { arity: 2 };
    let mut table = Table::new(
        "online_adaptation_vs_drift",
        vec![
            "policy".into(),
            "serving NTC".into(),
            "migration NTC".into(),
            "total NTC".into(),
            "vs static %".into(),
            "adaptations".into(),
            "rebuilds".into(),
            "moves".into(),
            "stale reads".into(),
        ],
    );
    let mut static_total = None;
    for policy in VARIANTS {
        let label = policy.name();
        let _point = telemetry::span(recorder.as_ref(), "adapt.policy");
        let runs = run_parallel(params.instances, |instance| {
            let seed = mix_seed(&[params.seed, 0xADA7, instance as u64]);
            let mut rng = StdRng::seed_from_u64(seed);
            let problem = spec.generate(&mut rng).expect("valid spec");
            let config = ServeConfig {
                policy,
                epochs: params.epochs,
                period: params.period,
                seed,
                night_every: params.night_every,
                drift: Some(params.drift),
                ..ServeConfig::default()
            };
            let report =
                run_service_recorded(&problem, &config, Arc::clone(&recorder)).expect("serve runs");
            let t = report.totals;
            [
                t.serving_ntc as f64,
                t.migration_ntc as f64,
                t.total_ntc as f64,
                t.adaptations as f64,
                t.rebuilds as f64,
                t.migration_moves as f64,
                t.reads_stale as f64,
            ]
        });
        let mean = |metric: usize| {
            let values: Vec<f64> = runs.iter().map(|r| r[metric]).collect();
            aggregate(&values).mean
        };
        let total = mean(2);
        let baseline = *static_total.get_or_insert(total);
        table.push_row(vec![
            label.into(),
            fmt2(mean(0)),
            fmt2(mean(1)),
            fmt2(total),
            fmt2(100.0 * total / baseline.max(1.0)),
            fmt2(mean(3)),
            fmt2(mean(4)),
            fmt2(mean(5)),
            fmt2(mean(6)),
        ]);
        eprintln!("  [adapt] policy {label} done");
    }
    table
}

/// The policy × scenario matrix: every adaptation policy on every named
/// scenario, each run scored against the offline-optimal replay oracle.
/// The `offline-opt` row anchors each scenario block at OPT itself
/// (competitive ratio 1.0 by definition), taken from the monitor cell's
/// oracle.
fn matrix_table(params: &Params, recorder: Arc<dyn Recorder>) -> Table {
    let (m, n) = params.size;
    let mut spec = WorkloadSpec::paper(m, n, 6.0, params.capacity);
    spec.topology = TopologyKind::Tree { arity: 2 };
    let mut table = Table::new(
        "policy_x_scenario_competitive",
        vec![
            "scenario".into(),
            "policy".into(),
            "serving NTC".into(),
            "migration NTC".into(),
            "total NTC".into(),
            "vs monitor %".into(),
            "competitive ratio".into(),
            "adaptations".into(),
            "rebuilds".into(),
        ],
    );
    for scenario in Scenario::ALL {
        let _point = telemetry::span(recorder.as_ref(), "adapt.scenario");
        let mut monitor_total = None;
        let mut monitor_opt = 0.0f64;
        for policy in MATRIX_POLICIES {
            let label = policy.name();
            let runs = run_parallel(params.instances, |instance| {
                let seed = mix_seed(&[params.seed, 0xADA7, instance as u64]);
                let mut rng = StdRng::seed_from_u64(seed);
                let problem = spec.generate(&mut rng).expect("valid spec");
                let config = ServeConfig {
                    policy,
                    epochs: params.epochs,
                    period: params.period,
                    seed,
                    night_every: params.night_every,
                    scenario: Some(scenario),
                    ..ServeConfig::default()
                };
                let (report, oracle) =
                    run_service_with_oracle(&problem, &config).expect("serve runs");
                let t = report.totals;
                [
                    t.serving_ntc as f64,
                    t.migration_ntc as f64,
                    t.total_ntc as f64,
                    oracle.competitive_ratio,
                    t.adaptations as f64,
                    t.rebuilds as f64,
                    oracle.opt_ntc as f64,
                ]
            });
            let mean = |metric: usize| {
                let values: Vec<f64> = runs.iter().map(|r| r[metric]).collect();
                aggregate(&values).mean
            };
            let total = mean(2);
            if policy == Policy::Monitor {
                monitor_total = Some(total);
                monitor_opt = mean(6);
            }
            let baseline = monitor_total.unwrap_or(total);
            table.push_row(vec![
                scenario.name().into(),
                label.into(),
                fmt2(mean(0)),
                fmt2(mean(1)),
                fmt2(total),
                fmt2(100.0 * total / baseline.max(1.0)),
                fmt2(mean(3)),
                fmt2(mean(4)),
                fmt2(mean(5)),
            ]);
            eprintln!("  [adapt] scenario {} policy {label} done", scenario.name());
        }
        table.push_row(vec![
            scenario.name().into(),
            "offline-opt".into(),
            "-".into(),
            "-".into(),
            fmt2(monitor_opt),
            fmt2(100.0 * monitor_opt / monitor_total.unwrap_or(monitor_opt).max(1.0)),
            fmt2(1.0),
            "-".into(),
            "-".into(),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_params() -> Params {
        Params {
            size: (7, 8),
            epochs: 3,
            period: 128,
            drift: PatternChange {
                change_percent: 600.0,
                objects_percent: 50.0,
                read_share: 0.9,
            },
            night_every: 0,
            capacity: 35.0,
            instances: 2,
            seed: 2,
        }
    }

    #[test]
    fn adaptive_policies_beat_the_frozen_baseline() {
        let table = drift_table(&tiny_params(), telemetry::noop());
        let rows = &table.rows;
        assert_eq!(rows.len(), 2);
        let total = |row: &[String]| -> f64 { row[3].parse().unwrap() };
        let static_total = total(&rows[0]);
        let monitor_total = total(&rows[1]);
        assert_eq!(rows[0][0], "static");
        assert_eq!(rows[1][0], "monitor");
        assert!(
            monitor_total < static_total,
            "monitor {monitor_total} must beat static {static_total} under drift"
        );
        assert!(
            rows[1][5].parse::<f64>().unwrap() > 0.0,
            "drift this strong must trigger adaptations"
        );
        // The relative column anchors at the frozen baseline.
        assert_eq!(rows[0][4], "100.00");
    }

    #[test]
    fn matrix_covers_every_scenario_and_ratios_stay_feasible() {
        let params = Params {
            instances: 1,
            epochs: 2,
            size: (6, 7),
            ..tiny_params()
        };
        let table = matrix_table(&params, telemetry::noop());
        // 4 policies + the offline-opt anchor per scenario.
        assert_eq!(table.rows.len(), Scenario::ALL.len() * 5);
        for row in &table.rows {
            let ratio: f64 = row[6].parse().unwrap();
            assert!(
                ratio >= 1.0,
                "competitive ratio must be >= 1.0, got {ratio} for {}/{}",
                row[0],
                row[1]
            );
        }
        // Every scenario block anchors its OPT row at ratio 1.0.
        for block in table.rows.chunks(5) {
            assert_eq!(block[0][1], "monitor");
            assert_eq!(block[4][1], "offline-opt");
            assert_eq!(block[4][6], "1.00");
            // "vs monitor %" anchors at the reactive monitor.
            assert_eq!(block[0][5], "100.00");
        }
    }
}
