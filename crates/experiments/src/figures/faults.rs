//! Fault-injection study — a robustness extension.
//!
//! The paper optimizes placements for a failure-free network; this
//! experiment asks what those placements cost clients when sites actually
//! crash. For a sweep over the number of simultaneously crashed sites, it
//! serves one period of an instance's pattern against an SRA placement
//! (topped up to a degree floor) on the `drp-serve` epoch engine under
//! seeded crash schedules, and reports the client-observed degradation:
//! share of reads that failed over to a farther live holder, reads and
//! writes lost, stale reads, and writes that queued for a dark primary.

use std::sync::Arc;

use drp_algo::fault_tolerance::ensure_min_degree;
use drp_algo::Sra;
use drp_core::migration::MigrationPlan;
use drp_core::telemetry::{self, Recorder};
use drp_core::ReplicationAlgorithm;
use drp_net::sim::FaultPlan;
use drp_serve::{execute_migration, EpochTraffic, MigrationTuning};
use drp_workload::WorkloadSpec;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::figures::mix_seed;
use crate::table::fmt2;
use crate::{aggregate, run_parallel, Scale, Table};

/// Fault-study parameters.
#[derive(Debug, Clone)]
pub struct Params {
    /// Instance shape.
    pub size: (usize, usize),
    /// How many sites each schedule crashes (0 = injector baseline).
    pub crash_counts: Vec<usize>,
    /// Per-message drop probability layered on top of the crashes.
    pub drop_probability: f64,
    /// Capacity percentage.
    pub capacity: f64,
    /// Min-degree floor the placement is topped up to before serving.
    pub min_degree: usize,
    /// Instances per crash count.
    pub instances: usize,
    /// Base seed.
    pub seed: u64,
}

impl Params {
    /// The reproduction defaults for a scale.
    pub fn from_scale(scale: Scale, seed: u64) -> Self {
        Self {
            size: match scale {
                Scale::Quick => (10, 12),
                Scale::Full => (20, 30),
            },
            crash_counts: vec![0, 1, 2, 3],
            drop_probability: 0.01,
            capacity: 60.0,
            min_degree: 2,
            instances: scale.instances(),
            seed,
        }
    }
}

/// One crash schedule: `count` distinct sites go down for staggered,
/// overlapping windows inside the client horizon.
fn plan_for(seed: u64, count: usize, num_sites: usize, drop: f64) -> Option<FaultPlan> {
    if count == 0 && drop == 0.0 {
        return None;
    }
    let mut plan = FaultPlan::new(seed).drop_probability(drop);
    for c in 0..count.min(num_sites.saturating_sub(1)) {
        // Distinct victims spread over the ring of sites; windows overlap
        // so multi-crash schedules really do lose several sites at once.
        let site = (seed as usize + c * (num_sites / count.max(1)).max(1)) % num_sites;
        let from = 60 + 40 * c as u64;
        let until = 420 + 60 * c as u64;
        plan = plan.crash(site, from, until);
    }
    Some(plan)
}

/// Simulated time units the client requests spread over; the crash
/// windows of [`plan_for`] fall inside it.
const HORIZON: u64 = 1_000;

/// Runs the fault study: client-observed degradation vs crashed sites.
pub fn run(params: &Params) -> Vec<Table> {
    run_recorded(params, telemetry::noop())
}

/// [`run`] with a telemetry recorder observing every simulator run: one
/// `faults.point` span per crash count plus the aggregated `serve.epoch` /
/// `sim.*` / `fault.*` telemetry of every serving epoch.
pub fn run_recorded(params: &Params, recorder: Arc<dyn Recorder>) -> Vec<Table> {
    let (m, n) = params.size;
    let mut table = Table::new(
        "degradation_vs_crashed_sites",
        vec![
            "crashed".into(),
            "failed-over reads %".into(),
            "lost reads %".into(),
            "stale reads".into(),
            "queued writes".into(),
            "lost writes".into(),
        ],
    );
    for &count in &params.crash_counts {
        let _point = telemetry::span(recorder.as_ref(), "faults.point");
        let spec = WorkloadSpec::paper(m, n, 8.0, params.capacity);
        let runs = run_parallel(params.instances, |instance| {
            let seed = mix_seed(&[params.seed, 0xFA17, count as u64, instance as u64]);
            let mut rng = StdRng::seed_from_u64(seed);
            let problem = spec.generate(&mut rng).expect("valid spec");
            let mut scheme = Sra::new().solve(&problem, &mut rng).expect("SRA runs");
            ensure_min_degree(&problem, &mut scheme, params.min_degree).expect("top-up runs");
            let run = execute_migration(
                &problem,
                &scheme,
                &MigrationPlan::default(),
                plan_for(seed, count, m, params.drop_probability),
                MigrationTuning::default(),
                Some(EpochTraffic {
                    period: HORIZON,
                    seed,
                }),
                Arc::clone(&recorder),
            )
            .expect("serving epoch");
            let r = run.requests;
            let reads = r.reads_issued.max(1) as f64;
            [
                100.0 * r.reads_failed_over as f64 / reads,
                100.0 * r.reads_lost() as f64 / reads,
                r.reads_stale as f64,
                r.writes_queued as f64,
                r.writes_lost() as f64,
            ]
        });
        let mut row = vec![count.to_string()];
        for metric in 0..5 {
            let values: Vec<f64> = runs.iter().map(|r| r[metric]).collect();
            row.push(fmt2(aggregate(&values).mean));
        }
        table.push_row(row);
        eprintln!("  [faults] {count} crashed site(s) done");
    }
    vec![table]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_params() -> Params {
        Params {
            size: (8, 6),
            crash_counts: vec![0, 2],
            drop_probability: 0.0,
            capacity: 70.0,
            min_degree: 2,
            instances: 2,
            seed: 4,
        }
    }

    #[test]
    fn fault_study_runs_and_degradation_grows_with_crashes() {
        let tables = run(&tiny_params());
        assert_eq!(tables[0].rows.len(), 2);
        let cell = |row: &[String], col: usize| -> f64 { row[col].parse().unwrap() };
        let (baseline, crashed) = (&tables[0].rows[0], &tables[0].rows[1]);
        // Stale reads happen without faults too (updates race reads).
        for col in [1, 2, 4, 5] {
            assert_eq!(cell(baseline, col), 0.0, "no degradation without faults");
        }
        assert!(cell(crashed, 1) > 0.0, "crashes must force read failover");
        assert!(cell(crashed, 2) > 0.0, "dark sites lose their own requests");
    }

    #[test]
    fn fault_study_is_deterministic() {
        let a = run(&tiny_params());
        let b = run(&tiny_params());
        assert_eq!(a[0].rows, b[0].rows);
    }

    #[test]
    fn recorded_study_matches_plain_and_aggregates_telemetry() {
        use drp_core::telemetry::InMemoryRecorder;

        let params = tiny_params();
        let plain = run(&params);
        let recorder = Arc::new(InMemoryRecorder::new());
        let recorded = run_recorded(&params, recorder.clone());
        assert_eq!(
            plain[0].rows, recorded[0].rows,
            "recording must not perturb results"
        );
        assert_eq!(
            recorder.span_count("faults.point"),
            params.crash_counts.len() as u64
        );
        // Every (crash count, instance) pair is one serving epoch.
        assert_eq!(
            recorder.span_count("serve.epoch"),
            (params.crash_counts.len() * params.instances) as u64
        );
        assert!(recorder.counter("sim.events") > 0);
    }
}
