//! The offline-optimal replay oracle: what would full knowledge of the
//! realized trace have cost?
//!
//! [`evaluate`] replays a finished run's epochs under a *clean* model —
//! the exact per-epoch truth the run saw (same TAG_DRIFT/scenario
//! streams), no faults and no admission shedding — and solves a small
//! dynamic program over per-epoch candidate schemes. A clean epoch serves
//! every request of the truth's pattern, so each candidate is billed the
//! analytic Eq. 4 total ([`Problem::total_cost`]), which equals the
//! replay of the epoch's request trace data-unit for data-unit. The
//! candidates are:
//!
//! * the scheme the online run actually served that epoch, and
//! * a hindsight GRA solution computed *on the realized truth* (seeded
//!   from the TAG_ORACLE stream, so the oracle itself is deterministic).
//!
//! Transitions between consecutive epochs are charged the migration
//! plan's transfer cost, exactly like the live executor charges its
//! fetches. The online trajectory is, by construction, one path through
//! this DP, so `OPT <= online` and the reported
//! [`competitive_ratio`](OracleReport::competitive_ratio) is always
//! `>= 1.0` — the gap is what foresight was worth on this trace.
//!
//! The oracle is an offline analysis pass, deliberately kept out of the
//! serving loop: durable runs never compute it, so crash/recovery
//! fingerprints are unaffected.

use drp_algo::Gra;
use drp_core::migration::plan_migration;
use drp_core::{Problem, ReplicationAlgorithm, ReplicationScheme};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use crate::runtime::{mix, ServeConfig, ShiftPlan, TAG_ORACLE};

/// What the offline-optimal replay found.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OracleReport {
    /// Total NTC of the online trajectory under the oracle's clean replay
    /// model (serving + inter-epoch migration).
    pub online_ntc: u64,
    /// Total NTC of the cheapest trajectory through the candidate DP.
    pub opt_ntc: u64,
    /// `online_ntc / opt_ntc`, `>= 1.0` by construction (1.0 when OPT is
    /// zero-cost).
    pub competitive_ratio: f64,
    /// Epochs in which OPT served the hindsight scheme instead of the
    /// online one — where foresight actually changed the placement.
    pub hindsight_epochs: usize,
}

/// Scores a run's online trajectory against the offline optimum.
///
/// `online` holds the realized scheme at the start of every epoch, as
/// collected by [`crate::run_service_with_oracle`].
///
/// # Errors
///
/// Propagates shape errors from the truth replay and the simulator, and
/// solver errors from the hindsight GRA runs.
pub(crate) fn evaluate(
    problem: &Problem,
    config: &ServeConfig,
    online: &[ReplicationScheme],
) -> drp_core::Result<OracleReport> {
    if online.is_empty() {
        return Ok(OracleReport {
            online_ntc: 0,
            opt_ntc: 0,
            competitive_ratio: 1.0,
            hindsight_epochs: 0,
        });
    }

    // Replay the truth and the trace exactly as the run derived them.
    let shift_plan = ShiftPlan::new(problem, config)?;
    let mut truth = problem.clone();
    // DP over two candidates per epoch: 0 = the online scheme, 1 = the
    // hindsight GRA solution. `cost[j]` is the cheapest trajectory ending
    // in candidate j; online_ntc tracks the forced-online path.
    let mut candidates: Vec<[ReplicationScheme; 2]> = Vec::with_capacity(online.len());
    let mut cost = [0u64; 2];
    let mut online_ntc = 0u64;
    // Which predecessor each state came from, for the hindsight count.
    let mut back: Vec<[usize; 2]> = Vec::with_capacity(online.len());
    for (e, online_scheme) in online.iter().enumerate() {
        if e > 0 {
            shift_plan.advance(&mut truth, config, e)?;
        }
        let mut oracle_rng = StdRng::seed_from_u64(mix(&[config.seed, TAG_ORACLE, e as u64]));
        let hindsight =
            Gra::with_config(config.monitor.gra.clone()).solve(&truth, &mut oracle_rng)?;
        let cand = [online_scheme.clone(), hindsight];
        // A clean epoch serves the truth's pattern exactly, so its Eq. 4
        // cost is the analytic total — no trace replay needed.
        let serve = [truth.total_cost(&cand[0]), truth.total_cost(&cand[1])];
        if e == 0 {
            // Epoch 0 serves the bootstrap placement; both trajectories
            // start there free of migration charges (OPT may still swap at
            // the first boundary, paying the move).
            cost = serve;
            online_ntc = serve[0];
            back.push([0, 0]);
        } else {
            let prev = &candidates[e - 1];
            let mut next = [0u64; 2];
            let mut from = [0usize; 2];
            for j in 0..2 {
                let mut best = u64::MAX;
                for i in 0..2 {
                    let migration = plan_migration(&truth, &prev[i], &cand[j])?.transfer_cost();
                    let total = cost[i].saturating_add(migration).saturating_add(serve[j]);
                    if total < best {
                        best = total;
                        from[j] = i;
                    }
                }
                next[j] = best;
            }
            let online_migration = plan_migration(&truth, &prev[0], &cand[0])?.transfer_cost();
            online_ntc = online_ntc
                .saturating_add(online_migration)
                .saturating_add(serve[0]);
            cost = next;
            back.push(from);
        }
        candidates.push(cand);
    }

    let (mut state, opt_ntc) = if cost[1] < cost[0] {
        (1usize, cost[1])
    } else {
        (0usize, cost[0])
    };
    let mut hindsight_epochs = 0usize;
    for e in (0..online.len()).rev() {
        if state == 1 {
            hindsight_epochs += 1;
        }
        state = back[e][state];
    }

    debug_assert!(
        opt_ntc <= online_ntc,
        "online is a DP path, OPT can't exceed it"
    );
    let competitive_ratio = if opt_ntc == 0 {
        1.0
    } else {
        online_ntc as f64 / opt_ntc as f64
    };
    Ok(OracleReport {
        online_ntc,
        opt_ntc,
        competitive_ratio,
        hindsight_epochs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::{run_service_with_oracle, Policy};
    use drp_algo::monitor::MonitorConfig;
    use drp_algo::GraConfig;
    use drp_workload::{Scenario, WorkloadSpec};

    fn monitor_config() -> MonitorConfig {
        MonitorConfig {
            gra: GraConfig {
                population_size: 12,
                generations: 20,
                ..GraConfig::default()
            },
            ..MonitorConfig::default()
        }
    }

    fn problem(seed: u64) -> Problem {
        let mut rng = StdRng::seed_from_u64(seed);
        WorkloadSpec::paper(6, 8, 5.0, 30.0)
            .generate(&mut rng)
            .unwrap()
    }

    #[test]
    fn static_run_under_drift_has_ratio_above_one() {
        let problem = problem(13);
        let config = ServeConfig {
            policy: Policy::Static,
            epochs: 4,
            seed: 13,
            monitor: monitor_config(),
            scenario: Some(Scenario::FlashCrowd),
            ..ServeConfig::default()
        };
        let (report, oracle) = run_service_with_oracle(&problem, &config).unwrap();
        assert!(oracle.competitive_ratio >= 1.0);
        assert_eq!(report.competitive_ratio, oracle.competitive_ratio);
        assert!(oracle.online_ntc >= oracle.opt_ntc);
        // A frozen scheme under a flash crowd leaves real money on the
        // table: OPT must find a strictly cheaper trajectory.
        assert!(
            oracle.competitive_ratio > 1.0,
            "frozen static under a flash crowd should be beatable, got {}",
            oracle.competitive_ratio
        );
    }

    #[test]
    fn oracle_is_deterministic() {
        let problem = problem(17);
        let config = ServeConfig {
            policy: Policy::Monitor,
            epochs: 3,
            seed: 17,
            monitor: monitor_config(),
            scenario: Some(Scenario::DiurnalCycle),
            ..ServeConfig::default()
        };
        let (a, oa) = run_service_with_oracle(&problem, &config).unwrap();
        let (b, ob) = run_service_with_oracle(&problem, &config).unwrap();
        assert_eq!(oa, ob);
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn empty_run_scores_ratio_one() {
        let problem = problem(1);
        let config = ServeConfig {
            epochs: 0,
            monitor: monitor_config(),
            ..ServeConfig::default()
        };
        let oracle = evaluate(&problem, &config, &[]).unwrap();
        assert_eq!(oracle.competitive_ratio, 1.0);
        assert_eq!(oracle.opt_ntc, 0);
    }
}
