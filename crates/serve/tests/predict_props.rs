//! Property tests of the prediction subsystem.
//!
//! The contracts under test:
//!
//! * predictive runs are bitwise deterministic — the [`ServiceReport`]
//!   fingerprint does not move across ingest `threads` ∈ {1, 2, 4} for
//!   either forecaster on any scenario;
//! * scoring a run against the offline-optimal replay oracle never
//!   perturbs the run itself, and every policy × scenario cell has a
//!   competitive ratio ≥ 1.0 (the oracle replays the online trajectory as
//!   one of its own candidate paths, so OPT can never cost more);
//! * forecaster state survives WAL crash-recovery bitwise: a predictive
//!   run resumed from any prefix of the log finishes with the same
//!   fingerprint as the uninterrupted run;
//! * a journaled forecaster snapshot that does not fit the instance is
//!   refused as a WAL mismatch.
//!
//! [`ServiceReport`]: drp_serve::ServiceReport

use std::sync::Arc;

use drp_core::telemetry::InMemoryRecorder;
use drp_core::{CoreError, Problem, ServeError};
use drp_serve::wal::{decode_stream, WalRecord};
use drp_serve::{
    crash_points, run_service, run_service_durable, run_service_recorded, run_service_with_oracle,
    MemWalStore, Policy, PredictSnapshot, ServeConfig, TracingStore, WalTuning,
};
use drp_workload::{Scenario, TopologyKind, WorkloadSpec};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn problem(sites: usize, objects: usize, seed: u64) -> Problem {
    WorkloadSpec::paper(sites, objects, 8.0, 30.0)
        .generate(&mut StdRng::seed_from_u64(seed))
        .unwrap()
}

fn small_monitor() -> drp_algo::monitor::MonitorConfig {
    drp_algo::monitor::MonitorConfig {
        gra: drp_algo::GraConfig {
            population_size: 8,
            generations: 6,
            ..drp_algo::GraConfig::default()
        },
        ..drp_algo::monitor::MonitorConfig::default()
    }
}

fn scenario_config(policy: Policy, scenario: Scenario, seed: u64, threads: usize) -> ServeConfig {
    ServeConfig {
        policy,
        epochs: 4,
        period: 128,
        seed,
        night_every: 3,
        monitor: small_monitor(),
        scenario: Some(scenario),
        threads,
        ..ServeConfig::default()
    }
}

const PREDICTIVE: [Policy; 2] = [Policy::PredictiveEwma, Policy::PredictiveRegression];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]
    #[test]
    fn predictive_fingerprints_do_not_move_across_threads(
        seed in 0u64..1000,
        which in 0usize..5,
    ) {
        let p = problem(6, 8, seed);
        let scenario = Scenario::ALL[which];
        for policy in PREDICTIVE {
            let base = run_service(&p, &scenario_config(policy, scenario, seed, 1)).unwrap();
            for threads in [2usize, 4] {
                let other =
                    run_service(&p, &scenario_config(policy, scenario, seed, threads)).unwrap();
                prop_assert_eq!(
                    base.fingerprint(),
                    other.fingerprint(),
                    "{:?}/{} drifted at threads={}",
                    policy,
                    scenario.name(),
                    threads
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]
    #[test]
    fn every_policy_scenario_cell_scores_ratio_at_least_one(seed in 0u64..1000) {
        // A sparse tree metric: the policies must hold up off the complete
        // graph too.
        let mut spec = WorkloadSpec::paper(5, 6, 8.0, 30.0);
        spec.topology = TopologyKind::Tree { arity: 2 };
        let p = spec.generate(&mut StdRng::seed_from_u64(seed)).unwrap();
        for scenario in Scenario::ALL {
            for policy in Policy::ALL {
                let config = ServeConfig {
                    epochs: 3,
                    ..scenario_config(policy, scenario, seed, 1)
                };
                let (mut report, oracle) = run_service_with_oracle(&p, &config).unwrap();
                prop_assert!(
                    oracle.competitive_ratio >= 1.0,
                    "{:?}/{}: ratio {} < 1",
                    policy,
                    scenario.name(),
                    oracle.competitive_ratio
                );
                // The oracle replays a clean model (no faults, no
                // shedding), so its online figure is self-consistent with
                // OPT rather than with the live billing.
                prop_assert!(oracle.opt_ntc <= oracle.online_ntc);
                prop_assert!(oracle.online_ntc > 0);
                // Scoring is an offline replay: apart from the ratio field
                // it writes, the run itself is untouched.
                let plain = run_service(&p, &config).unwrap();
                report.competitive_ratio = 0.0;
                prop_assert_eq!(plain.fingerprint(), report.fingerprint());
            }
        }
    }
}

#[test]
fn forecaster_state_survives_crash_recovery_bitwise() {
    let p = problem(8, 8, 29);
    for policy in PREDICTIVE {
        let config = ServeConfig {
            wal: WalTuning {
                checkpoint_every: 2,
            },
            ..scenario_config(policy, Scenario::FlashCrowd, 29, 1)
        };
        let mut tracing = TracingStore::default();
        let baseline = run_service_durable(&p, &config, &mut tracing).unwrap();
        let t = &baseline.report.totals;
        assert!(
            t.adaptations + t.rebuilds > 0,
            "{policy:?}: the run under test must retune so the WAL carries forecaster state"
        );
        let fingerprint = baseline.report.fingerprint();

        let points = crash_points(tracing.ops());
        assert!(points.len() > 10, "only {} crash points", points.len());
        // Every third boundary keeps the suite fast; the full sweep lives
        // in crash_sim.rs.
        for &(op, cut) in points.iter().step_by(3) {
            let mut store = MemWalStore::from_bytes(tracing.contents_at(op, cut));
            let recovered = run_service_durable(&p, &config, &mut store)
                .unwrap_or_else(|e| panic!("{policy:?} crash point (op {op}, cut {cut}): {e}"));
            assert_eq!(
                recovered.report.fingerprint(),
                fingerprint,
                "{policy:?} crash point (op {op}, cut {cut}) diverged"
            );
        }
    }
}

#[test]
fn recorded_retune_counters_match_the_report_totals() {
    // The prediction benchmark's shape: 8 sites, 12 objects on a binary
    // tree, 6 epochs, every policy. Every boundary that counts an
    // adaptation or a rebuild in the report must bump the matching
    // recorder counter exactly once.
    let mut spec = WorkloadSpec::paper(8, 12, 6.0, 35.0);
    spec.topology = TopologyKind::Tree { arity: 2 };
    let (mut adaptations, mut rebuilds) = (0, 0);
    for seed in [3u64, 41, 97] {
        let p = spec.generate(&mut StdRng::seed_from_u64(seed)).unwrap();
        for scenario in Scenario::ALL {
            for policy in Policy::ALL {
                let config = ServeConfig {
                    epochs: 6,
                    period: 256,
                    ..scenario_config(policy, scenario, seed, 1)
                };
                let recorder = Arc::new(InMemoryRecorder::new());
                let report = run_service_recorded(&p, &config, recorder.clone()).unwrap();
                let cell = format!("{policy:?}/{}/seed {seed}", scenario.name());
                assert_eq!(
                    recorder.counter("serve.adaptations"),
                    report.totals.adaptations,
                    "{cell}"
                );
                assert_eq!(
                    recorder.counter("serve.rebuilds"),
                    report.totals.rebuilds,
                    "{cell}"
                );
                adaptations += report.totals.adaptations;
                rebuilds += report.totals.rebuilds;
            }
        }
    }
    assert!(
        adaptations > 0 && rebuilds > 0,
        "the sweep must retune both ways"
    );
}

/// Recovery checks the forecaster snapshot it restores against the
/// instance: a CRC-valid log whose forecaster state covers another number
/// of objects, or holds more windows than its depth, is refused with
/// `WalMismatch` — not panicked on mid-run, and not resumed forecasting
/// only a prefix of the objects.
#[test]
fn recovery_refuses_snapshots_of_another_shape() {
    let p = problem(6, 8, 5);
    // No checkpoint within the four epochs: it would compact the log
    // past epoch 1's records.
    let config = ServeConfig {
        wal: WalTuning {
            checkpoint_every: 5,
        },
        ..scenario_config(Policy::PredictiveRegression, Scenario::FlashCrowd, 5, 1)
    };
    let mut store = MemWalStore::default();
    run_service_durable(&p, &config, &mut store).unwrap();
    let records = decode_stream(store.bytes()).records;
    // End the log at epoch 1's commit point, so recovery resumes from the
    // snapshots that record carries.
    let commit = records
        .iter()
        .position(|r| matches!(r, WalRecord::Retune { epoch: 1, .. }))
        .expect("a four-epoch run commits epoch 1");

    type Edit = fn(&mut WalRecord);
    let edits: [(&str, Edit); 3] = [
        ("forecaster windows cut to 3 of 8 objects", |r| {
            predictor(r).windows.iter_mut().for_each(|w| w.truncate(3));
        }),
        ("forecaster holding more windows than its depth", |r| {
            let windows = &mut predictor(r).windows;
            windows.extend(std::iter::repeat_n(windows[0].clone(), 4));
        }),
        ("forecaster windows and EWMA cut to 3 of 8 objects", |r| {
            let snap = predictor(r);
            snap.windows.iter_mut().for_each(|w| w.truncate(3));
            snap.ewma.truncate(3);
        }),
    ];
    for (what, edit) in edits {
        let mut log = records[..=commit].to_vec();
        edit(&mut log[commit]);
        let bytes: Vec<u8> = log.iter().flat_map(WalRecord::frame).collect();
        let err =
            run_service_durable(&p, &config, &mut MemWalStore::from_bytes(bytes)).unwrap_err();
        assert!(
            matches!(err, CoreError::Serve(ServeError::WalMismatch { .. })),
            "{what}: {err}"
        );
    }
}

fn predictor(record: &mut WalRecord) -> &mut PredictSnapshot {
    match record {
        WalRecord::Retune {
            predictor: Some(snap),
            ..
        } => snap,
        _ => panic!("a predictive run's Retune carries a forecaster snapshot"),
    }
}
