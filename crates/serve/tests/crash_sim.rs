//! Deterministic crash-point simulation for the durable serving runtime.
//!
//! The harness runs one uncrashed durable service on a [`TracingStore`],
//! which records every durable operation the run performed. Each
//! WAL-record boundary inside those operations is then treated as a crash
//! point: the on-disk state a real crash would leave is reconstructed
//! byte-for-byte, a fresh runtime recovers from it and finishes the run,
//! and the recovered [`ServiceReport`] fingerprint must be bitwise equal
//! to the uncrashed run's. Torn mid-record prefixes (the other crash axis)
//! are sampled by a property test.
//!
//! Run under `DRP_THREADS` ∈ {1, 2} in CI — the fingerprints must not
//! move.

use drp_core::{CoreError, ServeError};
use drp_serve::wal::{decode_stream, WalRecord, WAL_VERSION};
use drp_serve::{
    crash_points, run_service, run_service_durable, FaultSpec, MemWalStore, Policy, ServeConfig,
    TracingStore, WalStore, WalTuning,
};
use drp_workload::{PatternChange, WorkloadSpec};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn problem(seed: u64) -> drp_core::Problem {
    let mut rng = StdRng::seed_from_u64(seed);
    WorkloadSpec::paper(6, 8, 5.0, 30.0)
        .generate(&mut rng)
        .unwrap()
}

fn monitor_config() -> drp_algo::monitor::MonitorConfig {
    use drp_algo::GraConfig;
    drp_algo::monitor::MonitorConfig {
        gra: GraConfig {
            population_size: 8,
            generations: 8,
            ..GraConfig::default()
        },
        ..drp_algo::monitor::MonitorConfig::default()
    }
}

/// A config that exercises every journaled path: drift (so the monitor
/// adapts and snapshots ride the Retune records), a nightly rebuild,
/// faults (so migration retries/re-sourcing appear), admission shedding,
/// and checkpoints mid-run. Five epochs, so the rebuild at epoch 2 is
/// followed by migrating epochs: crash points then sit on both sides of
/// epochs whose migrations install replicas and retry fetches.
fn config(seed: u64) -> ServeConfig {
    ServeConfig {
        policy: Policy::Monitor,
        epochs: 5,
        seed,
        night_every: 3,
        admission_limit: 24,
        monitor: monitor_config(),
        drift: Some(PatternChange {
            change_percent: 600.0,
            objects_percent: 50.0,
            read_share: 0.9,
        }),
        faults: Some(FaultSpec {
            crashes: vec![(1, 10, 60)],
            drop_probability: 0.02,
            jitter: 2,
        }),
        wal: WalTuning {
            checkpoint_every: 2,
        },
        ..ServeConfig::default()
    }
}

#[test]
fn durable_fresh_run_matches_the_in_memory_run() {
    let problem = problem(17);
    let config = config(17);
    let plain = run_service(&problem, &config).unwrap();
    let mut store = MemWalStore::default();
    let durable = run_service_durable(&problem, &config, &mut store).unwrap();
    assert!(durable.recovery.is_none());
    assert_eq!(plain.fingerprint(), durable.report.fingerprint());
    assert!(!store.bytes().is_empty(), "the run must have journaled");
}

#[test]
fn every_record_boundary_crash_recovers_bitwise_identically() {
    let problem = problem(17);
    let config = config(17);
    let mut tracing = TracingStore::default();
    let baseline = run_service_durable(&problem, &config, &mut tracing).unwrap();
    let fingerprint = baseline.report.fingerprint();
    let epochs = &baseline.report.epochs;
    assert!(
        epochs.iter().any(|e| e.migration_planned > 0),
        "no epoch migrated — no crash point sits inside a migration"
    );
    assert!(
        epochs.iter().any(|e| e.migration_retries > 0),
        "no migration retried — the fault path never ran"
    );

    let points = crash_points(tracing.ops());
    assert!(
        points.len() > 20,
        "only {} crash points — the run journaled too little",
        points.len()
    );
    let mut resumed_late = 0usize;
    for &(op, cut) in &points {
        let disk = tracing.contents_at(op, cut);
        let mut store = MemWalStore::from_bytes(disk);
        let recovered = run_service_durable(&problem, &config, &mut store)
            .unwrap_or_else(|e| panic!("crash point (op {op}, cut {cut}) failed: {e}"));
        assert_eq!(
            recovered.report.fingerprint(),
            fingerprint,
            "crash point (op {op}, cut {cut}) diverged"
        );
        assert_eq!(recovered.report.epochs.len(), config.epochs);
        if let Some(info) = &recovered.recovery {
            assert!(info.damage.is_none(), "boundary cuts are never torn");
            if info.resumed_epoch > 0 {
                resumed_late += 1;
            }
        }
    }
    assert!(
        resumed_late > 0,
        "no crash point resumed past epoch 0 — commit points never engaged"
    );
}

#[test]
fn a_recovered_store_continues_to_be_crash_durable() {
    // Crash once mid-run, recover on a tracing store, crash the *recovered*
    // run at its first new boundary, recover again: still bitwise equal.
    let problem = problem(17);
    let config = config(17);
    let mut tracing = TracingStore::default();
    let baseline = run_service_durable(&problem, &config, &mut tracing).unwrap();
    let points = crash_points(tracing.ops());
    let &(op, cut) = points.get(points.len() / 2).unwrap();

    let mut second = TracingStore::default();
    second.reset(&tracing.contents_at(op, cut)).unwrap();
    let once = run_service_durable(&problem, &config, &mut second).unwrap();
    assert_eq!(once.report.fingerprint(), baseline.report.fingerprint());

    let second_points = crash_points(second.ops());
    let &(op2, cut2) = second_points.last().unwrap();
    let mut third = MemWalStore::from_bytes(second.contents_at(op2, cut2));
    let twice = run_service_durable(&problem, &config, &mut third).unwrap();
    assert_eq!(twice.report.fingerprint(), baseline.report.fingerprint());
}

#[test]
fn recovering_a_completed_log_replays_without_rerunning() {
    let problem = problem(29);
    let config = config(29);
    let mut store = MemWalStore::default();
    let first = run_service_durable(&problem, &config, &mut store).unwrap();
    let again = run_service_durable(&problem, &config, &mut store).unwrap();
    let info = again.recovery.expect("second run must recover");
    assert_eq!(info.resumed_epoch, config.epochs);
    assert_eq!(info.damage, None);
    assert_eq!(first.report, again.report);
}

#[test]
fn corrupt_middle_record_is_dropped_reported_and_survived() {
    let problem = problem(17);
    let config = config(17);
    let mut store = MemWalStore::default();
    let baseline = run_service_durable(&problem, &config, &mut store).unwrap();

    // Flip a byte ~80% into the log: everything after the damage (late
    // records of the final epochs) is dropped, recovery re-runs it.
    let mut bytes = store.bytes().to_vec();
    let at = bytes.len() * 4 / 5;
    bytes[at] ^= 0x40;
    let mut damaged = MemWalStore::from_bytes(bytes);
    let recovered = run_service_durable(&problem, &config, &mut damaged).unwrap();
    let info = recovered.recovery.expect("must have recovered");
    assert!(
        matches!(
            info.damage,
            Some(ServeError::WalCorrupt { .. }) | Some(ServeError::WalTruncated { .. })
        ),
        "damage must be classified, got {:?}",
        info.damage
    );
    assert_eq!(
        recovered.report.fingerprint(),
        baseline.report.fingerprint()
    );
}

#[test]
fn recovery_refuses_a_foreign_log() {
    let problem = problem(17);
    let mut store = MemWalStore::default();
    run_service_durable(&problem, &config(17), &mut store).unwrap();

    // Same problem, different seed: the log must be rejected, not resumed.
    let err = run_service_durable(&problem, &config(18), &mut store).unwrap_err();
    assert!(
        matches!(err, CoreError::Serve(ServeError::WalMismatch { .. })),
        "{err}"
    );

    // Different instance under the same seed: also rejected.
    let other = self::problem(31);
    let err = run_service_durable(&other, &config(17), &mut store).unwrap_err();
    assert!(
        matches!(err, CoreError::Serve(ServeError::WalMismatch { .. })),
        "{err}"
    );
}

#[test]
fn degenerate_tuning_is_rejected_up_front() {
    let problem = problem(17);
    let mut config = config(17);
    config.wal.checkpoint_every = 0;
    let mut store = MemWalStore::default();
    assert!(run_service_durable(&problem, &config, &mut store).is_err());

    let mut config = self::config(17);
    config.tuning.rpc_timeout = 0;
    assert!(run_service(&problem, &config).is_err());

    let mut config = self::config(17);
    config.tuning.max_attempts = 0;
    assert!(run_service(&problem, &config).is_err());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(
        std::env::var("PROPTEST_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(12)
    ))]

    /// Torn-write prefixes: cut a durable operation at an arbitrary byte
    /// (usually mid-record). Recovery must classify the torn tail, drop
    /// it, and still finish bitwise-identically.
    #[test]
    fn torn_write_prefixes_recover_bitwise_identically(op_pick in 0usize..1000, cut_pick in 0usize..4096) {
        let problem = problem(17);
        let config = config(17);
        let mut tracing = TracingStore::default();
        let baseline = run_service_durable(&problem, &config, &mut tracing).unwrap();

        let ops = tracing.ops();
        let op = op_pick % ops.len();
        let cut = if ops[op].bytes.is_empty() { 0 } else { cut_pick % ops[op].bytes.len() };
        let mut store = MemWalStore::from_bytes(tracing.contents_at(op, cut));
        let recovered = run_service_durable(&problem, &config, &mut store).unwrap();
        prop_assert_eq!(recovered.report.fingerprint(), baseline.report.fingerprint());
        prop_assert_eq!(recovered.report.epochs.len(), config.epochs);
    }
}

#[test]
fn torn_run_start_header_restarts_the_run() {
    let problem = problem(17);
    let config = config(17);
    let mut tracing = TracingStore::default();
    let baseline = run_service_durable(&problem, &config, &mut tracing).unwrap();
    let header = tracing.ops()[0].bytes.clone();
    assert!(!tracing.ops()[0].reset, "the header is the first append");

    // Every proper prefix of the header: nothing was committed, so the run
    // starts over from epoch 0 and reports the torn header as damage.
    for cut in 1..header.len() {
        let mut store = MemWalStore::from_bytes(tracing.contents_at(0, cut));
        let recovered = run_service_durable(&problem, &config, &mut store)
            .unwrap_or_else(|e| panic!("header cut at {cut} failed: {e}"));
        assert_eq!(
            recovered.report.fingerprint(),
            baseline.report.fingerprint(),
            "header cut at {cut} diverged"
        );
        let info = recovered.recovery.expect("a torn header is a recovery");
        assert_eq!((info.resumed_epoch, info.dropped_records), (0, 0));
        assert!(
            matches!(
                info.damage,
                Some(ServeError::WalTruncated { record: 0, .. })
            ),
            "header cut at {cut}: {:?}",
            info.damage
        );
        assert_eq!(store.bytes(), tracing.bytes(), "header cut at {cut}");
    }

    // A torn prefix of another run's header is still foreign. (Cuts inside
    // the length word are byte-identical for every run's header.)
    let mut other = TracingStore::default();
    run_service_durable(&problem, &self::config(18), &mut other).unwrap();
    let foreign = &other.ops()[0].bytes;
    for cut in [8, 20, foreign.len() - 1] {
        let mut store = MemWalStore::from_bytes(foreign[..cut].to_vec());
        let err = run_service_durable(&problem, &config, &mut store).unwrap_err();
        assert!(
            matches!(err, CoreError::Serve(ServeError::WalMismatch { .. })),
            "foreign header cut at {cut}: {err}"
        );
    }
}

#[test]
fn recovery_refuses_a_log_of_another_format_version() {
    let problem = problem(17);
    let config = config(17);
    let mut store = MemWalStore::default();
    run_service_durable(&problem, &config, &mut store).unwrap();

    // Same run, header rewritten to claim v4 — the format whose forecaster
    // snapshots still carried per-site demand.
    assert_eq!(WAL_VERSION, 5);
    let mut records = decode_stream(store.bytes()).records;
    let WalRecord::RunStart { version, .. } = &mut records[0] else {
        panic!("log must begin with RunStart");
    };
    *version = 4;
    let bytes: Vec<u8> = records.iter().flat_map(WalRecord::frame).collect();
    let err =
        run_service_durable(&problem, &config, &mut MemWalStore::from_bytes(bytes)).unwrap_err();
    let CoreError::Serve(ServeError::WalMismatch { reason }) = &err else {
        panic!("expected a version mismatch, got {err}");
    };
    assert!(reason.contains("v4") && reason.contains("v5"), "{reason}");
}
