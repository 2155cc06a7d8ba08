//! Property and parity tests of the ingestion front end and the
//! hot-object fast path.
//!
//! The contracts under test:
//!
//! * per-site conservation — `offered == admitted + shed` at every site,
//!   under bursty tiny batches and depth-1 bounded channels (the
//!   configuration that maximizes producer blocking);
//! * thread-count independence — queues, admission reports and the
//!   observation window are bitwise-equal for any worker count, and the
//!   full closed-loop [`ServiceReport`] fingerprint does not move across
//!   `threads` ∈ {1, 2, 4}, with and without the hot path;
//! * the hot fast path never bills more total NTC than the same run
//!   without it (every boost is admitted only when the modeled saving
//!   covers its fetch);
//! * hot detector state survives WAL crash-recovery bitwise.
//!
//! [`ServiceReport`]: drp_serve::ServiceReport

use drp_core::{DenseMatrix, Problem};
use drp_serve::{
    crash_points, ingest_epoch, run_service, run_service_durable, IngestScratch, IngestSpec,
    MemWalStore, Policy, ServeConfig, TracingStore, WalTuning,
};
use drp_workload::{PatternChange, WorkloadSpec};
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

fn drift() -> PatternChange {
    PatternChange {
        change_percent: 500.0,
        objects_percent: 40.0,
        read_share: 0.9,
    }
}

fn service_config(seed: u64, threads: usize, policy: Policy) -> ServeConfig {
    ServeConfig {
        policy,
        epochs: 4,
        period: 256,
        seed,
        night_every: 3,
        admission_limit: 40,
        monitor: small_monitor(),
        drift: Some(drift()),
        threads,
        ..ServeConfig::default()
    }
}

proptest! {
    // Tiny batches over depth-1 channels: the producer blocks on nearly
    // every send, so the backpressure path is the common case here.
    #![proptest_config(ProptestConfig::with_cases(16))]
    #[test]
    fn admission_accounting_balances_per_site_under_bursty_queues(
        instance_seed in 0u64..40,
        stream_seed in 0u64..1000,
        sites in 3usize..12,
        objects in 3usize..9,
        threads in 1usize..6,
        limit in 0u64..40,
        batch in 1usize..48,
    ) {
        let p = problem(sites, objects, instance_seed);
        let spec = IngestSpec {
            problem: &p,
            period: 300,
            seed: stream_seed,
            admission_limit: limit,
            threads,
            batch,
            depth: 1,
        };
        let mut scratch = IngestScratch::new();
        let mut reads = DenseMatrix::zeros(sites, objects);
        let mut writes = DenseMatrix::zeros(sites, objects);
        let out = ingest_epoch(&spec, &mut scratch, &mut reads, &mut writes);

        prop_assert!(out.report.balanced());
        for site in 0..sites {
            let offered = out.report.offered_by_site[site];
            let admitted = out.report.admitted_by_site[site];
            let shed = out.report.shed_by_site[site];
            prop_assert_eq!(offered, admitted + shed, "conservation at site {}", site);
            if limit > 0 {
                prop_assert!(admitted <= limit, "cap at site {}", site);
            } else {
                prop_assert_eq!(shed, 0);
            }
            prop_assert_eq!(scratch.queues[site].len() as u64, admitted);
            prop_assert!(
                scratch.queues[site].windows(2).all(|w| w[0].0 <= w[1].0),
                "queue at site {} must stay time-ordered", site
            );
        }
        // Every offered request lands in the observation window, shed or not.
        let window: u64 = reads.iter().chain(writes.iter()).sum();
        prop_assert_eq!(window, out.report.offered());
        prop_assert_eq!(
            out.admitted_reads + out.admitted_writes,
            out.report.offered() - out.report.shed()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]
    #[test]
    fn sharded_ingestion_matches_single_threaded_bitwise(
        instance_seed in 0u64..30,
        stream_seed in 0u64..1000,
        sites in 4usize..14,
        threads in 2usize..8,
        limit in 0u64..30,
    ) {
        let p = problem(sites, 6, instance_seed);
        let spec = |threads| IngestSpec {
            problem: &p,
            period: 300,
            seed: stream_seed,
            admission_limit: limit,
            threads,
            batch: 32,
            depth: 1,
        };
        let run = |threads| {
            let mut scratch = IngestScratch::new();
            let mut reads = DenseMatrix::zeros(sites, 6);
            let mut writes = DenseMatrix::zeros(sites, 6);
            let out = ingest_epoch(&spec(threads), &mut scratch, &mut reads, &mut writes);
            let window: Vec<u64> = reads.iter().chain(writes.iter()).copied().collect();
            (scratch.queues, out, window)
        };
        let (queues_1, out_1, window_1) = run(1);
        let (queues_t, out_t, window_t) = run(threads);
        prop_assert_eq!(queues_1, queues_t);
        prop_assert_eq!(out_1, out_t);
        prop_assert_eq!(window_1, window_t);
    }
}

#[test]
fn service_fingerprints_are_identical_across_ingest_threads() {
    let p = problem(10, 8, 21);
    for policy in [Policy::Monitor, Policy::MonitorHot] {
        let base = run_service(&p, &service_config(21, 1, policy)).unwrap();
        for threads in [2usize, 4] {
            let other = run_service(&p, &service_config(21, threads, policy)).unwrap();
            assert_eq!(
                base.fingerprint(),
                other.fingerprint(),
                "threads={threads} {} drifted",
                policy.name()
            );
        }
    }
}

#[test]
fn hot_fast_path_never_bills_more_than_the_baseline() {
    let mut promoted_somewhere = false;
    for seed in [5u64, 11, 23] {
        let p = problem(12, 10, seed);
        let hot = run_service(&p, &service_config(seed, 1, Policy::MonitorHot)).unwrap();
        let base = run_service(&p, &service_config(seed, 1, Policy::Monitor)).unwrap();
        assert!(
            hot.totals.total_ntc <= base.totals.total_ntc,
            "seed {seed}: hot billed {} vs baseline {}",
            hot.totals.total_ntc,
            base.totals.total_ntc
        );
        // Identical traffic either way; only the replica directory differs.
        assert_eq!(hot.totals.shed, base.totals.shed);
        promoted_somewhere |= hot.totals.hot_promotions > 0;
        assert_eq!(base.totals.hot_promotions, 0);
    }
    assert!(
        promoted_somewhere,
        "no seed promoted anything — the detector never engaged"
    );
}

#[test]
fn hot_state_survives_crash_recovery_bitwise() {
    let p = problem(8, 8, 17);
    let config = ServeConfig {
        wal: WalTuning {
            checkpoint_every: 2,
        },
        ..service_config(17, 1, Policy::MonitorHot)
    };
    let mut tracing = TracingStore::default();
    let baseline = run_service_durable(&p, &config, &mut tracing).unwrap();
    assert!(
        baseline.report.totals.hot_promotions > 0,
        "the run under test must exercise the hot path"
    );
    let fingerprint = baseline.report.fingerprint();

    let points = crash_points(tracing.ops());
    assert!(points.len() > 10, "only {} crash points", points.len());
    // Every third boundary keeps the suite fast; the full sweep lives in
    // crash_sim.rs.
    for &(op, cut) in points.iter().step_by(3) {
        let mut store = MemWalStore::from_bytes(tracing.contents_at(op, cut));
        let recovered = run_service_durable(&p, &config, &mut store)
            .unwrap_or_else(|e| panic!("crash point (op {op}, cut {cut}) failed: {e}"));
        assert_eq!(
            recovered.report.fingerprint(),
            fingerprint,
            "crash point (op {op}, cut {cut}) diverged with hot state"
        );
    }
}
