//! Property and parity tests of the ingestion front end.
//!
//! The contracts under test:
//!
//! * per-site conservation — `offered == admitted + shed` at every site,
//!   under bursty tiny batches and depth-1 bounded channels (the
//!   configuration that maximizes producer blocking);
//! * thread-count independence — the admitted stream, admission reports
//!   and the observation window are bitwise-equal for any worker count,
//!   and the full closed-loop [`ServiceReport`] fingerprint does not move
//!   across `threads` ∈ {1, 2, 4}, under every policy.
//!
//! [`ServiceReport`]: drp_serve::ServiceReport

use drp_core::{DenseMatrix, Problem};
use drp_serve::{ingest_epoch, run_service, IngestScratch, IngestSpec, Policy, ServeConfig};
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
            let in_stream = scratch.stream.iter().filter(|a| a.site as usize == site).count();
            prop_assert_eq!(in_stream as u64, admitted);
        }
        prop_assert!(
            scratch
                .stream
                .windows(2)
                .all(|w| (w[0].at, w[0].site) <= (w[1].at, w[1].site)),
            "the stream must stay (time, site)-ordered"
        );
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
            (scratch.stream, out, window)
        };
        let (stream_1, out_1, window_1) = run(1);
        let (stream_t, out_t, window_t) = run(threads);
        prop_assert_eq!(stream_1, stream_t);
        prop_assert_eq!(out_1, out_t);
        prop_assert_eq!(window_1, window_t);
    }
}

#[test]
fn service_fingerprints_are_identical_across_ingest_threads() {
    let p = problem(10, 8, 21);
    for policy in Policy::ALL {
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
