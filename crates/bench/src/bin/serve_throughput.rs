//! Ingestion front-end benchmark: `cargo run --release -p drp-bench --bin
//! serve_throughput [out.json] [--sites 1000] [--objects 40] [--reps 3]
//! [--budget-reqs 1e6]` writes `BENCH_serve_throughput.json`.
//!
//! Drives [`drp_serve::ingest_epoch`] directly — the streaming driver,
//! the sharded routing over bounded channels and the per-site admission
//! sort, without the serving simulator behind it — at the paper-scale
//! M=1000 and reports requests per second for 1, 2 and 4 shard workers.
//! The budget asserts the headline claim: at least `--budget-reqs`
//! requests per second with two workers.
//!
//! Two determinism certificates ride along as ratchet identity:
//!
//! * the FNV hash of the admitted queues plus the admission report must
//!   be identical across every thread count (`ingest_parity`);
//! * a small closed-loop `monitor` service run must fingerprint
//!   identically at `threads` 1 and 2 (`service_thread_parity`); its
//!   fingerprint and total NTC are pinned exactly.
//!
//! The `epoch_scaling` samples time the serving engine behind the front
//! end: one fault-free epoch served through
//! [`drp_serve::execute_migration`] (empty plan) on an SRA scheme at M =
//! 50, 200 and 1000 with N = 40, best of three, as ns per request and
//! simulator events per request. Flat ns per request across M is the
//! claim; the samples carry no budget. Each also records `outcome_hash`,
//! an FNV hash of the epoch's request tally, traffic ledger, event count
//! and completion time, so a change to the dispatch order shows as an
//! identity mismatch.

use drp_algo::Sra;
use drp_bench::report::{Budget, Fields, Report};
use drp_core::migration::MigrationPlan;
use drp_core::{telemetry, DenseMatrix, Problem, ReplicationAlgorithm};
use drp_serve::{
    execute_migration, ingest_epoch, run_service, EpochTraffic, IngestScratch, IngestSpec,
    MigrationOutcome, MigrationTuning, Policy, ServeConfig,
};
use drp_workload::{PatternChange, WorkloadSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

const SEED: u64 = 0x1463;

struct Args {
    out_path: String,
    sites: usize,
    objects: usize,
    period: u64,
    reps: usize,
    budget_reqs: f64,
}

fn parse_args() -> Args {
    let mut args = Args {
        out_path: "BENCH_serve_throughput.json".to_string(),
        sites: 1000,
        objects: 40,
        period: 512,
        reps: 3,
        budget_reqs: 1e6,
    };
    let mut iter = std::env::args().skip(1);
    while let Some(arg) = iter.next() {
        let mut value = |name: &str| {
            iter.next()
                .unwrap_or_else(|| panic!("{name} needs a value"))
        };
        match arg.as_str() {
            "--sites" => args.sites = value("--sites").parse().expect("--sites"),
            "--objects" => args.objects = value("--objects").parse().expect("--objects"),
            "--period" => args.period = value("--period").parse().expect("--period"),
            "--reps" => args.reps = value("--reps").parse().expect("--reps"),
            "--budget-reqs" => {
                args.budget_reqs = value("--budget-reqs").parse().expect("--budget-reqs");
            }
            other if !other.starts_with("--") => args.out_path = other.to_string(),
            other => panic!("unknown argument {other}"),
        }
    }
    args
}

/// FNV-1a over little-endian u64 words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn eat(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// FNV-1a over the admitted queues and the per-site admission report: the
/// cross-thread-count determinism certificate.
fn ingest_hash(scratch: &IngestScratch, outcome: &drp_serve::IngestOutcome) -> u64 {
    let mut hash = Fnv::new();
    for queue in &scratch.queues {
        hash.eat(queue.len() as u64);
        for &(time, object, write) in queue {
            hash.eat(time);
            hash.eat(u64::from(object));
            hash.eat(u64::from(write));
        }
    }
    for site in 0..outcome.report.offered_by_site.len() {
        hash.eat(outcome.report.offered_by_site[site]);
        hash.eat(outcome.report.shed_by_site[site]);
        hash.eat(outcome.report.admitted_by_site[site]);
    }
    hash.eat(outcome.admitted_reads);
    hash.eat(outcome.admitted_writes);
    hash.0
}

/// FNV-1a over what one served epoch did: its request tally, the
/// simulator's traffic ledger, the events it dispatched and the time it
/// went quiet. Any change to the dispatch order shows here.
fn outcome_hash(out: &MigrationOutcome) -> u64 {
    let r = &out.requests;
    let s = &out.sim;
    let mut hash = Fnv::new();
    for word in [
        r.reads_issued,
        r.reads_served,
        r.reads_failed_over,
        r.reads_stale,
        r.writes_issued,
        r.writes_committed,
        r.writes_queued,
        s.messages,
        s.data_units,
        s.transfer_cost,
        s.timers,
        out.sim_events,
        out.completion_time,
    ] {
        hash.eat(word);
    }
    hash.0
}

struct IngestRow {
    threads: usize,
    offered: u64,
    shed: u64,
    elapsed_ms: f64,
    req_per_sec: f64,
    hash: u64,
}

/// Times `reps` ingested epochs at one worker count. The first rep's hash
/// certifies the run; all reps share it (same seed, asserted).
fn bench_ingest(problem: &Problem, args: &Args, threads: usize, admission_limit: u64) -> IngestRow {
    let m = problem.num_sites();
    let n = problem.num_objects();
    let spec = IngestSpec {
        problem,
        period: args.period,
        seed: SEED,
        admission_limit,
        threads,
        batch: 0,
        depth: 0,
    };
    let mut scratch = IngestScratch::new();
    let mut reads = DenseMatrix::zeros(m, n);
    let mut writes = DenseMatrix::zeros(m, n);
    // Warm-up: grow the scratch buffers outside the timed region.
    let warm = ingest_epoch(&spec, &mut scratch, &mut reads, &mut writes);
    let hash = ingest_hash(&scratch, &warm);

    let mut offered = 0u64;
    let mut shed = 0u64;
    let started = Instant::now();
    for _ in 0..args.reps {
        let mut reads = DenseMatrix::zeros(m, n);
        let mut writes = DenseMatrix::zeros(m, n);
        let out = ingest_epoch(&spec, &mut scratch, &mut reads, &mut writes);
        offered += out.report.offered();
        shed += out.report.shed();
        assert_eq!(
            ingest_hash(&scratch, &out),
            hash,
            "ingest drifted across reps"
        );
    }
    let elapsed = started.elapsed().as_secs_f64();
    IngestRow {
        threads,
        offered,
        shed,
        elapsed_ms: elapsed * 1e3,
        req_per_sec: offered as f64 / elapsed.max(1e-9),
        hash,
    }
}

/// A per-site admission cap that sheds the top decile of sites, so the
/// backpressure accounting is exercised with a deterministic shed count.
fn shedding_limit(problem: &Problem, args: &Args) -> u64 {
    let spec = IngestSpec {
        problem,
        period: args.period,
        seed: SEED,
        admission_limit: 0,
        threads: 1,
        batch: 0,
        depth: 0,
    };
    let mut scratch = IngestScratch::new();
    let mut reads = DenseMatrix::zeros(problem.num_sites(), problem.num_objects());
    let mut writes = DenseMatrix::zeros(problem.num_sites(), problem.num_objects());
    let out = ingest_epoch(&spec, &mut scratch, &mut reads, &mut writes);
    let mut by_site = out.report.offered_by_site.clone();
    by_site.sort_unstable();
    by_site[by_site.len() * 9 / 10].max(1)
}

struct ServiceRow {
    total_ntc: u64,
    fingerprint: u64,
}

/// One small closed-loop [`Policy::Monitor`] service run under drift;
/// `threads` is the ingestion workers.
fn bench_service(threads: usize) -> ServiceRow {
    let spec = WorkloadSpec::paper(24, 16, 6.0, 35.0);
    let problem = spec
        .generate(&mut StdRng::seed_from_u64(SEED))
        .expect("service instance generates");
    let config = ServeConfig {
        policy: Policy::Monitor,
        epochs: 4,
        period: 256,
        seed: SEED,
        night_every: 3,
        drift: Some(PatternChange {
            change_percent: 500.0,
            objects_percent: 40.0,
            read_share: 0.9,
        }),
        threads,
        ..ServeConfig::default()
    };
    let report = run_service(&problem, &config).expect("service runs");
    ServiceRow {
        total_ntc: report.totals.total_ntc,
        fingerprint: report.fingerprint(),
    }
}

struct ScalingRow {
    sites: usize,
    requests: u64,
    sim_events: u64,
    outcome_hash: u64,
    ns_per_req_min: f64,
    ns_per_req_max: f64,
}

/// Sites of the `epoch_scaling` samples; objects stay at [`SCALING_OBJECTS`].
const SCALING_SITES: [usize; 3] = [50, 200, 1000];
const SCALING_OBJECTS: usize = 40;

/// One fault-free serving epoch on the SRA scheme of an M-site instance,
/// timed three times. The event count is identical across the runs.
fn bench_epoch_scaling(sites: usize, period: u64) -> ScalingRow {
    let mut rng = StdRng::seed_from_u64(SEED);
    let problem = WorkloadSpec::paper(sites, SCALING_OBJECTS, 10.0, 25.0)
        .generate(&mut rng)
        .expect("scaling instance generates");
    let scheme = Sra::new()
        .solve(&problem, &mut rng)
        .expect("SRA solves the scaling instance");
    let mut times = Vec::new();
    let mut counts = None;
    for _ in 0..3 {
        let started = Instant::now();
        let out = execute_migration(
            &problem,
            &scheme,
            &MigrationPlan::default(),
            None,
            MigrationTuning::default(),
            Some(EpochTraffic { period, seed: SEED }),
            telemetry::noop(),
        )
        .expect("scaling epoch serves");
        let elapsed = started.elapsed().as_secs_f64();
        let requests = out.requests.reads_issued + out.requests.writes_issued;
        let outcome = (requests, out.sim_events, outcome_hash(&out));
        assert!(
            counts.is_none_or(|c| c == outcome),
            "epoch drifted across reps"
        );
        counts = Some(outcome);
        times.push(elapsed * 1e9 / requests.max(1) as f64);
    }
    let (requests, sim_events, outcome_hash) = counts.expect("three reps ran");
    ScalingRow {
        sites,
        requests,
        sim_events,
        outcome_hash,
        ns_per_req_min: times.iter().copied().fold(f64::INFINITY, f64::min),
        ns_per_req_max: times.iter().copied().fold(0.0, f64::max),
    }
}

fn main() {
    let args = parse_args();
    let problem = WorkloadSpec::paper(args.sites, args.objects, 10.0, 25.0)
        .generate(&mut StdRng::seed_from_u64(SEED))
        .expect("ingest instance generates");
    let admission_limit = shedding_limit(&problem, &args);

    let rows: Vec<IngestRow> = [1usize, 2, 4]
        .iter()
        .map(|&t| bench_ingest(&problem, &args, t, admission_limit))
        .collect();
    let parity = rows.iter().all(|r| r.hash == rows[0].hash);
    let budget_row = &rows[1]; // threads == 2, the headline configuration

    let service = bench_service(1);
    let service_t2 = bench_service(2);
    let scaling: Vec<ScalingRow> = SCALING_SITES
        .iter()
        .map(|&m| bench_epoch_scaling(m, args.period))
        .collect();

    let config = drp_bench::thread_fields(
        Fields::new()
            .text("unit", "req/s")
            .int("seed", SEED)
            .int("sites", args.sites as u64)
            .int("objects", args.objects as u64)
            .int("period", args.period)
            .int("reps", args.reps as u64)
            .int("admission_limit", admission_limit),
    );
    let mut report = Report::new(
        "serve_throughput",
        config,
        Budget::at_least(
            "ingest_req_per_sec_two_workers",
            args.budget_reqs,
            budget_row.req_per_sec,
        ),
    );
    for row in &rows {
        report.sample(
            Fields::new()
                .text("kind", "ingest")
                .int("threads", row.threads as u64)
                .int("offered", row.offered)
                .int("shed", row.shed)
                .float("elapsed_ms", row.elapsed_ms, 2)
                .float("req_per_sec", row.req_per_sec, 0)
                .text("queue_hash", &format!("{:016x}", row.hash))
                .flag("ingest_parity", parity),
        );
    }
    report.sample(
        Fields::new()
            .text("kind", "service")
            .text("policy", Policy::Monitor.name())
            .int("sites", 24)
            .int("objects", 16)
            .int("epochs", 4)
            .int("total_ntc", service.total_ntc)
            .text("fingerprint", &format!("{:016x}", service.fingerprint))
            .flag(
                "service_thread_parity",
                service.fingerprint == service_t2.fingerprint,
            ),
    );
    for row in &scaling {
        report.sample(
            Fields::new()
                .text("kind", "epoch_scaling")
                .int("sites", row.sites as u64)
                .int("objects", SCALING_OBJECTS as u64)
                .int("requests", row.requests)
                .int("sim_events", row.sim_events)
                .float(
                    "sim_events_per_req",
                    row.sim_events as f64 / row.requests.max(1) as f64,
                    4,
                )
                .text("outcome_hash", &format!("{:016x}", row.outcome_hash))
                .float("ns_per_req_min", row.ns_per_req_min, 1)
                .float("ns_per_req_max", row.ns_per_req_max, 1),
        );
    }
    report.write(&args.out_path);
    assert!(parity, "ingest hash differs across worker counts");
    assert_eq!(
        service.fingerprint, service_t2.fingerprint,
        "service fingerprint differs across ingestion worker counts"
    );
    assert!(
        budget_row.req_per_sec >= args.budget_reqs,
        "two-worker ingest ran at {:.0} req/s, under the {:.0} floor",
        budget_row.req_per_sec,
        args.budget_reqs
    );
}
