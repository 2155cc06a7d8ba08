//! Durability overhead benchmark: `cargo run --release -p drp-bench
//! --bin wal [out.json]` writes `BENCH_wal.json`.
//!
//! For each instance size it runs the same drifting monitor-policy service
//! twice — once in memory, once journaling every commit point to a WAL —
//! and reports the wall-clock overhead of durable mode, the final log
//! size (`wal_bytes`: what a compacted log occupies at the end of the
//! run), the journaling volume (`written_bytes`: every append and reset
//! payload of one durable run), and two parity flags: the durable run's
//! [`ServiceReport`] fingerprint must equal the in-memory run's, and a
//! recovery from a truncated log must reproduce it bitwise.
//!
//! The store is in-memory (the same code path the crash simulator
//! exercises), so the measured overhead is the journaling machinery
//! itself — record encoding, checkpoint compaction, recovery bookkeeping —
//! not the host's fsync latency, which would swamp a CI ratchet. The
//! budget keeps that machinery under 5% of the serving loop.
//!
//! [`ServiceReport`]: drp_serve::ServiceReport

use drp_bench::report::{Budget, Fields, Report};
use drp_serve::{
    run_service, run_service_durable, MemWalStore, Policy, ServeConfig, TracingStore, WalTuning,
};
use drp_workload::{PatternChange, WorkloadSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// Durable mode may cost at most this much over the in-memory loop.
const OVERHEAD_BUDGET_PERCENT: f64 = 5.0;

const SEED: u64 = 0xd04b1e;
const EPOCHS: usize = 4;
const PERIOD: u64 = 256;
const NIGHT_EVERY: usize = 3;
const CHECKPOINT_EVERY: usize = 2;
const REPS: usize = 9;

fn drift() -> PatternChange {
    PatternChange {
        change_percent: 500.0,
        objects_percent: 40.0,
        read_share: 0.9,
    }
}

fn config() -> ServeConfig {
    ServeConfig {
        policy: Policy::Monitor,
        epochs: EPOCHS,
        period: PERIOD,
        seed: SEED,
        night_every: NIGHT_EVERY,
        drift: Some(drift()),
        wal: WalTuning {
            checkpoint_every: CHECKPOINT_EVERY,
        },
        ..ServeConfig::default()
    }
}

struct Row {
    sites: usize,
    objects: usize,
    plain_ms: f64,
    durable_ms: f64,
    overhead_percent: f64,
    wal_bytes: u64,
    written_bytes: u64,
    parity: bool,
    recovery_parity: bool,
    fingerprint: String,
}

fn bench_size(sites: usize, objects: usize) -> Row {
    let problem = WorkloadSpec::paper(sites, objects, 6.0, 35.0)
        .generate(&mut StdRng::seed_from_u64(SEED))
        .expect("benchmark instance generates");
    let config = config();

    // One untimed warmup of each mode, then interleaved timed reps. The
    // journaling overhead is a couple percent at most — far below the slow
    // multi-second drift shared CI runners show — so the overhead estimate
    // is the *median* of the per-pair durable/plain ratios: each pair runs
    // back to back under (nearly) the same machine conditions, and the
    // median shrugs off the pairs a noise spike lands in.
    let plain_fp = run_service(&problem, &config)
        .expect("service runs")
        .fingerprint();
    let mut warm = MemWalStore::default();
    run_service_durable(&problem, &config, &mut warm).expect("durable runs");
    // Journaling volume from a separate untimed run, so the timed reps
    // keep the plain in-memory store.
    let mut traced = TracingStore::default();
    run_service_durable(&problem, &config, &mut traced).expect("durable runs");
    let written_bytes: usize = traced.ops().iter().map(|op| op.bytes.len()).sum();

    let mut plain_ms = f64::MAX;
    let mut durable_ms = f64::MAX;
    let mut ratios = Vec::with_capacity(REPS);
    let mut durable_fp = 0u64;
    let mut wal_bytes = Vec::new();
    for rep in 0..REPS {
        let time_plain = || {
            let started = Instant::now();
            run_service(&problem, &config).expect("service runs");
            started.elapsed().as_secs_f64() * 1e3
        };
        let time_durable = || {
            let mut store = MemWalStore::default();
            let started = Instant::now();
            let outcome = run_service_durable(&problem, &config, &mut store).expect("durable runs");
            let ms = started.elapsed().as_secs_f64() * 1e3;
            (ms, outcome.report.fingerprint(), store.bytes().to_vec())
        };
        // Alternate which mode runs first so cache/allocator position
        // effects inside a pair cancel out across the median.
        let (plain, (durable, fp, bytes)) = if rep % 2 == 0 {
            let p = time_plain();
            (p, time_durable())
        } else {
            let d = time_durable();
            (time_plain(), d)
        };
        plain_ms = plain_ms.min(plain);
        durable_ms = durable_ms.min(durable);
        ratios.push(durable / plain);
        durable_fp = fp;
        wal_bytes = bytes;
    }
    ratios.sort_by(f64::total_cmp);
    let median_ratio = ratios[ratios.len() / 2];

    // Crash the log at 60% and recover: bitwise the same report.
    let cut = wal_bytes.len() * 3 / 5;
    let mut torn = MemWalStore::from_bytes(wal_bytes[..cut].to_vec());
    let recovered = run_service_durable(&problem, &config, &mut torn).expect("recovery runs");

    Row {
        sites,
        objects,
        plain_ms,
        durable_ms,
        overhead_percent: (median_ratio - 1.0) * 100.0,
        wal_bytes: wal_bytes.len() as u64,
        written_bytes: written_bytes as u64,
        parity: durable_fp == plain_fp,
        recovery_parity: recovered.report.fingerprint() == plain_fp,
        fingerprint: format!("{plain_fp:016x}"),
    }
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_wal.json".to_string());

    let rows: Vec<Row> = [(10, 16), (12, 20)]
        .iter()
        .map(|&(sites, objects)| bench_size(sites, objects))
        .collect();

    let worst_overhead = rows
        .iter()
        .map(|r| r.overhead_percent)
        .fold(f64::MIN, f64::max);

    let config = drp_bench::thread_fields(
        Fields::new()
            .text("unit", "percent")
            .int("seed", SEED)
            .int("epochs", EPOCHS as u64)
            .int("period", PERIOD)
            .int("night_every", NIGHT_EVERY as u64)
            .int("checkpoint_every", CHECKPOINT_EVERY as u64)
            .int("reps", REPS as u64),
    );
    let mut report = Report::new(
        "wal",
        config,
        Budget::at_most(
            "durable_overhead_percent",
            OVERHEAD_BUDGET_PERCENT,
            worst_overhead,
        ),
    );
    for row in &rows {
        report.sample(
            Fields::new()
                .int("sites", row.sites as u64)
                .int("objects", row.objects as u64)
                .float("plain_ms", row.plain_ms, 2)
                .float("durable_ms", row.durable_ms, 2)
                .float("overhead_percent", row.overhead_percent, 2)
                .int("wal_bytes", row.wal_bytes)
                .int("written_bytes", row.written_bytes)
                .flag("parity", row.parity)
                .flag("recovery_parity", row.recovery_parity)
                .text("fingerprint", &row.fingerprint),
        );
    }
    report.write(&out_path);
}
