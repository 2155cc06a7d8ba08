//! The traced run: the per-layer metrics.
//!
//! Every figure is either timed here around a public call into one layer,
//! or read from the spans and counters the program already emits through
//! the `Recorder` argument of `run_service_recorded`. The traced service
//! run is separate from an untraced one in the same process; their
//! requests per second give the tracing overhead.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use drp_algo::monitor::MonitorAction;
use drp_core::telemetry::InMemoryRecorder;
use drp_core::{CostEvaluator, DenseMatrix, ObjectId, Problem, ReplicationScheme, SiteId};
use drp_serve::{ingest_epoch, IngestScratch, IngestSpec, Policy};
use drp_workload::zipf;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::derive::{self, median};
use crate::probe::mix;
use crate::workloads::{Workload, THREADS};
use crate::{bootstrap, metric, serve, Outcome, Result};

/// Repeats of the cheap layer calls; their median is reported.
const REPEATS: usize = 5;
/// (site, object) pairs the flip loop visits.
const FLIP_PAIRS: usize = 256;

/// Median wall seconds of `REPEATS` calls of `f`.
fn time_median(mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..REPEATS)
        .map(|_| {
            let started = Instant::now();
            f();
            started.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

/// Nanoseconds per `delta_add` + `apply_add` + `undo` round on the
/// bootstrap scheme, over a fixed spread of (site, object) pairs that can
/// take a replica.
fn flip_ns(problem: &Problem, scheme: &ReplicationScheme) -> Result<f64> {
    let (m, n) = (problem.num_sites(), problem.num_objects());
    let pairs: Vec<(SiteId, ObjectId)> = (0..FLIP_PAIRS * 4)
        .map(|i| (SiteId::new(i * 7919 % m), ObjectId::new(i * 104_729 % n)))
        .filter(|&(i, k)| {
            !scheme.holds(i, k) && problem.object_size(k) <= scheme.free_capacity(problem, i)
        })
        .take(FLIP_PAIRS)
        .collect();
    if pairs.is_empty() {
        return Ok(0.0);
    }
    let mut eval = CostEvaluator::new(problem, scheme.clone());
    let mut sink = 0i64;
    let mut round = || -> Result<()> {
        for &(i, k) in &pairs {
            sink = sink.wrapping_add(eval.delta_add(i, k));
            sink = sink.wrapping_add(eval.apply_add(i, k).map_err(|e| format!("flip: {e}"))?);
            sink = sink.wrapping_add(eval.undo().unwrap_or(0));
        }
        Ok(())
    };
    let mut samples = Vec::with_capacity(REPEATS);
    for _ in 0..REPEATS {
        let started = Instant::now();
        round()?;
        samples.push(started.elapsed().as_secs_f64() * 1e9 / pairs.len() as f64);
    }
    std::hint::black_box(sink);
    Ok(median(&samples))
}

/// Nanoseconds per request to ingest epoch 0's trace, with the run's
/// stream seed, period and worker count.
fn ingest_ns_per_req(w: &Workload, seed: u64, problem: &Problem) -> f64 {
    let (m, n) = (problem.num_sites(), problem.num_objects());
    let spec = IngestSpec {
        problem,
        period: w.config.period,
        seed: mix(&[seed, 3, 0]),
        admission_limit: w.config.admission_limit,
        threads: THREADS,
        batch: 0,
        depth: 0,
    };
    let mut scratch = IngestScratch::new();
    let mut offered = 0;
    let took = time_median(|| {
        let mut reads = DenseMatrix::zeros(m, n);
        let mut writes = DenseMatrix::zeros(m, n);
        offered = ingest_epoch(&spec, &mut scratch, &mut reads, &mut writes)
            .report
            .offered();
    });
    took * 1e9 / offered.max(1) as f64
}

/// Boundary timings of the monitor replayed from outside the loop.
#[derive(Default)]
struct MonitorTimes {
    adapt_ms: Vec<f64>,
    rebuild_ms: Vec<f64>,
    adaptations: u64,
}

/// Replays the monitor's boundary decisions on the run's epoch patterns:
/// the scenario's shift plan (surges are RNG-free; drift and Zipf re-skew
/// use the run's documented drift stream) applied to the instance, handed
/// to `ingest_statistics` by day and `nightly_rebuild_with` by night with
/// the run's decision streams. With nothing shed the observed window is
/// exactly the true pattern, so this is the work the serve loop does.
fn replay_monitor(w: &Workload, seed: u64, problem: &Problem) -> Result<MonitorTimes> {
    let mut times = MonitorTimes::default();
    if w.config.policy != Policy::Monitor {
        return Ok(times);
    }
    let cfg = &w.config;
    let plan = match cfg.scenario {
        Some(s) => Some(
            s.compile(cfg.epochs, problem.num_sites(), cfg.period)
                .map_err(|e| format!("scenario: {e}"))?,
        ),
        None => None,
    };
    let mut monitor = bootstrap(w, seed, problem)?;
    let mut truth = problem.clone();
    let fail = |e: drp_core::CoreError| format!("monitor replay: {e}");
    for e in 0..cfg.epochs {
        if let (true, Some(plan)) = (e > 0, &plan) {
            let shift = &plan[e];
            let mut reads = truth.read_matrix().clone();
            for surge in &shift.surges {
                surge.apply(&mut reads);
            }
            let mut rng = StdRng::seed_from_u64(mix(&[seed, 2, e as u64]));
            if let Some(s) = shift.zipf_exponent {
                zipf::apply_popularity(&mut reads, s, &mut rng);
            }
            truth = truth
                .with_patterns(reads, truth.write_matrix().clone())
                .map_err(fail)?;
            if let Some(drift) = &shift.drift {
                truth = drift
                    .apply(&truth, &mut rng)
                    .map_err(|e| format!("drift: {e}"))?
                    .problem;
            }
        }
        let mut rng = StdRng::seed_from_u64(mix(&[seed, 4, e as u64]));
        let started = Instant::now();
        if cfg.night_every > 0 && (e + 1) % cfg.night_every == 0 {
            monitor
                .nightly_rebuild_with(truth.clone(), &mut rng)
                .map_err(fail)?;
            times.rebuild_ms.push(started.elapsed().as_secs_f64() * 1e3);
        } else {
            let action = monitor
                .ingest_statistics(truth.clone(), &mut rng)
                .map_err(fail)?;
            times.adapt_ms.push(started.elapsed().as_secs_f64() * 1e3);
            times.adaptations += u64::from(matches!(action, MonitorAction::Adapted { .. }));
        }
    }
    Ok(times)
}

fn share(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// Runs instance `seed` of the workload untraced and traced, times the
/// layers, and returns the per-layer metrics.
pub fn traced(w: &Workload, seed: u64, scratch: &Path) -> Result<Outcome> {
    let plain = serve(w, seed, &scratch.join("plain"), None)?;
    let recorder = Arc::new(InMemoryRecorder::new());
    let traced = serve(
        w,
        seed,
        &scratch.join("traced"),
        Some(Arc::clone(&recorder)),
    )?;

    // Set-up layers, timed around their public entry points.
    let problem = &plain.problem;
    let generate_s = time_median(|| {
        std::hint::black_box(w.spec.generate(&mut StdRng::seed_from_u64(seed)).ok());
    });
    let started = Instant::now();
    let monitor = bootstrap(w, seed, problem)?;
    let bootstrap_s = started.elapsed().as_secs_f64();
    let scheme = monitor.scheme();
    let clean_cost = w.clean().then(|| problem.total_cost(scheme));
    let mut outcome = Outcome::default();
    outcome.tally(crate::check_report(&plain.report, clean_cost));
    let mut errors = crate::check_report(&traced.report, clean_cost);
    if traced.report.fingerprint() != plain.report.fingerprint() {
        errors.push(format!(
            "traced fingerprint {:016x} != untraced {:016x}",
            traced.report.fingerprint(),
            plain.report.fingerprint()
        ));
    }
    outcome.tally(errors);
    if w.durable {
        outcome.tally(crate::check_recovery(w, &plain, &scratch.join("torn")));
    }
    let total_cost_ms = time_median(|| {
        std::hint::black_box(problem.total_cost(std::hint::black_box(scheme)));
    }) * 1e3;
    let flip = flip_ns(problem, scheme)?;
    let ingest = ingest_ns_per_req(w, seed, problem);
    let mon = replay_monitor(w, seed, problem)?;

    // Serve-loop layers, from the traced run's own spans and counters.
    let report = &traced.report;
    let offered = derive::offered(&report.epochs) as f64;
    let loop_ns = traced.loop_s * 1e9;
    let sim_ns = recorder.span_stats("sim.run").map_or(0, |s| s.total_ns) as f64;
    let per_req = |count: u64| count as f64 / offered;
    // `fold` from +0.0: an empty `sum` of floats is -0.0.
    let monitor_ms = mon
        .adapt_ms
        .iter()
        .chain(&mon.rebuild_ms)
        .fold(0.0, |a, b| a + b);
    let mut append_us: Vec<f64> = Vec::new();
    let (mut wal_bytes, mut wal_appends, mut reset_ms, mut wal_busy) = (0, 0, 0.0, 0.0);
    if let Some(wal) = &traced.wal {
        wal_appends = wal.append_us.len() as u64;
        wal_bytes = wal.append_bytes;
        reset_ms = wal.reset_time.as_secs_f64() * 1e3;
        wal_busy = wal.busy().as_secs_f64();
    }
    // The tail percentile needs samples: pool both durable runs' appends.
    for wal in [&plain.wal, &traced.wal].into_iter().flatten() {
        append_us.extend(&wal.append_us);
    }
    let (tail_pct, tail_us) = derive::tail_percentile(&append_us).unwrap_or((0.0, 0.0));

    // Set-up shares come from one run: the untraced one. Inside
    // `run_service`, the bootstrap GRA is all the work before epoch 0.
    let setup_s = plain.setup_s;
    let service_setup_s = setup_s - plain.generate_s;
    let loop_s = traced.loop_s;
    let rows = [
        (
            "setup",
            "workload.generate (drp-workload, drp-net APSP, drp-core Problem)",
            plain.generate_s,
            setup_s,
        ),
        (
            "setup",
            "algo.bootstrap (run_service before epoch 0: drp-algo GRA, drp-ga)",
            service_setup_s,
            setup_s,
        ),
        (
            "loop",
            "serve.ingest (drp-serve ingest, trace stream; re-timed)",
            ingest * offered / 1e9,
            loop_s,
        ),
        (
            "loop",
            "net.sim (drp-net sim engine, serve epoch protocol)",
            sim_ns / 1e9,
            loop_s,
        ),
        (
            "loop",
            "algo.monitor (AGRA by day, GRA by night; replayed)",
            monitor_ms / 1e3,
            loop_s,
        ),
        (
            "loop",
            "serve.wal (FileWalStore append + reset)",
            wal_busy,
            loop_s,
        ),
        (
            "loop",
            "serve.loop_other (loop minus net.sim: the three above and more)",
            loop_s - sim_ns / 1e9,
            loop_s,
        ),
    ];
    println!(
        "layer table: {} instance seed {seed}, setup {setup_s:.4} s (untraced run), serve loop {loop_s:.4} s (traced run)",
        w.name
    );
    println!(
        "{:<6} {:<70} {:>10} {:>8}",
        "part", "layer", "seconds", "share"
    );
    for (part, layer, s, whole) in rows {
        println!(
            "{part:<6} {layer:<70} {s:>10.4} {:>7.1}%",
            100.0 * share(s, whole)
        );
    }
    println!(
        "tracing: untraced {:.0} req/s, traced {:.0} req/s, ratio {:.4}; epoch probe took {} calls for {} epochs",
        plain.req_per_s(),
        traced.req_per_s(),
        share(traced.req_per_s(), plain.req_per_s()),
        plain.probe_calls,
        report.epochs.len()
    );
    println!(
        "monitor replay: {} adaptations (service report: {}), {} rebuilds (service report: {}); wal append tail is p{tail_pct}",
        mon.adaptations,
        report.totals.adaptations,
        mon.rebuild_ms.len(),
        report.totals.rebuilds
    );

    outcome.metrics = vec![
        metric("workload.generate_s", generate_s, "s"),
        metric("algo.bootstrap_s", bootstrap_s, "s"),
        metric(
            "algo.bootstrap_setup_share",
            share(service_setup_s, setup_s),
            "fraction",
        ),
        metric("core.total_cost_ms", total_cost_ms, "ms"),
        metric("core.flip_ns", flip, "ns"),
        metric("serve.ingest_ns_per_req", ingest, "ns/req"),
        metric("net.sim_ns_per_req", sim_ns / offered, "ns/req"),
        metric(
            "net.sim_events_per_req",
            per_req(recorder.counter("sim.events")),
            "events/req",
        ),
        metric(
            "net.sim_msgs_per_req",
            per_req(recorder.counter("sim.messages")),
            "msgs/req",
        ),
        metric("net.sim_loop_share", share(sim_ns, loop_ns), "fraction"),
        metric(
            "serve.loop_other_share",
            share(loop_ns - sim_ns, loop_ns),
            "fraction",
        ),
        metric("algo.monitor_adapt_ms", median(&mon.adapt_ms), "ms"),
        metric(
            "algo.monitor_adapt_calls",
            mon.adapt_ms.len() as f64,
            "count",
        ),
        metric("algo.monitor_rebuild_ms", median(&mon.rebuild_ms), "ms"),
        metric(
            "algo.monitor_rebuild_calls",
            mon.rebuild_ms.len() as f64,
            "count",
        ),
        metric(
            "algo.monitor_loop_share",
            share(monitor_ms / 1e3, loop_s),
            "fraction",
        ),
        metric(
            "serve.migration_moves",
            report.totals.migration_moves as f64,
            "count",
        ),
        metric(
            "serve.migration_retries",
            report
                .epochs
                .iter()
                .map(|e| e.migration_retries)
                .sum::<u64>() as f64,
            "count",
        ),
        metric(
            "serve.migration_ntc_share",
            derive::migration_ntc_share(&report.epochs),
            "fraction",
        ),
        metric("serve.wal_append_us", median(&append_us), "us"),
        metric("serve.wal_append_tail_us", tail_us, "us"),
        metric("serve.wal_append_tail_pct", tail_pct, "percentile"),
        metric("serve.wal_appends", wal_appends as f64, "count"),
        metric("serve.wal_bytes", wal_bytes as f64, "bytes"),
        metric("serve.wal_reset_ms", reset_ms, "ms"),
        metric("serve.wal_share", share(wal_busy, loop_s), "fraction"),
        metric(
            "net.fault_lost_arrivals",
            recorder.counter("fault.lost_arrivals") as f64,
            "count",
        ),
        metric(
            "net.fault_lost_timers",
            recorder.counter("fault.lost_timers") as f64,
            "count",
        ),
        metric("serve.reads_lost", report.totals.reads_lost as f64, "count"),
        metric(
            "serve.writes_lost",
            report.totals.writes_lost as f64,
            "count",
        ),
        metric(
            "trace.req_per_s_ratio",
            share(traced.req_per_s(), plain.req_per_s()),
            "ratio",
        ),
    ];
    Ok(outcome)
}
