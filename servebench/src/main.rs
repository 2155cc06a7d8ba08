//! End-to-end benchmark of `drp serve` runs.
//!
//! ```text
//! cargo run --release --offline --manifest-path servebench/Cargo.toml -- \
//!     --workload steady-m500 --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Draws the workload's instances from `--seed`, serves each through the
//! public `drp-serve` API, repeats for `--seconds`, checks the outputs and
//! prints one JSON object as the last line of standard output: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics of a
//! separate traced run with `--trace 1`. A failed check prints
//! `"correct": false` and exits with code 1.

mod derive;
mod layers;
mod probe;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use drp_algo::monitor::ReplicationMonitor;
use drp_core::telemetry::InMemoryRecorder;
use drp_core::Problem;
use drp_serve::{
    run_service_durable, run_service_durable_recorded, run_service_recorded, EpochReport,
    FileWalStore, ServiceReport,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

use probe::{mix, EpochProbe, TimedWal};
use workloads::{Workload, THREADS};

/// Where durable runs keep their logs, relative to the working directory;
/// removed before exit.
const SCRATCH: &str = ".servebench-tmp";

type Result<T> = std::result::Result<T, String>;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => trace = number()? != 0,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
    })
}

/// One metric of the result line.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// What a run hands to the result line.
#[derive(Default)]
pub struct Outcome {
    pub metrics: Vec<Metric>,
    /// Service runs made (`run_service*` calls).
    pub attempted: u64,
    /// Service runs that failed a check.
    pub failed: u64,
    /// Every failed check, one message each.
    pub errors: Vec<String>,
}

impl Outcome {
    /// Counts one service run and whatever its checks found.
    pub fn tally(&mut self, errors: Vec<String>) {
        self.attempted += 1;
        if !errors.is_empty() {
            self.failed += 1;
            self.errors.extend(errors);
        }
    }
}

/// One service run from a seed: generate, bootstrap, serve.
pub struct Served {
    pub seed: u64,
    pub problem: Problem,
    pub report: ServiceReport,
    /// Seed to ready service: generation plus everything the service does
    /// before epoch 0 (the bootstrap GRA).
    pub setup_s: f64,
    /// The generation part of `setup_s`.
    pub generate_s: f64,
    /// Wall time of the serve loop: every epoch after bootstrap.
    pub loop_s: f64,
    pub probe_calls: u64,
    /// The timed store of a durable run.
    pub wal: Option<TimedWal>,
}

impl Served {
    pub fn req_per_s(&self) -> f64 {
        derive::offered(&self.report.epochs) as f64 / self.loop_s
    }
}

/// Serves instance `seed` of `w` once. Durable workloads journal to the
/// fresh directory `wal_dir`; `recorder` receives the program's own spans
/// and counters.
pub fn serve(
    w: &Workload,
    seed: u64,
    wal_dir: &Path,
    recorder: Option<Arc<InMemoryRecorder>>,
) -> Result<Served> {
    let config = w.config(seed);
    let started = Instant::now();
    let problem = w
        .spec
        .generate(&mut StdRng::seed_from_u64(seed))
        .map_err(|e| format!("generate: {e}"))?;
    let generate_s = started.elapsed().as_secs_f64();
    let probe = Arc::new(EpochProbe::new(recorder));
    let (report, wal) = if w.durable {
        let store = FileWalStore::open(wal_dir).map_err(|e| format!("wal dir: {e}"))?;
        let mut store = TimedWal::new(store);
        let out = run_service_durable_recorded(&problem, &config, &mut store, probe.clone())
            .map_err(|e| format!("durable service: {e}"))?;
        if out.recovery.is_some() {
            return Err(format!("{} was not fresh", wal_dir.display()));
        }
        (out.report, Some(store))
    } else {
        let report = run_service_recorded(&problem, &config, probe.clone())
            .map_err(|e| format!("service: {e}"))?;
        (report, None)
    };
    let ready = probe.ready_at().ok_or("the service ran no epoch")?;
    Ok(Served {
        seed,
        problem,
        report,
        setup_s: (ready - started).as_secs_f64(),
        generate_s,
        loop_s: probe.loop_time().as_secs_f64(),
        probe_calls: probe.calls(),
        wal,
    })
}

/// The monitor `run_service` bootstraps before epoch 0, rebuilt from the
/// documented seed stream `mix([seed, 1])`.
pub fn bootstrap(w: &Workload, seed: u64, problem: &Problem) -> Result<ReplicationMonitor> {
    let mut rng = StdRng::seed_from_u64(mix(&[seed, 1]));
    ReplicationMonitor::bootstrap(problem.clone(), w.config.monitor.clone(), &mut rng)
        .map_err(|e| format!("bootstrap: {e}"))
}

/// Checks every service run must pass: the per-epoch conservation
/// identities and, given the bootstrap scheme's Eq. 4 cost on a clean
/// workload, serving NTC == that cost in every epoch.
pub fn check_report(report: &ServiceReport, clean_cost: Option<u64>) -> Vec<String> {
    let mut errors = derive::conservation_errors(report);
    if let Some(cost) = clean_cost {
        for e in &report.epochs {
            if e.serving_ntc != cost {
                errors.push(format!(
                    "epoch {}: serving NTC {} != bootstrap total_cost {cost}",
                    e.epoch, e.serving_ntc
                ));
            }
        }
    }
    errors
}

/// Resumes a durable run from a torn prefix of its `wal.log` in `dir`
/// and checks that recovery happened and reproduced the uncrashed
/// fingerprint. The cut point comes from the seed.
pub fn check_recovery(w: &Workload, served: &Served, dir: &Path) -> Vec<String> {
    let Some(wal) = &served.wal else {
        return vec!["no wal to resume from".into()];
    };
    let bytes = match std::fs::read(wal.store.path()) {
        Ok(bytes) if bytes.len() > 1 => bytes,
        Ok(_) => return vec!["wal.log is empty".into()],
        Err(e) => return vec![format!("read {}: {e}", wal.store.path().display())],
    };
    let cut = 1 + (mix(&[served.seed, 0x7e11]) % (bytes.len() as u64 - 1)) as usize;
    let resumed = FileWalStore::open(dir)
        .and_then(|store| std::fs::write(store.path(), &bytes[..cut]).map(|()| store))
        .map_err(|e| format!("torn copy: {e}"))
        .and_then(|mut store| {
            run_service_durable(&served.problem, &w.config(served.seed), &mut store)
                .map_err(|e| format!("resume from torn wal: {e}"))
        });
    let mut errors = Vec::new();
    match resumed {
        Err(e) => errors.push(e),
        Ok(out) => {
            if out.recovery.is_none() {
                errors.push(format!(
                    "resume from {cut}/{} bytes did not recover",
                    bytes.len()
                ));
            }
            if out.report.fingerprint() != served.report.fingerprint() {
                errors.push(format!(
                    "resume from {cut}/{} bytes: fingerprint {:016x} != uncrashed {:016x}",
                    bytes.len(),
                    out.report.fingerprint(),
                    served.report.fingerprint()
                ));
            }
        }
    }
    errors
}

/// Serves each of the workload's instances once, then instance 0 again,
/// and keeps cycling while another run is expected to end within
/// `seconds`. The exact metrics pool the first pass over the instances;
/// the timings use every run.
fn timed(w: &Workload, seed: u64, seconds: u64, scratch: &Path) -> Result<Outcome> {
    let deadline = Instant::now() + Duration::from_secs(seconds);
    let seeds: Vec<u64> = (0..w.instances).map(|k| w.instance_seed(seed, k)).collect();
    let mut reps: Vec<Served> = Vec::new();
    loop {
        let started = Instant::now();
        let instance = reps.len() % seeds.len();
        let dir = scratch.join(format!("rep{}", reps.len()));
        let served = serve(w, seeds[instance], &dir, None)?;
        println!(
            "run {} (instance {instance}): setup {:.4} s, loop {:.4} s, {:.0} req/s, fingerprint {:016x}",
            reps.len(),
            served.setup_s,
            served.loop_s,
            served.req_per_s(),
            served.report.fingerprint()
        );
        reps.push(served);
        if reps.len() > seeds.len() && Instant::now() + started.elapsed() > deadline {
            break;
        }
    }

    let first = &reps[0];
    let clean_cost = if w.clean() {
        let monitor = bootstrap(w, first.seed, &first.problem)?;
        Some(first.problem.total_cost(monitor.scheme()))
    } else {
        None
    };
    let mut outcome = Outcome::default();
    for (i, rep) in reps.iter().enumerate() {
        let own_cost = clean_cost.filter(|_| rep.seed == first.seed);
        let mut errors = check_report(&rep.report, own_cost);
        let pass = &reps[i % seeds.len()];
        if rep.report.fingerprint() != pass.report.fingerprint() {
            errors.push(format!(
                "run {i}: fingerprint {:016x} != run {} of the same seed {:016x}",
                rep.report.fingerprint(),
                i % seeds.len(),
                pass.report.fingerprint()
            ));
        }
        outcome.tally(errors);
    }
    if w.durable {
        outcome.tally(check_recovery(w, first, &scratch.join("torn")));
    }

    let pooled: Vec<EpochReport> = reps[..seeds.len()]
        .iter()
        .flat_map(|r| r.report.epochs.iter().cloned())
        .collect();
    let offered: u64 = reps.iter().map(|r| derive::offered(&r.report.epochs)).sum();
    let loop_s: f64 = reps.iter().map(|r| r.loop_s).sum();
    let setup: Vec<f64> = reps.iter().map(|r| r.setup_s).collect();
    outcome.metrics = vec![
        metric("setup_s", derive::median(&setup), "s"),
        metric("req_per_s", offered as f64 / loop_s, "1/s"),
        metric("ntc_per_req", derive::ntc_per_req(&pooled), "NTC/req"),
        metric("savings_pct", derive::savings_pct(&pooled), "%"),
        metric("served_frac", derive::served_frac(&pooled), "fraction"),
        metric("stale_frac", derive::stale_frac(&pooled), "fraction"),
        metric("peak_rss_mb", probe::peak_rss_mb().unwrap_or(0.0), "MB"),
    ];
    Ok(outcome)
}

fn result_line(outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() {
                format!("{}", m.value)
            } else {
                "null".into()
            };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.errors.is_empty(),
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

fn run(args: &Args, scratch: &Path) -> Result<Outcome> {
    let w = workloads::workload(&args.workload).ok_or(format!(
        "unknown workload {} (expected one of: {})",
        args.workload,
        workloads::NAMES.join(", ")
    ))?;
    println!(
        "servebench workload={} seed={} seconds={} trace={} instances={} serve_threads={THREADS} \
         drp_threads={} pool_threads={} available_parallelism={}",
        w.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        w.instances,
        std::env::var("DRP_THREADS").unwrap_or_default(),
        drp_core::pool::WorkerPool::global().threads(),
        std::thread::available_parallelism().map_or(1, usize::from),
    );
    if args.trace {
        layers::traced(&w, w.instance_seed(args.seed, 0), scratch)
    } else {
        timed(&w, args.seed, args.seconds, scratch)
    }
}

fn main() -> ExitCode {
    // Pinned before anything touches the worker pool, which reads it once.
    std::env::set_var("DRP_THREADS", THREADS.to_string());
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("servebench: {e}");
            return ExitCode::from(2);
        }
    };
    let scratch = PathBuf::from(SCRATCH).join(std::process::id().to_string());
    let outcome = run(&args, &scratch);
    // Best effort: the parent goes only if no other run still uses it.
    let _ = std::fs::remove_dir_all(&scratch);
    let _ = std::fs::remove_dir(SCRATCH);
    match outcome {
        Ok(outcome) => {
            for e in &outcome.errors {
                eprintln!("servebench: check failed: {e}");
            }
            println!("{}", result_line(&outcome));
            if outcome.errors.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("servebench: {e}");
            ExitCode::FAILURE
        }
    }
}
