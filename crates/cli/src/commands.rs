use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use drp_algo::baselines::{HillClimb, PrimaryOnly, RandomFill};
use drp_algo::exact::BranchBound;
use drp_algo::fault_tolerance::ensure_min_degree;
use drp_algo::shard::ShardedSolver;
use drp_algo::{detect_changed_objects, Agra, AgraConfig, Gra, GraConfig, Sra};
use drp_core::format::{read_instance, read_scheme, write_instance, write_scheme};
use drp_core::migration::MigrationPlan;
use drp_core::telemetry::{self, InMemoryRecorder, Recorder};
use drp_core::{Problem, ReplicationAlgorithm, ReplicationScheme, SparseProblem};
use drp_serve::{
    execute_migration, run_service_durable_recorded, run_service_recorded,
    run_service_with_oracle_recorded, EpochTraffic, FaultSpec, FileWalStore, MigrationTuning,
    ServeConfig, WalStore, WalTuning,
};
use drp_workload::{PatternChange, WorkloadSpec};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

use crate::args::{CliError, Command, SolverKind};

fn read_file(path: &Path) -> Result<String, CliError> {
    std::fs::read_to_string(path).map_err(|source| CliError::Io {
        path: path.to_path_buf(),
        source,
    })
}

fn write_file(path: &Path, body: &str) -> Result<(), CliError> {
    std::fs::write(path, body).map_err(|source| CliError::Io {
        path: path.to_path_buf(),
        source,
    })
}

fn load_instance(path: &Path) -> Result<Problem, CliError> {
    Ok(read_instance(&read_file(path)?)?)
}

fn emit_scheme(
    out: &mut String,
    scheme: &ReplicationScheme,
    output: Option<&PathBuf>,
) -> Result<(), CliError> {
    let body = write_scheme(scheme);
    match output {
        Some(path) => {
            write_file(path, &body)?;
            let _ = writeln!(out, "scheme written to {}", path.display());
        }
        None => out.push_str(&body),
    }
    Ok(())
}

/// Runs the sharded hierarchical driver (`--shards K`): rebuild the sparse
/// graph view of the instance, cluster the sites, solve each shard as a
/// small dense sub-problem and reconcile into one global placement.
fn solve_sharded(
    out: &mut String,
    problem: &Problem,
    shards: usize,
    seed: u64,
    output: Option<&PathBuf>,
) -> Result<(), CliError> {
    let sp = SparseProblem::from_problem(problem).map_err(|e| CliError::Run(e.to_string()))?;
    let outcome = ShardedSolver::new(shards)
        .solve(&sp, seed)
        .map_err(|e| CliError::Run(e.to_string()))?;
    let _ = writeln!(
        out,
        "algorithm        : SHARD ({} clusters)",
        outcome.report.clusters
    );
    let _ = writeln!(out, "NTC              : {}", outcome.ntc);
    let _ = writeln!(out, "D_prime          : {}", outcome.d_prime);
    let _ = writeln!(out, "savings          : {:.2}%", outcome.savings_percent());
    let _ = writeln!(out, "shard sites      : {:?}", outcome.report.shard_sites);
    let _ = writeln!(
        out,
        "border replicas  : {} granted / {} requested",
        outcome.report.border_placed, outcome.report.border_requested
    );
    let _ = writeln!(out, "refine moves     : {}", outcome.report.refine_moves);
    let _ = writeln!(out, "fingerprint      : {:016x}", outcome.fingerprint());
    let scheme = ReplicationScheme::from_fn(problem, |site, object| {
        outcome.placement[object.index()]
            .binary_search(&site.index())
            .is_ok()
    })
    .map_err(|e| CliError::Run(e.to_string()))?;
    emit_scheme(out, &scheme, output)
}

/// Dumps a recorder as JSONL and notes the path in the report.
fn write_trace(out: &mut String, recorder: &InMemoryRecorder, path: &Path) -> Result<(), CliError> {
    recorder.write_jsonl(path).map_err(|source| CliError::Io {
        path: path.to_path_buf(),
        source,
    })?;
    let _ = writeln!(out, "trace written to {}", path.display());
    Ok(())
}

/// The recorder a `--trace-out` run records into, else the noop one.
fn recorder_for(trace: Option<&Arc<InMemoryRecorder>>) -> Arc<dyn Recorder> {
    trace.map_or_else(telemetry::noop, |rec| Arc::clone(rec) as Arc<dyn Recorder>)
}

/// Lets the trait-object dispatch in `solve` record SRA telemetry:
/// [`Sra`] is `Copy` and keeps no recorder, so this pairs one with it.
struct RecordedSra {
    inner: Sra,
    recorder: Arc<InMemoryRecorder>,
}

impl ReplicationAlgorithm for RecordedSra {
    fn name(&self) -> &str {
        "SRA"
    }

    fn solve(
        &self,
        problem: &Problem,
        rng: &mut dyn RngCore,
    ) -> drp_core::Result<ReplicationScheme> {
        self.inner
            .solve_recorded(problem, rng, self.recorder.as_ref())
    }
}

/// Executes a parsed [`Command`], returning its stdout text.
///
/// # Errors
///
/// Returns [`CliError`] for file, parse or solver failures.
pub fn run_command(command: Command) -> Result<String, CliError> {
    let mut out = String::new();
    match command {
        Command::Generate {
            sites,
            objects,
            update,
            capacity,
            topology,
            zipf,
            seed,
            output,
        } => {
            let mut spec = WorkloadSpec::paper(sites, objects, update, capacity);
            spec.topology = topology;
            spec.zipf_skew = zipf;
            let mut rng = StdRng::seed_from_u64(seed);
            let problem = spec
                .generate(&mut rng)
                .map_err(|e| CliError::Run(e.to_string()))?;
            let body = write_instance(&problem);
            match output {
                Some(path) => {
                    write_file(&path, &body)?;
                    let _ = writeln!(
                        out,
                        "instance {}x{} (D_prime = {}) written to {}",
                        sites,
                        objects,
                        problem.d_prime(),
                        path.display()
                    );
                }
                None => out.push_str(&body),
            }
        }
        Command::Solve {
            instance,
            solver,
            seed,
            population,
            generations,
            output,
            trace_out,
            shards,
        } => {
            let problem = load_instance(&instance)?;
            if shards > 0 {
                solve_sharded(&mut out, &problem, shards, seed, output.as_ref())?;
                return Ok(out);
            }
            let mut rng = StdRng::seed_from_u64(seed);
            // Armed only when --trace-out asks for it; SRA and GRA are the
            // instrumented solvers, the baselines leave the trace empty.
            let trace = trace_out
                .as_ref()
                .map(|_| Arc::new(InMemoryRecorder::new()));
            let algorithm: Box<dyn ReplicationAlgorithm> = match solver {
                SolverKind::Sra => match &trace {
                    Some(rec) => Box::new(RecordedSra {
                        inner: Sra::new(),
                        recorder: Arc::clone(rec),
                    }),
                    None => Box::new(Sra::new()),
                },
                SolverKind::Gra => {
                    let mut gra = Gra::with_config(GraConfig {
                        population_size: population,
                        generations,
                        ..GraConfig::default()
                    });
                    if let Some(rec) = &trace {
                        gra = gra.with_recorder(Arc::clone(rec) as Arc<dyn Recorder>);
                    }
                    Box::new(gra)
                }
                SolverKind::Hill => Box::new(HillClimb::default()),
                SolverKind::Random => Box::new(RandomFill::default()),
                SolverKind::Optimal => Box::new(BranchBound::default()),
                SolverKind::Primary => Box::new(PrimaryOnly),
            };
            let (scheme, report) = algorithm
                .solve_report(&problem, &mut rng)
                .map_err(|e| CliError::Run(e.to_string()))?;
            let _ = writeln!(out, "{report}");
            emit_scheme(&mut out, &scheme, output.as_ref())?;
            if let (Some(rec), Some(path)) = (&trace, &trace_out) {
                write_trace(&mut out, rec, path)?;
            }
        }
        Command::Evaluate { instance, scheme } => {
            let problem = load_instance(&instance)?;
            let scheme = read_scheme(&read_file(&scheme)?, &problem)?;
            let _ = writeln!(out, "NTC              : {}", problem.total_cost(&scheme));
            let _ = writeln!(out, "D_prime          : {}", problem.d_prime());
            let _ = writeln!(
                out,
                "savings          : {:.2}%",
                problem.savings_percent(&scheme)
            );
            let _ = writeln!(out, "extra replicas   : {}", scheme.extra_replica_count());
            let _ = writeln!(out, "per-site storage :");
            for site in problem.sites() {
                let used = scheme.used_capacity(site);
                let cap = problem.capacity(site);
                let _ = writeln!(
                    out,
                    "  site {site:>3}: {used:>8} / {cap:>8} data units ({:.1}%)",
                    100.0 * used as f64 / cap.max(1) as f64
                );
            }
        }
        Command::Inspect { instance } => {
            let problem = load_instance(&instance)?;
            let m = problem.num_sites();
            let n = problem.num_objects();
            let total_reads: u64 = problem.objects().map(|k| problem.total_reads(k)).sum();
            let total_writes: u64 = problem.objects().map(|k| problem.total_writes(k)).sum();
            let total_capacity: u64 = problem.sites().map(|i| problem.capacity(i)).sum();
            let _ = writeln!(out, "sites            : {m}");
            let _ = writeln!(out, "objects          : {n}");
            let _ = writeln!(out, "total object size: {}", problem.total_object_size());
            let _ = writeln!(out, "total capacity   : {total_capacity}");
            let _ = writeln!(out, "total reads      : {total_reads}");
            let _ = writeln!(out, "total writes     : {total_writes}");
            let _ = writeln!(
                out,
                "update ratio     : {:.2}%",
                100.0 * total_writes as f64 / total_reads.max(1) as f64
            );
            let _ = writeln!(out, "D_prime          : {}", problem.d_prime());
            let mut hottest: Vec<_> = problem
                .objects()
                .map(|k| (problem.total_reads(k), k))
                .collect();
            hottest.sort_unstable_by_key(|&(r, _)| std::cmp::Reverse(r));
            let _ = writeln!(out, "hottest objects  :");
            for (reads, k) in hottest.into_iter().take(5) {
                let _ = writeln!(
                    out,
                    "  object {k:>3}: {reads} reads, {} writes, size {}, primary at {}",
                    problem.total_writes(k),
                    problem.object_size(k),
                    problem.primary(k)
                );
            }
        }
        Command::Distributed { instance, output } => {
            let problem = load_instance(&instance)?;
            let run = drp_algo::distributed::distributed_sra(&problem)
                .map_err(|e| CliError::Run(e.to_string()))?;
            let _ = writeln!(
                out,
                "savings          : {:.2}%",
                problem.savings_percent(&run.scheme)
            );
            let _ = writeln!(
                out,
                "replicas created : {}",
                run.scheme.extra_replica_count()
            );
            let _ = writeln!(out, "protocol messages: {}", run.stats.messages);
            let _ = writeln!(out, "migration NTC    : {}", run.stats.transfer_cost);
            let _ = writeln!(out, "completion time  : {}", run.completion_time);
            emit_scheme(&mut out, &run.scheme, output.as_ref())?;
        }
        Command::Faults {
            instance,
            scheme,
            crashes,
            drop,
            jitter,
            seed,
            min_degree,
            horizon,
            trace_out,
        } => {
            let problem = load_instance(&instance)?;
            let faults = FaultSpec {
                crashes,
                drop_probability: drop,
                jitter,
            };
            faults
                .validate(problem.num_sites())
                .map_err(|e| CliError::Run(e.to_string()))?;
            let mut scheme = match scheme {
                Some(path) => read_scheme(&read_file(&path)?, &problem)?,
                None => ReplicationScheme::primary_only(&problem),
            };
            let top_up = ensure_min_degree(&problem, &mut scheme, min_degree)
                .map_err(|e| CliError::Run(e.to_string()))?;
            if !top_up.is_complete() {
                let _ = writeln!(
                    out,
                    "warning: {} object(s) cannot reach degree {min_degree} under capacity",
                    top_up.unsatisfiable.len()
                );
            }
            // An all-default spec means "injector off": the same workload
            // runs with the fault machinery disarmed.
            let plan = (faults != FaultSpec::default()).then(|| faults.plan(seed));
            let trace = trace_out
                .as_ref()
                .map(|_| Arc::new(InMemoryRecorder::new()));
            let recorder = recorder_for(trace.as_ref());
            // One standalone serving epoch of the instance's pattern over
            // `horizon` time units, with nothing to migrate.
            let run = execute_migration(
                &problem,
                &scheme,
                &MigrationPlan::default(),
                plan,
                MigrationTuning::default(),
                Some(EpochTraffic {
                    period: horizon,
                    seed,
                }),
                recorder,
            )
            .map_err(|e| CliError::Run(e.to_string()))?;
            let r = run.requests;
            let _ = writeln!(
                out,
                "reads: issued={} served={} failed-over={} stale={} lost={}",
                r.reads_issued,
                r.reads_served,
                r.reads_failed_over,
                r.reads_stale,
                r.reads_lost()
            );
            let _ = writeln!(
                out,
                "writes: issued={} committed={} queued={} lost={}",
                r.writes_issued,
                r.writes_committed,
                r.writes_queued,
                r.writes_lost()
            );
            let fs = run.fault_stats;
            let _ = writeln!(
                out,
                "faults: crashes={} recoveries={} dropped-random={} lost-arrivals={} \
                 lost-timers={} extra-delay={}",
                fs.crashes,
                fs.recoveries,
                fs.dropped_random,
                fs.lost_arrivals,
                fs.lost_timers,
                fs.extra_delay
            );
            let _ = writeln!(
                out,
                "sim: events={} messages={} data-units={} transfer-cost={}",
                run.sim_events, run.sim.messages, run.sim.data_units, run.sim.transfer_cost
            );
            if let (Some(rec), Some(path)) = (&trace, &trace_out) {
                write_trace(&mut out, rec, path)?;
            }
        }
        Command::Serve {
            instance,
            policy,
            epochs,
            period,
            seed,
            night_every,
            admission_limit,
            threads,
            min_degree,
            drift,
            scenario,
            oracle,
            crashes,
            drop,
            jitter,
            report_out,
            trace_out,
            wal_dir,
            recover,
            checkpoint_every,
        } => {
            let problem = load_instance(&instance)?;
            // Checked before a durable run writes its WAL header.
            let faults = FaultSpec {
                crashes,
                drop_probability: drop,
                jitter,
            };
            faults
                .validate(problem.num_sites())
                .map_err(|e| CliError::Run(e.to_string()))?;
            let config = ServeConfig {
                policy,
                epochs,
                period,
                seed,
                night_every,
                admission_limit,
                threads,
                min_degree,
                drift: drift.map(
                    |(change_percent, objects_percent, read_share)| PatternChange {
                        change_percent,
                        objects_percent,
                        read_share,
                    },
                ),
                faults: (faults != FaultSpec::default()).then_some(faults),
                scenario,
                wal: WalTuning { checkpoint_every },
                ..ServeConfig::default()
            };
            // Always recorded: the unmet-floor warning reads a counter.
            let trace = Arc::new(InMemoryRecorder::new());
            let recorder: Arc<dyn Recorder> = trace.clone();
            let mut oracle_info = None;
            let report = if let Some(dir) = &wal_dir {
                let mut store =
                    FileWalStore::open(dir).map_err(|e| CliError::Run(e.to_string()))?;
                let existing = store.load().map_err(|e| CliError::Run(e.to_string()))?;
                if !existing.is_empty() && !recover {
                    return Err(CliError::Run(format!(
                        "{} already holds a WAL; pass --recover to resume it or remove the file",
                        store.path().display()
                    )));
                }
                let outcome = run_service_durable_recorded(&problem, &config, &mut store, recorder)
                    .map_err(|e| CliError::Run(e.to_string()))?;
                match &outcome.recovery {
                    Some(info) => {
                        let _ = writeln!(
                            out,
                            "recovered from {}: resumed at epoch {}, {} uncommitted record(s) dropped",
                            store.path().display(),
                            info.resumed_epoch,
                            info.dropped_records
                        );
                        if let Some(damage) = &info.damage {
                            let _ = writeln!(out, "wal damage: {damage}");
                        }
                    }
                    None => {
                        let _ = writeln!(out, "journaling to {}", store.path().display());
                    }
                }
                outcome.report
            } else if oracle {
                let (report, oracle_report) =
                    run_service_with_oracle_recorded(&problem, &config, recorder)
                        .map_err(|e| CliError::Run(e.to_string()))?;
                oracle_info = Some(oracle_report);
                report
            } else {
                run_service_recorded(&problem, &config, recorder)
                    .map_err(|e| CliError::Run(e.to_string()))?
            };
            let _ = writeln!(
                out,
                "policy {} | seed {} | {} epoch(s) x {} time units",
                report.policy, report.seed, epochs, period
            );
            let _ = writeln!(
                out,
                "{:>5} {:>12} {:>12} {:>7} {:>7} {:>6} {:>6} {:>8} {:>9}",
                "epoch",
                "serve-ntc",
                "migr-ntc",
                "moves",
                "shed",
                "stale",
                "lost",
                "replicas",
                "savings%"
            );
            for e in &report.epochs {
                let mark = if e.rebuilt {
                    " night:GRA"
                } else if e.adapted_objects > 0 {
                    " day:AGRA"
                } else {
                    ""
                };
                let _ = writeln!(
                    out,
                    "{:>5} {:>12} {:>12} {:>7} {:>7} {:>6} {:>6} {:>8} {:>9.2}{}",
                    e.epoch,
                    e.serving_ntc,
                    e.migration_ntc,
                    e.migration_planned,
                    e.shed,
                    e.reads_stale,
                    e.reads_lost + e.writes_lost,
                    e.replicas,
                    e.savings_percent,
                    mark,
                );
            }
            let t = &report.totals;
            let _ = writeln!(
                out,
                "totals: serving NTC {} + migration NTC {} = {} | {} adaptation(s), {} rebuild(s), {} move(s)",
                t.serving_ntc, t.migration_ntc, t.total_ntc, t.adaptations, t.rebuilds, t.migration_moves
            );
            if let Some(o) = &oracle_info {
                let _ = writeln!(
                    out,
                    "oracle: online NTC {} vs OPT {} | competitive ratio {:.4} | hindsight won {} epoch(s)",
                    o.online_ntc, o.opt_ntc, o.competitive_ratio, o.hindsight_epochs
                );
            }
            let unmet = trace.counter("serve.min_degree_unmet");
            if unmet > 0 {
                let _ = writeln!(
                    out,
                    "warning: {unmet} object(s) cannot reach degree {min_degree} under capacity"
                );
            }
            let _ = writeln!(out, "fingerprint: {:016x}", report.fingerprint());
            if let Some(path) = &report_out {
                write_file(path, &report.render_json())?;
                let _ = writeln!(out, "report written to {}", path.display());
            }
            if let Some(path) = &trace_out {
                write_trace(&mut out, &trace, path)?;
            }
        }
        Command::Adapt {
            instance,
            new_instance,
            scheme,
            mini,
            threshold,
            seed,
            output,
        } => {
            let old_problem = load_instance(&instance)?;
            let new_problem = load_instance(&new_instance)?;
            if old_problem.num_objects() != new_problem.num_objects()
                || old_problem.num_sites() != new_problem.num_sites()
            {
                return Err(CliError::Run(
                    "old and new instances must have the same shape".into(),
                ));
            }
            let current = read_scheme(&read_file(&scheme)?, &old_problem)?;
            let changed = detect_changed_objects(&old_problem, &new_problem, threshold);
            let _ = writeln!(
                out,
                "{} of {} objects shifted past {threshold}%",
                changed.len(),
                new_problem.num_objects()
            );
            let stale = new_problem.savings_percent(&current);
            let mut rng = StdRng::seed_from_u64(seed);
            let agra = Agra::with_config(AgraConfig {
                mini_gra_generations: mini,
                ..AgraConfig::default()
            });
            let outcome = agra
                .adapt(&new_problem, &current, &[], &changed, &mut rng)
                .map_err(|e| CliError::Run(e.to_string()))?;
            let adapted = new_problem.savings_percent(&outcome.scheme);
            let _ = writeln!(out, "stale scheme savings  : {stale:.2}%");
            let _ = writeln!(out, "adapted scheme savings: {adapted:.2}%");
            let _ = writeln!(
                out,
                "evaluations           : {} micro + {} mini",
                outcome.micro_evaluations, outcome.mini_evaluations
            );
            emit_scheme(&mut out, &outcome.scheme, output.as_ref())?;
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use crate::run;

    fn argv(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    fn tempdir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("drp_cli_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn generate_solve_evaluate_pipeline() {
        let dir = tempdir("pipeline");
        let net = dir.join("net.drp");
        let scheme = dir.join("scheme.drp");

        let out = run(&argv(&format!(
            "generate --sites 8 --objects 10 --update 5 --capacity 20 --seed 3 -o {}",
            net.display()
        )))
        .unwrap();
        assert!(out.contains("instance 8x10"));

        let out = run(&argv(&format!(
            "solve --instance {} --algorithm sra -o {}",
            net.display(),
            scheme.display()
        )))
        .unwrap();
        assert!(out.contains("SRA:"));

        let out = run(&argv(&format!(
            "evaluate --instance {} --scheme {}",
            net.display(),
            scheme.display()
        )))
        .unwrap();
        assert!(out.contains("savings"));
        assert!(out.contains("per-site storage"));

        let out = run(&argv(&format!("inspect --instance {}", net.display()))).unwrap();
        assert!(out.contains("sites            : 8"));
        assert!(out.contains("hottest objects"));

        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn generate_to_stdout_is_parseable() {
        let text = run(&argv("generate --sites 4 --objects 3 --seed 1")).unwrap();
        let problem = drp_core::format::read_instance(&text).unwrap();
        assert_eq!(problem.num_sites(), 4);
    }

    #[test]
    fn solve_gra_and_optimal_agree_on_tiny_instances() {
        let dir = tempdir("optimal");
        let net = dir.join("net.drp");
        run(&argv(&format!(
            "generate --sites 4 --objects 4 --capacity 30 --seed 5 -o {}",
            net.display()
        )))
        .unwrap();
        let gra = run(&argv(&format!(
            "solve --instance {} --algorithm gra --pop 8 --gens 15",
            net.display()
        )))
        .unwrap();
        let opt = run(&argv(&format!(
            "solve --instance {} --algorithm optimal",
            net.display()
        )))
        .unwrap();
        // Pull the reported costs out of "<name>: cost=<n> ...".
        let cost = |s: &str| -> u64 {
            s.split("cost=")
                .nth(1)
                .unwrap()
                .split_whitespace()
                .next()
                .unwrap()
                .parse()
                .unwrap()
        };
        assert!(cost(&opt) <= cost(&gra));
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn solve_with_shards_reports_and_writes_an_evaluable_scheme() {
        let dir = tempdir("shards");
        let net = dir.join("net.drp");
        let scheme = dir.join("scheme.drp");
        run(&argv(&format!(
            "generate --sites 24 --objects 8 --capacity 30 --topology hier --seed 4 -o {}",
            net.display()
        )))
        .unwrap();
        let out = run(&argv(&format!(
            "solve --instance {} --algorithm gra --shards 3 --seed 4 -o {}",
            net.display(),
            scheme.display()
        )))
        .unwrap();
        assert!(out.contains("SHARD (3 clusters)"), "{out}");
        assert!(out.contains("fingerprint"), "{out}");
        // The emitted scheme round-trips through the evaluator, i.e. the
        // sharded placement is a valid dense scheme too.
        let eval = run(&argv(&format!(
            "evaluate --instance {} --scheme {}",
            net.display(),
            scheme.display()
        )))
        .unwrap();
        assert!(eval.contains("savings"), "{eval}");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn adapt_round_trip() {
        let dir = tempdir("adapt");
        let old = dir.join("old.drp");
        let newp = dir.join("new.drp");
        let scheme = dir.join("scheme.drp");
        run(&argv(&format!(
            "generate --sites 8 --objects 10 --seed 7 -o {}",
            old.display()
        )))
        .unwrap();
        // A different seed plays the role of the shifted pattern; note the
        // topology must match, so we derive the new instance from the old
        // one instead of regenerating.
        let problem =
            drp_core::format::read_instance(&std::fs::read_to_string(&old).unwrap()).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        let change = drp_workload::PatternChange {
            change_percent: 400.0,
            objects_percent: 30.0,
            read_share: 1.0,
        };
        use rand::SeedableRng;
        let shift = change.apply(&problem, &mut rng).unwrap();
        std::fs::write(&newp, drp_core::format::write_instance(&shift.problem)).unwrap();

        run(&argv(&format!(
            "solve --instance {} --algorithm sra -o {}",
            old.display(),
            scheme.display()
        )))
        .unwrap();
        let out = run(&argv(&format!(
            "adapt --instance {} --new-instance {} --scheme {} --mini 3 --threshold 50",
            old.display(),
            newp.display(),
            scheme.display()
        )))
        .unwrap();
        assert!(out.contains("adapted scheme savings"));
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn distributed_reports_protocol_costs() {
        let dir = tempdir("distributed");
        let net = dir.join("net.drp");
        run(&argv(&format!(
            "generate --sites 6 --objects 8 --seed 11 -o {}",
            net.display()
        )))
        .unwrap();
        let out = run(&argv(&format!("distributed --instance {}", net.display()))).unwrap();
        assert!(out.contains("protocol messages"));
        assert!(out.contains("drp-scheme v1"));
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn faults_serves_one_epoch_and_matches_the_golden() {
        let dir = tempdir("faults");
        let net = dir.join("net.drp");
        run(&argv(&format!(
            "generate --sites 10 --objects 8 --capacity 60 --seed 13 -o {}",
            net.display()
        )))
        .unwrap();
        let line = format!(
            "faults --instance {} --crash 2@80..380 --crash 5@120..450 \
             --jitter 1 --seed 17 --min-degree 2 --horizon 600",
            net.display()
        );
        let out = run(&argv(&line)).unwrap();
        // Golden: the front end serves the instance's pattern on the serve
        // epoch engine; any protocol change that shifts a count shows here.
        let golden = "\
reads: issued=1621 served=1490 failed-over=96 stale=75 lost=131
writes: issued=75 committed=66 queued=4 lost=9
faults: crashes=2 recoveries=2 dropped-random=0 lost-arrivals=7 lost-timers=137 \
extra-delay=1164
sim: events=4085 messages=2376 data-units=30958 transfer-cost=87992
";
        assert_eq!(out, golden);
        // Bitwise-identical on a second run: the whole pipeline is seeded.
        assert_eq!(out, run(&argv(&line)).unwrap());
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn faults_without_a_plan_runs_the_clean_baseline() {
        let dir = tempdir("faults_clean");
        let net = dir.join("net.drp");
        run(&argv(&format!(
            "generate --sites 6 --objects 5 --capacity 60 --seed 2 -o {}",
            net.display()
        )))
        .unwrap();
        let out = run(&argv(&format!("faults --instance {}", net.display()))).unwrap();
        assert!(out.contains("faults: crashes=0 recoveries=0"), "{out}");
        assert!(out.contains("failed-over=0 stale="), "{out}");
        assert!(out.contains("queued=0 lost=0"), "{out}");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn faults_rejects_out_of_range_sites() {
        let dir = tempdir("faults_bad");
        let net = dir.join("net.drp");
        run(&argv(&format!(
            "generate --sites 4 --objects 3 --seed 1 -o {}",
            net.display()
        )))
        .unwrap();
        let err = run(&argv(&format!(
            "faults --instance {} --crash 9@10..20",
            net.display()
        )))
        .unwrap_err();
        assert!(err.to_string().contains("out of range"));
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn trace_out_writes_jsonl_without_changing_results() {
        let dir = tempdir("trace");
        let net = dir.join("net.drp");
        let trace = dir.join("solve.trace.jsonl");
        run(&argv(&format!(
            "generate --sites 8 --objects 10 --capacity 20 --seed 3 -o {}",
            net.display()
        )))
        .unwrap();

        let solve = format!(
            "solve --instance {} --algorithm gra --pop 8 --gens 10 --seed 4",
            net.display()
        );
        let bare = run(&argv(&solve)).unwrap();
        let traced = run(&argv(&format!("{solve} --trace-out {}", trace.display()))).unwrap();
        assert!(traced.contains("trace written to"), "{traced}");
        // The wall-clock field varies run to run; the cost must not.
        let cost = |s: &str| {
            s.split("cost=")
                .nth(1)
                .unwrap()
                .split_whitespace()
                .next()
                .unwrap()
                .to_owned()
        };
        assert_eq!(cost(&bare), cost(&traced));
        let body = std::fs::read_to_string(&trace).unwrap();
        assert!(body.contains(r#""name":"ga.generation""#), "{body}");
        assert!(body.contains(r#""name":"gra.best_fitness""#), "{body}");

        let ftrace = dir.join("faults.trace.jsonl");
        let out = run(&argv(&format!(
            "faults --instance {} --crash 2@80..380 --seed 17 --horizon 400 --trace-out {}",
            net.display(),
            ftrace.display()
        )))
        .unwrap();
        assert!(out.contains("trace written to"), "{out}");
        let body = std::fs::read_to_string(&ftrace).unwrap();
        assert!(body.contains(r#""name":"sim.run""#), "{body}");
        assert!(body.contains(r#""name":"serve.epoch""#), "{body}");
        assert!(body.contains(r#""name":"fault.crashes""#), "{body}");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn missing_file_is_reported() {
        let err = run(&argv("solve --instance /nonexistent.drp --algorithm sra")).unwrap_err();
        assert!(err.to_string().contains("nonexistent"));
    }

    #[test]
    fn serve_runs_the_monitor_loop_end_to_end() {
        let dir = tempdir("serve");
        let net = dir.join("net.drp");
        let report = dir.join("report.json");
        run(&argv(&format!(
            "generate --sites 6 --objects 8 --capacity 30 --seed 9 -o {}",
            net.display()
        )))
        .unwrap();

        let out = run(&argv(&format!(
            "serve --instance {} --policy monitor --epochs 2 --period 128 --seed 9 \
             --drift 500:40:0.9 --report-out {}",
            net.display(),
            report.display()
        )))
        .unwrap();
        assert!(out.contains("policy monitor"));
        assert!(out.contains("fingerprint: "));
        assert!(out.contains("totals: serving NTC"));
        let json = std::fs::read_to_string(&report).unwrap();
        assert!(json.contains("\"policy\": \"monitor\""));
        assert!(json.contains("\"epochs\": ["));

        // Same seed, same fingerprint: the CLI surface preserves the
        // determinism contract.
        let again = run(&argv(&format!(
            "serve --instance {} --policy monitor --epochs 2 --period 128 --seed 9 \
             --drift 500:40:0.9",
            net.display()
        )))
        .unwrap();
        let fp = |text: &str| {
            text.lines()
                .find_map(|l| l.strip_prefix("fingerprint: ").map(str::to_string))
                .unwrap()
        };
        assert_eq!(fp(&out), fp(&again));
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn serve_rejects_bad_arguments() {
        assert!(run(&argv("serve")).is_err());
        assert!(run(&argv("serve --instance x.drp --policy bogus")).is_err());
        assert!(run(&argv("serve --instance x.drp --epochs 0")).is_err());
        assert!(run(&argv("serve --instance x.drp --drift 1:2")).is_err());
        assert!(run(&argv("serve --instance x.drp --drop 1.5")).is_err());
        assert!(run(&argv("serve --instance x.drp --checkpoint-every 0")).is_err());
        assert!(run(&argv("serve --instance x.drp --recover")).is_err());
        assert!(run(&argv("serve --instance x.drp --scenario bogus")).is_err());
        assert!(run(&argv(
            "serve --instance x.drp --scenario diurnal --drift 1:2:0.5"
        ))
        .is_err());
        assert!(run(&argv("serve --instance x.drp --oracle --wal-dir w")).is_err());
    }

    #[test]
    fn serve_predictive_scenario_with_oracle_end_to_end() {
        let dir = tempdir("serve_predict");
        let net = dir.join("net.drp");
        run(&argv(&format!(
            "generate --sites 6 --objects 8 --capacity 30 --seed 9 -o {}",
            net.display()
        )))
        .unwrap();

        let serve = format!(
            "serve --instance {} --policy predictive-ewma --scenario flash-crowd \
             --epochs 3 --period 128 --seed 9 --oracle",
            net.display()
        );
        let out = run(&argv(&serve)).unwrap();
        assert!(out.contains("policy predictive-ewma"), "{out}");
        assert!(out.contains("competitive ratio "), "{out}");
        let ratio: f64 = out
            .lines()
            .find(|l| l.starts_with("oracle: "))
            .and_then(|l| l.split("competitive ratio ").nth(1))
            .and_then(|rest| rest.split_whitespace().next())
            .unwrap()
            .parse()
            .unwrap();
        assert!(ratio >= 1.0, "{out}");

        // Deterministic end to end, oracle included.
        let again = run(&argv(&serve)).unwrap();
        assert_eq!(out, again);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn serve_predictive_policy_runs_the_library_policy_with_its_hot_path() {
        use drp_serve::{Policy, ServeConfig};
        use drp_workload::Scenario;

        let dir = tempdir("serve_predict_hot");
        let net = dir.join("net.drp");
        let report = dir.join("report.json");
        run(&argv(&format!(
            "generate --sites 8 --objects 12 --capacity 35 --seed 9 -o {}",
            net.display()
        )))
        .unwrap();
        run(&argv(&format!(
            "serve --instance {} --policy predictive-ewma --scenario flash-crowd \
             --epochs 6 --period 256 --seed 9 --report-out {}",
            net.display(),
            report.display()
        )))
        .unwrap();
        let json = std::fs::read_to_string(&report).unwrap();

        // The CLI policy is the whole boundary configuration: the library
        // run of the same policy, hot path included, reports identically.
        let problem = super::load_instance(&net).unwrap();
        let config = ServeConfig {
            policy: Policy::PredictiveEwma,
            epochs: 6,
            period: 256,
            seed: 9,
            scenario: Some(Scenario::FlashCrowd),
            ..ServeConfig::default()
        };
        let library = drp_serve::run_service(&problem, &config).unwrap();
        assert_eq!(json, library.render_json());
        assert!(
            library.totals.hot_promotions > 0,
            "the forecast must pre-stage hot promotions"
        );
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn serve_oracle_trace_out_writes_the_run_trace() {
        // The oracle path records too: a "trace written" line must never
        // sit on top of an empty trace file.
        let dir = tempdir("serve_oracle_trace");
        let net = dir.join("net.drp");
        let trace = dir.join("oracle.trace.jsonl");
        run(&argv(&format!(
            "generate --sites 6 --objects 8 --capacity 30 --seed 9 -o {}",
            net.display()
        )))
        .unwrap();
        let serve = format!(
            "serve --instance {} --policy monitor --epochs 2 --period 128 --seed 9 --oracle",
            net.display()
        );
        let bare = run(&argv(&serve)).unwrap();
        let traced = run(&argv(&format!("{serve} --trace-out {}", trace.display()))).unwrap();
        assert!(traced.contains("trace written to"), "{traced}");
        assert!(traced.starts_with(&bare), "tracing must not change the run");
        let body = std::fs::read_to_string(&trace).unwrap();
        assert!(!body.is_empty());
        assert!(body.contains(r#""name":"serve.run""#), "{body}");
        assert!(body.contains(r#""name":"serve.oracle""#), "{body}");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn serve_wal_dir_journals_refuses_stale_logs_and_recovers() {
        let dir = tempdir("serve_wal");
        let net = dir.join("net.drp");
        let wal = dir.join("wal");
        run(&argv(&format!(
            "generate --sites 6 --objects 8 --capacity 30 --seed 9 -o {}",
            net.display()
        )))
        .unwrap();

        let serve = format!(
            "serve --instance {} --policy monitor --epochs 2 --period 128 --seed 9 \
             --drift 500:40:0.9",
            net.display()
        );
        let fp = |text: &str| {
            text.lines()
                .find_map(|l| l.strip_prefix("fingerprint: ").map(str::to_string))
                .unwrap()
        };
        let plain = run(&argv(&serve)).unwrap();

        // A fault spec naming a site outside the instance is refused before
        // the durable run writes anything.
        let bad = format!(
            "serve --instance {} --crash 6@0..10 --wal-dir {}",
            net.display(),
            wal.display()
        );
        let err = run(&argv(&bad)).unwrap_err();
        assert!(err.to_string().contains("out of range"), "{err}");
        assert!(!wal.join("wal.log").exists());

        // Fresh durable run: journals, same fingerprint as the in-memory run.
        let durable = run(&argv(&format!(
            "{serve} --wal-dir {} --checkpoint-every 1",
            wal.display()
        )))
        .unwrap();
        assert!(durable.contains("journaling to"), "{durable}");
        assert_eq!(fp(&plain), fp(&durable));
        assert!(wal.join("wal.log").exists());

        // A leftover log without --recover is an error, not a silent resume.
        let err = run(&argv(&format!("{serve} --wal-dir {}", wal.display()))).unwrap_err();
        assert!(err.to_string().contains("--recover"), "{err}");

        // With --recover the completed log replays to the same report.
        let resumed = run(&argv(&format!(
            "{serve} --wal-dir {} --checkpoint-every 1 --recover",
            wal.display()
        )))
        .unwrap();
        assert!(resumed.contains("recovered from"), "{resumed}");
        assert!(resumed.contains("resumed at epoch 2"), "{resumed}");
        assert_eq!(fp(&plain), fp(&resumed));
        let _ = std::fs::remove_dir_all(dir);
    }

    /// `--min-degree` reaches the service: every epoch's realized
    /// directory and every boundary target, as the WAL journals them, hold
    /// each object at the floor wherever capacity allows (topping up adds
    /// nothing), while the bare run's do not; the default floor leaves the
    /// run as it was.
    #[test]
    fn serve_min_degree_floors_every_epoch_scheme() {
        use drp_algo::fault_tolerance::ensure_min_degree;
        use drp_core::format::{read_instance, read_scheme};
        use drp_serve::wal::{decode_stream, WalRecord};
        use drp_serve::{FileWalStore, WalStore};

        let dir = tempdir("serve_floor");
        let net = dir.join("net.drp");
        // Write-heavy, so the solvers leave objects below the floor with
        // room to spare.
        run(&argv(&format!(
            "generate --sites 6 --objects 8 --capacity 60 --update 40 --seed 9 -o {}",
            net.display()
        )))
        .unwrap();
        let problem = read_instance(&std::fs::read_to_string(&net).unwrap()).unwrap();
        // Journals `serve` with `extra` flags and returns, per journaled
        // scheme (realized directories and targets), how many replicas
        // topping it up to `degree` adds.
        let top_ups = |serve: &str, extra: &str, degree: usize| -> Vec<usize> {
            let wal = dir.join("wal");
            let _ = std::fs::remove_dir_all(&wal);
            run(&argv(&format!(
                "{serve} {extra} --wal-dir {} --checkpoint-every 100",
                wal.display()
            )))
            .unwrap();
            let log = FileWalStore::open(&wal).unwrap().load().unwrap();
            decode_stream(&log)
                .records
                .into_iter()
                .filter_map(|record| match record {
                    WalRecord::EpochEnd { realized, .. } => Some(realized),
                    WalRecord::Retune { target, .. } => Some(target),
                    _ => None,
                })
                .map(|text| {
                    let mut scheme =
                        read_scheme(std::str::from_utf8(&text).unwrap(), &problem).unwrap();
                    ensure_min_degree(&problem, &mut scheme, degree)
                        .unwrap()
                        .added
                })
                .collect()
        };
        for (policy, degree) in [("monitor", 3usize), ("static", 2)] {
            let serve = format!(
                "serve --instance {} --policy {policy} --epochs 3 --period 128 --seed 9 \
                 --drift 500:40:0.9 --night-every 2",
                net.display()
            );
            let bare = run(&argv(&serve)).unwrap();
            assert_eq!(
                bare,
                run(&argv(&format!("{serve} --min-degree 1"))).unwrap()
            );

            let floored = top_ups(&serve, &format!("--min-degree {degree}"), degree);
            assert_eq!(floored, vec![0; 6], "{policy}: a scheme below the floor");
            let unfloored = top_ups(&serve, "", degree);
            assert_eq!(unfloored.len(), 6);
            assert!(
                unfloored.iter().any(|&added| added > 0),
                "{policy}: the bare run already meets the floor"
            );
        }
        let _ = std::fs::remove_dir_all(dir);
    }

    /// A degree floor that capacity cannot meet is reported, as `faults`
    /// reports it: at degree 3 this write-heavy instance's epoch-1 target
    /// leaves an object below the floor.
    #[test]
    fn serve_warns_when_capacity_leaves_the_degree_floor_unmet() {
        let dir = tempdir("serve_floor_unmet");
        let net = dir.join("net.drp");
        run(&argv(&format!(
            "generate --sites 6 --objects 8 --capacity 60 --update 40 --seed 9 -o {}",
            net.display()
        )))
        .unwrap();
        let serve = format!(
            "serve --instance {} --policy monitor --epochs 3 --period 128 --seed 9 \
             --drift 500:40:0.9 --night-every 2",
            net.display()
        );
        let floored = run(&argv(&format!("{serve} --min-degree 3"))).unwrap();
        let warning = floored
            .lines()
            .find(|line| line.starts_with("warning: "))
            .unwrap_or_else(|| panic!("no unmet-floor warning in:\n{floored}"));
        assert!(
            warning.ends_with("object(s) cannot reach degree 3 under capacity"),
            "{warning}"
        );
        let bare = run(&argv(&serve)).unwrap();
        assert!(!bare.contains("warning: "), "{bare}");
        let _ = std::fs::remove_dir_all(dir);
    }
}
