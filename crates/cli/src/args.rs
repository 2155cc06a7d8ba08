use std::error::Error;
use std::fmt;
use std::path::PathBuf;

use drp_serve::Policy;
use drp_workload::{Scenario, TopologyKind};

/// CLI-level errors with human-readable messages.
#[derive(Debug)]
pub enum CliError {
    /// Argument parsing failed.
    Usage(String),
    /// A file could not be read or written.
    Io {
        /// The path involved.
        path: PathBuf,
        /// The underlying error.
        source: std::io::Error,
    },
    /// A file failed to parse.
    Format(drp_core::format::FormatError),
    /// A solver or generator failed.
    Run(String),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(msg) => write!(f, "{msg}"),
            CliError::Io { path, source } => write!(f, "{}: {source}", path.display()),
            CliError::Format(e) => write!(f, "parse error: {e}"),
            CliError::Run(msg) => write!(f, "{msg}"),
        }
    }
}

impl Error for CliError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CliError::Io { source, .. } => Some(source),
            CliError::Format(e) => Some(e),
            _ => None,
        }
    }
}

impl From<drp_core::format::FormatError> for CliError {
    fn from(e: drp_core::format::FormatError) -> Self {
        CliError::Format(e)
    }
}

/// Which solver `drp solve` runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolverKind {
    /// Greedy SRA.
    Sra,
    /// Genetic GRA.
    Gra,
    /// Steepest-ascent hill climbing.
    Hill,
    /// Random valid placement.
    Random,
    /// Exact branch and bound (small instances only).
    Optimal,
    /// Primary-only baseline.
    Primary,
}

/// A parsed command.
#[derive(Debug, PartialEq)]
pub enum Command {
    /// Generate a synthetic instance.
    Generate {
        /// Number of sites.
        sites: usize,
        /// Number of objects.
        objects: usize,
        /// Update ratio, percent.
        update: f64,
        /// Capacity percentage.
        capacity: f64,
        /// Topology.
        topology: TopologyKind,
        /// Optional Zipf read skew.
        zipf: Option<f64>,
        /// Seed.
        seed: u64,
        /// Output file (stdout when absent).
        output: Option<PathBuf>,
    },
    /// Solve an instance.
    Solve {
        /// Instance file.
        instance: PathBuf,
        /// Which solver.
        solver: SolverKind,
        /// Seed.
        seed: u64,
        /// GRA population size.
        population: usize,
        /// GRA generations.
        generations: usize,
        /// Scheme output file (omitted = report only).
        output: Option<PathBuf>,
        /// Telemetry JSONL output file.
        trace_out: Option<PathBuf>,
        /// Number of shards for the hierarchical driver (0 = flat solve).
        shards: usize,
    },
    /// Evaluate a scheme against an instance.
    Evaluate {
        /// Instance file.
        instance: PathBuf,
        /// Scheme file.
        scheme: PathBuf,
    },
    /// Summarize an instance.
    Inspect {
        /// Instance file.
        instance: PathBuf,
    },
    /// Run the distributed token-passing SRA and report protocol costs.
    Distributed {
        /// Instance file.
        instance: PathBuf,
        /// Scheme output file.
        output: Option<PathBuf>,
    },
    /// Serve one period of an instance's pattern under injected faults.
    Faults {
        /// Instance file.
        instance: PathBuf,
        /// Optional scheme file (defaults to primary-only topped up to the
        /// degree floor).
        scheme: Option<PathBuf>,
        /// Crash windows as `(site, from, until)`.
        crashes: Vec<(usize, u64, u64)>,
        /// Per-message drop probability.
        drop: f64,
        /// Maximum extra delivery delay.
        jitter: u64,
        /// Seed of the fault plan and the request timestamps.
        seed: u64,
        /// Min-degree floor the scheme is topped up to before serving.
        min_degree: usize,
        /// Simulated time units the client requests spread over.
        horizon: u64,
        /// Telemetry JSONL output file.
        trace_out: Option<PathBuf>,
    },
    /// Run the closed-loop online adaptation service.
    Serve {
        /// Instance file.
        instance: PathBuf,
        /// Adaptation policy.
        policy: Policy,
        /// Serving epochs.
        epochs: usize,
        /// Simulated time units per epoch.
        period: u64,
        /// Master seed.
        seed: u64,
        /// Every k-th boundary rebuilds with GRA (0 = never).
        night_every: usize,
        /// Per-site admitted-request cap per epoch (0 = unlimited).
        admission_limit: u64,
        /// Ingestion worker threads (0 = auto from `DRP_THREADS`/cores).
        threads: usize,
        /// Replica-degree floor every installed scheme is topped up to.
        min_degree: usize,
        /// Pattern drift as `(change%, objects%, read share)`.
        drift: Option<(f64, f64, f64)>,
        /// Named workload scenario (mutually exclusive with drift/faults).
        scenario: Option<Scenario>,
        /// Score the run against the offline-optimal replay oracle.
        oracle: bool,
        /// Crash windows as `(site, from, until)`.
        crashes: Vec<(usize, u64, u64)>,
        /// Per-message drop probability.
        drop: f64,
        /// Maximum extra delivery delay.
        jitter: u64,
        /// Service report JSON output file.
        report_out: Option<PathBuf>,
        /// Telemetry JSONL output file.
        trace_out: Option<PathBuf>,
        /// Directory for the write-ahead log (None = in-memory run).
        wal_dir: Option<PathBuf>,
        /// Resume from an existing WAL instead of refusing it.
        recover: bool,
        /// Compact the WAL into a checkpoint every `n` epochs.
        checkpoint_every: usize,
    },
    /// Adapt a scheme to a shifted instance with AGRA.
    Adapt {
        /// Old instance file.
        instance: PathBuf,
        /// New (shifted) instance file.
        new_instance: PathBuf,
        /// Current scheme file.
        scheme: PathBuf,
        /// Mini-GRA generations.
        mini: usize,
        /// Change-detection threshold, percent.
        threshold: f64,
        /// Seed.
        seed: u64,
        /// Output scheme file.
        output: Option<PathBuf>,
    },
}

struct ArgStream<'a> {
    args: &'a [String],
    index: usize,
}

impl<'a> ArgStream<'a> {
    fn next_value(&mut self, flag: &str) -> Result<&'a str, CliError> {
        self.index += 1;
        self.args
            .get(self.index)
            .map(|s| {
                self.index += 1;
                s.as_str()
            })
            .ok_or_else(|| CliError::Usage(format!("{flag} needs a value")))
    }
}

fn parse_num<T: std::str::FromStr>(value: &str, flag: &str) -> Result<T, CliError> {
    value
        .parse()
        .map_err(|_| CliError::Usage(format!("bad value `{value}` for {flag}")))
}

fn parse_topology(value: &str) -> Result<TopologyKind, CliError> {
    Ok(match value {
        "complete" => TopologyKind::Complete,
        "ring" => TopologyKind::Ring,
        "tree" => TopologyKind::Tree { arity: 2 },
        "grid" => TopologyKind::Grid,
        "er" => TopologyKind::ErdosRenyi { p: 0.3 },
        "waxman" => TopologyKind::Waxman {
            alpha: 0.8,
            beta: 0.4,
        },
        "hier" => TopologyKind::Hierarchical {
            clusters: 8,
            wan_factor: 10,
        },
        other => {
            return Err(CliError::Usage(format!(
                "unknown topology `{other}` (complete|ring|tree|grid|er|waxman|hier)"
            )))
        }
    })
}

fn parse_solver(value: &str) -> Result<SolverKind, CliError> {
    Ok(match value {
        "sra" => SolverKind::Sra,
        "gra" => SolverKind::Gra,
        "hill" => SolverKind::Hill,
        "random" => SolverKind::Random,
        "optimal" => SolverKind::Optimal,
        "primary" => SolverKind::Primary,
        other => {
            return Err(CliError::Usage(format!(
                "unknown algorithm `{other}` (sra|gra|hill|random|optimal|primary)"
            )))
        }
    })
}

fn parse_policy(value: &str) -> Result<Policy, CliError> {
    Policy::parse(value).map_err(CliError::Usage)
}

fn parse_scenario(value: &str) -> Result<Scenario, CliError> {
    Scenario::parse(value).map_err(|e| CliError::Usage(e.to_string()))
}

fn parse_drift(value: &str) -> Result<(f64, f64, f64), CliError> {
    let usage = || {
        CliError::Usage(format!(
            "bad drift `{value}` (expected CHANGE%:OBJECTS%:READSHARE, e.g. 600:30:0.8)"
        ))
    };
    let mut parts = value.split(':');
    let change = parts
        .next()
        .ok_or_else(usage)?
        .parse()
        .map_err(|_| usage())?;
    let objects = parts
        .next()
        .ok_or_else(usage)?
        .parse()
        .map_err(|_| usage())?;
    let read_share = parts
        .next()
        .ok_or_else(usage)?
        .parse()
        .map_err(|_| usage())?;
    if parts.next().is_some() {
        return Err(usage());
    }
    Ok((change, objects, read_share))
}

/// Parses one `--crash SITE@FROM..UNTIL` window.
fn parse_crash(value: &str) -> Result<(usize, u64, u64), CliError> {
    let usage = || {
        CliError::Usage(format!(
            "bad crash window `{value}` (expected SITE@FROM..UNTIL, e.g. 3@100..400)"
        ))
    };
    let (site, window) = value.split_once('@').ok_or_else(usage)?;
    let (from, until) = window.split_once("..").ok_or_else(usage)?;
    let site = site.parse().map_err(|_| usage())?;
    let from = from.parse().map_err(|_| usage())?;
    let until = until.parse().map_err(|_| usage())?;
    if until <= from {
        return Err(CliError::Usage(format!(
            "empty crash window `{value}` (UNTIL must exceed FROM)"
        )));
    }
    Ok((site, from, until))
}

/// Parses a full command line (without the program name).
///
/// # Errors
///
/// Returns [`CliError::Usage`] describing the first problem.
pub fn parse(args: &[String]) -> Result<Command, CliError> {
    let Some(verb) = args.first() else {
        return Err(CliError::Usage("missing command".into()));
    };
    let mut stream = ArgStream { args, index: 0 };
    match verb.as_str() {
        "generate" => {
            let (mut sites, mut objects) = (None, None);
            let (mut update, mut capacity) = (5.0f64, 15.0f64);
            let mut topology = TopologyKind::Complete;
            let mut zipf = None;
            let mut seed = 0u64;
            let mut output = None;
            stream.index = 1;
            while let Some(flag) = stream.args.get(stream.index).map(|s| s.as_str()) {
                match flag {
                    "--sites" => sites = Some(parse_num(stream.next_value(flag)?, flag)?),
                    "--objects" => objects = Some(parse_num(stream.next_value(flag)?, flag)?),
                    "--update" => update = parse_num(stream.next_value(flag)?, flag)?,
                    "--capacity" => capacity = parse_num(stream.next_value(flag)?, flag)?,
                    "--topology" => topology = parse_topology(stream.next_value(flag)?)?,
                    "--zipf" => zipf = Some(parse_num(stream.next_value(flag)?, flag)?),
                    "--seed" => seed = parse_num(stream.next_value(flag)?, flag)?,
                    "-o" | "--output" => {
                        output = Some(PathBuf::from(stream.next_value(flag)?));
                    }
                    other => return Err(CliError::Usage(format!("unknown flag `{other}`"))),
                }
            }
            Ok(Command::Generate {
                sites: sites.ok_or_else(|| CliError::Usage("--sites is required".into()))?,
                objects: objects.ok_or_else(|| CliError::Usage("--objects is required".into()))?,
                update,
                capacity,
                topology,
                zipf,
                seed,
                output,
            })
        }
        "solve" => {
            let mut instance = None;
            let mut solver = None;
            let mut seed = 0u64;
            let mut population = 50usize;
            let mut generations = 80usize;
            let mut output = None;
            let mut trace_out = None;
            let mut shards = 0usize;
            stream.index = 1;
            while let Some(flag) = stream.args.get(stream.index).map(|s| s.as_str()) {
                match flag {
                    "--instance" => instance = Some(PathBuf::from(stream.next_value(flag)?)),
                    "--algorithm" => solver = Some(parse_solver(stream.next_value(flag)?)?),
                    "--seed" => seed = parse_num(stream.next_value(flag)?, flag)?,
                    "--pop" => population = parse_num(stream.next_value(flag)?, flag)?,
                    "--gens" => generations = parse_num(stream.next_value(flag)?, flag)?,
                    "--shards" => shards = parse_num(stream.next_value(flag)?, flag)?,
                    "-o" | "--output" => {
                        output = Some(PathBuf::from(stream.next_value(flag)?));
                    }
                    "--trace-out" => {
                        trace_out = Some(PathBuf::from(stream.next_value(flag)?));
                    }
                    other => return Err(CliError::Usage(format!("unknown flag `{other}`"))),
                }
            }
            Ok(Command::Solve {
                instance: instance
                    .ok_or_else(|| CliError::Usage("--instance is required".into()))?,
                solver: solver.ok_or_else(|| CliError::Usage("--algorithm is required".into()))?,
                seed,
                population,
                generations,
                output,
                trace_out,
                shards,
            })
        }
        "faults" => {
            let mut instance = None;
            let mut scheme = None;
            let mut crashes = Vec::new();
            let mut drop = 0.0f64;
            let mut jitter = 0u64;
            let mut seed = 0u64;
            let mut min_degree = 2usize;
            let mut horizon = 1_000u64;
            let mut trace_out = None;
            stream.index = 1;
            while let Some(flag) = stream.args.get(stream.index).map(|s| s.as_str()) {
                match flag {
                    "--instance" => instance = Some(PathBuf::from(stream.next_value(flag)?)),
                    "--scheme" => scheme = Some(PathBuf::from(stream.next_value(flag)?)),
                    "--crash" => crashes.push(parse_crash(stream.next_value(flag)?)?),
                    "--drop" => drop = parse_num(stream.next_value(flag)?, flag)?,
                    "--jitter" => jitter = parse_num(stream.next_value(flag)?, flag)?,
                    "--seed" => seed = parse_num(stream.next_value(flag)?, flag)?,
                    "--min-degree" => min_degree = parse_num(stream.next_value(flag)?, flag)?,
                    "--horizon" => horizon = parse_num(stream.next_value(flag)?, flag)?,
                    "--trace-out" => {
                        trace_out = Some(PathBuf::from(stream.next_value(flag)?));
                    }
                    other => return Err(CliError::Usage(format!("unknown flag `{other}`"))),
                }
            }
            if !(0.0..=1.0).contains(&drop) {
                return Err(CliError::Usage(format!(
                    "--drop must be a probability in [0, 1], got {drop}"
                )));
            }
            Ok(Command::Faults {
                instance: instance
                    .ok_or_else(|| CliError::Usage("--instance is required".into()))?,
                scheme,
                crashes,
                drop,
                jitter,
                seed,
                min_degree,
                horizon,
                trace_out,
            })
        }
        "serve" => {
            let mut instance = None;
            let mut policy = Policy::Monitor;
            let mut epochs = 3usize;
            let mut period = 256u64;
            let mut seed = 0u64;
            let mut night_every = 0usize;
            let mut admission_limit = 0u64;
            let mut threads = 0usize;
            let mut min_degree = drp_serve::ServeConfig::default().min_degree;
            let mut drift = None;
            let mut scenario = None;
            let mut oracle = false;
            let mut crashes = Vec::new();
            let mut drop = 0.0f64;
            let mut jitter = 0u64;
            let mut report_out = None;
            let mut trace_out = None;
            let mut wal_dir = None;
            let mut recover = false;
            let mut checkpoint_every = drp_serve::WalTuning::default().checkpoint_every;
            stream.index = 1;
            while let Some(flag) = stream.args.get(stream.index).map(|s| s.as_str()) {
                match flag {
                    "--instance" => instance = Some(PathBuf::from(stream.next_value(flag)?)),
                    "--policy" => policy = parse_policy(stream.next_value(flag)?)?,
                    "--epochs" => epochs = parse_num(stream.next_value(flag)?, flag)?,
                    "--period" => period = parse_num(stream.next_value(flag)?, flag)?,
                    "--seed" => seed = parse_num(stream.next_value(flag)?, flag)?,
                    "--night-every" => night_every = parse_num(stream.next_value(flag)?, flag)?,
                    "--admission-limit" => {
                        admission_limit = parse_num(stream.next_value(flag)?, flag)?;
                    }
                    "--threads" => threads = parse_num(stream.next_value(flag)?, flag)?,
                    "--min-degree" => min_degree = parse_num(stream.next_value(flag)?, flag)?,
                    "--drift" => drift = Some(parse_drift(stream.next_value(flag)?)?),
                    "--scenario" => scenario = Some(parse_scenario(stream.next_value(flag)?)?),
                    "--oracle" => {
                        oracle = true;
                        stream.index += 1;
                    }
                    "--crash" => crashes.push(parse_crash(stream.next_value(flag)?)?),
                    "--drop" => drop = parse_num(stream.next_value(flag)?, flag)?,
                    "--jitter" => jitter = parse_num(stream.next_value(flag)?, flag)?,
                    "--report-out" => {
                        report_out = Some(PathBuf::from(stream.next_value(flag)?));
                    }
                    "--trace-out" => {
                        trace_out = Some(PathBuf::from(stream.next_value(flag)?));
                    }
                    "--wal-dir" => wal_dir = Some(PathBuf::from(stream.next_value(flag)?)),
                    "--recover" => {
                        recover = true;
                        stream.index += 1;
                    }
                    "--checkpoint-every" => {
                        checkpoint_every = parse_num(stream.next_value(flag)?, flag)?;
                    }
                    other => return Err(CliError::Usage(format!("unknown flag `{other}`"))),
                }
            }
            if epochs == 0 {
                return Err(CliError::Usage("--epochs must be at least 1".into()));
            }
            if !(0.0..=1.0).contains(&drop) {
                return Err(CliError::Usage(format!(
                    "--drop must be a probability in [0, 1], got {drop}"
                )));
            }
            if checkpoint_every == 0 {
                return Err(CliError::Usage(
                    "--checkpoint-every must be at least 1".into(),
                ));
            }
            if recover && wal_dir.is_none() {
                return Err(CliError::Usage("--recover needs --wal-dir".into()));
            }
            if scenario.is_some()
                && (drift.is_some() || !crashes.is_empty() || drop > 0.0 || jitter > 0)
            {
                return Err(CliError::Usage(
                    "--scenario is mutually exclusive with --drift/--crash/--drop/--jitter \
                     (the scenario supplies its own drift and faults)"
                        .into(),
                ));
            }
            if oracle && wal_dir.is_some() {
                return Err(CliError::Usage(
                    "--oracle is an offline analysis and cannot run with --wal-dir \
                     (durable reports must stay bitwise across crash/recover)"
                        .into(),
                ));
            }
            Ok(Command::Serve {
                instance: instance
                    .ok_or_else(|| CliError::Usage("--instance is required".into()))?,
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
            })
        }
        "evaluate" | "inspect" | "adapt" | "distributed" => {
            let mut instance = None;
            let mut new_instance = None;
            let mut scheme = None;
            let mut mini = 5usize;
            let mut threshold = 100.0f64;
            let mut seed = 0u64;
            let mut output = None;
            stream.index = 1;
            while let Some(flag) = stream.args.get(stream.index).map(|s| s.as_str()) {
                match flag {
                    "--instance" => instance = Some(PathBuf::from(stream.next_value(flag)?)),
                    "--new-instance" => {
                        new_instance = Some(PathBuf::from(stream.next_value(flag)?));
                    }
                    "--scheme" => scheme = Some(PathBuf::from(stream.next_value(flag)?)),
                    "--mini" => mini = parse_num(stream.next_value(flag)?, flag)?,
                    "--threshold" => threshold = parse_num(stream.next_value(flag)?, flag)?,
                    "--seed" => seed = parse_num(stream.next_value(flag)?, flag)?,
                    "-o" | "--output" => {
                        output = Some(PathBuf::from(stream.next_value(flag)?));
                    }
                    other => return Err(CliError::Usage(format!("unknown flag `{other}`"))),
                }
            }
            let instance =
                instance.ok_or_else(|| CliError::Usage("--instance is required".into()))?;
            match verb.as_str() {
                "evaluate" => Ok(Command::Evaluate {
                    instance,
                    scheme: scheme.ok_or_else(|| CliError::Usage("--scheme is required".into()))?,
                }),
                "inspect" => Ok(Command::Inspect { instance }),
                "distributed" => Ok(Command::Distributed { instance, output }),
                _ => Ok(Command::Adapt {
                    instance,
                    new_instance: new_instance
                        .ok_or_else(|| CliError::Usage("--new-instance is required".into()))?,
                    scheme: scheme.ok_or_else(|| CliError::Usage("--scheme is required".into()))?,
                    mini,
                    threshold,
                    seed,
                    output,
                }),
            }
        }
        other => Err(CliError::Usage(format!("unknown command `{other}`"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_generate_with_defaults() {
        let cmd = parse(&argv("generate --sites 5 --objects 7")).unwrap();
        match cmd {
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
                assert_eq!((sites, objects), (5, 7));
                assert_eq!((update, capacity), (5.0, 15.0));
                assert_eq!(topology, TopologyKind::Complete);
                assert_eq!(zipf, None);
                assert_eq!(seed, 0);
                assert_eq!(output, None);
            }
            other => panic!("wrong command: {other:?}"),
        }
    }

    #[test]
    fn parses_solve_with_gra_options() {
        let cmd = parse(&argv(
            "solve --instance net.drp --algorithm gra --pop 10 --gens 20 -o s.drp",
        ))
        .unwrap();
        match cmd {
            Command::Solve {
                solver,
                population,
                generations,
                output,
                shards,
                ..
            } => {
                assert_eq!(solver, SolverKind::Gra);
                assert_eq!((population, generations), (10, 20));
                assert_eq!(output, Some(PathBuf::from("s.drp")));
                assert_eq!(shards, 0, "flat solve is the default");
            }
            other => panic!("wrong command: {other:?}"),
        }
    }

    #[test]
    fn parses_solve_with_shards() {
        let cmd = parse(&argv(
            "solve --instance net.drp --algorithm gra --shards 8 --seed 7",
        ))
        .unwrap();
        match cmd {
            Command::Solve { shards, seed, .. } => {
                assert_eq!(shards, 8);
                assert_eq!(seed, 7);
            }
            other => panic!("wrong command: {other:?}"),
        }
        assert!(parse(&argv("solve --instance a.drp --algorithm gra --shards x")).is_err());
    }

    #[test]
    fn parses_adapt() {
        let cmd = parse(&argv(
            "adapt --instance a.drp --new-instance b.drp --scheme s.drp --mini 10 --threshold 50",
        ))
        .unwrap();
        match cmd {
            Command::Adapt {
                mini, threshold, ..
            } => {
                assert_eq!(mini, 10);
                assert_eq!(threshold, 50.0);
            }
            other => panic!("wrong command: {other:?}"),
        }
    }

    #[test]
    fn parses_faults() {
        let cmd = parse(&argv(
            "faults --instance net.drp --crash 2@80..380 --crash 5@120..450 \
             --drop 0.05 --jitter 2 --seed 9 --min-degree 3 --horizon 500",
        ))
        .unwrap();
        match cmd {
            Command::Faults {
                crashes,
                drop,
                jitter,
                seed,
                min_degree,
                horizon,
                scheme,
                ..
            } => {
                assert_eq!(crashes, vec![(2, 80, 380), (5, 120, 450)]);
                assert_eq!(drop, 0.05);
                assert_eq!(jitter, 2);
                assert_eq!(seed, 9);
                assert_eq!(min_degree, 3);
                assert_eq!(horizon, 500);
                assert_eq!(scheme, None);
            }
            other => panic!("wrong command: {other:?}"),
        }
    }

    #[test]
    fn parses_trace_out_on_solve_and_faults() {
        let cmd = parse(&argv(
            "solve --instance net.drp --algorithm sra --trace-out t.jsonl",
        ))
        .unwrap();
        match cmd {
            Command::Solve { trace_out, .. } => {
                assert_eq!(trace_out, Some(PathBuf::from("t.jsonl")));
            }
            other => panic!("wrong command: {other:?}"),
        }
        let cmd = parse(&argv("faults --instance net.drp --trace-out t.jsonl")).unwrap();
        match cmd {
            Command::Faults { trace_out, .. } => {
                assert_eq!(trace_out, Some(PathBuf::from("t.jsonl")));
            }
            other => panic!("wrong command: {other:?}"),
        }
        assert!(parse(&argv("solve --instance a.drp --algorithm sra --trace-out")).is_err());
    }

    #[test]
    fn parses_serve_threads_round_trip() {
        let cmd = parse(&argv(
            "serve --instance net.drp --policy monitor --epochs 4 --threads 3",
        ))
        .unwrap();
        match cmd {
            Command::Serve {
                epochs, threads, ..
            } => {
                assert_eq!(epochs, 4);
                assert_eq!(threads, 3);
            }
            other => panic!("wrong command: {other:?}"),
        }
        // Omitted flag means 0 = auto-detect from DRP_THREADS / core count.
        match parse(&argv("serve --instance net.drp")).unwrap() {
            Command::Serve { threads, .. } => assert_eq!(threads, 0),
            other => panic!("wrong command: {other:?}"),
        }
        assert!(parse(&argv("serve --instance net.drp --threads")).is_err());
        assert!(parse(&argv("serve --instance net.drp --threads x")).is_err());
    }

    #[test]
    fn parses_serve_min_degree_round_trip() {
        match parse(&argv("serve --instance net.drp --min-degree 3")).unwrap() {
            Command::Serve { min_degree, .. } => assert_eq!(min_degree, 3),
            other => panic!("wrong command: {other:?}"),
        }
        // Omitted flag means the service's default floor: no top-up.
        match parse(&argv("serve --instance net.drp")).unwrap() {
            Command::Serve { min_degree, .. } => {
                assert_eq!(min_degree, drp_serve::ServeConfig::default().min_degree);
            }
            other => panic!("wrong command: {other:?}"),
        }
        assert!(parse(&argv("serve --instance net.drp --min-degree")).is_err());
        assert!(parse(&argv("serve --instance net.drp --min-degree -1")).is_err());
    }

    #[test]
    fn parses_serve_policy_and_scenario_round_trip() {
        for want in Policy::ALL {
            let name = want.name();
            let line = format!("serve --instance net.drp --policy {name}");
            match parse(&argv(&line)).unwrap() {
                Command::Serve { policy, .. } => assert_eq!(policy, want, "{name}"),
                other => panic!("wrong command: {other:?}"),
            }
        }
        let err = parse(&argv("serve --instance net.drp --policy oracle")).unwrap_err();
        assert_eq!(
            err.to_string(),
            "unknown policy `oracle` (expected static, monitor, predictive-ewma \
             or predictive-regression)"
        );
        for name in [
            "diurnal",
            "flash-crowd",
            "regional-failover",
            "partition-drift",
            "read-write-inversion",
        ] {
            let line = format!("serve --instance net.drp --scenario {name}");
            match parse(&argv(&line)).unwrap() {
                Command::Serve { scenario, .. } => {
                    assert_eq!(scenario.unwrap().name(), name, "{name}");
                }
                other => panic!("wrong command: {other:?}"),
            }
        }
        // Omitted flags keep their defaults.
        match parse(&argv("serve --instance net.drp")).unwrap() {
            Command::Serve {
                scenario, oracle, ..
            } => {
                assert_eq!(scenario, None);
                assert!(!oracle);
            }
            other => panic!("wrong command: {other:?}"),
        }
        // --oracle is a boolean flag like --recover.
        match parse(&argv("serve --instance net.drp --oracle --seed 3")).unwrap() {
            Command::Serve { oracle, seed, .. } => {
                assert!(oracle);
                assert_eq!(seed, 3);
            }
            other => panic!("wrong command: {other:?}"),
        }
    }

    #[test]
    fn rejects_bad_policy_and_scenario() {
        let err = parse(&argv("serve --instance net.drp --policy warp")).unwrap_err();
        assert!(err.to_string().contains("predictive-ewma"), "{err}");
        let err = parse(&argv("serve --instance net.drp --scenario tsunami")).unwrap_err();
        assert!(err.to_string().contains("flash-crowd"), "{err}");
        assert!(err.to_string().contains("diurnal"), "{err}");
        // A scenario brings its own drift and faults.
        assert!(parse(&argv(
            "serve --instance net.drp --scenario diurnal --drift 600:30:0.8"
        ))
        .is_err());
        assert!(parse(&argv(
            "serve --instance net.drp --scenario diurnal --crash 1@2..9"
        ))
        .is_err());
        // The oracle re-scores the run offline; durable runs must not see it.
        assert!(parse(&argv("serve --instance net.drp --oracle --wal-dir w")).is_err());
    }

    #[test]
    fn rejects_bad_crash_windows() {
        assert!(parse(&argv("faults --instance a.drp --crash 2")).is_err());
        assert!(parse(&argv("faults --instance a.drp --crash 2@80")).is_err());
        assert!(parse(&argv("faults --instance a.drp --crash 2@80..80")).is_err());
        assert!(parse(&argv("faults --instance a.drp --crash x@1..2")).is_err());
        assert!(parse(&argv("faults --instance a.drp --drop 1.5")).is_err());
        assert!(parse(&argv("faults --crash 1@2..3")).is_err());
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse(&argv("")).is_err());
        assert!(parse(&argv("frobnicate")).is_err());
        assert!(parse(&argv("generate --objects 5")).is_err());
        assert!(parse(&argv("generate --sites x --objects 5")).is_err());
        assert!(parse(&argv("solve --instance a.drp --algorithm warp")).is_err());
        assert!(parse(&argv("generate --sites 5 --objects 5 --topology donut")).is_err());
        assert!(parse(&argv("evaluate --instance a.drp")).is_err());
        assert!(parse(&argv("adapt --instance a.drp --scheme s.drp")).is_err());
        assert!(parse(&argv("generate --sites")).is_err());
    }

    #[test]
    fn all_topologies_parse() {
        for topo in ["complete", "ring", "tree", "grid", "er", "waxman", "hier"] {
            let line = format!("generate --sites 5 --objects 5 --topology {topo}");
            assert!(parse(&argv(&line)).is_ok(), "{topo}");
        }
    }
}
