//! Scale benchmark of the kernel pass: `cargo run --release -p drp-bench
//! --bin scale [out.json] [--sites 100,300,1000] [--objects 60] [--pop 16]
//! [--gens 8] [--budget-speedup 3.0]` writes `BENCH_scale.json`.
//!
//! For each site count it times:
//!
//! * **build_legacy_ms** — the old dense all-pairs build: Floyd–Warshall
//!   into nested `Vec<Vec<Option<u64>>>` plus the flatten, exactly what
//!   `CostMatrix::from_graph` used to do on dense graphs;
//! * **build_seq_ms** — [`CostMatrix::from_graph`]: the flat kernel, run on
//!   the calling thread like every all-pairs build;
//! * **problem_build_ms** — a full `WorkloadSpec::paper` generate, best of
//!   3 at every site count;
//! * **SRA / GRA / AGRA** solve times, with the GRA scheme's cost and
//!   fingerprint recorded as identity fields.
//!
//! Every sample's `parity` flag says the two build paths agreed bit for
//! bit.
//!
//! The budget block claims the build speedup (legacy over flat) at
//! the largest site count clears `--budget-speedup` (default 3.0; the CI
//! smoke run passes a lenient floor since it uses tiny instances on
//! shared runners).

use drp_algo::{detect_changed_objects, Agra, AgraConfig, Gra, GraConfig, Sra};
use drp_bench::report::{Budget, Fields, Report};
use drp_core::{Problem, ReplicationAlgorithm, ReplicationScheme};
use drp_net::{shortest, topology, CostMatrix};
use drp_workload::{PatternChange, WorkloadSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// Everything downstream of instance generation is seeded from here.
const SEED: u64 = 0x5ca1e;

struct Args {
    out_path: String,
    sites: Vec<usize>,
    objects: usize,
    pop: usize,
    gens: usize,
    budget_speedup: f64,
}

fn parse_args() -> Args {
    let mut args = Args {
        out_path: "BENCH_scale.json".to_string(),
        sites: vec![100, 300, 1000],
        objects: 60,
        pop: 16,
        gens: 8,
        budget_speedup: 3.0,
    };
    let mut iter = std::env::args().skip(1);
    while let Some(arg) = iter.next() {
        let mut value = |name: &str| {
            iter.next()
                .unwrap_or_else(|| panic!("{name} needs a value"))
        };
        match arg.as_str() {
            "--sites" => {
                args.sites = value("--sites")
                    .split(',')
                    .map(|s| s.trim().parse().expect("--sites takes integers"))
                    .collect();
            }
            "--objects" => args.objects = value("--objects").parse().expect("--objects"),
            "--pop" => args.pop = value("--pop").parse().expect("--pop"),
            "--gens" => args.gens = value("--gens").parse().expect("--gens"),
            "--budget-speedup" => {
                args.budget_speedup = value("--budget-speedup").parse().expect("--budget-speedup");
            }
            other if !other.starts_with("--") => args.out_path = other.to_string(),
            other => panic!("unknown argument {other}"),
        }
    }
    assert!(
        !args.sites.is_empty(),
        "--sites must name at least one size"
    );
    args
}

/// Best-of-`reps` wall clock of `f` in milliseconds, returning the last
/// result (every rep must produce the same value — these are all
/// deterministic builds).
fn timed_ms<T>(reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut best = f64::MAX;
    let mut result = None;
    for _ in 0..reps.max(1) {
        let started = Instant::now();
        let value = f();
        best = best.min(started.elapsed().as_secs_f64() * 1e3);
        result = Some(value);
    }
    (best, result.expect("at least one rep"))
}

/// The old dense build path: Floyd–Warshall into nested option rows,
/// then the flatten `CostMatrix::from_graph` used to perform.
fn legacy_dense_build(graph: &drp_net::Graph) -> Vec<u64> {
    let table = shortest::floyd_warshall(graph);
    let m = graph.num_sites();
    let mut costs = Vec::with_capacity(m * m);
    for row in &table {
        for entry in row {
            costs.push(entry.expect("complete topologies are connected"));
        }
    }
    costs
}

/// FNV-1a over a scheme's replica bits: a stable cross-run fingerprint.
fn fingerprint(problem: &Problem, scheme: &ReplicationScheme) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for i in problem.sites() {
        for k in problem.objects() {
            hash ^= u64::from(scheme.holds(i, k));
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

struct Sample {
    sites: usize,
    build_legacy_ms: f64,
    build_seq_ms: f64,
    problem_build_ms: f64,
    sra_ms: f64,
    gra_ms: f64,
    agra_ms: f64,
    gra_fingerprint: u64,
    gra_cost: u64,
    parity: bool,
}

fn bench_size(m: usize, objects: usize, pop: usize, gens: usize) -> Sample {
    // Dense-kernel territory: the paper's complete topologies.
    let graph = topology::complete_uniform(m, 1, 10, &mut StdRng::seed_from_u64(SEED))
        .expect("complete topology generates");
    let reps = if m >= 500 { 1 } else { 3 };

    let (build_legacy_ms, legacy) = timed_ms(reps, || legacy_dense_build(&graph));
    let (build_seq_ms, seq) = timed_ms(reps, || CostMatrix::from_graph(&graph).expect("connected"));
    let builds_agree = (0..m).all(|i| legacy[i * m..(i + 1) * m] == *seq.row(i));
    assert!(builds_agree, "both build paths must agree bit for bit");

    let (problem_build_ms, problem) = timed_ms(3, || {
        WorkloadSpec::paper(m, objects, 5.0, 15.0)
            .generate(&mut StdRng::seed_from_u64(SEED))
            .expect("paper instance generates")
    });

    let (sra_ms, sra_scheme) = timed_ms(1, || {
        Sra::new()
            .solve(&problem, &mut StdRng::seed_from_u64(SEED))
            .expect("SRA solves")
    });
    sra_scheme.validate(&problem).expect("SRA scheme is valid");

    let (gra_ms, gra) = timed_ms(1, || {
        Gra::with_config(GraConfig {
            population_size: pop,
            generations: gens,
            ..GraConfig::default()
        })
        .solve_detailed(&problem, &mut StdRng::seed_from_u64(SEED))
        .expect("GRA solves")
    });

    // AGRA: shift the pattern and adapt.
    let change = PatternChange {
        change_percent: 250.0,
        objects_percent: 20.0,
        read_share: 0.7,
    };
    let shift = change
        .apply(&problem, &mut StdRng::seed_from_u64(SEED ^ 1))
        .expect("pattern change applies");
    let changed = detect_changed_objects(&problem, &shift.problem, 50.0);
    let population: Vec<_> = gra
        .outcome
        .final_population
        .iter()
        .map(|(c, _)| c.clone())
        .collect();
    let (agra_ms, _) = timed_ms(1, || {
        Agra::with_config(AgraConfig {
            generations: 12,
            ..AgraConfig::default()
        })
        .adapt(
            &shift.problem,
            &gra.scheme,
            &population,
            &changed,
            &mut StdRng::seed_from_u64(SEED ^ 2),
        )
        .expect("AGRA adapts")
    });

    Sample {
        sites: m,
        build_legacy_ms,
        build_seq_ms,
        problem_build_ms,
        sra_ms,
        gra_ms,
        agra_ms,
        gra_fingerprint: fingerprint(&problem, &gra.scheme),
        gra_cost: problem.total_cost(&gra.scheme),
        parity: builds_agree,
    }
}

fn main() {
    let args = parse_args();
    let samples: Vec<Sample> = args
        .sites
        .iter()
        .map(|&m| bench_size(m, args.objects, args.pop, args.gens))
        .collect();

    let last = samples.last().expect("at least one sample");
    let speedup_at_largest = last.build_legacy_ms / last.build_seq_ms;
    let config = drp_bench::thread_fields(
        Fields::new()
            .text("unit", "ms")
            .int("objects", args.objects as u64)
            .int("population", args.pop as u64)
            .int("generations", args.gens as u64),
    );
    let mut report = Report::new(
        "scale",
        config,
        Budget::at_least(
            "build_speedup_at_largest_m",
            args.budget_speedup,
            speedup_at_largest,
        ),
    );
    for s in &samples {
        report.sample(
            Fields::new()
                .int("sites", s.sites as u64)
                .float("build_legacy_ms", s.build_legacy_ms, 2)
                .float("build_seq_ms", s.build_seq_ms, 2)
                .float("build_speedup", s.build_legacy_ms / s.build_seq_ms, 2)
                .float("problem_build_ms", s.problem_build_ms, 2)
                .float("sra_ms", s.sra_ms, 2)
                .float("gra_ms", s.gra_ms, 2)
                .float("agra_ms", s.agra_ms, 2)
                .int("gra_cost", s.gra_cost)
                .text("gra_fingerprint", &format!("{:016x}", s.gra_fingerprint))
                .flag("parity", s.parity),
        );
    }
    report.write(&args.out_path);
}
