//! Machine-readable cost-evaluation timings: `cargo run --release -p
//! drp-bench --bin cost_eval [out.json]` writes `BENCH_cost_eval.json`.
//!
//! For each paper-style instance size it reports nanoseconds per
//! evaluation for the paths the criterion benches compare interactively:
//!
//! * **full** — `Problem::total_cost`, the rescan-everything baseline;
//! * **incremental** — one `CostEvaluator` flip (an `apply_add`/`undo`
//!   pair timed and halved), the evaluator's O(M) delta path, reported as
//!   the median of [`FLIP_REPS`] calibrated runs with their min and max;
//! * **wide population** — `evaluate_population` with the u64-only
//!   scratch (`EvalScratch::with_mirror(problem, None)`): the pre-mirror
//!   code path, the kernel baseline;
//! * **narrow population** — the same with the u32 SoA mirror
//!   (`EvalScratch::new`), the path GRA scores with.
//!
//! Both runs score the *same* chromosomes and the sample carries a
//! `parity` flag asserting their fitness vectors matched bitwise. A
//! `sparse_parity` flag asserts the same of the flip engine's two
//! candidate sources: k-nearest rows at `k = M` must track the dense rows
//! bitwise through a fixed flip walk.
//!
//! The artifact uses the shared [`drp_bench::report`] shape; the
//! `ratchet` bin diffs it against the committed reference.

use drp_algo::{encode_scheme, evaluate_population, EvalScratch, Sra};
use drp_bench::report::{Budget, Fields, Report};
use drp_bench::{instance, rng};
use drp_core::{
    CostEvaluator, ObjectId, Problem, ReplicationAlgorithm, ReplicationScheme, SiteId,
    SparseEvaluator, SparseProblem,
};
use drp_ga::{ops, BitString};
use drp_net::SparseCostRows;
use std::time::Instant;

/// Chromosomes per timed population pass — a typical GRA generation.
const POPULATION: usize = 32;

/// Calibrated runs behind each flip timing's median, min and max.
const FLIP_REPS: usize = 5;

/// Steps of the fixed flip walk behind `sparse_parity`.
const PARITY_FLIPS: usize = 64;

/// Times `f`, calibrating the iteration count to ~20ms of wall clock.
fn measure<F: FnMut()>(mut f: F) -> f64 {
    let warm = Instant::now();
    f();
    let once = (warm.elapsed().as_nanos() as u64).max(1);
    let iters = (20_000_000 / once).clamp(1, 2_000_000) as u32;
    let timed = Instant::now();
    for _ in 0..iters {
        f();
    }
    timed.elapsed().as_nanos() as f64 / f64::from(iters)
}

fn feasible_add(problem: &Problem, scheme: &ReplicationScheme) -> Option<(SiteId, ObjectId)> {
    problem
        .sites()
        .flat_map(|i| problem.objects().map(move |k| (i, k)))
        .find(|&(i, k)| {
            !scheme.holds(i, k) && problem.object_size(k) <= scheme.free_capacity(problem, i)
        })
}

/// Whether the k-nearest source at `k = M` tracks the dense source
/// bitwise — every peek, applied delta, total and top-2 cell — through a
/// fixed walk of adds and removes from `scheme` and back via undo.
fn sparse_parity(problem: &Problem, scheme: &ReplicationScheme) -> bool {
    let sp = SparseProblem::from_problem(problem).expect("a validated problem converts");
    let rows = SparseCostRows::from_graph(sp.graph(), problem.num_sites())
        .expect("a connected instance has full-width rows");
    let mut dense = CostEvaluator::new(problem, scheme.clone());
    let mut sparse =
        SparseEvaluator::new(&sp, &rows, dense.placement()).expect("the scheme is feasible");
    let same_cells = |dense: &CostEvaluator<'_>, sparse: &SparseEvaluator<'_>| {
        dense.total() == sparse.total()
            && problem.objects().all(|k| {
                dense.object_cost(k) == sparse.object_cost(k)
                    && problem.sites().all(|i| {
                        dense.nearest(i, k) == sparse.nearest(i, k)
                            && dense.second_nearest(i, k) == sparse.second_nearest(i, k)
                    })
            })
    };
    let (m, n) = (problem.num_sites(), problem.num_objects());
    let mut same = true;
    for step in 0..PARITY_FLIPS {
        let (site, object) = (SiteId::new(step * 7 % m), ObjectId::new(step * 13 % n));
        let pair = if dense.holds(site, object) {
            if problem.primary(object) == site {
                continue;
            }
            (
                dense.delta_remove(site, object),
                sparse.delta_remove(site, object),
                dense.apply_remove(site, object),
                sparse.apply_remove(site, object),
            )
        } else {
            if problem.object_size(object) > dense.free_capacity(site) {
                continue;
            }
            (
                dense.delta_add(site, object),
                sparse.delta_add(site, object),
                dense.apply_add(site, object),
                sparse.apply_add(site, object),
            )
        };
        same &= pair.0 == pair.1 && pair.2.ok() == pair.3.ok();
    }
    same &= same_cells(&dense, &sparse);
    while let Some(delta) = dense.undo() {
        same &= sparse.undo() == Some(delta);
    }
    same && same_cells(&dense, &sparse)
}

struct Row {
    sites: usize,
    objects: usize,
    full_eval_ns: f64,
    incremental_flip_ns: f64,
    incremental_flip_min_ns: f64,
    incremental_flip_max_ns: f64,
    wide_ns_per_eval: f64,
    narrow_ns_per_eval: f64,
    parity: bool,
    sparse_parity: bool,
}

fn bench_size(sites: usize, objects: usize) -> Row {
    let problem = instance(sites, objects, 5.0);
    let mut r = rng();
    let scheme = Sra::new().solve(&problem, &mut r).unwrap();

    let full_eval_ns = measure(|| {
        std::hint::black_box(problem.total_cost(&scheme));
    });

    let (site, object) = feasible_add(&problem, &scheme)
        .expect("paper instances leave room for at least one extra replica");
    let mut eval = CostEvaluator::new(&problem, scheme.clone());
    let mut flip_ns: Vec<f64> = (0..FLIP_REPS)
        .map(|_| {
            measure(|| {
                eval.apply_add(site, object).unwrap();
                eval.undo().unwrap();
                std::hint::black_box(eval.total());
            }) / 2.0
        })
        .collect();
    flip_ns.sort_by(f64::total_cmp);
    let sparse_parity = sparse_parity(&problem, &scheme);

    let seed_bits = encode_scheme(&problem, &scheme);
    // A fixed expected flip count (not a fixed rate): on large instances a
    // 2% rate scatters hundreds of random replicas, the fitness goes
    // negative and the reset rule collapses every chromosome to
    // primary-only — which short-circuits to the precomputed V′ and times
    // nothing. ~64 flips keeps the population in the multi-replica regime
    // the kernels exist for.
    let rate = (64.0 / seed_bits.len() as f64).min(0.02);
    let mut population: Vec<(BitString, f64)> = (0..POPULATION)
        .map(|_| {
            let mut chromosome = seed_bits.clone();
            ops::bit_flip_mutation(&mut chromosome, rate, &mut r);
            (chromosome, 0.0)
        })
        .collect();

    let mut wide_scratch = EvalScratch::with_mirror(&problem, None);
    let mut narrow_scratch = EvalScratch::new(&problem);

    // Reach the repair fixed point so every timed pass scores identical bits.
    evaluate_population(&problem, &mut population, &mut narrow_scratch);

    let wide = measure(|| {
        evaluate_population(&problem, &mut population, &mut wide_scratch);
        std::hint::black_box(population[0].1);
    });
    let wide_fitness: Vec<f64> = population.iter().map(|(_, f)| *f).collect();
    let narrow = measure(|| {
        evaluate_population(&problem, &mut population, &mut narrow_scratch);
        std::hint::black_box(population[0].1);
    });
    let narrow_fitness: Vec<f64> = population.iter().map(|(_, f)| *f).collect();

    // Bitwise: the narrow kernels must not move a single fitness bit
    // relative to the wide walk.
    let parity = wide_fitness == narrow_fitness;

    Row {
        sites,
        objects,
        full_eval_ns,
        incremental_flip_ns: flip_ns[FLIP_REPS / 2],
        incremental_flip_min_ns: flip_ns[0],
        incremental_flip_max_ns: flip_ns[FLIP_REPS - 1],
        wide_ns_per_eval: wide / POPULATION as f64,
        narrow_ns_per_eval: narrow / POPULATION as f64,
        parity,
        sparse_parity,
    }
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_cost_eval.json".to_string());

    let rows: Vec<Row> = [(20, 50), (50, 100), (100, 200), (300, 100)]
        .into_iter()
        .map(|(m, n)| bench_size(m, n))
        .collect();

    // No timed path runs on the pool; the thread fields only record the
    // host the timings came from.
    let config = drp_bench::thread_fields(
        Fields::new()
            .text("unit", "ns_per_eval")
            .int("population", POPULATION as u64),
    );
    // The headline claim of the kernel pass: the u32 mirror kernels beat
    // the old wide walk at the largest site count.
    let headline = rows
        .last()
        .map(|r| r.wide_ns_per_eval / r.narrow_ns_per_eval)
        .unwrap_or(0.0);
    let mut report = Report::new(
        "cost_eval",
        config,
        Budget::at_least("speedup_kernel_vs_wide_at_largest_m", 1.5, headline),
    );
    for row in &rows {
        report.sample(
            Fields::new()
                .int("sites", row.sites as u64)
                .int("objects", row.objects as u64)
                .float("full_eval_ns", row.full_eval_ns, 1)
                .float("incremental_flip_ns", row.incremental_flip_ns, 1)
                .float("incremental_flip_min_ns", row.incremental_flip_min_ns, 1)
                .float("incremental_flip_max_ns", row.incremental_flip_max_ns, 1)
                .float("wide_population_ns_per_eval", row.wide_ns_per_eval, 1)
                .float("narrow_population_ns_per_eval", row.narrow_ns_per_eval, 1)
                .float(
                    "speedup_incremental_vs_full",
                    row.full_eval_ns / row.incremental_flip_ns,
                    2,
                )
                .float(
                    "speedup_kernel_vs_wide",
                    row.wide_ns_per_eval / row.narrow_ns_per_eval,
                    2,
                )
                .flag("parity", row.parity)
                .flag("sparse_parity", row.sparse_parity),
        );
    }
    report.write(&out_path);
}
