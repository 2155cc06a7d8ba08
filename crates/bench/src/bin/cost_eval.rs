//! Machine-readable cost-evaluation timings: `cargo run --release -p
//! drp-bench --bin cost_eval [out.json]` writes `BENCH_cost_eval.json`.
//!
//! For each paper-style instance size it reports nanoseconds per
//! evaluation for the paths the criterion benches compare interactively:
//!
//! * **full** — `Problem::total_cost`, the rescan-everything baseline;
//! * **incremental** — one `CostEvaluator` flip (an `apply_add`/`undo`
//!   pair timed and halved), the evaluator's O(M) delta path;
//! * **wide population** — `evaluate_population` with the u64-only
//!   scratch (`EvalScratch::with_mirror(problem, None)`): the pre-mirror
//!   code path, the kernel baseline;
//! * **narrow population** — the same with the u32 SoA mirror
//!   (`EvalScratch::new`), the path GRA scores with.
//!
//! The four variants are timed round-robin over [`PASSES`] calibrated
//! passes ([`drp_bench::round_robin`]); each timing is the best pass, and
//! its `*_spread` sibling is the worst pass over the best, a record of how
//! noisy the host was while the sample ran.
//!
//! Both population runs score the *same* chromosomes and the sample carries a
//! `parity` flag asserting their fitness vectors matched bitwise. A
//! `sparse_parity` flag asserts the same of the flip engine's two
//! candidate sources: k-nearest rows at `k = M` must track the dense rows
//! bitwise through a fixed flip walk.
//!
//! The artifact uses the shared [`drp_bench::report`] shape; the
//! `ratchet` bin diffs it against the committed reference.

use drp_algo::{encode_scheme, evaluate_population, EvalScratch, Sra};
use drp_bench::report::{Budget, Fields, Report};
use drp_bench::{instance, rng, round_robin, Passes};
use drp_core::{
    CostEvaluator, ObjectId, Problem, ReplicationAlgorithm, ReplicationScheme, SiteId,
    SparseEvaluator, SparseProblem,
};
use drp_ga::{ops, BitString};
use drp_net::SparseCostRows;

/// Chromosomes per timed population pass — a typical GRA generation.
const POPULATION: usize = 32;

/// Round-robin passes behind each timing; the best is kept. One pass per
/// metric swung the small-M timings several-fold between runs of
/// unchanged code on a 2-vCPU host.
const PASSES: usize = 9;

/// Steps of the fixed flip walk behind `sparse_parity`.
const PARITY_FLIPS: usize = 64;

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
    full_eval: Passes,
    flip_pair: Passes,
    wide_population: Passes,
    narrow_population: Passes,
    parity: bool,
    sparse_parity: bool,
}

fn bench_size(sites: usize, objects: usize) -> Row {
    let problem = instance(sites, objects, 5.0);
    let mut r = rng();
    let scheme = Sra::new().solve(&problem, &mut r).unwrap();

    let (site, object) = feasible_add(&problem, &scheme)
        .expect("paper instances leave room for at least one extra replica");
    let mut eval = CostEvaluator::new(&problem, scheme.clone());
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

    // Reach the repair fixed point so every timed pass scores identical
    // bits, then give each width its own copy of the population.
    evaluate_population(&problem, &mut population, &mut narrow_scratch);
    let mut wide_population = population.clone();
    let mut narrow_population = population;

    // Bitwise: the narrow kernels must not move a single fitness bit
    // relative to the wide walk.
    evaluate_population(&problem, &mut wide_population, &mut wide_scratch);
    evaluate_population(&problem, &mut narrow_population, &mut narrow_scratch);
    let fitness = |p: &[(BitString, f64)]| p.iter().map(|(_, f)| *f).collect::<Vec<_>>();
    let parity = fitness(&wide_population) == fitness(&narrow_population);

    let [full_eval, flip_pair, wide_population, narrow_population] = round_robin(
        PASSES,
        &mut [
            &mut || {
                std::hint::black_box(problem.total_cost(&scheme));
            },
            &mut || {
                eval.apply_add(site, object).unwrap();
                eval.undo().unwrap();
                std::hint::black_box(eval.total());
            },
            &mut || {
                evaluate_population(&problem, &mut wide_population, &mut wide_scratch);
                std::hint::black_box(wide_population[0].1);
            },
            &mut || {
                evaluate_population(&problem, &mut narrow_population, &mut narrow_scratch);
                std::hint::black_box(narrow_population[0].1);
            },
        ],
    );

    Row {
        sites,
        objects,
        full_eval,
        flip_pair,
        wide_population,
        narrow_population,
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
            .int("population", POPULATION as u64)
            .int("passes", PASSES as u64),
    );
    // The headline claim of the kernel pass: the u32 mirror kernels beat
    // the old wide walk at the largest site count.
    let per_eval = |p: &Passes| p.best / POPULATION as f64;
    let headline = rows
        .last()
        .map(|r| per_eval(&r.wide_population) / per_eval(&r.narrow_population))
        .unwrap_or(0.0);
    let mut report = Report::new(
        "cost_eval",
        config,
        Budget::at_least("speedup_kernel_vs_wide_at_largest_m", 1.5, headline),
    );
    for row in &rows {
        // A flip is half of the timed add/undo pair.
        let flip_ns = row.flip_pair.best / 2.0;
        report.sample(
            Fields::new()
                .int("sites", row.sites as u64)
                .int("objects", row.objects as u64)
                .float("full_eval_ns", row.full_eval.best, 1)
                .float("full_eval_spread", row.full_eval.spread(), 2)
                .float("incremental_flip_ns", flip_ns, 1)
                .float("incremental_flip_spread", row.flip_pair.spread(), 2)
                .float(
                    "wide_population_ns_per_eval",
                    per_eval(&row.wide_population),
                    1,
                )
                .float("wide_population_spread", row.wide_population.spread(), 2)
                .float(
                    "narrow_population_ns_per_eval",
                    per_eval(&row.narrow_population),
                    1,
                )
                .float(
                    "narrow_population_spread",
                    row.narrow_population.spread(),
                    2,
                )
                .float(
                    "speedup_incremental_vs_full",
                    row.full_eval.best / flip_ns,
                    2,
                )
                .float(
                    "speedup_kernel_vs_wide",
                    per_eval(&row.wide_population) / per_eval(&row.narrow_population),
                    2,
                )
                .flag("parity", row.parity)
                .flag("sparse_parity", row.sparse_parity),
        );
    }
    report.write(&out_path);
}
