//! Microbenchmarks of the Eq. 4 cost model: full evaluation, the
//! chromosome fast path, and the evaluator's incremental deltas. Quantifies
//! the "incremental cost maintenance" design decision — a cached delta is
//! O(M) where the full recomputation is O(Σ_k M·|R_k|).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use drp_algo::{chromosome_cost, encode_scheme, Sra};
use drp_bench::{instance, rng};
use drp_core::{CostEvaluator, ObjectId, Problem, ReplicationAlgorithm, ReplicationScheme, SiteId};
use std::hint::black_box;

/// First feasible (site, object) addition for `scheme`, if any.
fn feasible_add(problem: &Problem, scheme: &ReplicationScheme) -> Option<(SiteId, ObjectId)> {
    problem
        .sites()
        .flat_map(|i| problem.objects().map(move |k| (i, k)))
        .find(|&(i, k)| {
            !scheme.holds(i, k) && problem.object_size(k) <= scheme.free_capacity(problem, i)
        })
}

fn bench_cost_model(c: &mut Criterion) {
    let mut group = c.benchmark_group("cost_model");
    for (m, n) in [(20, 50), (50, 100), (100, 200)] {
        let problem = instance(m, n, 5.0);
        let scheme = Sra::new().solve(&problem, &mut rng()).unwrap();
        let bits = encode_scheme(&problem, &scheme);

        group.bench_with_input(
            BenchmarkId::new("full_total_cost", format!("{m}x{n}")),
            &(),
            |b, ()| b.iter(|| black_box(problem.total_cost(black_box(&scheme)))),
        );
        group.bench_with_input(
            BenchmarkId::new("chromosome_cost", format!("{m}x{n}")),
            &(),
            |b, ()| b.iter(|| black_box(chromosome_cost(&problem, black_box(&bits)))),
        );
    }
    group.finish();
}

/// The cached evaluator versus full recomputation — GA/annealing-style
/// repeated evaluation. A peek is O(M), a flip O(M)+O(|R_k|), while
/// `total_cost` rescans all N objects; the gap is the point of the design.
fn bench_evaluator(c: &mut Criterion) {
    let mut group = c.benchmark_group("evaluator");
    for (m, n) in [(20, 50), (50, 100), (100, 200)] {
        let problem = instance(m, n, 5.0);
        let scheme = Sra::new().solve(&problem, &mut rng()).unwrap();
        let Some((site, object)) = feasible_add(&problem, &scheme) else {
            continue;
        };
        let mut eval = CostEvaluator::new(&problem, scheme);

        group.bench_with_input(
            BenchmarkId::new("delta_add_peek", format!("{m}x{n}")),
            &(),
            |b, ()| b.iter(|| black_box(eval.delta_add(black_box(site), black_box(object)))),
        );
        group.bench_with_input(
            BenchmarkId::new("flip_and_undo", format!("{m}x{n}")),
            &(),
            |b, ()| {
                b.iter(|| {
                    eval.apply_add(site, object).unwrap();
                    eval.undo().unwrap();
                    black_box(eval.total())
                })
            },
        );
        // The full-recompute equivalent of one flip evaluation.
        group.bench_with_input(
            BenchmarkId::new("full_recompute", format!("{m}x{n}")),
            &(),
            |b, ()| b.iter(|| black_box(problem.total_cost(black_box(eval.scheme())))),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_cost_model, bench_evaluator);
criterion_main!(benches);
