//! Microbenchmarks of the GA building blocks: selection schemes, crossover
//! operators and mutation over GRA-sized chromosomes, plus whole-population
//! fitness scoring (per-call allocation vs a scratch-reusing batch).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use drp_algo::{chromosome_cost, encode_scheme, evaluate_population, EvalScratch, Sra};
use drp_bench::{instance, rng};
use drp_core::ReplicationAlgorithm;
use drp_ga::{ops, BitString, SelectionScheme};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn bench_selection(c: &mut Criterion) {
    let mut group = c.benchmark_group("selection");
    let mut rng = StdRng::seed_from_u64(1);
    let fitness: Vec<f64> = (0..150).map(|i| (i % 17) as f64 / 17.0).collect();
    for (name, scheme) in [
        ("roulette", SelectionScheme::Roulette),
        ("stochastic_remainder", SelectionScheme::StochasticRemainder),
        ("tournament3", SelectionScheme::Tournament { size: 3 }),
    ] {
        group.bench_with_input(BenchmarkId::from_parameter(name), &scheme, |b, s| {
            b.iter(|| black_box(s.allocate(&fitness, 50, &mut rng)))
        });
    }
    group.finish();
}

fn bench_crossover(c: &mut Criterion) {
    let mut group = c.benchmark_group("crossover");
    let mut rng = StdRng::seed_from_u64(2);
    // A GRA-sized chromosome: 50 sites × 200 objects.
    let a = BitString::random(10_000, &mut rng);
    let b2 = BitString::random(10_000, &mut rng);
    group.bench_function("one_point_10k", |b| {
        b.iter(|| black_box(ops::one_point_crossover(&a, &b2, &mut rng)))
    });
    group.bench_function("two_point_10k", |b| {
        b.iter(|| black_box(ops::two_point_crossover(&a, &b2, &mut rng)))
    });
    group.bench_function("uniform_10k", |b| {
        b.iter(|| black_box(ops::uniform_crossover(&a, &b2, &mut rng)))
    });
    group.finish();
}

fn bench_mutation(c: &mut Criterion) {
    let mut group = c.benchmark_group("mutation");
    let mut rng = StdRng::seed_from_u64(3);
    let template = BitString::random(10_000, &mut rng);
    for rate in [0.001f64, 0.01, 0.1] {
        group.bench_with_input(BenchmarkId::from_parameter(rate), &rate, |b, &r| {
            b.iter(|| {
                let mut c = template.clone();
                ops::bit_flip_mutation(&mut c, r, &mut rng);
                black_box(c)
            })
        });
    }
    group.finish();
}

/// GA-style repeated evaluation: score a whole generation of chromosomes on
/// the paper-scale 100×200 instance. `per_call_alloc` is the pre-batch
/// shape (fresh scratch buffers per chromosome); `serial_batch` reuses one
/// scratch across the generation.
fn bench_population_fitness(c: &mut Criterion) {
    let mut group = c.benchmark_group("population_fitness");
    group.sample_size(10);
    let problem = instance(100, 200, 5.0);
    let mut r = rng();
    let seed = encode_scheme(&problem, &Sra::new().solve(&problem, &mut r).unwrap());
    let mut population: Vec<(BitString, f64)> = (0..32)
        .map(|_| {
            let mut chromosome = seed.clone();
            ops::bit_flip_mutation(&mut chromosome, 0.02, &mut r);
            (chromosome, 0.0)
        })
        .collect();
    // One pre-pass reaches the repair fixed point (negative-fitness resets),
    // so every timed pass scores the exact same chromosomes.
    let mut scratch = EvalScratch::new(&problem);
    evaluate_population(&problem, &mut population, &mut scratch);

    group.bench_function("per_call_alloc_32", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for (chromosome, _) in &population {
                acc = acc.wrapping_add(chromosome_cost(&problem, chromosome));
            }
            black_box(acc)
        })
    });
    group.bench_function("serial_batch_32", |b| {
        b.iter(|| {
            evaluate_population(&problem, &mut population, &mut scratch);
            black_box(population[0].1)
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_selection,
    bench_crossover,
    bench_mutation,
    bench_population_fitness
);
criterion_main!(benches);
