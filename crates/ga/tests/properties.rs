//! Property-based tests of the GA toolkit.

use drp_ga::{ops, BitString, Engine, GaConfig, GaSpec, SamplingSpace, SelectionScheme};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

proptest! {
    #[test]
    fn bitstring_set_get_flip(len in 1usize..200, indices in prop::collection::vec(0usize..200, 0..32)) {
        let mut s = BitString::zeros(len);
        for &i in indices.iter().filter(|&&i| i < len) {
            let before = s.get(i);
            s.flip(i);
            prop_assert_eq!(s.get(i), !before);
        }
        prop_assert!(s.iter_ones().all(|i| i < len));
        prop_assert_eq!(s.count_ones(), s.iter_ones().count());
    }

    #[test]
    fn word_wise_copy_range_matches_per_bit_copy(
        len in 1usize..301,
        a in 0usize..301,
        b in 0usize..301,
        seed in 0u64..1000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let src = BitString::random(len, &mut rng);
        let dst = BitString::random(len, &mut rng);
        let (lo, hi) = (a.min(b).min(len), a.max(b).min(len));
        // The drawn range, an empty one, and the same range with its start
        // or end snapped onto a word boundary.
        let ranges = [
            (lo, hi),
            (lo, lo),
            (hi, hi),
            (lo / 64 * 64, hi),
            (lo, (hi.div_ceil(64) * 64).min(len)),
            (lo / 64 * 64, (hi / 64 * 64).max(lo / 64 * 64)),
            (0, len),
        ];
        for (start, end) in ranges {
            let mut fast = dst.clone();
            fast.copy_range_from(&src, start, end);
            let reference =
                BitString::from_fn(len, |i| if (start..end).contains(&i) { src.get(i) } else { dst.get(i) });
            prop_assert_eq!(&fast, &reference, "len {} range [{}, {})", len, start, end);
            // Bits past `len` stay zero.
            let ones: usize = fast.words().iter().map(|w| w.count_ones() as usize).sum();
            prop_assert_eq!(ones, (0..len).filter(|&i| fast.get(i)).count());
        }
    }

    #[test]
    fn crossover_conserves_locus_material(len in 3usize..128, seed in 0u64..1000) {
        // For complementary parents, every crossover child pair still holds
        // exactly one 1 per locus across the two children.
        let a = BitString::zeros(len);
        let b = BitString::from_fn(len, |_| true);
        let mut rng = StdRng::seed_from_u64(seed);
        for op in 0..3 {
            let (ca, cb) = match op {
                0 => ops::one_point_crossover(&a, &b, &mut rng),
                1 => ops::two_point_crossover(&a, &b, &mut rng),
                _ => ops::uniform_crossover(&a, &b, &mut rng),
            };
            prop_assert_eq!(ca.count_ones() + cb.count_ones(), len, "op {}", op);
            for i in 0..len {
                prop_assert_ne!(ca.get(i), cb.get(i));
            }
        }
    }

    #[test]
    fn selection_allocates_exactly_count(
        fitness in prop::collection::vec(0.0f64..1.0, 1..40),
        count in 0usize..60,
        seed in 0u64..1000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        for scheme in [
            SelectionScheme::Roulette,
            SelectionScheme::StochasticRemainder,
            SelectionScheme::Tournament { size: 2 },
        ] {
            let picks = scheme.allocate(&fitness, count, &mut rng);
            prop_assert_eq!(picks.len(), count);
            prop_assert!(picks.iter().all(|&i| i < fitness.len()));
        }
    }

    #[test]
    fn stochastic_remainder_respects_deterministic_floor(
        weights in prop::collection::vec(1u32..20, 2..10),
        seed in 0u64..1000,
    ) {
        // With integer-proportional fitness and count = Σ weights scaled to
        // the pool, each chromosome receives at least ⌊expected⌋ slots.
        let fitness: Vec<f64> = weights.iter().map(|&w| w as f64).collect();
        let count = 30usize;
        let total: f64 = fitness.iter().sum();
        let mut rng = StdRng::seed_from_u64(seed);
        let picks = SelectionScheme::StochasticRemainder.allocate(&fitness, count, &mut rng);
        for (i, &f) in fitness.iter().enumerate() {
            let expected = (f * count as f64 / total).floor() as usize;
            let got = picks.iter().filter(|&&p| p == i).count();
            // One slot of slack: when the expectation lands exactly on an
            // integer, floating point can floor it either way.
            prop_assert!(
                got + 1 >= expected,
                "chromosome {} got {} < floor {} - 1",
                i, got, expected
            );
        }
    }
}

/// A spec whose fitness counts leading ones — order-sensitive, so crossover
/// geometry matters.
struct LeadingOnes;

impl GaSpec for LeadingOnes {
    fn evaluate(&self, c: &mut BitString) -> f64 {
        let mut run = 0;
        for i in 0..c.len() {
            if c.get(i) {
                run += 1;
            } else {
                break;
            }
        }
        run as f64 / c.len() as f64
    }
    fn crossover(
        &self,
        a: &BitString,
        b: &BitString,
        rng: &mut dyn RngCore,
    ) -> (BitString, BitString) {
        ops::one_point_crossover(a, b, rng)
    }
    fn mutate(&self, c: &mut BitString, rate: f64, rng: &mut dyn RngCore) {
        ops::bit_flip_mutation(c, rate, rng);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn engine_improves_leading_ones(seed in 0u64..500) {
        let mut rng = StdRng::seed_from_u64(seed);
        let initial: Vec<BitString> =
            (0..12).map(|_| BitString::random(24, &mut rng)).collect();
        let start_best = {
            let mut best = 0.0f64;
            for c in &initial {
                let mut c = c.clone();
                best = best.max(LeadingOnes.evaluate(&mut c));
            }
            best
        };
        for sampling in [SamplingSpace::Regular, SamplingSpace::Enlarged] {
            let config = GaConfig::new(12, 30).sampling(sampling).mutation_rate(0.03);
            let outcome = Engine::new(config)
                .run(&LeadingOnes, initial.clone(), &mut rng)
                .unwrap();
            prop_assert!(outcome.best_fitness >= start_best, "{sampling:?}");
        }
    }
}
