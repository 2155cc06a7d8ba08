use std::sync::Arc;

use drp_net::telemetry::{self, Recorder};
use rand::{Rng, RngCore};

use crate::config::{GaConfig, SamplingSpace};
use crate::stats::GenerationStats;
use crate::{BitString, GaError, GaSpec, Result};

/// Result of one engine run.
#[derive(Debug, Clone)]
pub struct GaOutcome {
    /// Best chromosome found in any generation.
    pub best: BitString,
    /// Its fitness.
    pub best_fitness: f64,
    /// Per-generation statistics (entry 0 is the initial population).
    pub history: Vec<GenerationStats>,
    /// Total fitness evaluations performed (the dominant cost — GRA's
    /// enlarged sampling pays up to 3× the regular space here).
    pub evaluations: u64,
    /// The final population, fittest first. AGRA's transcription step feeds
    /// an entire micro-GA population back into GRA, hence the full export.
    pub final_population: Vec<(BitString, f64)>,
}

/// The generation loop: selection, crossover, mutation, elitism.
///
/// See the [crate documentation](crate) for an end-to-end example.
#[derive(Debug, Clone)]
pub struct Engine {
    config: GaConfig,
    recorder: Arc<dyn Recorder>,
}

impl Engine {
    /// Creates an engine with the given configuration.
    pub fn new(config: GaConfig) -> Self {
        Self {
            config,
            recorder: telemetry::noop(),
        }
    }

    /// Attaches a telemetry recorder. Each generation emits a
    /// `ga.generation` span with `ga.crossover` / `ga.mutation` /
    /// `ga.evaluate` / `ga.selection` sub-phases and a `ga.evaluations`
    /// counter. Instrumentation never consumes randomness, so a seeded run
    /// is bitwise identical with any recorder armed.
    #[must_use]
    pub fn with_recorder(mut self, recorder: Arc<dyn Recorder>) -> Self {
        self.recorder = recorder;
        self
    }

    /// The configuration this engine runs.
    pub fn config(&self) -> &GaConfig {
        &self.config
    }

    /// Evolves `initial` for the configured number of generations.
    ///
    /// The rng is a trait object, the same `&mut dyn RngCore` the
    /// [`GaSpec`] operators take, so a draw inside an operator costs one
    /// virtual call whatever rng the caller holds.
    ///
    /// The initial population is resized to `population_size` by cycling (if
    /// too small) or truncating (if too large).
    ///
    /// # Errors
    ///
    /// * [`GaError::BadConfig`] when the configuration fails validation;
    /// * [`GaError::BadInitialPopulation`] when `initial` is empty or holds
    ///   chromosomes of differing lengths.
    pub fn run<S: GaSpec + ?Sized>(
        &self,
        spec: &S,
        initial: Vec<BitString>,
        rng: &mut dyn RngCore,
    ) -> Result<GaOutcome> {
        self.config.validate()?;
        if initial.is_empty() {
            return Err(GaError::BadInitialPopulation {
                reason: "initial population is empty".into(),
            });
        }
        let len = initial[0].len();
        if initial.iter().any(|c| c.len() != len) {
            return Err(GaError::BadInitialPopulation {
                reason: "initial chromosomes have differing lengths".into(),
            });
        }

        let np = self.config.population_size;
        let mut evaluations: u64 = 0;
        let rec = self.recorder.as_ref();

        // Resize and evaluate generation 0.
        let mut population: Vec<(BitString, f64)> = initial
            .into_iter()
            .cycle()
            .take(np)
            .map(|c| (c, 0.0))
            .collect();
        evaluations += population.len() as u64;
        rec.add_counter("ga.evaluations", population.len() as u64);
        {
            let _span = telemetry::span(rec, "ga.evaluate");
            evaluate_all(spec, &mut population);
        }

        let mut best_ever = population
            .iter()
            .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
            .cloned()
            .expect("population is non-empty");

        let mut history = Vec::with_capacity(self.config.generations + 1);
        let fitness_of = |p: &[(BitString, f64)]| p.iter().map(|(_, f)| *f).collect::<Vec<_>>();
        history.push(GenerationStats::from_population(
            0,
            &fitness_of(&population),
            best_ever.1,
        ));

        for generation in 1..=self.config.generations {
            let _gen_span = telemetry::span(rec, "ga.generation");
            let mut pool: Vec<(BitString, f64)> = match self.config.sampling {
                SamplingSpace::Enlarged => {
                    let mut pool = population.clone();
                    let fresh_from = pool.len();
                    {
                        // Crossover subpopulation.
                        let _span = telemetry::span(rec, "ga.crossover");
                        let order = shuffled_indices(np, rng);
                        for pair in order.chunks_exact(2) {
                            if rng.random_bool(self.config.crossover_rate) {
                                let (c1, c2) = spec.crossover(
                                    &population[pair[0]].0,
                                    &population[pair[1]].0,
                                    rng,
                                );
                                pool.push((c1, 0.0));
                                pool.push((c2, 0.0));
                            }
                        }
                    }
                    {
                        // Mutation subpopulation.
                        let _span = telemetry::span(rec, "ga.mutation");
                        for parent in population.iter().take(np) {
                            let mut m = parent.0.clone();
                            spec.mutate(&mut m, self.config.mutation_rate, rng);
                            pool.push((m, 0.0));
                        }
                    }
                    // Parents keep their generation-(g−1) fitness; only the
                    // fresh offspring need scoring.
                    evaluations += (pool.len() - fresh_from) as u64;
                    rec.add_counter("ga.evaluations", (pool.len() - fresh_from) as u64);
                    {
                        let _span = telemetry::span(rec, "ga.evaluate");
                        evaluate_all(spec, &mut pool[fresh_from..]);
                    }
                    pool
                }
                SamplingSpace::Regular => {
                    // Offspring replace parents in place; untouched parents
                    // survive into the pool.
                    let mut pool = population.clone();
                    {
                        let _span = telemetry::span(rec, "ga.crossover");
                        let order = shuffled_indices(np, rng);
                        for pair in order.chunks_exact(2) {
                            if rng.random_bool(self.config.crossover_rate) {
                                let (c1, c2) =
                                    spec.crossover(&pool[pair[0]].0, &pool[pair[1]].0, rng);
                                pool[pair[0]].0 = c1;
                                pool[pair[1]].0 = c2;
                            }
                        }
                    }
                    {
                        let _span = telemetry::span(rec, "ga.mutation");
                        for slot in &mut pool {
                            spec.mutate(&mut slot.0, self.config.mutation_rate, rng);
                        }
                    }
                    // Every slot mutated, so every slot is re-scored.
                    evaluations += pool.len() as u64;
                    rec.add_counter("ga.evaluations", pool.len() as u64);
                    {
                        let _span = telemetry::span(rec, "ga.evaluate");
                        evaluate_all(spec, &mut pool);
                    }
                    pool
                }
            };

            // Track the best chromosome in the pool even if selection drops it.
            let pool_best = pool
                .iter()
                .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
                .expect("pool is non-empty");
            if pool_best.1 > best_ever.1 {
                best_ever = pool_best.clone();
            }

            // Offspring allocation over the pool.
            let fitness = fitness_of(&pool);
            let picks = {
                let _span = telemetry::span(rec, "ga.selection");
                self.config.selection.allocate(&fitness, np, rng)
            };
            let mut next: Vec<(BitString, f64)> =
                picks.into_iter().map(|i| pool[i].clone()).collect();
            pool.clear();

            // Elitism: periodically re-impose the best-so-far on the worst slot.
            if self.config.elite_period > 0 && generation % self.config.elite_period == 0 {
                if let Some(worst) = next
                    .iter()
                    .enumerate()
                    .min_by(|a, b| {
                        a.1 .1
                            .partial_cmp(&b.1 .1)
                            .unwrap_or(std::cmp::Ordering::Equal)
                    })
                    .map(|(i, _)| i)
                {
                    next[worst] = best_ever.clone();
                }
            }
            population = next;

            history.push(GenerationStats::from_population(
                generation,
                &fitness_of(&population),
                best_ever.1,
            ));
        }

        population.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        Ok(GaOutcome {
            best: best_ever.0,
            best_fitness: best_ever.1,
            history,
            evaluations,
            final_population: population,
        })
    }
}

/// Scores every chromosome in place, writing each fitness into its slot.
fn evaluate_all<S: GaSpec + ?Sized>(spec: &S, population: &mut [(BitString, f64)]) {
    for (chromosome, fitness) in population.iter_mut() {
        *fitness = spec.evaluate(chromosome);
    }
}

fn shuffled_indices<R: RngCore + ?Sized>(n: usize, rng: &mut R) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = rng.random_range(0..=i);
        order.swap(i, j);
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ops, SelectionScheme};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    struct OneMax;

    impl GaSpec for OneMax {
        fn evaluate(&self, c: &mut BitString) -> f64 {
            c.count_ones() as f64 / c.len() as f64
        }
        fn crossover(
            &self,
            a: &BitString,
            b: &BitString,
            rng: &mut dyn RngCore,
        ) -> (BitString, BitString) {
            ops::two_point_crossover(a, b, rng)
        }
        fn mutate(&self, c: &mut BitString, rate: f64, rng: &mut dyn RngCore) {
            ops::bit_flip_mutation(c, rate, rng);
        }
    }

    fn initial(pop: usize, len: usize, seed: u64) -> Vec<BitString> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..pop).map(|_| BitString::random(len, &mut rng)).collect()
    }

    #[test]
    fn onemax_converges_enlarged() {
        let mut rng = StdRng::seed_from_u64(1);
        let outcome = Engine::new(GaConfig::new(20, 120))
            .run(&OneMax, initial(20, 40, 2), &mut rng)
            .unwrap();
        // Proportionate selection loses pressure as the population nears the
        // optimum, so we assert solid (not perfect) convergence.
        assert!(outcome.best_fitness > 0.85, "got {}", outcome.best_fitness);
        assert_eq!(outcome.history.len(), 121);
        assert_eq!(outcome.final_population.len(), 20);
    }

    #[test]
    fn onemax_converges_regular() {
        let mut rng = StdRng::seed_from_u64(1);
        let config = GaConfig::new(20, 80)
            .sampling(SamplingSpace::Regular)
            .crossover_rate(0.8);
        let outcome = Engine::new(config)
            .run(&OneMax, initial(20, 40, 3), &mut rng)
            .unwrap();
        assert!(outcome.best_fitness > 0.85, "got {}", outcome.best_fitness);
    }

    #[test]
    fn enlarged_sampling_costs_more_evaluations() {
        let mut rng1 = StdRng::seed_from_u64(7);
        let mut rng2 = StdRng::seed_from_u64(7);
        let enlarged = Engine::new(GaConfig::new(16, 10))
            .run(&OneMax, initial(16, 32, 4), &mut rng1)
            .unwrap();
        let regular = Engine::new(GaConfig::new(16, 10).sampling(SamplingSpace::Regular))
            .run(&OneMax, initial(16, 32, 4), &mut rng2)
            .unwrap();
        assert!(enlarged.evaluations > regular.evaluations);
    }

    #[test]
    fn best_ever_is_monotone() {
        let mut rng = StdRng::seed_from_u64(5);
        let outcome = Engine::new(GaConfig::new(10, 30))
            .run(&OneMax, initial(10, 24, 6), &mut rng)
            .unwrap();
        for w in outcome.history.windows(2) {
            assert!(w[1].best_ever >= w[0].best_ever);
        }
        assert_eq!(
            outcome.best_fitness,
            outcome.history.last().unwrap().best_ever
        );
    }

    #[test]
    fn small_initial_population_is_cycled() {
        let mut rng = StdRng::seed_from_u64(8);
        let outcome = Engine::new(GaConfig::new(12, 5))
            .run(&OneMax, initial(3, 16, 9), &mut rng)
            .unwrap();
        assert_eq!(outcome.final_population.len(), 12);
    }

    #[test]
    fn empty_population_is_rejected() {
        let mut rng = StdRng::seed_from_u64(8);
        let err = Engine::new(GaConfig::new(12, 5)).run(&OneMax, vec![], &mut rng);
        assert!(matches!(err, Err(GaError::BadInitialPopulation { .. })));
    }

    #[test]
    fn mismatched_lengths_are_rejected() {
        let mut rng = StdRng::seed_from_u64(8);
        let pop = vec![BitString::zeros(4), BitString::zeros(5)];
        let err = Engine::new(GaConfig::new(2, 5)).run(&OneMax, pop, &mut rng);
        assert!(matches!(err, Err(GaError::BadInitialPopulation { .. })));
    }

    #[test]
    fn elitism_preserves_best_in_population() {
        let mut rng = StdRng::seed_from_u64(13);
        let outcome = Engine::new(GaConfig::new(10, 20).elite_period(1))
            .run(&OneMax, initial(10, 24, 14), &mut rng)
            .unwrap();
        // With per-generation elitism the final population contains best_ever.
        let best_in_pop = outcome
            .final_population
            .iter()
            .map(|(_, f)| *f)
            .fold(f64::NEG_INFINITY, f64::max);
        assert_eq!(best_in_pop, outcome.best_fitness);
    }

    #[test]
    fn recorder_counts_match_engine_accounting_and_preserve_determinism() {
        use drp_net::telemetry::InMemoryRecorder;

        for sampling in [SamplingSpace::Enlarged, SamplingSpace::Regular] {
            let config = GaConfig::new(14, 25).sampling(sampling);
            let mut rng1 = StdRng::seed_from_u64(77);
            let mut rng2 = StdRng::seed_from_u64(77);
            let bare = Engine::new(config.clone())
                .run(&OneMax, initial(14, 32, 78), &mut rng1)
                .unwrap();
            let recorder = Arc::new(InMemoryRecorder::new());
            let recorded = Engine::new(config)
                .with_recorder(recorder.clone())
                .run(&OneMax, initial(14, 32, 78), &mut rng2)
                .unwrap();

            // Instrumentation must not perturb the run in any way.
            assert_eq!(bare.best, recorded.best);
            assert_eq!(bare.evaluations, recorded.evaluations);
            assert_eq!(bare.final_population, recorded.final_population);

            // Exact, deterministic span/counter accounting: one generation
            // span per evolved generation, one evaluate span per batch
            // (generation 0 included), evaluations counter equal to the
            // engine's own tally.
            let generations = (recorded.history.len() - 1) as u64;
            assert_eq!(recorder.span_count("ga.generation"), generations);
            assert_eq!(recorder.span_count("ga.evaluate"), generations + 1);
            assert_eq!(recorder.span_count("ga.crossover"), generations);
            assert_eq!(recorder.span_count("ga.mutation"), generations);
            assert_eq!(recorder.span_count("ga.selection"), generations);
            assert_eq!(recorder.counter("ga.evaluations"), recorded.evaluations);
        }
    }

    #[test]
    fn tournament_selection_also_converges() {
        let mut rng = StdRng::seed_from_u64(21);
        let config = GaConfig::new(20, 40).selection(SelectionScheme::Tournament { size: 3 });
        let outcome = Engine::new(config)
            .run(&OneMax, initial(20, 32, 22), &mut rng)
            .unwrap();
        assert!(outcome.best_fitness > 0.85);
    }
}
