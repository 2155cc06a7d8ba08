//! The *Adaptive Genetic Replication Algorithm* (Section 5).
//!
//! When an object's read/write pattern shifts past a threshold, AGRA runs a
//! per-object micro-GA over `M`-bit chromosomes (one bit per site) against
//! the *unconstrained* per-object NTC `V_k`, then *transcribes* its
//! solutions into the last known GRA population: the best replica set lands
//! in half of the chromosomes (including the one mirroring the current
//! network distribution), the rest are scattered over the other half.
//! Capacity violations introduced by transcription are repaired greedily by
//! deallocating the object with the lowest Eq. 6 replica-value estimate.
//! Optionally, a short "mini-GRA" (5–10 generations) polishes the
//! transcribed population.

use std::cell::RefCell;
use std::sync::Arc;

use drp_core::telemetry::{self, Recorder};
use drp_core::{CoreError, NarrowMirror, ObjectId, Problem, ReplicationScheme, Result, SiteId};
use drp_ga::{ops, BitString, Engine, GaConfig, GaSpec, SamplingSpace, SelectionScheme};
use rand::{Rng, RngCore};

use crate::encoding::{chromosome_cost, decode_scheme, encode_scheme};
use crate::gra::{Gra, GraConfig};

/// Configuration of AGRA. Defaults follow the paper: `A_p = 10`,
/// `A_g = 50`, single-point crossover at 0.8, mutation 0.01, regular
/// sampling space, elitism, and a 5-generation mini-GRA.
#[derive(Debug, Clone, PartialEq)]
pub struct AgraConfig {
    /// Micro-GA population size `A_p`.
    pub population_size: usize,
    /// Micro-GA generations `A_g`.
    pub generations: usize,
    /// Crossover rate of the micro-GA.
    pub crossover_rate: f64,
    /// Per-bit mutation rate of the micro-GA.
    pub mutation_rate: f64,
    /// Elite re-imposition period of the micro-GA.
    pub elite_period: usize,
    /// Generations of mini-GRA applied to the transcribed population
    /// (0 = stand-alone AGRA, the paper evaluates 0, 5 and 10).
    pub mini_gra_generations: usize,
    /// Operator settings for the mini-GRA phase.
    pub gra: GraConfig,
}

impl Default for AgraConfig {
    fn default() -> Self {
        Self {
            population_size: 10,
            generations: 50,
            crossover_rate: 0.8,
            mutation_rate: 0.01,
            elite_period: 5,
            mini_gra_generations: 5,
            gra: GraConfig::default(),
        }
    }
}

/// Result of one adaptation step.
#[derive(Debug, Clone)]
pub struct AdaptiveOutcome {
    /// The new replication scheme to realize on the network.
    pub scheme: ReplicationScheme,
    /// Its fitness `(D_prime − D) / D_prime` under the *new* pattern.
    pub fitness: f64,
    /// The transcribed (and possibly mini-GRA-evolved) population, to be
    /// carried into the next adaptation step.
    pub population: Vec<BitString>,
    /// Fitness evaluations spent in the micro-GAs.
    pub micro_evaluations: u64,
    /// Fitness evaluations spent in the mini-GRA.
    pub mini_evaluations: u64,
}

/// The adaptive algorithm itself.
///
/// # Examples
///
/// ```
/// use drp_algo::{Agra, AgraConfig, Gra, GraConfig};
/// use drp_core::ReplicationAlgorithm;
/// use drp_workload::{PatternChange, WorkloadSpec};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(5);
/// let problem = WorkloadSpec::paper(8, 10, 5.0, 20.0).generate(&mut rng)?;
/// let gra = Gra::with_config(GraConfig { population_size: 8, generations: 8,
///                                        ..GraConfig::default() });
/// let run = gra.solve_detailed(&problem, &mut rng)?;
///
/// // The pattern shifts...
/// let change = PatternChange { change_percent: 300.0, objects_percent: 20.0, read_share: 1.0 };
/// let shift = change.apply(&problem, &mut rng)?;
/// let changed: Vec<_> = shift.changed.iter().map(|(k, _)| *k).collect();
///
/// // ...and AGRA re-tunes the scheme without a full GRA run.
/// let population: Vec<_> =
///     run.outcome.final_population.iter().map(|(c, _)| c.clone()).collect();
/// let outcome = Agra::new().adapt(&shift.problem, &run.scheme, &population, &changed, &mut rng)?;
/// assert!(outcome.fitness >= 0.0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct Agra {
    config: AgraConfig,
    recorder: Arc<dyn Recorder>,
}

impl Default for Agra {
    fn default() -> Self {
        Self {
            config: AgraConfig::default(),
            recorder: telemetry::noop(),
        }
    }
}

impl Agra {
    /// AGRA with the paper's defaults.
    pub fn new() -> Self {
        Self::default()
    }

    /// AGRA with an explicit configuration.
    pub fn with_config(config: AgraConfig) -> Self {
        Self {
            config,
            recorder: telemetry::noop(),
        }
    }

    /// Attaches a telemetry recorder: each changed object closes one
    /// `agra.micro_ga` and one `agra.transcription` span, the mini-GRA
    /// polish (when configured) closes `agra.mini_gra`, and the micro-GA
    /// engines forward their own `ga.*` spans. Recording never consumes
    /// randomness, so adaptation results are unchanged.
    #[must_use]
    pub fn with_recorder(mut self, recorder: Arc<dyn Recorder>) -> Self {
        self.recorder = recorder;
        self
    }

    /// The configuration in use.
    pub fn config(&self) -> &AgraConfig {
        &self.config
    }

    /// Adapts to a pattern change.
    ///
    /// * `problem` — the instance with the **new** read/write pattern;
    /// * `current` — the scheme presently realized on the network;
    /// * `gra_population` — the last GRA population (may be empty: the
    ///   current scheme is then cloned into a fresh population);
    /// * `changed` — the objects whose pattern shifted past the threshold.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidInstance`] for dimension mismatches.
    pub fn adapt(
        &self,
        problem: &Problem,
        current: &ReplicationScheme,
        gra_population: &[BitString],
        changed: &[ObjectId],
        rng: &mut dyn RngCore,
    ) -> Result<AdaptiveOutcome> {
        let eq6 = Eq6Table::new(problem);
        // Counted at the first transcription, after setting every primary
        // bit; each later column write and eviction keeps it current.
        let mut usage: Vec<SiteUsage> = Vec::new();
        self.adapt_with(
            problem,
            current,
            gra_population,
            changed,
            rng,
            |population, object, micro, rng| {
                if usage.is_empty() {
                    usage = population
                        .iter_mut()
                        .map(|chromosome| SiteUsage::primed(problem, chromosome))
                        .collect();
                }
                transcribe(problem, &eq6, population, &mut usage, object, micro, rng);
            },
        )
    }

    /// [`adapt`](Self::adapt) with the transcription step supplied: it
    /// writes one micro-GA's final population into the GRA population.
    fn adapt_with(
        &self,
        problem: &Problem,
        current: &ReplicationScheme,
        gra_population: &[BitString],
        changed: &[ObjectId],
        rng: &mut dyn RngCore,
        mut transcribe: impl FnMut(&mut [BitString], ObjectId, &[(BitString, f64)], &mut dyn RngCore),
    ) -> Result<AdaptiveOutcome> {
        let m = problem.num_sites();
        let n = problem.num_objects();
        let len = m * n;
        let current_bits = encode_scheme(problem, current);

        // Assemble the working population; slot 0 mirrors the network.
        let mut population: Vec<BitString> = if gra_population.is_empty() {
            vec![current_bits.clone(); self.config.gra.population_size.max(2)]
        } else {
            gra_population.to_vec()
        };
        if population.iter().any(|c| c.len() != len) {
            return Err(CoreError::InvalidInstance {
                reason: "population chromosome length mismatches the instance".into(),
            });
        }
        population[0] = current_bits.clone();

        // One narrow mirror serves every micro-GA of this adaptation step;
        // `None` (values too wide for u32) falls back to the u64 path.
        let narrow = NarrowMirror::build(problem).map(Arc::new);
        let mut micro_evaluations = 0u64;

        for &object in changed {
            problem.check_object(object)?;
            // 1. Micro-GA over the object's replica set.
            let micro = {
                let _span = telemetry::span(self.recorder.as_ref(), "agra.micro_ga");
                self.run_micro_ga(problem, current, &population, object, narrow.clone(), rng)?
            };
            micro_evaluations += micro.evaluations;

            // 2. Transcription into the GRA population.
            let _span = telemetry::span(self.recorder.as_ref(), "agra.transcription");
            transcribe(&mut population, object, &micro.final_population, rng);
        }

        // Keep the untouched current distribution in the pool: transcription
        // plus capacity repair can regress *other* objects' replicas, and
        // the monitor must never adopt a scheme worse than the one already
        // running on the network.
        if population.len() > 1 {
            let last = population.len() - 1;
            population[last] = current_bits.clone();
        }
        let dp = problem.d_prime().max(1);
        let fitness_of =
            |bits: &BitString| (dp as f64 - chromosome_cost(problem, bits) as f64) / dp as f64;
        let current_fitness = fitness_of(&current_bits);

        // 3. Stand-alone pick or mini-GRA polish.
        let mut outcome = if self.config.mini_gra_generations > 0 {
            let _span = telemetry::span(self.recorder.as_ref(), "agra.mini_gra");
            let gra = Gra::with_config(GraConfig {
                population_size: population.len(),
                ..self.config.gra.clone()
            })
            .with_recorder(self.recorder.clone());
            let run = gra.evolve(problem, population, self.config.mini_gra_generations, rng)?;
            AdaptiveOutcome {
                scheme: run.scheme,
                fitness: run.fitness,
                population: run
                    .outcome
                    .final_population
                    .iter()
                    .map(|(c, _)| c.clone())
                    .collect(),
                micro_evaluations,
                mini_evaluations: run.outcome.evaluations,
            }
        } else {
            let (best, fitness) = population
                .iter()
                .map(|c| (c, fitness_of(c)))
                .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
                .expect("population is non-empty");
            let scheme = decode_scheme(problem, best)?;
            let fitness = fitness.max(0.0);
            AdaptiveOutcome {
                scheme,
                fitness,
                population,
                micro_evaluations,
                mini_evaluations: 0,
            }
        };

        // Adopt-only-if-better guard.
        if outcome.fitness < current_fitness {
            outcome.scheme = current.clone();
            outcome.fitness = current_fitness;
        }
        Ok(outcome)
    }

    fn run_micro_ga(
        &self,
        problem: &Problem,
        current: &ReplicationScheme,
        population: &[BitString],
        object: ObjectId,
        narrow: Option<Arc<NarrowMirror>>,
        rng: &mut dyn RngCore,
    ) -> Result<drp_ga::GaOutcome> {
        let m = problem.num_sites();
        let n = problem.num_objects();
        let ap = self.config.population_size.max(2);

        // Half random, half projected from the GRA population; slot 0 is the
        // object's current replica set.
        let mut initial = Vec::with_capacity(ap);
        initial.push(BitString::from_fn(m, |i| {
            current.holds(SiteId::new(i), object)
        }));
        for source in population.iter().take(ap / 2) {
            initial.push(BitString::from_fn(m, |i| {
                source.get(i * n + object.index())
            }));
        }
        while initial.len() < ap {
            initial.push(BitString::random(m, rng));
        }

        let spec = MicroSpec::new(problem, object).with_mirror(narrow);
        for chromosome in &mut initial {
            chromosome.set(spec.primary_bit, true);
        }

        let config = GaConfig::new(ap, self.config.generations)
            .crossover_rate(self.config.crossover_rate)
            .mutation_rate(self.config.mutation_rate)
            .selection(SelectionScheme::StochasticRemainder)
            .sampling(SamplingSpace::Regular)
            .elite_period(self.config.elite_period);
        Engine::new(config)
            .with_recorder(self.recorder.clone())
            .run(&spec, initial, rng)
            .map_err(|e| CoreError::InvalidInstance {
                reason: e.to_string(),
            })
    }
}

/// Detects objects whose total reads or writes moved by more than
/// `threshold_percent` between two instances over the same network — the
/// paper's trigger for running AGRA.
///
/// # Panics
///
/// Panics if the instances have different numbers of objects.
pub fn detect_changed_objects(
    old: &Problem,
    new: &Problem,
    threshold_percent: f64,
) -> Vec<ObjectId> {
    assert_eq!(
        old.num_objects(),
        new.num_objects(),
        "instances must describe the same objects"
    );
    let moved = |a: u64, b: u64| -> bool {
        let base = a.max(1) as f64;
        (b as f64 - a as f64).abs() / base * 100.0 > threshold_percent
    };
    new.objects()
        .filter(|&k| {
            moved(old.total_reads(k), new.total_reads(k))
                || moved(old.total_writes(k), new.total_writes(k))
        })
        .collect()
}

/// Per-site proportional link weights of Eq. 6, precomputed once.
fn link_weights(problem: &Problem) -> Vec<f64> {
    let mean = problem.costs().mean_row_sum();
    (0..problem.num_sites())
        .map(|i| {
            if mean > 0.0 {
                (problem.costs().row_sum(i) as f64 / mean).max(f64::MIN_POSITIVE)
            } else {
                1.0
            }
        })
        .collect()
}

/// The source of chromosome `index`'s new column: the best replica set
/// for the first `half` (elite slot 0 included), a random one of the
/// micro-GA's final population for the rest.
fn column_source<'a>(
    micro: &'a [(BitString, f64)],
    index: usize,
    half: usize,
    rng: &mut dyn RngCore,
) -> &'a BitString {
    if index < half {
        &micro[0].0
    } else {
        &micro[rng.random_range(0..micro.len())].0
    }
}

/// One transcription step: every chromosome's `object` column is
/// overwritten from the micro-GA's final population (see
/// [`column_source`]) and the chromosome repaired. `usage[c]` must be
/// chromosome `c`'s current [`SiteUsage`] with every primary bit set; it
/// stays current.
fn transcribe(
    problem: &Problem,
    eq6: &Eq6Table,
    population: &mut [BitString],
    usage: &mut [SiteUsage],
    object: ObjectId,
    micro: &[(BitString, f64)],
    rng: &mut dyn RngCore,
) {
    let half = population.len().div_ceil(2);
    for (index, (chromosome, usage)) in population.iter_mut().zip(usage).enumerate() {
        let source = column_source(micro, index, half, rng);
        usage.write_column(problem, chromosome, object, source);
        repair_capacity(problem, chromosome, eq6, usage);
    }
}

fn ensure_primary_bits(problem: &Problem, chromosome: &mut BitString) {
    let n = problem.num_objects();
    for k in problem.objects() {
        chromosome.set(problem.primary(k).index() * n + k.index(), true);
    }
}

/// A chromosome's storage use per site and replica degree per object, the
/// two counts the capacity repair reads.
struct SiteUsage {
    used: Vec<u64>,
    degree: Vec<usize>,
}

impl SiteUsage {
    /// Counts `chromosome` one gene at a time.
    fn count(problem: &Problem, chromosome: &BitString) -> Self {
        let m = problem.num_sites();
        let n = problem.num_objects();
        let mut used = vec![0u64; m];
        let mut degree = vec![0usize; n];
        for (i, used) in used.iter_mut().enumerate() {
            for one in chromosome.iter_ones_in(i * n, (i + 1) * n) {
                let k = one - i * n;
                *used += problem.object_size(ObjectId::new(k));
                degree[k] += 1;
            }
        }
        Self { used, degree }
    }

    /// Sets every primary bit of `chromosome`, then counts it.
    fn primed(problem: &Problem, chromosome: &mut BitString) -> Self {
        ensure_primary_bits(problem, chromosome);
        Self::count(problem, chromosome)
    }

    /// Overwrites `object`'s column with an M-bit replica set (its primary
    /// bit forced on) and applies the old-vs-new difference to the counts.
    fn write_column(
        &mut self,
        problem: &Problem,
        chromosome: &mut BitString,
        object: ObjectId,
        replica_set: &BitString,
    ) {
        let n = problem.num_objects();
        let k = object.index();
        let size = problem.object_size(object);
        let primary = problem.primary(object).index();
        for i in 0..replica_set.len() {
            let bit = i * n + k;
            let held = replica_set.get(i) || i == primary;
            if chromosome.get(bit) == held {
                continue;
            }
            chromosome.set(bit, held);
            if held {
                self.used[i] += size;
                self.degree[k] += 1;
            } else {
                self.used[i] -= size;
                self.degree[k] -= 1;
            }
        }
    }
}

/// Eq. 6 inputs of one adaptation step, built once per [`Agra::adapt`]
/// call: the per-site link weights and an `M×N` table of estimate
/// numerators `tr_k + w_k(i) − tw_k + r_k(i)·cap(i)/o_k` at `i·N + k`
/// (the generic Eq. 6 accessor recomputes the O(M²) mean row sum on every
/// call, far too slow for the repair loop).
struct Eq6Table {
    weights: Vec<f64>,
    numerators: Vec<f64>,
}

impl Eq6Table {
    fn new(problem: &Problem) -> Self {
        let mut numerators = Vec::with_capacity(problem.num_sites() * problem.num_objects());
        for site in problem.sites() {
            for object in problem.objects() {
                numerators.push(
                    problem.total_reads(object) as f64 + problem.writes(site, object) as f64
                        - problem.total_writes(object) as f64
                        + problem.reads(site, object) as f64 * problem.capacity(site) as f64
                            / problem.object_size(object) as f64,
                );
            }
        }
        Self {
            weights: link_weights(problem),
            numerators,
        }
    }
}

/// Greedy capacity repair: at every over-full site, deallocate the held
/// object with the lowest Eq. 6 estimate (the first one on a tie) until the
/// site fits. Primaries are never deallocated (and every site fits its
/// primaries by instance validation, so repair always terminates).
/// `usage` must hold `chromosome`'s current counts; evictions update it.
fn repair_capacity(
    problem: &Problem,
    chromosome: &mut BitString,
    eq6: &Eq6Table,
    usage: &mut SiteUsage,
) {
    let n = problem.num_objects();
    let SiteUsage { used, degree } = usage;
    let mut candidates: Vec<(usize, f64)> = Vec::new();
    for (i, used) in used.iter_mut().enumerate() {
        let site = SiteId::new(i);
        let capacity = problem.capacity(site);
        if *used <= capacity {
            continue;
        }
        // Each held non-primary object is scored once. An eviction changes
        // only the victim's degree, and the victim leaves the list, so the
        // other estimates hold while this site is repaired. `remove` keeps
        // object order, so ties go to the lowest object index.
        let row = &eq6.numerators[i * n..(i + 1) * n];
        candidates.clear();
        candidates.extend(
            chromosome
                .iter_ones_in(i * n, (i + 1) * n)
                .map(|one| one - i * n)
                .filter(|&k| problem.primary(ObjectId::new(k)) != site)
                .map(|k| (k, row[k] / (eq6.weights[i] * degree[k] as f64))),
        );
        while *used > capacity {
            let (slot, &(victim, _)) = candidates
                .iter()
                .enumerate()
                .min_by(|a, b| {
                    a.1 .1
                        .partial_cmp(&b.1 .1)
                        .unwrap_or(std::cmp::Ordering::Equal)
                })
                .expect("an over-full site must hold a non-primary object");
            candidates.remove(slot);
            chromosome.set(i * n + victim, false);
            *used -= problem.object_size(ObjectId::new(victim));
            degree[victim] -= 1;
        }
    }
}

/// Buffers of the micro-GA fitness, reused by every evaluation of one
/// [`MicroSpec`]: the chromosome's replica set and the nearest-cost
/// scratch of the Eq. 4 kernels.
#[derive(Debug)]
struct MicroScratch {
    replicas: Vec<usize>,
    nearest: Vec<u64>,
    nearest32: Vec<u32>,
}

impl MicroScratch {
    fn new(num_sites: usize) -> Self {
        Self {
            replicas: Vec::with_capacity(num_sites),
            nearest: vec![u64::MAX; num_sites],
            nearest32: vec![u32::MAX; num_sites],
        }
    }
}

/// [`GaSpec`] of the per-object micro-GA: `M`-bit chromosomes scored by the
/// unconstrained per-object NTC `V_k`.
struct MicroSpec<'a> {
    problem: &'a Problem,
    object: ObjectId,
    primary_bit: usize,
    v_prime: u64,
    narrow: Option<Arc<NarrowMirror>>,
    // Fully overwritten before use, so reuse cannot affect results.
    scratch: RefCell<MicroScratch>,
}

impl<'a> MicroSpec<'a> {
    fn new(problem: &'a Problem, object: ObjectId) -> Self {
        Self {
            problem,
            object,
            primary_bit: problem.primary(object).index(),
            v_prime: problem.v_prime(object),
            narrow: None,
            scratch: RefCell::new(MicroScratch::new(problem.num_sites())),
        }
    }

    /// Attaches a pre-built u32 mirror of the instance; scoring then runs
    /// the narrow kernels, bitwise-identical to the u64 path.
    fn with_mirror(mut self, narrow: Option<Arc<NarrowMirror>>) -> Self {
        self.narrow = narrow;
        self
    }

    /// The micro-GA fitness `(V′_k − V_k) / V′_k` with the reset rule.
    fn score(&self, chromosome: &mut BitString, scratch: &mut MicroScratch) -> f64 {
        chromosome.set(self.primary_bit, true);
        if self.v_prime == 0 {
            return 0.0;
        }
        // `V_k` of the chromosome's replica set (capacity ignored — AGRA
        // solves the unconstrained problem and repairs later), through the
        // shared Eq. 4 kernel; the u32 mirror gives the same integer.
        scratch.replicas.clear();
        scratch.replicas.extend(chromosome.iter_ones());
        let replicas = &scratch.replicas;
        let v = match &self.narrow {
            Some(narrow) => narrow.object_cost_from_replicas(
                self.problem,
                self.object,
                replicas,
                &mut scratch.nearest32,
            ),
            None => {
                self.problem
                    .object_cost_from_replicas(self.object, replicas, &mut scratch.nearest)
            }
        };
        let fitness = (self.v_prime as f64 - v as f64) / self.v_prime as f64;
        if fitness < 0.0 {
            // Reset to the primary-only replica set, as in GRA.
            *chromosome = BitString::from_fn(chromosome.len(), |i| i == self.primary_bit);
            return 0.0;
        }
        fitness
    }
}

impl GaSpec for MicroSpec<'_> {
    fn evaluate(&self, chromosome: &mut BitString) -> f64 {
        self.score(chromosome, &mut self.scratch.borrow_mut())
    }

    fn crossover(
        &self,
        a: &BitString,
        b: &BitString,
        rng: &mut dyn RngCore,
    ) -> (BitString, BitString) {
        ops::one_point_crossover(a, b, rng)
    }

    fn mutate(&self, chromosome: &mut BitString, rate: f64, rng: &mut dyn RngCore) {
        for bit in ops::bit_flip_mutation(chromosome, rate, rng) {
            if bit == self.primary_bit && !chromosome.get(bit) {
                chromosome.set(bit, true); // primary constraint
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::Sra;
    use drp_core::ReplicationAlgorithm;
    use drp_workload::{PatternChange, WorkloadSpec};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup(seed: u64) -> (Problem, ReplicationScheme, Vec<BitString>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let problem = WorkloadSpec::paper(8, 10, 5.0, 20.0)
            .generate(&mut rng)
            .unwrap();
        let gra = Gra::with_config(GraConfig {
            population_size: 8,
            generations: 6,
            ..GraConfig::default()
        });
        let run = gra.solve_detailed(&problem, &mut rng).unwrap();
        let population = run
            .outcome
            .final_population
            .iter()
            .map(|(c, _)| c.clone())
            .collect();
        (problem, run.scheme, population)
    }

    #[test]
    fn adapt_produces_valid_scheme() {
        let (problem, scheme, population) = setup(1);
        let mut rng = StdRng::seed_from_u64(2);
        let change = PatternChange {
            change_percent: 400.0,
            objects_percent: 30.0,
            read_share: 0.5,
        };
        let shift = change.apply(&problem, &mut rng).unwrap();
        let changed: Vec<_> = shift.changed.iter().map(|(k, _)| *k).collect();
        let outcome = Agra::new()
            .adapt(&shift.problem, &scheme, &population, &changed, &mut rng)
            .unwrap();
        outcome.scheme.validate(&shift.problem).unwrap();
        assert!(outcome.fitness >= 0.0);
        assert!(outcome.micro_evaluations > 0);
        assert!(outcome.mini_evaluations > 0);
    }

    #[test]
    fn standalone_agra_skips_mini_gra() {
        let (problem, scheme, population) = setup(3);
        let mut rng = StdRng::seed_from_u64(4);
        let changed = vec![ObjectId::new(0), ObjectId::new(3)];
        let config = AgraConfig {
            mini_gra_generations: 0,
            ..AgraConfig::default()
        };
        let outcome = Agra::with_config(config)
            .adapt(&problem, &scheme, &population, &changed, &mut rng)
            .unwrap();
        assert_eq!(outcome.mini_evaluations, 0);
        outcome.scheme.validate(&problem).unwrap();
    }

    #[test]
    fn adapt_beats_stale_scheme_on_read_surge() {
        let (problem, scheme, population) = setup(5);
        let mut rng = StdRng::seed_from_u64(6);
        let change = PatternChange {
            change_percent: 600.0,
            objects_percent: 40.0,
            read_share: 1.0,
        };
        let shift = change.apply(&problem, &mut rng).unwrap();
        let changed: Vec<_> = shift.changed.iter().map(|(k, _)| *k).collect();
        let stale = shift.problem.savings_percent(&scheme);
        let outcome = Agra::new()
            .adapt(&shift.problem, &scheme, &population, &changed, &mut rng)
            .unwrap();
        let adapted = shift.problem.savings_percent(&outcome.scheme);
        assert!(
            adapted >= stale - 1e-9,
            "AGRA ({adapted:.2}%) must not lose to the stale scheme ({stale:.2}%)"
        );
    }

    #[test]
    fn empty_population_falls_back_to_current() {
        let (problem, scheme, _) = setup(7);
        let mut rng = StdRng::seed_from_u64(8);
        let outcome = Agra::new()
            .adapt(&problem, &scheme, &[], &[ObjectId::new(1)], &mut rng)
            .unwrap();
        outcome.scheme.validate(&problem).unwrap();
    }

    #[test]
    fn recorded_adapt_is_identical_and_counts_rounds() {
        use drp_core::telemetry::InMemoryRecorder;

        let (problem, scheme, population) = setup(13);
        let changed = vec![ObjectId::new(0), ObjectId::new(2), ObjectId::new(5)];
        let bare = Agra::new()
            .adapt(
                &problem,
                &scheme,
                &population,
                &changed,
                &mut StdRng::seed_from_u64(14),
            )
            .unwrap();
        let recorder = Arc::new(InMemoryRecorder::new());
        let recorded = Agra::new()
            .with_recorder(recorder.clone())
            .adapt(
                &problem,
                &scheme,
                &population,
                &changed,
                &mut StdRng::seed_from_u64(14),
            )
            .unwrap();
        assert_eq!(bare.scheme, recorded.scheme);
        assert_eq!(bare.fitness, recorded.fitness);
        // One micro-GA + one transcription round per changed object, one
        // mini-GRA polish for the whole step.
        assert_eq!(recorder.span_count("agra.micro_ga"), changed.len() as u64);
        assert_eq!(
            recorder.span_count("agra.transcription"),
            changed.len() as u64
        );
        assert_eq!(recorder.span_count("agra.mini_gra"), 1);
        assert_eq!(
            recorder.counter("ga.evaluations"),
            recorded.micro_evaluations + recorded.mini_evaluations
        );
    }

    #[test]
    fn detect_changed_objects_finds_surges() {
        let (problem, _, _) = setup(9);
        let mut rng = StdRng::seed_from_u64(10);
        let change = PatternChange {
            change_percent: 500.0,
            objects_percent: 20.0,
            read_share: 1.0,
        };
        let shift = change.apply(&problem, &mut rng).unwrap();
        let detected = detect_changed_objects(&problem, &shift.problem, 50.0);
        let expected: Vec<_> = shift.changed.iter().map(|(k, _)| *k).collect();
        for k in &expected {
            assert!(detected.contains(k), "object {k} should be detected");
        }
        assert_eq!(detected.len(), expected.len());
    }

    #[test]
    fn micro_spec_fitness_improves_with_good_replicas() {
        let (problem, _, _) = setup(11);
        // Pick an object with nonzero remote reads.
        let object = problem
            .objects()
            .max_by_key(|&k| problem.total_reads(k))
            .unwrap();
        let spec = MicroSpec::new(&problem, object);
        let m = problem.num_sites();
        let mut primary_only = BitString::from_fn(m, |i| i == spec.primary_bit);
        assert_eq!(spec.evaluate(&mut primary_only), 0.0);
        // Replicating everywhere eliminates read cost; fitness may be
        // positive or clamp to 0 under heavy writes, but never negative.
        let mut everywhere = BitString::from_fn(m, |_| true);
        assert!(spec.evaluate(&mut everywhere) >= 0.0);
    }

    #[test]
    fn micro_costs_agree_across_widths() {
        let (problem, _, _) = setup(15);
        let narrow = NarrowMirror::build(&problem).map(Arc::new);
        assert!(narrow.is_some(), "paper-scale instances fit in u32");
        let mut rng = StdRng::seed_from_u64(16);
        let m = problem.num_sites();
        for object in problem.objects() {
            let wide = MicroSpec::new(&problem, object);
            let narrowed = MicroSpec::new(&problem, object).with_mirror(narrow.clone());
            for _ in 0..20 {
                let mut a = BitString::random(m, &mut rng);
                a.set(wide.primary_bit, true);
                let mut b = a.clone();
                assert_eq!(
                    wide.evaluate(&mut a),
                    narrowed.evaluate(&mut b),
                    "object {object}"
                );
                assert_eq!(a, b, "reset rule must fire identically");
            }
        }
    }

    /// The per-eviction repair [`repair_capacity`] replaced, kept as its
    /// oracle: every eviction re-scans all `N` objects of the site and
    /// recomputes each held candidate's Eq. 6 estimate.
    fn repair_capacity_oracle(problem: &Problem, chromosome: &mut BitString, weights: &[f64]) {
        let m = problem.num_sites();
        let n = problem.num_objects();
        // Usage per site and replica degree per object.
        let mut used = vec![0u64; m];
        let mut degree = vec![0usize; n];
        for one in chromosome.iter_ones() {
            let (i, k) = (one / n, one % n);
            used[i] += problem.object_size(ObjectId::new(k));
            degree[k] += 1;
        }
        for i in 0..m {
            let site = SiteId::new(i);
            let capacity = problem.capacity(site);
            // Eq. 6 with the precomputed link weight (the generic accessor
            // recomputes the O(M²) mean row sum on every call, far too slow in
            // this loop).
            let estimate = |k: usize, degree: usize| -> f64 {
                let object = ObjectId::new(k);
                let numerator = problem.total_reads(object) as f64
                    + problem.writes(site, object) as f64
                    - problem.total_writes(object) as f64
                    + problem.reads(site, object) as f64 * problem.capacity(site) as f64
                        / problem.object_size(object) as f64;
                numerator / (weights[i] * degree as f64)
            };
            while used[i] > capacity {
                let victim = (0..n)
                    .filter(|&k| {
                        chromosome.get(i * n + k) && problem.primary(ObjectId::new(k)) != site
                    })
                    .min_by(|&a, &b| {
                        estimate(a, degree[a])
                            .partial_cmp(&estimate(b, degree[b]))
                            .unwrap_or(std::cmp::Ordering::Equal)
                    })
                    .expect("an over-full site must hold a non-primary object");
                chromosome.set(i * n + victim, false);
                used[i] -= problem.object_size(ObjectId::new(victim));
                degree[victim] -= 1;
            }
        }
    }

    /// The recounting repair the incremental counts replaced, kept as the
    /// oracle of [`transcribe`]: it counts usage and degrees over the
    /// whole chromosome on every call.
    fn repair_capacity_recounting(problem: &Problem, chromosome: &mut BitString, eq6: &Eq6Table) {
        let m = problem.num_sites();
        let n = problem.num_objects();
        let mut used = vec![0u64; m];
        let mut degree = vec![0usize; n];
        for (i, used) in used.iter_mut().enumerate() {
            for one in chromosome.iter_ones_in(i * n, (i + 1) * n) {
                let k = one - i * n;
                *used += problem.object_size(ObjectId::new(k));
                degree[k] += 1;
            }
        }
        let mut candidates: Vec<(usize, f64)> = Vec::new();
        for (i, used) in used.iter_mut().enumerate() {
            let site = SiteId::new(i);
            let capacity = problem.capacity(site);
            if *used <= capacity {
                continue;
            }
            let row = &eq6.numerators[i * n..(i + 1) * n];
            candidates.clear();
            candidates.extend(
                chromosome
                    .iter_ones_in(i * n, (i + 1) * n)
                    .map(|one| one - i * n)
                    .filter(|&k| problem.primary(ObjectId::new(k)) != site)
                    .map(|k| (k, row[k] / (eq6.weights[i] * degree[k] as f64))),
            );
            while *used > capacity {
                let (slot, &(victim, _)) = candidates
                    .iter()
                    .enumerate()
                    .min_by(|a, b| {
                        a.1 .1
                            .partial_cmp(&b.1 .1)
                            .unwrap_or(std::cmp::Ordering::Equal)
                    })
                    .expect("an over-full site must hold a non-primary object");
                candidates.remove(slot);
                chromosome.set(i * n + victim, false);
                *used -= problem.object_size(ObjectId::new(victim));
                degree[victim] -= 1;
            }
        }
    }

    /// The transcription step before incremental counting: write the
    /// column, set every primary bit, recount and repair, per chromosome.
    fn transcribe_recounting(
        problem: &Problem,
        eq6: &Eq6Table,
        population: &mut [BitString],
        object: ObjectId,
        micro: &[(BitString, f64)],
        rng: &mut dyn RngCore,
    ) {
        let n = problem.num_objects();
        let half = population.len().div_ceil(2);
        for (index, chromosome) in population.iter_mut().enumerate() {
            let source = column_source(micro, index, half, rng);
            for i in 0..source.len() {
                chromosome.set(i * n + object.index(), source.get(i));
            }
            ensure_primary_bits(problem, chromosome);
            repair_capacity_recounting(problem, chromosome, eq6);
        }
    }

    /// A random population of `size` chromosomes at `density`; odd slots
    /// have their primary bits cleared.
    fn random_population(
        problem: &Problem,
        size: usize,
        density: f64,
        rng: &mut StdRng,
    ) -> Vec<BitString> {
        let (m, n) = (problem.num_sites(), problem.num_objects());
        (0..size)
            .map(|slot| {
                let mut chromosome = BitString::from_fn(m * n, |_| rng.random_bool(density));
                if slot % 2 == 1 {
                    for k in problem.objects() {
                        chromosome.set(problem.primary(k).index() * n + k.index(), false);
                    }
                }
                chromosome
            })
            .collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(128))]

        /// Transcription sequences whose micro-GA results are arbitrary
        /// `M`-bit sets (primary bits included or not).
        #[test]
        fn incremental_transcription_matches_the_recounting_oracle(
            m in 2usize..=16,
            n in 1usize..=24,
            tight in proptest::any::<bool>(),
            size in 1usize..=9,
            density in 0.05f64..0.95,
            seed in proptest::any::<u64>(),
        ) {
            let problem = crate::testkit::random_instance(m, n, tight, seed);
            let eq6 = Eq6Table::new(&problem);
            let mut rng = StdRng::seed_from_u64(seed ^ 2);
            let mut population = random_population(&problem, size, density, &mut rng);
            let mut oracle = population.clone();
            let mut usage: Vec<SiteUsage> = population
                .iter_mut()
                .map(|chromosome| SiteUsage::primed(&problem, chromosome))
                .collect();
            for _ in 0..4 {
                let object = ObjectId::new(rng.random_range(0..n));
                let micro: Vec<(BitString, f64)> = (0..rng.random_range(1..=4))
                    .map(|_| (BitString::from_fn(m, |_| rng.random_bool(density)), 0.0))
                    .collect();
                let mut oracle_rng = rng.clone();
                transcribe(&problem, &eq6, &mut population, &mut usage, object, &micro, &mut rng);
                transcribe_recounting(&problem, &eq6, &mut oracle, object, &micro, &mut oracle_rng);
                proptest::prop_assert_eq!(&population, &oracle);
                proptest::prop_assert_eq!(rng.random::<u64>(), oracle_rng.random::<u64>());
                for (chromosome, usage) in population.iter().zip(&usage) {
                    let recount = SiteUsage::count(&problem, chromosome);
                    proptest::prop_assert_eq!(&usage.used, &recount.used);
                    proptest::prop_assert_eq!(&usage.degree, &recount.degree);
                }
            }
        }

        /// Whole adaptation steps: the incremental `adapt` and the
        /// recounting oracle give equal outcomes and leave the rng equal.
        #[test]
        fn adapt_matches_the_recounting_oracle(
            m in 2usize..=12,
            n in 1usize..=20,
            tight in proptest::any::<bool>(),
            size in 0usize..=8,
            changes in 0usize..=3,
            polish in proptest::any::<bool>(),
            seed in proptest::any::<u64>(),
        ) {
            let problem = crate::testkit::random_instance(m, n, tight, seed);
            let current = Sra::new().solve(&problem, &mut StdRng::seed_from_u64(seed)).unwrap();
            let mut rng = StdRng::seed_from_u64(seed ^ 3);
            let population = random_population(&problem, size, 0.5, &mut rng);
            let changed: Vec<ObjectId> =
                (0..changes).map(|_| ObjectId::new(rng.random_range(0..n))).collect();
            let agra = Agra::with_config(AgraConfig {
                population_size: 6,
                generations: 8,
                mini_gra_generations: if polish { 3 } else { 0 },
                gra: GraConfig { population_size: 6, ..GraConfig::default() },
                ..AgraConfig::default()
            });
            let mut oracle_rng = rng.clone();
            let fast = agra.adapt(&problem, &current, &population, &changed, &mut rng);
            let eq6 = Eq6Table::new(&problem);
            let slow = agra.adapt_with(
                &problem,
                &current,
                &population,
                &changed,
                &mut oracle_rng,
                |population, object, micro, rng| {
                    transcribe_recounting(&problem, &eq6, population, object, micro, rng);
                },
            );
            match (fast, slow) {
                (Ok(fast), Ok(slow)) => {
                    proptest::prop_assert_eq!(&fast.scheme, &slow.scheme);
                    proptest::prop_assert_eq!(fast.fitness.to_bits(), slow.fitness.to_bits());
                    proptest::prop_assert_eq!(&fast.population, &slow.population);
                    proptest::prop_assert_eq!(fast.micro_evaluations, slow.micro_evaluations);
                    proptest::prop_assert_eq!(fast.mini_evaluations, slow.mini_evaluations);
                }
                // An untranscribed over-full population fails to decode
                // the same way on both paths.
                (fast, slow) => proptest::prop_assert_eq!(
                    format!("{:?}", fast.err()),
                    format!("{:?}", slow.err())
                ),
            }
            proptest::prop_assert_eq!(rng.random::<u64>(), oracle_rng.random::<u64>());
        }
    }

    #[test]
    fn one_pass_repair_matches_the_per_eviction_oracle() {
        let base = WorkloadSpec::paper(10, 30, 5.0, 15.0)
            .generate(&mut StdRng::seed_from_u64(17))
            .unwrap();
        let (m, n) = (base.num_sites(), base.num_objects());
        // Every third object is neither read nor written, so its Eq. 6
        // estimate is exactly 0 at every site: ten objects tie, and only
        // the eviction order decides which of their copies go. Objects
        // `k ≡ 1 (mod 6)` are written but never read (negative estimates).
        let mut reads = base.read_matrix().clone();
        let mut writes = base.write_matrix().clone();
        for k in 0..n {
            for i in 0..m {
                if k % 3 == 0 || k % 6 == 1 {
                    reads.set(i, k, 0);
                }
                if k % 3 == 0 {
                    writes.set(i, k, 0);
                }
            }
        }
        let problem = base.with_patterns(reads, writes).unwrap();
        let eq6 = Eq6Table::new(&problem);
        let weights = link_weights(&problem);
        let mut rng = StdRng::seed_from_u64(18);
        let mut most_evictions_at_a_site = 0;
        for case in 0..400 {
            let density = [0.3, 0.6, 0.9][case % 3];
            let mut chromosome = BitString::from_fn(m * n, |_| rng.random_bool(density));
            ensure_primary_bits(&problem, &mut chromosome);
            let mut oracle = chromosome.clone();
            let before = chromosome.clone();
            let mut usage = SiteUsage::count(&problem, &chromosome);
            repair_capacity(&problem, &mut chromosome, &eq6, &mut usage);
            repair_capacity_oracle(&problem, &mut oracle, &weights);
            assert_eq!(chromosome, oracle, "case {case}");
            let recount = SiteUsage::count(&problem, &chromosome);
            assert_eq!(usage.used, recount.used, "case {case}");
            assert_eq!(usage.degree, recount.degree, "case {case}");
            decode_scheme(&problem, &chromosome).expect("repair restores validity");
            for i in 0..m {
                let evicted = before.count_ones_in(i * n, (i + 1) * n)
                    - chromosome.count_ones_in(i * n, (i + 1) * n);
                most_evictions_at_a_site = most_evictions_at_a_site.max(evicted);
            }
        }
        assert!(
            most_evictions_at_a_site >= 5,
            "cases must need several evictions at one site"
        );
    }

    /// FNV-1a over every chromosome's words, in population order.
    fn population_hash<'a>(population: impl IntoIterator<Item = &'a BitString>) -> u64 {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for chromosome in population {
            for word in chromosome.words() {
                for byte in word.to_le_bytes() {
                    hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
                }
            }
        }
        hash
    }

    #[test]
    fn seeded_gra_and_agra_outputs_are_pinned() {
        let mut rng = StdRng::seed_from_u64(2024);
        let problem = WorkloadSpec::paper(12, 30, 5.0, 15.0)
            .generate(&mut rng)
            .unwrap();
        let run = Gra::with_config(GraConfig {
            population_size: 12,
            generations: 10,
            ..GraConfig::default()
        })
        .solve_detailed(&problem, &mut rng)
        .unwrap();
        let population: Vec<BitString> = run
            .outcome
            .final_population
            .iter()
            .map(|(c, _)| c.clone())
            .collect();
        let change = PatternChange {
            change_percent: 400.0,
            objects_percent: 30.0,
            read_share: 0.7,
        };
        let shift = change.apply(&problem, &mut rng).unwrap();
        let changed: Vec<_> = shift.changed.iter().map(|(k, _)| *k).collect();
        // Stand-alone AGRA returns the transcribed, capacity-repaired
        // population itself; the default one polishes it with a mini-GRA.
        let standalone = Agra::with_config(AgraConfig {
            mini_gra_generations: 0,
            ..AgraConfig::default()
        })
        .adapt(&shift.problem, &run.scheme, &population, &changed, &mut rng)
        .unwrap();
        let polished = Agra::new()
            .adapt(&shift.problem, &run.scheme, &population, &changed, &mut rng)
            .unwrap();
        // Pinned outputs: a speed-up of the GA operators or of the repair
        // must leave every population and scheme bitwise as it is.
        assert_eq!(population_hash(&population), 0x88ce_41e2_cb26_5b38);
        assert_eq!(problem.total_cost(&run.scheme), 612_673);
        assert_eq!(
            population_hash(&standalone.population),
            0xc73d_a714_1a4e_fbea
        );
        assert_eq!(shift.problem.total_cost(&standalone.scheme), 1_033_929);
        assert_eq!(population_hash(&polished.population), 0x3d36_cfc4_5884_dee4);
        assert_eq!(shift.problem.total_cost(&polished.scheme), 1_002_766);
    }

    #[test]
    fn repair_capacity_respects_constraints() {
        let (problem, _, _) = setup(12);
        let n = problem.num_objects();
        // Start from an everything-everywhere chromosome (over capacity).
        let mut chromosome = BitString::from_fn(problem.num_sites() * n, |_| true);
        let mut usage = SiteUsage::count(&problem, &chromosome);
        repair_capacity(
            &problem,
            &mut chromosome,
            &Eq6Table::new(&problem),
            &mut usage,
        );
        ensure_primary_bits(&problem, &mut chromosome);
        decode_scheme(&problem, &chromosome).expect("repair must restore validity");
    }
}
