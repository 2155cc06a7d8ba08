use crate::{GaError, Result, SelectionScheme};

/// Which pool competes for the next generation's slots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SamplingSpace {
    /// Offspring replace their parents in place (parents not subjected to an
    /// operator survive into the pool). AGRA's choice — cheapest in fitness
    /// evaluations.
    Regular,
    /// The `(μ+λ)` enlarged space of evolution strategies: parents, the
    /// crossover subpopulation and the mutation subpopulation all compete.
    /// GRA's choice — up to 3× the evaluations, better exploration.
    Enlarged,
}

/// Engine parameters.
///
/// Defaults (via [`GaConfig::new`]) follow the paper's GRA settings except
/// for sizes, which are always explicit: crossover rate 0.9, mutation rate
/// 0.01, stochastic-remainder selection, enlarged sampling, elite re-imposed
/// every 5 generations.
///
/// # Examples
///
/// ```
/// use drp_ga::{GaConfig, SamplingSpace, SelectionScheme};
///
/// let config = GaConfig::new(50, 80)
///     .crossover_rate(0.8)
///     .mutation_rate(0.02)
///     .sampling(SamplingSpace::Regular)
///     .selection(SelectionScheme::Roulette)
///     .elite_period(5);
/// assert_eq!(config.population_size, 50);
/// config.validate().unwrap();
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct GaConfig {
    /// Number of chromosomes per generation (`N_p`).
    pub population_size: usize,
    /// Number of generations to evolve (`N_g`).
    pub generations: usize,
    /// Probability that a paired couple undergoes crossover (`μ_c`).
    pub crossover_rate: f64,
    /// Per-bit flip probability (`μ_m`).
    pub mutation_rate: f64,
    /// Offspring allocation scheme.
    pub selection: SelectionScheme,
    /// Pool competing for next-generation slots.
    pub sampling: SamplingSpace,
    /// Re-impose the best-so-far chromosome on the population every this
    /// many generations (0 disables elitism). The paper uses 5 to avoid
    /// premature convergence.
    pub elite_period: usize,
}

impl GaConfig {
    /// A configuration with the paper's GRA operator settings and the given
    /// sizes.
    pub fn new(population_size: usize, generations: usize) -> Self {
        Self {
            population_size,
            generations,
            crossover_rate: 0.9,
            mutation_rate: 0.01,
            selection: SelectionScheme::StochasticRemainder,
            sampling: SamplingSpace::Enlarged,
            elite_period: 5,
        }
    }

    /// Sets the crossover rate `μ_c`.
    #[must_use]
    pub fn crossover_rate(mut self, rate: f64) -> Self {
        self.crossover_rate = rate;
        self
    }

    /// Sets the per-bit mutation rate `μ_m`.
    #[must_use]
    pub fn mutation_rate(mut self, rate: f64) -> Self {
        self.mutation_rate = rate;
        self
    }

    /// Sets the offspring allocation scheme.
    #[must_use]
    pub fn selection(mut self, scheme: SelectionScheme) -> Self {
        self.selection = scheme;
        self
    }

    /// Sets the sampling space.
    #[must_use]
    pub fn sampling(mut self, sampling: SamplingSpace) -> Self {
        self.sampling = sampling;
        self
    }

    /// Sets the elite re-imposition period (0 disables elitism).
    #[must_use]
    pub fn elite_period(mut self, period: usize) -> Self {
        self.elite_period = period;
        self
    }

    /// Checks every parameter range.
    ///
    /// # Errors
    ///
    /// Returns [`GaError::BadConfig`] for a zero population, an out-of-range
    /// rate, or a zero-size tournament.
    pub fn validate(&self) -> Result<()> {
        if self.population_size == 0 {
            return Err(GaError::BadConfig {
                reason: "population size must be positive".into(),
            });
        }
        if !(0.0..=1.0).contains(&self.crossover_rate) {
            return Err(GaError::BadConfig {
                reason: format!("crossover rate {} not in [0, 1]", self.crossover_rate),
            });
        }
        if !(0.0..=1.0).contains(&self.mutation_rate) {
            return Err(GaError::BadConfig {
                reason: format!("mutation rate {} not in [0, 1]", self.mutation_rate),
            });
        }
        if let SelectionScheme::Tournament { size: 0 } = self.selection {
            return Err(GaError::BadConfig {
                reason: "tournament size must be positive".into(),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_gra_settings() {
        let c = GaConfig::new(50, 80);
        assert_eq!(c.crossover_rate, 0.9);
        assert_eq!(c.mutation_rate, 0.01);
        assert_eq!(c.selection, SelectionScheme::StochasticRemainder);
        assert_eq!(c.sampling, SamplingSpace::Enlarged);
        assert_eq!(c.elite_period, 5);
        c.validate().unwrap();
    }

    #[test]
    fn validation_catches_bad_values() {
        assert!(GaConfig::new(0, 10).validate().is_err());
        assert!(GaConfig::new(10, 10)
            .crossover_rate(1.5)
            .validate()
            .is_err());
        assert!(GaConfig::new(10, 10)
            .mutation_rate(-0.1)
            .validate()
            .is_err());
        assert!(GaConfig::new(10, 10)
            .selection(SelectionScheme::Tournament { size: 0 })
            .validate()
            .is_err());
    }
}
