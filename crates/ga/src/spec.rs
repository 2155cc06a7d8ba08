use rand::RngCore;

use crate::BitString;

/// Problem binding for the GA engine: fitness plus the (possibly repairing)
/// genetic operators.
///
/// * [`evaluate`](Self::evaluate) receives `&mut` access so specs can
///   implement the paper's "negative fitness resets the chromosome to the
///   initial allocation" rule in place.
/// * [`crossover`](Self::crossover) and [`mutate`](Self::mutate) own their
///   validity story: the engine never repairs chromosomes itself. The engine
///   decides *whether* a couple crosses (its crossover rate) and passes the
///   per-bit mutation rate down.
pub trait GaSpec {
    /// Fitness of a chromosome, higher is better, expected in `[0, 1]`
    /// (selection tolerates any non-negative value). May rewrite the
    /// chromosome (repair-on-evaluate).
    fn evaluate(&self, chromosome: &mut BitString) -> f64;

    /// Produces two children from two parents.
    fn crossover(
        &self,
        a: &BitString,
        b: &BitString,
        rng: &mut dyn RngCore,
    ) -> (BitString, BitString);

    /// Mutates a chromosome in place, flipping bits with probability `rate`.
    fn mutate(&self, chromosome: &mut BitString, rate: f64, rng: &mut dyn RngCore);
}
