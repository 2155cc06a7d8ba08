//! Chromosome encoding shared by GRA and AGRA.
//!
//! A chromosome has `M` genes of `N` bits each (the paper's layout): bit
//! `i·N + k` is `X_ik`. Keeping genes contiguous makes the crossover
//! validity repair (per-gene capacity check) a local slice operation.

use std::sync::Arc;

use drp_core::{CoreError, NarrowMirror, ObjectId, Problem, ReplicationScheme, Result, SiteId};
use drp_ga::BitString;

/// Encodes a replication scheme into the site-major chromosome layout.
pub fn encode_scheme(problem: &Problem, scheme: &ReplicationScheme) -> BitString {
    let n = problem.num_objects();
    BitString::from_fn(problem.num_sites() * n, |bit| {
        scheme.holds(SiteId::new(bit / n), ObjectId::new(bit % n))
    })
}

/// Decodes a chromosome into a [`ReplicationScheme`], validating the
/// capacity constraint and re-adding primary copies regardless of their bit.
///
/// # Errors
///
/// Returns [`CoreError::InsufficientCapacity`] if a gene overfills its site,
/// or [`CoreError::InvalidInstance`] on a length mismatch.
pub fn decode_scheme(problem: &Problem, chromosome: &BitString) -> Result<ReplicationScheme> {
    let n = problem.num_objects();
    if chromosome.len() != problem.num_sites() * n {
        return Err(CoreError::InvalidInstance {
            reason: format!(
                "chromosome of {} bits for a {}x{} instance",
                chromosome.len(),
                problem.num_sites(),
                n
            ),
        });
    }
    ReplicationScheme::from_fn(problem, |site, object| {
        chromosome.get(site.index() * n + object.index())
    })
}

/// Reusable buffers for [`chromosome_cost_with`]: per-object replica
/// buckets (counting-sort style counts/offsets plus a flat site array), a
/// spare replica list for primary splicing, and a nearest-cost array, all
/// sized for one instance. One scratch per GA run keeps the fitness path
/// allocation-free.
#[derive(Debug, Clone)]
pub struct EvalScratch {
    /// Cursor array of the bucket fill; after the fill, `counts[k]` is the
    /// end offset of object `k`'s bucket.
    counts: Vec<usize>,
    /// Start offset of each object's bucket in `sites` (length `n + 1`).
    offsets: Vec<usize>,
    /// Flat bucket storage: the replicator sites of object `k`, ascending,
    /// at `sites[offsets[k]..offsets[k + 1]]`.
    sites: Vec<usize>,
    replicas: Vec<usize>,
    nearest: Vec<u64>,
    /// Narrow nearest-cost scratch, used when `narrow` is present.
    nearest32: Vec<u32>,
    /// Shared `u32` mirror of the instance's hot rows, when every value
    /// fits 32 bits; `None` keeps the `u64` kernel path (identical
    /// results, more memory traffic).
    narrow: Option<Arc<NarrowMirror>>,
}

impl EvalScratch {
    /// Buffers sized for `problem`, including the `u32` fast-path mirror
    /// when the instance narrows (built fresh — prefer
    /// [`Self::with_mirror`] to share one mirror across many scratches).
    pub fn new(problem: &Problem) -> Self {
        Self::with_mirror(problem, NarrowMirror::build(problem).map(Arc::new))
    }

    /// Buffers sized for `problem`, sharing a prebuilt narrow mirror
    /// (pass `None` to force the `u64` path).
    pub fn with_mirror(problem: &Problem, narrow: Option<Arc<NarrowMirror>>) -> Self {
        let m = problem.num_sites();
        let n = problem.num_objects();
        Self {
            counts: vec![0; n],
            offsets: vec![0; n + 1],
            sites: Vec::new(),
            replicas: Vec::with_capacity(m),
            nearest: vec![0; m],
            nearest32: vec![0; m],
            narrow,
        }
    }
}

/// The Eq. 4 total NTC of a chromosome, computed directly from the bits
/// without materializing a scheme (GRA's hot path).
///
/// Objects whose replica set is exactly their primary fall back to the
/// precomputed `V_prime`, which is the common case in sparse chromosomes.
///
/// # Panics
///
/// Panics if the chromosome length mismatches the instance.
pub fn chromosome_cost(problem: &Problem, chromosome: &BitString) -> u64 {
    chromosome_cost_with(problem, chromosome, &mut EvalScratch::new(problem))
}

/// [`chromosome_cost`] against caller-owned scratch buffers — zero
/// allocations per call, the form the GA fitness paths use.
///
/// # Panics
///
/// Panics if the chromosome length or scratch size mismatches the instance.
pub fn chromosome_cost_with(
    problem: &Problem,
    chromosome: &BitString,
    scratch: &mut EvalScratch,
) -> u64 {
    let m = problem.num_sites();
    let n = problem.num_objects();
    assert_eq!(chromosome.len(), m * n, "chromosome length mismatch");

    // Bucket the set bits by object with a two-pass counting sort over
    // `iter_ones()`: sparse chromosomes then cost O(ones) word-scans
    // instead of the M·N strided `get(i·n + k)` probes of the naive loop.
    // Bits arrive in ascending site-major order, so each object's bucket
    // comes out already sorted by site.
    scratch.counts.fill(0);
    let mut total_ones = 0usize;
    for one in chromosome.iter_ones() {
        scratch.counts[one % n] += 1;
        total_ones += 1;
    }
    let mut acc = 0usize;
    for k in 0..n {
        scratch.offsets[k] = acc;
        acc += scratch.counts[k];
        // Reuse `counts` as the fill cursor of pass two.
        scratch.counts[k] = scratch.offsets[k];
    }
    scratch.offsets[n] = acc;
    scratch.sites.resize(total_ones, 0);
    for one in chromosome.iter_ones() {
        let (i, k) = (one / n, one % n);
        scratch.sites[scratch.counts[k]] = i;
        scratch.counts[k] += 1;
    }

    let mut total = 0u64;
    for k in 0..n {
        let object = ObjectId::new(k);
        let sp = problem.primary(object).index();
        let bucket = &scratch.sites[scratch.offsets[k]..scratch.offsets[k + 1]];
        // Primary copies are undeletable; tolerate chromosomes that lost the
        // bit by splicing the primary into its sorted slot.
        let sp_at = bucket.partition_point(|&j| j < sp);
        let replicas: &[usize] = if bucket.get(sp_at) == Some(&sp) {
            bucket
        } else {
            scratch.replicas.clear();
            scratch.replicas.extend_from_slice(&bucket[..sp_at]);
            scratch.replicas.push(sp);
            scratch.replicas.extend_from_slice(&bucket[sp_at..]);
            &scratch.replicas
        };
        if replicas.len() == 1 {
            total += problem.v_prime(object);
            continue;
        }
        // The u32 SoA mirror halves the row traffic of the min/traffic
        // scans; products widen to u64 before accumulation, so both
        // branches produce the same integer.
        total += match &scratch.narrow {
            Some(narrow) => {
                narrow.object_cost_from_replicas(problem, object, replicas, &mut scratch.nearest32)
            }
            None => problem.object_cost_from_replicas(object, replicas, &mut scratch.nearest),
        };
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use drp_workload::WorkloadSpec;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn problem(seed: u64) -> Problem {
        WorkloadSpec::paper(8, 10, 5.0, 25.0)
            .generate(&mut StdRng::seed_from_u64(seed))
            .unwrap()
    }

    #[test]
    fn encode_decode_round_trips() {
        let p = problem(1);
        let mut scheme = ReplicationScheme::primary_only(&p);
        // Any feasible non-primary placement works for the round trip.
        let object = ObjectId::new(2);
        let site = p
            .sites()
            .find(|&i| {
                !scheme.holds(i, object) && p.object_size(object) <= scheme.free_capacity(&p, i)
            })
            .expect("some site has room");
        scheme.add_replica(&p, site, object).unwrap();
        let bits = encode_scheme(&p, &scheme);
        let back = decode_scheme(&p, &bits).unwrap();
        assert_eq!(back, scheme);
    }

    #[test]
    fn decode_restores_missing_primaries() {
        let p = problem(2);
        let bits = BitString::zeros(p.num_sites() * p.num_objects());
        let scheme = decode_scheme(&p, &bits).unwrap();
        assert_eq!(scheme, ReplicationScheme::primary_only(&p));
    }

    #[test]
    fn decode_rejects_wrong_length() {
        let p = problem(3);
        assert!(decode_scheme(&p, &BitString::zeros(7)).is_err());
    }

    #[test]
    fn chromosome_cost_matches_scheme_cost() {
        let p = problem(4);
        let mut rng = StdRng::seed_from_u64(5);
        // Build several random valid schemes and compare both cost paths.
        for round in 0..10 {
            let scheme = random_scheme(&p, &mut rng);
            let bits = encode_scheme(&p, &scheme);
            assert_eq!(
                chromosome_cost(&p, &bits),
                p.total_cost(&scheme),
                "round {round}"
            );
        }
    }

    #[test]
    fn narrow_and_wide_scratch_agree_bitwise() {
        let p = problem(7);
        let mut rng = StdRng::seed_from_u64(8);
        let mut wide = EvalScratch::with_mirror(&p, None);
        let mut narrow = EvalScratch::new(&p);
        assert!(narrow.narrow.is_some(), "paper instances narrow to u32");
        for round in 0..10 {
            let scheme = random_scheme(&p, &mut rng);
            let bits = encode_scheme(&p, &scheme);
            assert_eq!(
                chromosome_cost_with(&p, &bits, &mut narrow),
                chromosome_cost_with(&p, &bits, &mut wide),
                "round {round}"
            );
        }
    }

    #[test]
    fn chromosome_cost_primary_only_is_d_prime() {
        let p = problem(6);
        let bits = encode_scheme(&p, &ReplicationScheme::primary_only(&p));
        assert_eq!(chromosome_cost(&p, &bits), p.d_prime());
    }

    fn random_scheme(p: &Problem, rng: &mut StdRng) -> ReplicationScheme {
        use rand::Rng;
        let mut s = ReplicationScheme::primary_only(p);
        for _ in 0..p.num_sites() * p.num_objects() / 3 {
            let site = SiteId::new(rng.random_range(0..p.num_sites()));
            let object = ObjectId::new(rng.random_range(0..p.num_objects()));
            if !s.holds(site, object) {
                let _ = s.add_replica(p, site, object);
            }
        }
        s
    }
}
