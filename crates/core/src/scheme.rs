use serde::{Deserialize, Serialize};

use crate::{kernels, CoreError, ObjectId, Problem, Result, SiteId};

/// A replication scheme: the boolean `M × N` matrix `X` of the paper, with
/// `X_ik = 1` when site `i` holds a replica of object `k`.
///
/// Invariants maintained by construction:
///
/// * every object is replicated at its primary site (`X_{SP_k, k} = 1`) and
///   that replica can never be removed;
/// * the total size of objects replicated at a site never exceeds its
///   storage capacity.
///
/// The per-object replicator lists are kept sorted, which makes
/// nearest-replica queries O(|R_k|) and keeps iteration deterministic.
///
/// # Examples
///
/// ```
/// use drp_core::{Problem, ReplicationScheme, SiteId, ObjectId};
/// use drp_net::CostMatrix;
///
/// let costs = CostMatrix::from_rows(2, vec![0, 2, 2, 0])?;
/// let problem = Problem::builder(costs)
///     .capacities(vec![10, 10])
///     .object(4, SiteId::new(0))
///     .reads(vec![0, 5])
///     .build()?;
/// let mut scheme = ReplicationScheme::primary_only(&problem);
/// assert!(scheme.holds(SiteId::new(0), ObjectId::new(0)));
/// scheme.add_replica(&problem, SiteId::new(1), ObjectId::new(0))?;
/// assert_eq!(scheme.replica_count(), 2);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReplicationScheme {
    num_sites: usize,
    num_objects: usize,
    /// Bitset, site-major: bit `i * N + k` is `X_ik`.
    bits: Vec<u64>,
    /// Sorted replicator site indices per object (always contains the
    /// primary).
    replicas: Vec<Vec<usize>>,
    /// Data units stored per site.
    used: Vec<u64>,
}

impl ReplicationScheme {
    /// The initial allocation: every object exists only at its primary site.
    pub fn primary_only(problem: &Problem) -> Self {
        let m = problem.num_sites();
        let n = problem.num_objects();
        let words = (m * n).div_ceil(64);
        let mut scheme = Self {
            num_sites: m,
            num_objects: n,
            bits: vec![0; words.max(1)],
            replicas: vec![Vec::new(); n],
            used: vec![0; m],
        };
        for k in 0..n {
            let object = ObjectId::new(k);
            let p = problem.primary(object).index();
            scheme.set_bit(p, k);
            scheme.replicas[k].push(p);
            scheme.used[p] += problem.object_size(object);
        }
        scheme
    }

    /// A scheme over `num_sites` sites holding exactly `lists` (one sorted,
    /// duplicate-free replica list per object, already validated against
    /// its instance); `sizes[k]` is object `k`'s size.
    pub(crate) fn from_lists(num_sites: usize, lists: &[Vec<usize>], sizes: &[u64]) -> Self {
        let n = lists.len();
        let mut scheme = Self {
            num_sites,
            num_objects: n,
            bits: vec![0; (num_sites * n).div_ceil(64).max(1)],
            replicas: lists.to_vec(),
            used: vec![0; num_sites],
        };
        for (k, list) in lists.iter().enumerate() {
            for &i in list {
                scheme.set_bit(i, k);
                scheme.used[i] += sizes[k];
            }
        }
        scheme
    }

    /// Builds a scheme from a predicate over `(site, object)` pairs, adding
    /// primary copies regardless of the predicate.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InsufficientCapacity`] if the predicate selects
    /// more data than some site can store.
    pub fn from_fn<F>(problem: &Problem, mut holds: F) -> Result<Self>
    where
        F: FnMut(SiteId, ObjectId) -> bool,
    {
        let mut scheme = Self::primary_only(problem);
        for k in 0..problem.num_objects() {
            let object = ObjectId::new(k);
            for i in 0..problem.num_sites() {
                let site = SiteId::new(i);
                if holds(site, object) && !scheme.holds(site, object) {
                    scheme.add_replica(problem, site, object)?;
                }
            }
        }
        Ok(scheme)
    }

    #[inline]
    fn bit_index(&self, i: usize, k: usize) -> (usize, u64) {
        let bit = i * self.num_objects + k;
        (bit / 64, 1u64 << (bit % 64))
    }

    #[inline]
    fn set_bit(&mut self, i: usize, k: usize) {
        let (word, mask) = self.bit_index(i, k);
        self.bits[word] |= mask;
    }

    #[inline]
    fn clear_bit(&mut self, i: usize, k: usize) {
        let (word, mask) = self.bit_index(i, k);
        self.bits[word] &= !mask;
    }

    /// Number of sites the scheme was built for.
    pub fn num_sites(&self) -> usize {
        self.num_sites
    }

    /// Number of objects the scheme was built for.
    pub fn num_objects(&self) -> usize {
        self.num_objects
    }

    /// Whether `site` holds a replica of `object` (`X_ik`).
    ///
    /// # Panics
    ///
    /// Panics if either id is out of range.
    #[inline]
    pub fn holds(&self, site: SiteId, object: ObjectId) -> bool {
        assert!(
            site.index() < self.num_sites && object.index() < self.num_objects,
            "({site}, {object}) is out of range"
        );
        let (word, mask) = self.bit_index(site.index(), object.index());
        self.bits[word] & mask != 0
    }

    /// The sorted replicator sites of an object (always non-empty: the
    /// primary is a permanent member).
    ///
    /// # Panics
    ///
    /// Panics if `object` is out of range.
    pub fn replicators(&self, object: ObjectId) -> impl Iterator<Item = SiteId> + '_ {
        self.replicas[object.index()]
            .iter()
            .copied()
            .map(SiteId::new)
    }

    /// Internal fast path used by the cost model.
    #[inline]
    pub(crate) fn replicator_indices(&self, k: usize) -> &[usize] {
        &self.replicas[k]
    }

    /// Every object's sorted replicator list, in object order.
    pub(crate) fn replica_lists(&self) -> &[Vec<usize>] {
        &self.replicas
    }

    /// Number of replicas of an object (its *replication degree*).
    ///
    /// # Panics
    ///
    /// Panics if `object` is out of range.
    pub fn replica_degree(&self, object: ObjectId) -> usize {
        self.replicas[object.index()].len()
    }

    /// Total number of replicas in the network, primaries included.
    ///
    /// One `popcnt` per bitset word — O(M·N/64) regardless of how many
    /// replicas exist, instead of walking the per-object lists.
    pub fn replica_count(&self) -> usize {
        kernels::popcount(&self.bits)
    }

    /// Number of distinct objects replicated at `site` — the column sum
    /// `Σ_k X_ik`, computed by masked popcount over the site's
    /// contiguous bit row.
    ///
    /// # Panics
    ///
    /// Panics if `site` is out of range.
    pub fn site_replica_count(&self, site: SiteId) -> usize {
        let i = site.index();
        assert!(i < self.num_sites, "site index out of range");
        kernels::popcount_range(&self.bits, i * self.num_objects, (i + 1) * self.num_objects)
    }

    /// Number of replicas beyond the mandatory primaries — the paper's
    /// "number of replicas created" metric.
    pub fn extra_replica_count(&self) -> usize {
        self.replica_count() - self.num_objects
    }

    /// Data units currently stored at a site.
    ///
    /// # Panics
    ///
    /// Panics if `site` is out of range.
    pub fn used_capacity(&self, site: SiteId) -> u64 {
        self.used[site.index()]
    }

    /// Remaining free data units at a site (`b(i)` in the paper).
    ///
    /// # Panics
    ///
    /// Panics if `site` is out of range.
    pub fn free_capacity(&self, problem: &Problem, site: SiteId) -> u64 {
        problem.capacity(site) - self.used[site.index()]
    }

    /// The objects replicated at a site, in ascending object order.
    ///
    /// Word-wise: the site's row occupies the contiguous bit range
    /// `[i·N, (i+1)·N)`, so empty words are skipped 64 objects at a time
    /// and set bits are popped with `trailing_zeros`.
    pub fn objects_at(&self, site: SiteId) -> impl Iterator<Item = ObjectId> + '_ {
        let start = site.index() * self.num_objects;
        let end = start + self.num_objects;
        let first_word = start / 64;
        let words = &self.bits[first_word..end.div_ceil(64).max(first_word)];
        words
            .iter()
            .enumerate()
            .flat_map(move |(wi, &word)| {
                let base = (first_word + wi) * 64;
                let mut bits = word;
                // Mask off bits outside the site's row in boundary words.
                if base < start {
                    bits &= u64::MAX << (start - base);
                }
                if base + 64 > end {
                    bits &= u64::MAX >> (base + 64 - end);
                }
                std::iter::from_fn(move || {
                    if bits == 0 {
                        return None;
                    }
                    let tz = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    Some(base + tz)
                })
            })
            .map(move |bit| ObjectId::new(bit - start))
    }

    fn check_pair(&self, problem: &Problem, site: SiteId, object: ObjectId) -> Result<()> {
        if self.num_sites != problem.num_sites() || self.num_objects != problem.num_objects() {
            return Err(CoreError::InvalidInstance {
                reason: format!(
                    "scheme is {}x{} but problem is {}x{}",
                    self.num_sites,
                    self.num_objects,
                    problem.num_sites(),
                    problem.num_objects()
                ),
            });
        }
        problem.check_site(site)?;
        problem.check_object(object)?;
        Ok(())
    }

    /// Adds a replica of `object` at `site`.
    ///
    /// # Errors
    ///
    /// * [`CoreError::AlreadyReplica`] if the site already holds one;
    /// * [`CoreError::InsufficientCapacity`] if the object does not fit;
    /// * range errors for invalid ids.
    pub fn add_replica(&mut self, problem: &Problem, site: SiteId, object: ObjectId) -> Result<()> {
        self.check_pair(problem, site, object)?;
        self.insert(
            site,
            object,
            problem.object_size(object),
            problem.capacity(site),
        )
    }

    /// [`add_replica`](Self::add_replica) for in-range ids, with the
    /// object's size and the site's capacity supplied by the caller — the
    /// path shared by every instance type the evaluators run over.
    pub(crate) fn insert(
        &mut self,
        site: SiteId,
        object: ObjectId,
        size: u64,
        capacity: u64,
    ) -> Result<()> {
        if self.holds(site, object) {
            return Err(CoreError::AlreadyReplica { site, object });
        }
        let free = capacity - self.used[site.index()];
        if size > free {
            return Err(CoreError::InsufficientCapacity {
                site,
                object,
                free,
                size,
            });
        }
        self.set_bit(site.index(), object.index());
        let list = &mut self.replicas[object.index()];
        let pos = list.partition_point(|&s| s < site.index());
        list.insert(pos, site.index());
        self.used[site.index()] += size;
        Ok(())
    }

    /// Removes a replica of `object` from `site`.
    ///
    /// # Errors
    ///
    /// * [`CoreError::NotReplica`] if the site holds no replica;
    /// * [`CoreError::PrimaryUndeletable`] if `site` is the primary;
    /// * range errors for invalid ids.
    pub fn remove_replica(
        &mut self,
        problem: &Problem,
        site: SiteId,
        object: ObjectId,
    ) -> Result<()> {
        self.check_pair(problem, site, object)?;
        self.erase(
            site,
            object,
            problem.object_size(object),
            problem.primary(object),
        )
    }

    /// [`remove_replica`](Self::remove_replica) for in-range ids, with the
    /// object's size and primary supplied by the caller.
    pub(crate) fn erase(
        &mut self,
        site: SiteId,
        object: ObjectId,
        size: u64,
        primary: SiteId,
    ) -> Result<()> {
        if !self.holds(site, object) {
            return Err(CoreError::NotReplica { site, object });
        }
        if primary == site {
            return Err(CoreError::PrimaryUndeletable { object });
        }
        self.clear_bit(site.index(), object.index());
        let list = &mut self.replicas[object.index()];
        let pos = list
            .binary_search(&site.index())
            .expect("replica list out of sync");
        list.remove(pos);
        self.used[site.index()] -= size;
        Ok(())
    }

    /// The nearest replicator `SN_k(i)` of `object` for reads from `site`,
    /// together with the transfer cost to it. Ties break toward the lower
    /// site index. If `site` itself is a replicator the result is
    /// `(site, 0)`.
    ///
    /// # Panics
    ///
    /// Panics if ids are out of range for the problem.
    pub fn nearest_replica(
        &self,
        problem: &Problem,
        site: SiteId,
        object: ObjectId,
    ) -> (SiteId, u64) {
        let (j, c) = problem
            .costs()
            .nearest_of(site.index(), self.replicator_indices(object.index()))
            .expect("replica list always contains the primary");
        (SiteId::new(j), c)
    }

    /// Exhaustively revalidates every invariant against the problem.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant. Useful in tests and after
    /// deserializing a scheme from untrusted input.
    #[allow(clippy::needless_range_loop)] // parallel-array checks read clearest
    pub fn validate(&self, problem: &Problem) -> Result<()> {
        if self.num_sites != problem.num_sites() || self.num_objects != problem.num_objects() {
            return Err(CoreError::InvalidInstance {
                reason: "scheme dimensions do not match the problem".into(),
            });
        }
        let mut used = vec![0u64; self.num_sites];
        for k in 0..self.num_objects {
            let object = ObjectId::new(k);
            let primary = problem.primary(object);
            if !self.holds(primary, object) {
                return Err(CoreError::InvalidInstance {
                    reason: format!("object {object} lost its primary copy"),
                });
            }
            let list = &self.replicas[k];
            if !list.windows(2).all(|w| w[0] < w[1]) {
                return Err(CoreError::InvalidInstance {
                    reason: format!("replica list of object {object} is not sorted/unique"),
                });
            }
            for &i in list {
                if i >= self.num_sites {
                    return Err(CoreError::InvalidInstance {
                        reason: format!("replica list of object {object} references site {i}"),
                    });
                }
                if !self.holds(SiteId::new(i), object) {
                    return Err(CoreError::InvalidInstance {
                        reason: format!("bitset and replica list disagree at ({i}, {object})"),
                    });
                }
                used[i] += problem.object_size(object);
            }
            for i in 0..self.num_sites {
                let site = SiteId::new(i);
                if self.holds(site, object) && list.binary_search(&i).is_err() {
                    return Err(CoreError::InvalidInstance {
                        reason: format!("bitset holds ({site}, {object}) missing from list"),
                    });
                }
            }
        }
        for i in 0..self.num_sites {
            let site = SiteId::new(i);
            if used[i] != self.used[i] {
                return Err(CoreError::InvalidInstance {
                    reason: format!("cached usage of site {site} is stale"),
                });
            }
            if used[i] > problem.capacity(site) {
                return Err(CoreError::InsufficientCapacity {
                    site,
                    object: ObjectId::new(0),
                    free: 0,
                    size: used[i] - problem.capacity(site),
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drp_net::CostMatrix;

    fn problem() -> Problem {
        let costs = CostMatrix::from_rows(3, vec![0, 1, 2, 1, 0, 1, 2, 1, 0]).unwrap();
        Problem::builder(costs)
            .capacities(vec![20, 8, 20])
            .object(10, SiteId::new(0))
            .reads(vec![0, 4, 6])
            .writes(vec![1, 2, 0])
            .object(5, SiteId::new(2))
            .reads(vec![3, 0, 0])
            .writes(vec![0, 0, 1])
            .build()
            .unwrap()
    }

    #[test]
    fn primary_only_holds_exactly_primaries() {
        let p = problem();
        let s = ReplicationScheme::primary_only(&p);
        assert!(s.holds(SiteId::new(0), ObjectId::new(0)));
        assert!(s.holds(SiteId::new(2), ObjectId::new(1)));
        assert!(!s.holds(SiteId::new(1), ObjectId::new(0)));
        assert_eq!(s.replica_count(), 2);
        assert_eq!(s.extra_replica_count(), 0);
        assert_eq!(s.used_capacity(SiteId::new(0)), 10);
        s.validate(&p).unwrap();
    }

    #[test]
    fn add_and_remove_replicas() {
        let p = problem();
        let mut s = ReplicationScheme::primary_only(&p);
        s.add_replica(&p, SiteId::new(2), ObjectId::new(0)).unwrap();
        assert_eq!(s.replica_degree(ObjectId::new(0)), 2);
        assert_eq!(s.used_capacity(SiteId::new(2)), 15);
        assert_eq!(
            s.replicators(ObjectId::new(0)).collect::<Vec<_>>(),
            vec![SiteId::new(0), SiteId::new(2)]
        );
        s.validate(&p).unwrap();
        s.remove_replica(&p, SiteId::new(2), ObjectId::new(0))
            .unwrap();
        assert_eq!(s.replica_degree(ObjectId::new(0)), 1);
        s.validate(&p).unwrap();
    }

    #[test]
    fn capacity_is_enforced() {
        let p = problem();
        let mut s = ReplicationScheme::primary_only(&p);
        // Site 1 has capacity 8 < object 0's size 10.
        let err = s
            .add_replica(&p, SiteId::new(1), ObjectId::new(0))
            .unwrap_err();
        assert!(matches!(
            err,
            CoreError::InsufficientCapacity {
                free: 8,
                size: 10,
                ..
            }
        ));
        // Object 1 (size 5) fits.
        s.add_replica(&p, SiteId::new(1), ObjectId::new(1)).unwrap();
        s.validate(&p).unwrap();
    }

    #[test]
    fn double_add_and_missing_remove_are_errors() {
        let p = problem();
        let mut s = ReplicationScheme::primary_only(&p);
        assert!(matches!(
            s.add_replica(&p, SiteId::new(0), ObjectId::new(0)),
            Err(CoreError::AlreadyReplica { .. })
        ));
        assert!(matches!(
            s.remove_replica(&p, SiteId::new(1), ObjectId::new(0)),
            Err(CoreError::NotReplica { .. })
        ));
    }

    #[test]
    fn primary_cannot_be_removed() {
        let p = problem();
        let mut s = ReplicationScheme::primary_only(&p);
        assert!(matches!(
            s.remove_replica(&p, SiteId::new(0), ObjectId::new(0)),
            Err(CoreError::PrimaryUndeletable { .. })
        ));
    }

    #[test]
    fn nearest_replica_tracks_additions() {
        let p = problem();
        let mut s = ReplicationScheme::primary_only(&p);
        let (sn, c) = s.nearest_replica(&p, SiteId::new(2), ObjectId::new(0));
        assert_eq!((sn, c), (SiteId::new(0), 2));
        s.add_replica(&p, SiteId::new(2), ObjectId::new(0)).unwrap();
        let (sn, c) = s.nearest_replica(&p, SiteId::new(2), ObjectId::new(0));
        assert_eq!((sn, c), (SiteId::new(2), 0));
        let (sn, c) = s.nearest_replica(&p, SiteId::new(1), ObjectId::new(0));
        assert_eq!((sn, c), (SiteId::new(0), 1)); // tie C=1 to both 0 and 2; lower index wins
    }

    #[test]
    fn from_fn_builds_and_validates() {
        let p = problem();
        let s =
            ReplicationScheme::from_fn(&p, |site, object| site.index() == 2 && object.index() == 0)
                .unwrap();
        assert!(s.holds(SiteId::new(2), ObjectId::new(0)));
        assert_eq!(s.replica_count(), 3);
        s.validate(&p).unwrap();
        // Overflowing predicate errors out: site 1 (cap 8) cannot take object 0.
        let err = ReplicationScheme::from_fn(&p, |site, _| site.index() == 1);
        assert!(err.is_err());
    }

    #[test]
    fn objects_at_lists_holdings() {
        let p = problem();
        let mut s = ReplicationScheme::primary_only(&p);
        s.add_replica(&p, SiteId::new(0), ObjectId::new(1)).unwrap();
        let held: Vec<_> = s.objects_at(SiteId::new(0)).collect();
        assert_eq!(held, vec![ObjectId::new(0), ObjectId::new(1)]);
    }

    #[test]
    fn popcount_scans_agree_with_list_walks() {
        let p = problem();
        let mut s = ReplicationScheme::primary_only(&p);
        s.add_replica(&p, SiteId::new(2), ObjectId::new(0)).unwrap();
        s.add_replica(&p, SiteId::new(0), ObjectId::new(1)).unwrap();
        let list_total: usize = p.objects().map(|k| s.replica_degree(k)).sum();
        assert_eq!(s.replica_count(), list_total);
        for i in p.sites() {
            assert_eq!(s.site_replica_count(i), s.objects_at(i).count(), "site {i}");
        }
    }

    #[test]
    fn scheme_problem_mismatch_is_detected() {
        let p = problem();
        let costs2 = CostMatrix::from_rows(2, vec![0, 1, 1, 0]).unwrap();
        let small = Problem::builder(costs2)
            .capacities(vec![10, 10])
            .object(1, SiteId::new(0))
            .build()
            .unwrap();
        let mut s = ReplicationScheme::primary_only(&small);
        assert!(s.add_replica(&p, SiteId::new(1), ObjectId::new(0)).is_err());
        assert!(s.validate(&p).is_err());
    }
}
