//! Incremental Eq. 4 evaluation: one flip engine, [`Evaluator`], keeps the
//! total NTC `D` and every per-object nearest/second-nearest replicator
//! cached, so a replica flip touches only the sites that could read from
//! the flipped replica instead of recomputing `O(Σ_k M·|R_k|)`.
//!
//! # Candidate sources
//!
//! The engine is generic over a [`CandidateRows`] source that says which
//! replicators a site may read from, and it never branches on which source
//! it holds. There are two:
//!
//! * [`DenseRows`] borrows a [`Problem`]'s full cost matrix: every
//!   replicator is every site's candidate, so the total is exact and a flip
//!   is O(M). [`CostEvaluator`] is this instantiation.
//! * [`SparseRows`](crate::SparseRows) reads k-nearest
//!   [`SparseCostRows`](drp_net::SparseCostRows) over a
//!   [`SparseProblem`](crate::SparseProblem): a flip is O(k), and the total
//!   is an upper bound for `k < M` that is exact for `k ≥ M`.
//!   [`SparseEvaluator`](crate::SparseEvaluator) is this instantiation.
//!
//! Either way the object's primary is a candidate of every site.
//!
//! # Cached-state invariants
//!
//! For every `(object k, site i)` pair the evaluator stores the two cheapest
//! candidate replicators of `k` as seen from `i`, ordered by the canonical
//! key `(cost, site index)`:
//!
//! * `best(k, i)` — the nearest replicator `SN_k(i)` with its cost;
//! * `second(k, i)` — the second-nearest, or a sentinel when `k` has only one
//!   replica.
//!
//! Lexicographic tie-breaking on `(cost, site)` makes both entries a *pure
//! function of the candidate set* — independent of the order in which
//! replicas were added or removed. That is what lets
//! [`undo`](Evaluator::undo) restore byte-identical state by simply applying
//! the inverse flip: no snapshots are kept, only a log of
//! `(add/remove, site, object)` records.
//!
//! Alongside the top-2 arrays the evaluator maintains `object_cost[k] = V_k`
//! and `total = D = Σ_k V_k`, updated by exact integer deltas. Because every
//! quantity is integral, the dense running total always equals
//! [`Problem::total_cost`] of the underlying scheme exactly (property-tested
//! in `tests/evaluator_props.rs`, which also pins the sparse source at
//! `k = M` to the dense one bitwise).
//!
//! * [`apply_add`](Evaluator::apply_add) inserts the new replica into the
//!   top-2 of every site that may pick it.
//! * [`apply_remove`](Evaluator::apply_remove) promotes the cached second
//!   wherever the removed replica was nearest and rescans a site's
//!   candidates only where its top-2 contained the removed replica — the
//!   second-nearest cache is exactly what avoids a full rebuild.
//! * [`delta_add`](Evaluator::delta_add) and
//!   [`delta_remove`](Evaluator::delta_remove) are read-only peeks over the
//!   same sites with zero allocation.
//!
//! All scratch space is allocated once at construction; the flip and peek
//! paths perform no allocations (the undo log amortizes like any `Vec`
//! push).

use crate::{kernels, CoreError, ObjectId, Problem, ReplicationScheme, Result, SiteId};

/// Sentinel site index for "no second-nearest replicator".
const NO_SITE: u32 = u32::MAX;

/// The per-object Eq. 4 inputs a [`CandidateRows`] source exposes.
#[derive(Debug, Clone, Copy)]
pub struct ObjectTerms<'a> {
    /// Object size `o_k`.
    pub size: u64,
    /// Primary site `SP_k`.
    pub primary: usize,
    /// Total writes `W_k = Σ_x w_k(x)`.
    pub total_writes: u64,
    /// Per-site reads `r_k(·)`.
    pub reads: &'a [u64],
    /// Per-site writes `w_k(·)`.
    pub writes: &'a [u64],
    /// Per-site distance to the primary, `C(·, SP_k)`.
    pub to_primary: &'a [u64],
}

impl ObjectTerms<'_> {
    /// Change in write traffic when site `i` becomes a replicator: it joins
    /// the update broadcast (`W_k·o_k·C(i, SP_k)`) and stops shipping its
    /// own writes (`w_k(i)·o_k·C(i, SP_k)`).
    #[inline]
    fn shipping_delta(&self, i: usize) -> i64 {
        ((self.total_writes - self.writes[i]) * self.size * self.to_primary[i]) as i64
    }
}

/// Where an [`Evaluator`] finds the replicators each site may read from,
/// together with the instance data the Eq. 4 terms need.
///
/// Every method that depends on the candidate structure lives here; the
/// engine itself is the same for every source.
pub trait CandidateRows {
    /// Number of sites `M`.
    fn num_sites(&self) -> usize;
    /// Number of objects `N`.
    fn num_objects(&self) -> usize;
    /// Storage capacity of site `i`.
    fn capacity(&self, i: usize) -> u64;
    /// The Eq. 4 inputs of object `k`.
    fn object(&self, k: usize) -> ObjectTerms<'_>;
    /// Calls `f(x, C(x, j))` for every site `x` that may pick a replica at
    /// `j` — `j` itself among them, at cost 0.
    fn for_each_picker(&self, j: usize, f: impl FnMut(usize, u64));
    /// Calls `f(j, C(x, j))` for every replicator `j` of object `k` in
    /// site `x`'s candidate set under `scheme`; the primary is always one.
    fn for_each_candidate(
        &self,
        x: usize,
        k: usize,
        scheme: &ReplicationScheme,
        f: impl FnMut(usize, u64),
    );
}

/// The dense candidate source: a [`Problem`]'s full cost matrix, under
/// which every replicator is every site's candidate.
#[derive(Debug, Clone, Copy)]
pub struct DenseRows<'p> {
    problem: &'p Problem,
}

impl CandidateRows for DenseRows<'_> {
    fn num_sites(&self) -> usize {
        self.problem.num_sites()
    }

    fn num_objects(&self) -> usize {
        self.problem.num_objects()
    }

    fn capacity(&self, i: usize) -> u64 {
        self.problem.capacity(SiteId::new(i))
    }

    fn object(&self, k: usize) -> ObjectTerms<'_> {
        let object = ObjectId::new(k);
        let primary = self.problem.primary(object).index();
        ObjectTerms {
            size: self.problem.object_size(object),
            primary,
            total_writes: self.problem.total_writes(object),
            reads: self.problem.object_reads(object),
            writes: self.problem.object_writes(object),
            to_primary: self.problem.costs().row(primary),
        }
    }

    #[inline]
    fn for_each_picker(&self, j: usize, mut f: impl FnMut(usize, u64)) {
        for (x, &c) in self.problem.costs().row(j).iter().enumerate() {
            f(x, c);
        }
    }

    /// Walks `k`'s replica list: O(|R_k|).
    fn for_each_candidate(
        &self,
        x: usize,
        k: usize,
        scheme: &ReplicationScheme,
        mut f: impl FnMut(usize, u64),
    ) {
        let costs = self.problem.costs();
        for &j in scheme.replicator_indices(k) {
            f(j, costs.cost(j, x));
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct FlipRecord {
    added: bool,
    site: u32,
    object: u32,
}

/// Flattened `N × M` top-2 cache: per `(object, site)` cell, the nearest
/// and second-nearest candidate replicator with their costs.
#[derive(Debug, Clone, PartialEq)]
struct Top2 {
    best_cost: Vec<u64>,
    best_site: Vec<u32>,
    /// [`u64::MAX`] when the cell has a single candidate.
    second_cost: Vec<u64>,
    /// [`NO_SITE`] when the cell has a single candidate.
    second_site: Vec<u32>,
}

impl Top2 {
    fn reset(&mut self, cells: std::ops::Range<usize>) {
        self.best_cost[cells.clone()].fill(u64::MAX);
        self.best_site[cells.clone()].fill(NO_SITE);
        self.second_cost[cells.clone()].fill(u64::MAX);
        self.second_site[cells].fill(NO_SITE);
    }

    /// Inserts `(cost, site)` into a cell under the canonical `(cost,
    /// site)` order; returns whether it became the nearest.
    #[inline]
    fn insert(&mut self, idx: usize, cost: u64, site: u32) -> bool {
        // Borrow the four slots once, so the compare-and-shift below works
        // on plain references rather than re-indexing each vector.
        let best_cost = &mut self.best_cost[idx];
        let best_site = &mut self.best_site[idx];
        let second_cost = &mut self.second_cost[idx];
        let second_site = &mut self.second_site[idx];
        if (cost, site) < (*best_cost, *best_site) {
            *second_cost = *best_cost;
            *second_site = *best_site;
            *best_cost = cost;
            *best_site = site;
            true
        } else {
            if (cost, site) < (*second_cost, *second_site) {
                *second_cost = cost;
                *second_site = site;
            }
            false
        }
    }

    /// Recomputes a cell's second-nearest from site `x`'s candidates for
    /// object `k`, excluding the current nearest.
    fn rescan_second<R: CandidateRows>(
        &mut self,
        idx: usize,
        rows: &R,
        scheme: &ReplicationScheme,
        x: usize,
        k: usize,
    ) {
        let best = self.best_site[idx];
        let mut second = (u64::MAX, NO_SITE);
        rows.for_each_candidate(x, k, scheme, |j, c| {
            if j as u32 != best && (c, j as u32) < second {
                second = (c, j as u32);
            }
        });
        (self.second_cost[idx], self.second_site[idx]) = second;
    }
}

/// The incremental Eq. 4 flip engine over a [`CandidateRows`] source,
/// owning a [`ReplicationScheme`].
///
/// [`CostEvaluator`] and [`SparseEvaluator`](crate::SparseEvaluator) are
/// its two instantiations; see the module docs for the cached state.
#[derive(Debug, Clone)]
pub struct Evaluator<R> {
    pub(crate) rows: R,
    scheme: ReplicationScheme,
    top2: Top2,
    /// `V_k` per object.
    object_cost: Vec<u64>,
    /// Running total `D`.
    total: u64,
    /// Flip log consumed by [`undo`](Self::undo).
    log: Vec<FlipRecord>,
}

/// Incremental Eq. 4 evaluator over a dense [`Problem`]: every flip is
/// O(M) and the total is exact.
///
/// # Examples
///
/// ```
/// use drp_core::{CostEvaluator, Problem, ReplicationScheme, SiteId, ObjectId};
/// use drp_net::CostMatrix;
///
/// let costs = CostMatrix::from_rows(3, vec![0, 1, 2, 1, 0, 1, 2, 1, 0])?;
/// let problem = Problem::builder(costs)
///     .capacities(vec![40, 40, 40])
///     .object(10, SiteId::new(0))
///     .reads(vec![0, 4, 6])
///     .writes(vec![1, 2, 0])
///     .build()?;
/// let mut eval = CostEvaluator::primary_only(&problem);
/// assert_eq!(eval.total(), problem.d_prime());
///
/// let site = SiteId::new(2);
/// let object = ObjectId::new(0);
/// let predicted = eval.delta_add(site, object);
/// let applied = eval.apply_add(site, object)?;
/// assert_eq!(predicted, applied);
/// assert_eq!(eval.total(), problem.total_cost(eval.scheme()));
///
/// eval.undo();
/// assert_eq!(eval.total(), problem.d_prime());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub type CostEvaluator<'p> = Evaluator<DenseRows<'p>>;

impl<'p> Evaluator<DenseRows<'p>> {
    /// Builds the evaluator for an arbitrary starting scheme in
    /// `O(Σ_k M·|R_k|)`.
    ///
    /// # Panics
    ///
    /// Panics if the scheme shape mismatches the problem.
    pub fn new(problem: &'p Problem, scheme: ReplicationScheme) -> Self {
        Self::build(DenseRows { problem }, scheme)
    }

    /// Builds the evaluator for the primary-only allocation (`D = D′`).
    pub fn primary_only(problem: &'p Problem) -> Self {
        Self::new(problem, ReplicationScheme::primary_only(problem))
    }

    /// The instance being evaluated.
    pub fn problem(&self) -> &'p Problem {
        self.rows.problem
    }

    /// Percentage of NTC saved relative to primary-only, from the cache.
    pub fn savings_percent(&self) -> f64 {
        let dp = self.rows.problem.d_prime();
        if dp == 0 {
            return 0.0;
        }
        100.0 * (dp as f64 - self.total as f64) / dp as f64
    }
}

impl<R: CandidateRows> Evaluator<R> {
    /// Builds the cache for `scheme` over `rows`.
    ///
    /// # Panics
    ///
    /// Panics if the scheme shape mismatches the source.
    pub(crate) fn build(rows: R, scheme: ReplicationScheme) -> Self {
        let m = rows.num_sites();
        let n = rows.num_objects();
        assert!(
            scheme.num_sites() == m && scheme.num_objects() == n,
            "scheme is {}x{} but problem is {m}x{n}",
            scheme.num_sites(),
            scheme.num_objects(),
        );
        let mut eval = Self {
            rows,
            scheme,
            top2: Top2 {
                best_cost: vec![u64::MAX; n * m],
                best_site: vec![NO_SITE; n * m],
                second_cost: vec![u64::MAX; n * m],
                second_site: vec![NO_SITE; n * m],
            },
            object_cost: vec![0; n],
            total: 0,
            log: Vec::new(),
        };
        for k in 0..n {
            eval.rebuild_object(k);
        }
        eval
    }

    /// The current scheme (read-only: mutate through
    /// [`apply_add`](Self::apply_add) / [`apply_remove`](Self::apply_remove)
    /// so the cache stays coherent).
    pub fn scheme(&self) -> &ReplicationScheme {
        &self.scheme
    }

    /// Consumes the evaluator, returning the scheme.
    pub fn into_scheme(self) -> ReplicationScheme {
        self.scheme
    }

    /// The current placement: one sorted replica list per object, each
    /// containing the object's primary.
    pub fn placement(&self) -> &[Vec<usize>] {
        self.scheme.replica_lists()
    }

    /// The current sorted replica list of an object.
    ///
    /// # Panics
    ///
    /// Panics if `object` is out of range.
    pub fn replicas(&self, object: ObjectId) -> &[usize] {
        self.scheme.replicator_indices(object.index())
    }

    /// Whether `site` currently replicates `object`.
    ///
    /// # Panics
    ///
    /// Panics if ids are out of range.
    pub fn holds(&self, site: SiteId, object: ObjectId) -> bool {
        self.scheme.holds(site, object)
    }

    /// Free capacity of a site under the current scheme.
    ///
    /// # Panics
    ///
    /// Panics if `site` is out of range.
    pub fn free_capacity(&self, site: SiteId) -> u64 {
        self.rows.capacity(site.index()) - self.scheme.used_capacity(site)
    }

    /// The cached total NTC `D` (for the dense source equal to
    /// [`Problem::total_cost`]`(self.scheme())` at all times).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// The cached per-object NTC `V_k`.
    ///
    /// # Panics
    ///
    /// Panics if `object` is out of range.
    pub fn object_cost(&self, object: ObjectId) -> u64 {
        self.object_cost[object.index()]
    }

    /// The cached nearest candidate replicator `SN_k(i)` and its cost (ties
    /// broken toward the lower site index, matching
    /// [`ReplicationScheme::nearest_replica`]).
    ///
    /// # Panics
    ///
    /// Panics if ids are out of range.
    pub fn nearest(&self, site: SiteId, object: ObjectId) -> (SiteId, u64) {
        let idx = self.cell(site, object);
        (
            SiteId::new(self.top2.best_site[idx] as usize),
            self.top2.best_cost[idx],
        )
    }

    /// The cached second-nearest candidate replicator, or `None` when the
    /// object has a single candidate at this site.
    ///
    /// # Panics
    ///
    /// Panics if ids are out of range.
    pub fn second_nearest(&self, site: SiteId, object: ObjectId) -> Option<(SiteId, u64)> {
        let idx = self.cell(site, object);
        (self.top2.second_site[idx] != NO_SITE).then(|| {
            (
                SiteId::new(self.top2.second_site[idx] as usize),
                self.top2.second_cost[idx],
            )
        })
    }

    /// Number of flips recorded for [`undo`](Self::undo).
    pub fn history_len(&self) -> usize {
        self.log.len()
    }

    /// Forgets the undo history (the cache itself is unaffected).
    pub fn clear_history(&mut self) {
        self.log.clear();
    }

    /// Read-only peek: exact change in the evaluator's total from adding a
    /// replica, computed entirely from the cache with zero allocation.
    ///
    /// # Panics
    ///
    /// Panics if `site` already replicates `object` or ids are out of range.
    pub fn delta_add(&self, site: SiteId, object: ObjectId) -> i64 {
        // Start of the object's cell row; `cell` range-checks both ids.
        let base = self.cell(site, object) - site.index();
        assert!(
            !self.scheme.holds(site, object),
            "delta_add requires a non-replicator site"
        );
        let (i, obj) = (site.index(), self.rows.object(object.index()));
        // Every picker whose nearest is farther than the new replica
        // re-routes its reads; `i` itself (cost 0) stops reading remotely.
        let mut gain = 0u64;
        self.rows.for_each_picker(i, |x, c| {
            gain += obj.reads[x] * self.top2.best_cost[base + x].saturating_sub(c);
        });
        obj.shipping_delta(i) - (obj.size * gain) as i64
    }

    /// Read-only peek: exact change in the evaluator's total from removing
    /// a replica — the second-nearest cache answers "where would reads
    /// re-route" without walking any candidate set.
    ///
    /// # Panics
    ///
    /// Panics if `site` is not a replicator, is the primary, or ids are out
    /// of range.
    pub fn delta_remove(&self, site: SiteId, object: ObjectId) -> i64 {
        let base = self.cell(site, object) - site.index();
        assert!(
            self.scheme.holds(site, object),
            "delta_remove requires a replicator site"
        );
        let (i, obj) = (site.index(), self.rows.object(object.index()));
        assert!(obj.primary != i, "the primary copy cannot be removed");
        // Pickers whose nearest is `i` fall back to their cached second (it
        // exists: the primary is always another candidate).
        let mut loss = 0u64;
        self.rows.for_each_picker(i, |x, _| {
            let idx = base + x;
            if self.top2.best_site[idx] as usize == i {
                loss += obj.reads[x] * (self.top2.second_cost[idx] - self.top2.best_cost[idx]);
            }
        });
        (obj.size * loss) as i64 - obj.shipping_delta(i)
    }

    /// Adds a replica and folds its exact delta into the cached total.
    /// Returns the delta (new − old, negative when the replica helps).
    ///
    /// # Errors
    ///
    /// Returns range errors for invalid ids, [`CoreError::AlreadyReplica`]
    /// or [`CoreError::InsufficientCapacity`]; the cache is untouched on
    /// error.
    pub fn apply_add(&mut self, site: SiteId, object: ObjectId) -> Result<i64> {
        self.check_ids(site, object)?;
        let size = self.rows.object(object.index()).size;
        self.scheme
            .insert(site, object, size, self.rows.capacity(site.index()))?;
        let delta = self.integrate_add(site.index(), object.index());
        self.log.push(FlipRecord {
            added: true,
            site: site.index() as u32,
            object: object.index() as u32,
        });
        Ok(delta)
    }

    /// Removes a replica and folds its exact delta into the cached total
    /// (plus a second-nearest rescan for the affected sites). Returns the
    /// delta.
    ///
    /// # Errors
    ///
    /// Returns range errors for invalid ids, [`CoreError::NotReplica`] or
    /// [`CoreError::PrimaryUndeletable`]; the cache is untouched on error.
    pub fn apply_remove(&mut self, site: SiteId, object: ObjectId) -> Result<i64> {
        self.check_ids(site, object)?;
        let obj = self.rows.object(object.index());
        self.scheme
            .erase(site, object, obj.size, SiteId::new(obj.primary))?;
        let delta = self.integrate_remove(site.index(), object.index());
        self.log.push(FlipRecord {
            added: false,
            site: site.index() as u32,
            object: object.index() as u32,
        });
        Ok(delta)
    }

    /// Reverts the most recent un-undone flip by applying its inverse.
    /// Returns the delta of the inverse flip, or `None` when the log is
    /// empty.
    ///
    /// Because the cached state is a pure function of the candidate sets
    /// (see the module docs), the inverse flip restores it exactly.
    pub fn undo(&mut self) -> Option<i64> {
        let record = self.log.pop()?;
        let (i, k) = (record.site as usize, record.object as usize);
        let (site, object) = (SiteId::new(i), ObjectId::new(k));
        let obj = self.rows.object(k);
        let delta = if record.added {
            self.scheme
                .erase(site, object, obj.size, SiteId::new(obj.primary))
                .expect("undo of an add always removes a non-primary replica");
            self.integrate_remove(i, k)
        } else {
            self.scheme
                .insert(site, object, obj.size, self.rows.capacity(i))
                .expect("undo of a remove always fits the freed capacity");
            self.integrate_add(i, k)
        };
        Some(delta)
    }

    /// Flat index of the `(object, site)` cell.
    ///
    /// # Panics
    ///
    /// Panics if either id is out of range — a bare `object·M + site`
    /// would silently alias a neighbouring object's cell.
    #[inline]
    fn cell(&self, site: SiteId, object: ObjectId) -> usize {
        let m = self.rows.num_sites();
        assert!(
            site.index() < m && object.index() < self.rows.num_objects(),
            "({site}, {object}) is out of range"
        );
        object.index() * m + site.index()
    }

    fn check_ids(&self, site: SiteId, object: ObjectId) -> Result<()> {
        let (num_sites, num_objects) = (self.rows.num_sites(), self.rows.num_objects());
        if site.index() >= num_sites {
            return Err(CoreError::SiteOutOfRange { site, num_sites });
        }
        if object.index() >= num_objects {
            return Err(CoreError::ObjectOutOfRange {
                object,
                num_objects,
            });
        }
        Ok(())
    }

    /// Rebuilds one object's top-2 cells and `V_k` from the scheme.
    fn rebuild_object(&mut self, k: usize) {
        let m = self.rows.num_sites();
        let base = k * m;
        let obj = self.rows.object(k);
        self.top2.reset(base..base + m);
        for (x, &c) in obj.to_primary.iter().enumerate() {
            self.top2.insert(base + x, c, obj.primary as u32);
        }
        let mut broadcast = 0u64;
        let mut replica_writes = 0u64;
        for &j in self.scheme.replicator_indices(k) {
            broadcast += obj.to_primary[j];
            replica_writes += obj.writes[j] * obj.to_primary[j];
            if j != obj.primary {
                let top2 = &mut self.top2;
                self.rows.for_each_picker(j, |x, c| {
                    top2.insert(base + x, c, j as u32);
                });
            }
        }

        // Branchless V_k: stream the contiguous per-object rows over every
        // site, then subtract the replicator write terms collected above —
        // replicators contribute zero read traffic (their cached nearest
        // distance is 0), so no per-site membership test is needed.
        let traffic = kernels::traffic_scan(
            obj.reads,
            obj.writes,
            &self.top2.best_cost[base..base + m],
            obj.to_primary,
        );
        let cost = obj.total_writes * obj.size * broadcast + obj.size * (traffic - replica_writes);
        self.total = self.total - self.object_cost[k] + cost;
        self.object_cost[k] = cost;
    }

    /// Folds a just-applied add of `(site i, object k)` into the cache.
    fn integrate_add(&mut self, i: usize, k: usize) -> i64 {
        let base = k * self.rows.num_sites();
        let obj = self.rows.object(k);
        let top2 = &mut self.top2;
        let mut gain = 0u64;
        self.rows.for_each_picker(i, |x, c| {
            let idx = base + x;
            let old_best = top2.best_cost[idx];
            if top2.insert(idx, c, i as u32) {
                gain += obj.reads[x] * (old_best - c);
            }
        });
        let delta = obj.shipping_delta(i) - (obj.size * gain) as i64;
        self.apply_object_delta(k, delta);
        delta
    }

    /// Folds a just-applied remove of `(site i, object k)` into the cache.
    fn integrate_remove(&mut self, i: usize, k: usize) -> i64 {
        let base = k * self.rows.num_sites();
        let (rows, scheme, top2) = (&self.rows, &self.scheme, &mut self.top2);
        let obj = rows.object(k);
        let mut loss = 0u64;
        rows.for_each_picker(i, |x, _| {
            let idx = base + x;
            if top2.best_site[idx] as usize == i {
                // The removed replica was the nearest: promote the second
                // (it exists — the primary is always another candidate)
                // and rescan for a new second.
                let old_best = top2.best_cost[idx];
                top2.best_cost[idx] = top2.second_cost[idx];
                top2.best_site[idx] = top2.second_site[idx];
                top2.rescan_second(idx, rows, scheme, x, k);
                loss += obj.reads[x] * (top2.best_cost[idx] - old_best);
            } else if top2.second_site[idx] as usize == i {
                top2.rescan_second(idx, rows, scheme, x, k);
            }
        });
        let delta = (obj.size * loss) as i64 - obj.shipping_delta(i);
        self.apply_object_delta(k, delta);
        delta
    }

    #[inline]
    fn apply_object_delta(&mut self, k: usize, delta: i64) {
        let v = self.object_cost[k] as i64 + delta;
        debug_assert!(v >= 0, "object cost went negative");
        self.object_cost[k] = v as u64;
        self.total = (self.total as i64 + delta) as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drp_net::CostMatrix;

    /// 3 sites on a line (C(0,1)=1, C(1,2)=1, C(0,2)=2), 2 objects.
    fn problem() -> Problem {
        let costs = CostMatrix::from_rows(3, vec![0, 1, 2, 1, 0, 1, 2, 1, 0]).unwrap();
        Problem::builder(costs)
            .capacities(vec![40, 40, 40])
            .object(10, SiteId::new(0))
            .reads(vec![0, 4, 6])
            .writes(vec![1, 2, 0])
            .object(5, SiteId::new(2))
            .reads(vec![3, 0, 2])
            .writes(vec![0, 0, 1])
            .build()
            .unwrap()
    }

    fn assert_coherent(eval: &CostEvaluator<'_>) {
        let p = eval.problem();
        assert_eq!(eval.total(), p.total_cost(eval.scheme()), "total drifted");
        for k in p.objects() {
            assert_eq!(
                eval.object_cost(k),
                p.object_cost(eval.scheme(), k),
                "V_{k} drifted"
            );
            for i in p.sites() {
                let (sn, c) = eval.nearest(i, k);
                let (sn_ref, c_ref) = eval.scheme().nearest_replica(p, i, k);
                assert_eq!((sn, c), (sn_ref, c_ref), "nearest({i}, {k}) drifted");
            }
        }
    }

    #[test]
    fn primary_only_matches_d_prime() {
        let p = problem();
        let eval = CostEvaluator::primary_only(&p);
        assert_eq!(eval.total(), p.d_prime());
        assert_eq!(eval.savings_percent(), 0.0);
        assert_coherent(&eval);
    }

    #[test]
    fn apply_add_and_remove_track_full_recomputation() {
        let p = problem();
        let mut eval = CostEvaluator::primary_only(&p);
        let d1 = eval.apply_add(SiteId::new(2), ObjectId::new(0)).unwrap();
        assert_coherent(&eval);
        let d2 = eval.apply_add(SiteId::new(1), ObjectId::new(0)).unwrap();
        assert_coherent(&eval);
        let d3 = eval.apply_add(SiteId::new(0), ObjectId::new(1)).unwrap();
        assert_coherent(&eval);
        let before = eval.total() as i64 - d3 - d2 - d1;
        assert_eq!(before, p.d_prime() as i64);

        let d4 = eval.apply_remove(SiteId::new(2), ObjectId::new(0)).unwrap();
        assert_coherent(&eval);
        let d5 = eval.apply_remove(SiteId::new(1), ObjectId::new(0)).unwrap();
        assert_coherent(&eval);
        assert_eq!(
            eval.total() as i64,
            p.d_prime() as i64 + d1 + d2 + d3 + d4 + d5
        );
    }

    #[test]
    fn peek_deltas_match_apply() {
        let p = problem();
        let mut eval = CostEvaluator::primary_only(&p);
        for k in p.objects() {
            for i in p.sites() {
                if eval.scheme().holds(i, k) {
                    continue;
                }
                let before = eval.total() as i64;
                let peek = eval.delta_add(i, k);
                let applied = eval.apply_add(i, k).unwrap();
                assert_eq!(peek, applied, "add ({i}, {k})");
                assert_eq!(p.total_cost(eval.scheme()) as i64 - before, applied);
                let peek_back = eval.delta_remove(i, k);
                let removed = eval.apply_remove(i, k).unwrap();
                assert_eq!(peek_back, removed);
                assert_eq!(applied + removed, 0, "flip round trip ({i}, {k})");
            }
        }
        assert_coherent(&eval);
    }

    #[test]
    fn undo_restores_exact_state() {
        let p = problem();
        let mut eval = CostEvaluator::primary_only(&p);
        let reference = eval.clone();

        eval.apply_add(SiteId::new(2), ObjectId::new(0)).unwrap();
        eval.apply_add(SiteId::new(1), ObjectId::new(0)).unwrap();
        eval.apply_remove(SiteId::new(2), ObjectId::new(0)).unwrap();
        eval.apply_add(SiteId::new(0), ObjectId::new(1)).unwrap();
        assert_eq!(eval.history_len(), 4);

        while eval.undo().is_some() {}
        assert_eq!(eval.history_len(), 0);
        assert_eq!(eval.total(), reference.total());
        assert_eq!(eval.scheme(), reference.scheme());
        assert_eq!(eval.top2, reference.top2);
        assert_eq!(eval.object_cost, reference.object_cost);
        assert_coherent(&eval);
    }

    #[test]
    fn second_nearest_tracks_membership() {
        let p = problem();
        let mut eval = CostEvaluator::primary_only(&p);
        // One replica: no second-nearest anywhere.
        assert_eq!(eval.second_nearest(SiteId::new(1), ObjectId::new(0)), None);
        eval.apply_add(SiteId::new(2), ObjectId::new(0)).unwrap();
        // Replicas {0, 2}: from site 1 both cost 1, canonical order prefers
        // site 0 as nearest, site 2 as second.
        assert_eq!(
            eval.nearest(SiteId::new(1), ObjectId::new(0)),
            (SiteId::new(0), 1)
        );
        assert_eq!(
            eval.second_nearest(SiteId::new(1), ObjectId::new(0)),
            Some((SiteId::new(2), 1))
        );
    }

    #[test]
    fn errors_leave_cache_untouched() {
        let p = problem();
        let mut eval = CostEvaluator::primary_only(&p);
        let snapshot = eval.clone();
        // Adding an existing replica fails.
        assert!(eval.apply_add(SiteId::new(0), ObjectId::new(0)).is_err());
        // Removing a primary fails.
        assert!(eval.apply_remove(SiteId::new(0), ObjectId::new(0)).is_err());
        assert_eq!(eval.total(), snapshot.total());
        assert_eq!(eval.scheme(), snapshot.scheme());
        assert_eq!(eval.history_len(), 0);
    }

    #[test]
    fn new_accepts_arbitrary_schemes() {
        let p = problem();
        let mut scheme = ReplicationScheme::primary_only(&p);
        scheme
            .add_replica(&p, SiteId::new(2), ObjectId::new(0))
            .unwrap();
        scheme
            .add_replica(&p, SiteId::new(0), ObjectId::new(1))
            .unwrap();
        let eval = CostEvaluator::new(&p, scheme.clone());
        assert_eq!(eval.total(), p.total_cost(&scheme));
        assert_coherent(&eval);
    }
}
