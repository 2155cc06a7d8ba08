//! Graph-backed DRP instances and the k-nearest incremental evaluator —
//! the structures that break the dense `M × M` ceiling.
//!
//! A [`Problem`] carries a validated [`CostMatrix`]: 800 MB of shortest
//! paths at `M = 10 000` before a single placement decision is made. A
//! [`SparseProblem`] keeps the [`Graph`] itself plus the workload tables
//! (`O(M·N + E)`), and answers every cost question with Dijkstra runs:
//!
//! * [`SparseProblem::total_cost`] — the *exact* Eq. 4 NTC of a placement,
//!   via one multi-source Dijkstra per object (nearest-replica reads) on
//!   top of one Dijkstra per distinct primary (write shipping and the
//!   update broadcast);
//! * [`SparseRows`] — the k-nearest candidate source of the one flip
//!   engine [`Evaluator`], whose instantiation is [`SparseEvaluator`]:
//!   candidates come from [`SparseCostRows`] instead of full matrix rows,
//!   so a replica flip touches `O(k)` sites instead of `O(M)`. Reads that
//!   would route to a replica beyond a site's k nearest fall back to the
//!   primary distance, making the evaluator's NTC an upper bound that
//!   coincides with the exact value whenever `k` covers the true nearest
//!   replica (always when `k ≥ M`).
//!
//! [`CostMatrix`]: drp_net::CostMatrix

use drp_net::shortest::{self, UNREACHABLE};
use drp_net::{CostMatrix, Graph, SparseCostRows};

use crate::evaluator::{CandidateRows, Evaluator, ObjectTerms};
use crate::{CoreError, DenseMatrix, ObjectId, Problem, ReplicationScheme, Result, SiteId};

/// A DRP instance over an explicit network graph, without the dense
/// all-pairs cost matrix.
///
/// Holds the same data as [`Problem`] — object sizes, primaries, site
/// capacities, read/write tables, the `D_prime`/`V_prime` normalization
/// baselines — but distances live implicitly in the graph. Placements are
/// plain sorted replica lists (one `Vec<usize>` per object, always
/// containing the primary) rather than [`ReplicationScheme`]s, since the
/// scheme bitset types are married to `Problem`.
///
/// [`ReplicationScheme`]: crate::ReplicationScheme
#[derive(Debug, Clone, PartialEq)]
pub struct SparseProblem {
    graph: Graph,
    object_sizes: Vec<u64>,
    primaries: Vec<SiteId>,
    capacities: Vec<u64>,
    reads: DenseMatrix<u64>,
    writes: DenseMatrix<u64>,
    reads_by_object: DenseMatrix<u64>,
    writes_by_object: DenseMatrix<u64>,
    total_reads: Vec<u64>,
    total_writes: Vec<u64>,
    write_volumes: Vec<u64>,
    d_prime: u64,
    v_prime: Vec<u64>,
}

impl SparseProblem {
    /// Builds and validates a sparse instance. `reads` and `writes` are
    /// site-major `M × N` tables, the same orientation as
    /// [`Problem::read_matrix`].
    ///
    /// Validation mirrors [`Problem::builder`]: positive object sizes,
    /// primaries in range, every site able to store its own primary
    /// copies, and the Eq. 4 overflow guard — here with the sum of all
    /// edge costs standing in for the unknown network diameter (no
    /// shortest path can cost more than every edge once). The graph must
    /// additionally be connected.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidInstance`] describing the first
    /// violation.
    pub fn new(
        graph: Graph,
        object_sizes: Vec<u64>,
        primaries: Vec<SiteId>,
        capacities: Vec<u64>,
        reads: DenseMatrix<u64>,
        writes: DenseMatrix<u64>,
    ) -> Result<Self> {
        let invalid = |reason: String| CoreError::InvalidInstance { reason };
        let m = graph.num_sites();
        let n = object_sizes.len();
        if m == 0 {
            return Err(invalid("an instance needs at least one site".into()));
        }
        if n == 0 {
            return Err(invalid("an instance needs at least one object".into()));
        }
        if !graph.is_connected() {
            return Err(invalid("the network graph must be connected".into()));
        }
        if primaries.len() != n {
            return Err(invalid(format!(
                "{} primaries supplied for {n} objects",
                primaries.len()
            )));
        }
        if capacities.len() != m {
            return Err(invalid(format!(
                "{} capacities supplied for {m} sites",
                capacities.len()
            )));
        }
        for (table, what) in [(&reads, "read"), (&writes, "write")] {
            if table.rows() != m || table.cols() != n {
                return Err(invalid(format!(
                    "{what} table is {}x{}, expected {m}x{n}",
                    table.rows(),
                    table.cols()
                )));
            }
        }
        if object_sizes.contains(&0) {
            return Err(invalid("object sizes must be positive".into()));
        }
        let mut primary_load = vec![0u64; m];
        for (k, p) in primaries.iter().enumerate() {
            if p.index() >= m {
                return Err(CoreError::SiteOutOfRange {
                    site: *p,
                    num_sites: m,
                });
            }
            primary_load[p.index()] += object_sizes[k];
        }
        for (i, (&load, &cap)) in primary_load.iter().zip(&capacities).enumerate() {
            if load > cap {
                return Err(invalid(format!(
                    "site {i} stores primary copies totalling {load} data units \
                     but has capacity {cap}"
                )));
            }
        }

        let mut reads_by_object = DenseMatrix::zeros(n, m);
        let mut writes_by_object = DenseMatrix::zeros(n, m);
        for i in 0..m {
            for k in 0..n {
                reads_by_object.set(k, i, *reads.get(i, k));
                writes_by_object.set(k, i, *writes.get(i, k));
            }
        }
        let total_reads: Vec<u64> = (0..n)
            .map(|k| reads_by_object.row(k).iter().sum())
            .collect();
        let total_writes: Vec<u64> = (0..n)
            .map(|k| writes_by_object.row(k).iter().sum())
            .collect();

        // Overflow guard, as in `Problem::build` but with Σ edge costs
        // bounding the (uncomputed) maximum shortest-path distance.
        let max_rw = (0..n)
            .map(|k| total_reads[k].saturating_add(total_writes[k]))
            .max()
            .unwrap_or(0);
        let max_size = object_sizes.iter().copied().max().unwrap_or(0);
        let path_bound = graph
            .edges()
            .iter()
            .try_fold(0u64, |acc, e| acc.checked_add(e.cost));
        let fits = path_bound
            .and_then(|bound| max_rw.checked_mul(max_size).zip(Some(bound)))
            .and_then(|(x, bound)| x.checked_mul(bound.max(1)))
            .and_then(|x| x.checked_mul(m as u64))
            .and_then(|x| x.checked_mul(n as u64))
            .is_some();
        if !fits {
            return Err(invalid(format!(
                "cost terms may overflow u64: max access total {max_rw} x max object \
                 size {max_size} x path bound (sum of edge costs) x {m} sites x {n} objects"
            )));
        }
        let write_volumes: Vec<u64> = (0..n).map(|k| total_writes[k] * object_sizes[k]).collect();

        let mut sp = Self {
            graph,
            object_sizes,
            primaries,
            capacities,
            reads,
            writes,
            reads_by_object,
            writes_by_object,
            total_reads,
            total_writes,
            write_volumes,
            d_prime: 0,
            v_prime: vec![0; n],
        };
        // D_prime / V_prime: one Dijkstra per distinct primary site.
        let dists = PrimaryDistances::build(&sp);
        for k in 0..n {
            let o = sp.object_sizes[k];
            let spd = dists.row(k);
            let r_row = sp.reads_by_object.row(k);
            let w_row = sp.writes_by_object.row(k);
            let mut v = 0u64;
            for i in 0..m {
                v += (r_row[i] + w_row[i]) * o * spd[i];
            }
            sp.v_prime[k] = v;
            sp.d_prime += v;
        }
        Ok(sp)
    }

    /// Re-expresses a dense [`Problem`] as a sparse instance over the
    /// complete graph of its cost matrix (`M²/2` edges — for parity
    /// testing and CLI convenience at moderate `M`, not for scale).
    ///
    /// The matrix is a validated metric, so shortest paths over that
    /// complete graph reproduce it exactly: `d_prime` and every cost agree
    /// bit-for-bit with the dense instance.
    ///
    /// # Errors
    ///
    /// Propagates validation failures (none are expected from a validated
    /// `Problem`).
    pub fn from_problem(problem: &Problem) -> Result<Self> {
        let m = problem.num_sites();
        let mut graph = Graph::new(m).map_err(CoreError::Net)?;
        for i in 0..m {
            for j in (i + 1)..m {
                graph
                    .add_edge(i, j, problem.costs().cost(i, j))
                    .map_err(CoreError::Net)?;
            }
        }
        Self::new(
            graph,
            (0..problem.num_objects())
                .map(|k| problem.object_size(ObjectId::new(k)))
                .collect(),
            (0..problem.num_objects())
                .map(|k| problem.primary(ObjectId::new(k)))
                .collect(),
            (0..m).map(|i| problem.capacity(SiteId::new(i))).collect(),
            problem.read_matrix().clone(),
            problem.write_matrix().clone(),
        )
    }

    /// Materializes the dense twin: all-pairs shortest paths plus a
    /// [`Problem::builder`] run. Quadratic memory — only for `M` where a
    /// flat solve is feasible anyway (the sharded-vs-flat parity tests).
    ///
    /// # Errors
    ///
    /// Propagates cost-matrix and builder failures.
    pub fn to_dense(&self) -> Result<Problem> {
        let costs = CostMatrix::from_graph(&self.graph).map_err(CoreError::Net)?;
        let mut builder = Problem::builder(costs);
        builder.objects_bulk(self.object_sizes.clone(), self.primaries.clone());
        builder.capacities(self.capacities.clone());
        builder.read_matrix(self.reads.clone());
        builder.write_matrix(self.writes.clone());
        builder.build()
    }

    /// Number of sites `M`.
    pub fn num_sites(&self) -> usize {
        self.graph.num_sites()
    }

    /// Number of objects `N`.
    pub fn num_objects(&self) -> usize {
        self.object_sizes.len()
    }

    /// The underlying network graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Size `o_k` of an object in data units.
    ///
    /// # Panics
    ///
    /// Panics if `object` is out of range.
    pub fn object_size(&self, object: ObjectId) -> u64 {
        self.object_sizes[object.index()]
    }

    /// Primary site `SP_k` of an object.
    ///
    /// # Panics
    ///
    /// Panics if `object` is out of range.
    pub fn primary(&self, object: ObjectId) -> SiteId {
        self.primaries[object.index()]
    }

    /// Storage capacity `s(i)` of a site in data units.
    ///
    /// # Panics
    ///
    /// Panics if `site` is out of range.
    pub fn capacity(&self, site: SiteId) -> u64 {
        self.capacities[site.index()]
    }

    /// Contiguous per-site read counts `r_k(·)` of one object.
    ///
    /// # Panics
    ///
    /// Panics if `object` is out of range.
    pub fn object_reads(&self, object: ObjectId) -> &[u64] {
        self.reads_by_object.row(object.index())
    }

    /// Contiguous per-site write counts `w_k(·)` of one object.
    ///
    /// # Panics
    ///
    /// Panics if `object` is out of range.
    pub fn object_writes(&self, object: ObjectId) -> &[u64] {
        self.writes_by_object.row(object.index())
    }

    /// Total reads `Σ_i r_k(i)` for an object.
    ///
    /// # Panics
    ///
    /// Panics if `object` is out of range.
    pub fn total_reads(&self, object: ObjectId) -> u64 {
        self.total_reads[object.index()]
    }

    /// Total writes `Σ_i w_k(i)` for an object.
    ///
    /// # Panics
    ///
    /// Panics if `object` is out of range.
    pub fn total_writes(&self, object: ObjectId) -> u64 {
        self.total_writes[object.index()]
    }

    /// Update volume `Σ_x w_k(x) · o_k` of one object.
    ///
    /// # Panics
    ///
    /// Panics if `object` is out of range.
    pub fn write_volume(&self, object: ObjectId) -> u64 {
        self.write_volumes[object.index()]
    }

    /// NTC of the primary-only allocation (`D_prime`).
    pub fn d_prime(&self) -> u64 {
        self.d_prime
    }

    /// Per-object NTC under the primary-only allocation.
    ///
    /// # Panics
    ///
    /// Panics if `object` is out of range.
    pub fn v_prime(&self, object: ObjectId) -> u64 {
        self.v_prime[object.index()]
    }

    /// Iterates over all object ids.
    pub fn objects(&self) -> impl Iterator<Item = ObjectId> {
        (0..self.num_objects()).map(ObjectId::new)
    }

    /// The primary-only placement: one singleton replica list per object.
    pub fn primary_only_placement(&self) -> Vec<Vec<usize>> {
        self.primaries.iter().map(|p| vec![p.index()]).collect()
    }

    /// Checks that `placement` is a feasible scheme: one sorted,
    /// duplicate-free replica list per object, each containing the
    /// object's primary, all sites in range, and no site over capacity.
    ///
    /// # Errors
    ///
    /// Returns the specific [`CoreError`] for the first violation.
    pub fn validate_placement(&self, placement: &[Vec<usize>]) -> Result<()> {
        let invalid = |reason: String| CoreError::InvalidInstance { reason };
        let m = self.num_sites();
        let n = self.num_objects();
        if placement.len() != n {
            return Err(invalid(format!(
                "placement covers {} objects, instance has {n}",
                placement.len()
            )));
        }
        let mut used = vec![0u64; m];
        for (k, replicas) in placement.iter().enumerate() {
            if !replicas.windows(2).all(|w| w[0] < w[1]) {
                return Err(invalid(format!(
                    "object {k}: replica list must be sorted and duplicate-free"
                )));
            }
            if let Some(&site) = replicas.iter().find(|&&j| j >= m) {
                return Err(CoreError::SiteOutOfRange {
                    site: SiteId::new(site),
                    num_sites: m,
                });
            }
            let sp = self.primaries[k].index();
            if replicas.binary_search(&sp).is_err() {
                return Err(CoreError::PrimaryUndeletable {
                    object: ObjectId::new(k),
                });
            }
            for &j in replicas {
                used[j] += self.object_sizes[k];
            }
        }
        for (i, (&u, &cap)) in used.iter().zip(&self.capacities).enumerate() {
            if u > cap {
                return Err(invalid(format!(
                    "site {i} holds {u} data units of replicas but has capacity {cap}"
                )));
            }
        }
        Ok(())
    }

    /// The *exact* Eq. 4 NTC of a placement over the graph metric: per
    /// object, reads route to the truly nearest replica (one multi-source
    /// Dijkstra from the replica set), writes ship to the primary, and
    /// every replica receives the update broadcast (one Dijkstra per
    /// distinct primary, shared across objects). `O(N · E log M)` total —
    /// no `M²` anywhere.
    ///
    /// # Errors
    ///
    /// Propagates [`validate_placement`](Self::validate_placement)
    /// failures.
    pub fn total_cost(&self, placement: &[Vec<usize>]) -> Result<u64> {
        self.validate_placement(placement)?;
        let dists = PrimaryDistances::build(self);
        let m = self.num_sites();
        let mut total = 0u64;
        let mut nearest_scratch: Vec<u64>;
        for (k, replicas) in placement.iter().enumerate() {
            let o = self.object_sizes[k];
            let spd = dists.row(k);
            let r_row = self.reads_by_object.row(k);
            let w_row = self.writes_by_object.row(k);
            let (nearest, _) = shortest::multi_source_owner(&self.graph, replicas)
                .expect("validated placement has in-range, non-empty replica lists");
            nearest_scratch = nearest;
            let mut broadcast = 0u64;
            let mut replica_writes = 0u64;
            for &j in replicas {
                broadcast += spd[j];
                replica_writes += w_row[j] * spd[j];
            }
            let mut traffic = 0u64;
            for i in 0..m {
                traffic += r_row[i] * nearest_scratch[i] + w_row[i] * spd[i];
            }
            total += self.write_volumes[k] * broadcast + o * (traffic - replica_writes);
        }
        Ok(total)
    }

    /// Percentage of NTC saved relative to the primary-only allocation.
    ///
    /// # Errors
    ///
    /// Propagates [`total_cost`](Self::total_cost) failures.
    pub fn savings_percent(&self, placement: &[Vec<usize>]) -> Result<f64> {
        if self.d_prime == 0 {
            return Ok(0.0);
        }
        let d = self.total_cost(placement)?;
        Ok(100.0 * (self.d_prime as f64 - d as f64) / self.d_prime as f64)
    }
}

/// Distances from every site to each object's primary, deduplicated by
/// primary site: one Dijkstra per *distinct* primary, shared by all the
/// objects it hosts.
#[derive(Debug, Clone)]
struct PrimaryDistances {
    /// Concatenated M-length rows, one per distinct primary.
    rows: Vec<u64>,
    /// Per object, the row index of its primary's distances.
    row_of: Vec<usize>,
    num_sites: usize,
}

impl PrimaryDistances {
    fn build(sp: &SparseProblem) -> Self {
        let m = sp.num_sites();
        let mut row_index = vec![usize::MAX; m];
        let mut rows = Vec::new();
        let mut row_of = Vec::with_capacity(sp.num_objects());
        for p in &sp.primaries {
            let site = p.index();
            if row_index[site] == usize::MAX {
                row_index[site] = rows.len() / m;
                let dist = shortest::dijkstra_flat(sp.graph(), site)
                    .expect("validated primaries are in range");
                debug_assert!(dist.iter().all(|&d| d != UNREACHABLE));
                rows.extend_from_slice(&dist);
            }
            row_of.push(row_index[site]);
        }
        Self {
            rows,
            row_of,
            num_sites: m,
        }
    }

    /// Distance row of `object`'s primary: entry `i` is `C(i, SP_k)`.
    fn row(&self, object: usize) -> &[u64] {
        let r = self.row_of[object];
        &self.rows[r * self.num_sites..(r + 1) * self.num_sites]
    }
}

/// The k-nearest candidate source: each site reads from the replicators
/// among its [`SparseCostRows`] forward row, plus the object's primary at
/// its exact Dijkstra distance.
///
/// A replica at `j` is a candidate only for the sites on `j`'s *reverse*
/// row, so a flip touches `O(k)` sites instead of `O(M)`.
#[derive(Debug, Clone)]
pub struct SparseRows<'p> {
    sp: &'p SparseProblem,
    rows: &'p SparseCostRows,
    dists: PrimaryDistances,
}

impl CandidateRows for SparseRows<'_> {
    fn num_sites(&self) -> usize {
        self.sp.num_sites()
    }

    fn num_objects(&self) -> usize {
        self.sp.num_objects()
    }

    fn capacity(&self, i: usize) -> u64 {
        self.sp.capacities[i]
    }

    fn object(&self, k: usize) -> ObjectTerms<'_> {
        ObjectTerms {
            size: self.sp.object_sizes[k],
            primary: self.sp.primaries[k].index(),
            total_writes: self.sp.total_writes[k],
            reads: self.sp.reads_by_object.row(k),
            writes: self.sp.writes_by_object.row(k),
            to_primary: self.dists.row(k),
        }
    }

    fn for_each_picker(&self, j: usize, mut f: impl FnMut(usize, u64)) {
        let (sites, costs) = self.rows.reverse_row(j);
        for (&x, &c) in sites.iter().zip(costs) {
            f(x as usize, c);
        }
    }

    /// Walks `x`'s forward row: O(k).
    fn for_each_candidate(
        &self,
        x: usize,
        k: usize,
        scheme: &ReplicationScheme,
        mut f: impl FnMut(usize, u64),
    ) {
        let primary = self.sp.primaries[k].index();
        f(primary, self.dists.row(k)[x]);
        let (sites, costs) = self.rows.row(x);
        for (&j, &c) in sites.iter().zip(costs) {
            let j = j as usize;
            if j != primary && scheme.holds(SiteId::new(j), ObjectId::new(k)) {
                f(j, c);
            }
        }
    }
}

/// Incremental Eq. 4 evaluator over k-nearest candidate lists: the
/// [`Evaluator`] flip engine over [`SparseRows`].
///
/// Reads from a site whose `k` nearest candidates hold no replica fall
/// back to the primary distance; the evaluator's total is therefore an
/// upper bound on the exact NTC, tight whenever every site's true nearest
/// replica is within its k-nearest list (and always exact for `k ≥ M`,
/// where it matches [`CostEvaluator`](crate::CostEvaluator) bitwise).
pub type SparseEvaluator<'p> = Evaluator<SparseRows<'p>>;

impl<'p> Evaluator<SparseRows<'p>> {
    /// Builds the evaluator for an initial placement.
    ///
    /// # Errors
    ///
    /// Propagates [`SparseProblem::validate_placement`] failures; also
    /// rejects `rows` built for a different site count.
    pub fn new(
        sp: &'p SparseProblem,
        rows: &'p SparseCostRows,
        placement: &[Vec<usize>],
    ) -> Result<Self> {
        if rows.num_sites() != sp.num_sites() {
            return Err(CoreError::InvalidInstance {
                reason: format!(
                    "candidate rows cover {} sites, instance has {}",
                    rows.num_sites(),
                    sp.num_sites()
                ),
            });
        }
        sp.validate_placement(placement)?;
        let scheme = ReplicationScheme::from_lists(sp.num_sites(), placement, &sp.object_sizes);
        let dists = PrimaryDistances::build(sp);
        Ok(Self::build(SparseRows { sp, rows, dists }, scheme))
    }

    /// The evaluator for the primary-only placement.
    ///
    /// # Errors
    ///
    /// Propagates [`SparseEvaluator::new`] failures.
    pub fn primary_only(sp: &'p SparseProblem, rows: &'p SparseCostRows) -> Result<Self> {
        let placement = sp.primary_only_placement();
        Self::new(sp, rows, &placement)
    }

    /// The instance under evaluation.
    pub fn problem(&self) -> &'p SparseProblem {
        self.rows.sp
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Line 0-1-2-3 with unit edges, 2 objects.
    fn line_instance() -> SparseProblem {
        let mut g = Graph::new(4).unwrap();
        for a in 0..3 {
            g.add_edge(a, a + 1, 1).unwrap();
        }
        let mut reads = DenseMatrix::zeros(4, 2);
        let mut writes = DenseMatrix::zeros(4, 2);
        for (i, r) in [3u64, 0, 2, 7].iter().enumerate() {
            reads.set(i, 0, *r);
        }
        for (i, r) in [0u64, 5, 1, 0].iter().enumerate() {
            reads.set(i, 1, *r);
        }
        writes.set(1, 0, 2);
        writes.set(3, 1, 1);
        SparseProblem::new(
            g,
            vec![10, 4],
            vec![SiteId::new(0), SiteId::new(3)],
            vec![30, 30, 30, 30],
            reads,
            writes,
        )
        .unwrap()
    }

    #[test]
    fn primary_only_cost_is_d_prime() {
        let sp = line_instance();
        let placement = sp.primary_only_placement();
        assert_eq!(sp.total_cost(&placement).unwrap(), sp.d_prime());
        assert!(sp.d_prime() > 0);
        assert_eq!(sp.savings_percent(&placement).unwrap(), 0.0);
    }

    #[test]
    fn matches_dense_problem_exactly() {
        let sp = line_instance();
        let dense = sp.to_dense().unwrap();
        assert_eq!(sp.d_prime(), dense.d_prime());
        for k in sp.objects() {
            assert_eq!(sp.v_prime(k), dense.v_prime(k));
        }
        // An arbitrary feasible placement costs the same in both worlds.
        let placement = vec![vec![0, 2], vec![1, 3]];
        let scheme = crate::ReplicationScheme::from_fn(&dense, |i, k| {
            placement[k.index()].contains(&i.index())
        })
        .unwrap();
        assert_eq!(
            sp.total_cost(&placement).unwrap(),
            dense.total_cost(&scheme)
        );
    }

    #[test]
    fn from_problem_round_trips() {
        let sp = line_instance();
        let dense = sp.to_dense().unwrap();
        let back = SparseProblem::from_problem(&dense).unwrap();
        assert_eq!(back.d_prime(), dense.d_prime());
        let placement = vec![vec![0, 3], vec![3]];
        let scheme = crate::ReplicationScheme::from_fn(&dense, |i, k| {
            placement[k.index()].contains(&i.index())
        })
        .unwrap();
        assert_eq!(
            back.total_cost(&placement).unwrap(),
            dense.total_cost(&scheme)
        );
    }

    #[test]
    fn validation_rejects_bad_placements() {
        let sp = line_instance();
        // Unsorted.
        assert!(sp.validate_placement(&[vec![2, 0], vec![3]]).is_err());
        // Missing primary.
        assert!(sp.validate_placement(&[vec![1], vec![3]]).is_err());
        // Site out of range.
        assert!(sp.validate_placement(&[vec![0, 9], vec![3]]).is_err());
        // Wrong object count.
        assert!(sp.validate_placement(&[vec![0]]).is_err());
        // Over capacity: site 2 has capacity 30; 3 copies of object 0
        // (10 each) plus object 1 (4) exceed it... use a tighter case.
        let mut g = Graph::new(2).unwrap();
        g.add_edge(0, 1, 1).unwrap();
        let mut reads = DenseMatrix::zeros(2, 1);
        reads.set(1, 0, 1);
        let tight = SparseProblem::new(
            g,
            vec![10],
            vec![SiteId::new(0)],
            vec![10, 5],
            reads,
            DenseMatrix::zeros(2, 1),
        )
        .unwrap();
        assert!(tight.validate_placement(&[vec![0, 1]]).is_err());
    }

    #[test]
    fn construction_rejects_invalid_instances() {
        let g = || {
            let mut g = Graph::new(2).unwrap();
            g.add_edge(0, 1, 1).unwrap();
            g
        };
        let r = DenseMatrix::zeros(2, 1);
        let w = DenseMatrix::zeros(2, 1);
        // Zero-size object.
        assert!(SparseProblem::new(
            g(),
            vec![0],
            vec![SiteId::new(0)],
            vec![5, 5],
            r.clone(),
            w.clone()
        )
        .is_err());
        // Primary out of range.
        assert!(SparseProblem::new(
            g(),
            vec![1],
            vec![SiteId::new(7)],
            vec![5, 5],
            r.clone(),
            w.clone()
        )
        .is_err());
        // Primary does not fit.
        assert!(SparseProblem::new(
            g(),
            vec![9],
            vec![SiteId::new(0)],
            vec![5, 5],
            r.clone(),
            w.clone()
        )
        .is_err());
        // Disconnected graph.
        assert!(SparseProblem::new(
            Graph::new(2).unwrap(),
            vec![1],
            vec![SiteId::new(0)],
            vec![5, 5],
            r.clone(),
            w.clone()
        )
        .is_err());
        // Overflow guard.
        let mut big = Graph::new(2).unwrap();
        big.add_edge(0, 1, u64::MAX / 2).unwrap();
        let mut reads = DenseMatrix::zeros(2, 1);
        reads.set(1, 0, u64::MAX / 4);
        assert!(
            SparseProblem::new(big, vec![2], vec![SiteId::new(0)], vec![9, 9], reads, w).is_err()
        );
    }

    #[test]
    fn evaluator_with_full_k_matches_exact_costs() {
        let sp = line_instance();
        let rows = SparseCostRows::from_graph(sp.graph(), sp.num_sites()).unwrap();
        let mut eval = SparseEvaluator::primary_only(&sp, &rows).unwrap();
        assert_eq!(eval.total(), sp.d_prime());
        // Walk through some flips, checking against the exact Dijkstra
        // total after each.
        let flips = [(2usize, 0usize), (1, 1), (1, 0), (0, 1)];
        for &(site, object) in &flips {
            let (s, o) = (SiteId::new(site), ObjectId::new(object));
            let peek = eval.delta_add(s, o);
            let applied = eval.apply_add(s, o).unwrap();
            assert_eq!(peek, applied);
            assert_eq!(
                eval.total(),
                sp.total_cost(eval.placement()).unwrap(),
                "after add ({site}, {object})"
            );
        }
        for &(site, object) in flips.iter().rev() {
            let (s, o) = (SiteId::new(site), ObjectId::new(object));
            let peek = eval.delta_remove(s, o);
            let applied = eval.apply_remove(s, o).unwrap();
            assert_eq!(peek, applied);
            assert_eq!(
                eval.total(),
                sp.total_cost(eval.placement()).unwrap(),
                "after remove ({site}, {object})"
            );
        }
        assert_eq!(eval.total(), sp.d_prime());
    }

    #[test]
    fn truncated_k_upper_bounds_the_exact_cost() {
        let sp = line_instance();
        let rows = SparseCostRows::from_graph(sp.graph(), 2).unwrap();
        let mut eval = SparseEvaluator::primary_only(&sp, &rows).unwrap();
        // Primary-only is always exact (the primary is a candidate at its
        // exact distance).
        assert_eq!(eval.total(), sp.d_prime());
        eval.apply_add(SiteId::new(2), ObjectId::new(0)).unwrap();
        eval.apply_add(SiteId::new(1), ObjectId::new(1)).unwrap();
        let exact = sp.total_cost(eval.placement()).unwrap();
        assert!(eval.total() >= exact, "{} >= {exact}", eval.total());
    }

    #[test]
    fn evaluator_guards_capacity_and_membership() {
        let sp = line_instance();
        let rows = SparseCostRows::from_graph(sp.graph(), 4).unwrap();
        let mut eval = SparseEvaluator::primary_only(&sp, &rows).unwrap();
        assert!(matches!(
            eval.apply_add(SiteId::new(0), ObjectId::new(0)),
            Err(CoreError::AlreadyReplica { .. })
        ));
        assert!(matches!(
            eval.apply_remove(SiteId::new(1), ObjectId::new(0)),
            Err(CoreError::NotReplica { .. })
        ));
        assert!(matches!(
            eval.apply_remove(SiteId::new(0), ObjectId::new(0)),
            Err(CoreError::PrimaryUndeletable { .. })
        ));
        // Fill site 1 to capacity with object-0 replicas of size 10 — its
        // capacity 30 minus the existing primaries leaves room, so shrink
        // capacity via a bespoke instance instead.
        let mut g = Graph::new(2).unwrap();
        g.add_edge(0, 1, 1).unwrap();
        let mut reads = DenseMatrix::zeros(2, 1);
        reads.set(1, 0, 3);
        let tight = SparseProblem::new(
            g,
            vec![10],
            vec![SiteId::new(0)],
            vec![10, 5],
            reads,
            DenseMatrix::zeros(2, 1),
        )
        .unwrap();
        let rows = SparseCostRows::from_graph(tight.graph(), 2).unwrap();
        let mut eval = SparseEvaluator::primary_only(&tight, &rows).unwrap();
        assert!(matches!(
            eval.apply_add(SiteId::new(1), ObjectId::new(0)),
            Err(CoreError::InsufficientCapacity { .. })
        ));
    }

    #[test]
    fn nearest_cache_tracks_flips() {
        let sp = line_instance();
        let rows = SparseCostRows::from_graph(sp.graph(), 4).unwrap();
        let mut eval = SparseEvaluator::primary_only(&sp, &rows).unwrap();
        let k0 = ObjectId::new(0);
        assert_eq!(eval.nearest(SiteId::new(3), k0), (SiteId::new(0), 3));
        eval.apply_add(SiteId::new(2), k0).unwrap();
        assert_eq!(eval.nearest(SiteId::new(3), k0), (SiteId::new(2), 1));
        let second = eval.second_nearest(SiteId::new(3), k0).unwrap();
        assert_eq!(second, (SiteId::new(0), 3));
        eval.apply_remove(SiteId::new(2), k0).unwrap();
        assert_eq!(eval.nearest(SiteId::new(3), k0), (SiteId::new(0), 3));
    }

    /// Runs `probe` against a full-width evaluator of the line instance.
    fn with_line_eval(probe: impl FnOnce(&SparseEvaluator<'_>)) {
        let sp = line_instance();
        let rows = SparseCostRows::from_graph(sp.graph(), 4).unwrap();
        probe(&SparseEvaluator::primary_only(&sp, &rows).unwrap());
    }

    // Site 4 of object 0 is flat cell 4 — object 1's site 0 — so each query
    // below must panic rather than read the neighbouring object's state.

    #[test]
    #[should_panic(expected = "out of range")]
    fn nearest_rejects_out_of_range_sites() {
        with_line_eval(|eval| {
            eval.nearest(SiteId::new(4), ObjectId::new(0));
        });
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn second_nearest_rejects_out_of_range_sites() {
        with_line_eval(|eval| {
            eval.second_nearest(SiteId::new(4), ObjectId::new(0));
        });
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn holds_rejects_out_of_range_sites() {
        with_line_eval(|eval| {
            eval.holds(SiteId::new(4), ObjectId::new(0));
        });
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn delta_add_rejects_out_of_range_sites() {
        with_line_eval(|eval| {
            eval.delta_add(SiteId::new(4), ObjectId::new(0));
        });
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn delta_remove_rejects_out_of_range_sites() {
        with_line_eval(|eval| {
            eval.delta_remove(SiteId::new(4), ObjectId::new(0));
        });
    }
}
