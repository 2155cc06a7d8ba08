use std::sync::Arc;

use drp_net::CostMatrix;
use serde::{Deserialize, Serialize};

use crate::{CoreError, DenseMatrix, ObjectId, Result, SiteId};

/// A validated instance of the Data Replication Problem.
///
/// Holds the network cost matrix `C(i, j)`, per-object sizes and primary
/// sites, per-site storage capacities and the read/write frequency tables,
/// plus precomputed aggregates used throughout the cost model:
///
/// * `total_reads(k)` / `total_writes(k)` — `Σ_i r_k(i)` / `Σ_i w_k(i)`;
/// * [`d_prime`](Self::d_prime) — the NTC of the primary-only allocation,
///   the paper's normalization baseline `D_prime`;
/// * [`v_prime`](Self::v_prime) — the per-object equivalent used by AGRA.
///
/// Instances are immutable; adaptive experiments derive new instances with
/// [`with_patterns`](Self::with_patterns) when read/write patterns shift.
/// The `M × M` cost table and the read/write tables are reference-counted,
/// so a clone shares them instead of copying them, and `with_patterns`
/// shares the cost table.
///
/// Construct instances with [`Problem::builder`] or, for the paper's
/// synthetic workloads, with the generator in `drp-workload`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Problem {
    costs: CostMatrix,
    object_sizes: Vec<u64>,
    primaries: Vec<SiteId>,
    capacities: Vec<u64>,
    patterns: Arc<Patterns>,
    total_reads: Vec<u64>,
    total_writes: Vec<u64>,
    /// Per-object update volume `Σ_x w_k(x) · o_k`: the factor every
    /// replica of `k` multiplies its primary-distance by in Eq. 4.
    write_volumes: Vec<u64>,
    d_prime: u64,
    v_prime: Vec<u64>,
}

/// The read/write tables of a [`Problem`], in both layouts; shared by the
/// problem's clones.
#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Patterns {
    reads: DenseMatrix<u64>,
    writes: DenseMatrix<u64>,
    /// Object-major (`N × M`) transpose of `reads`: row `k` is the
    /// contiguous `r_k(i)` vector the cost kernels stream over.
    reads_by_object: DenseMatrix<u64>,
    /// Object-major (`N × M`) transpose of `writes`.
    writes_by_object: DenseMatrix<u64>,
}

impl Problem {
    /// Starts building an instance over the given network.
    pub fn builder(costs: CostMatrix) -> ProblemBuilder {
        ProblemBuilder::new(costs)
    }

    /// Number of sites `M`.
    pub fn num_sites(&self) -> usize {
        self.costs.num_sites()
    }

    /// Number of objects `N`.
    pub fn num_objects(&self) -> usize {
        self.object_sizes.len()
    }

    /// The network transfer cost matrix.
    pub fn costs(&self) -> &CostMatrix {
        &self.costs
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

    /// Reads `r_k(i)` issued from `site` for `object` during the period.
    ///
    /// # Panics
    ///
    /// Panics if either id is out of range.
    pub fn reads(&self, site: SiteId, object: ObjectId) -> u64 {
        *self.patterns.reads.get(site.index(), object.index())
    }

    /// Writes `w_k(i)` issued from `site` for `object` during the period.
    ///
    /// # Panics
    ///
    /// Panics if either id is out of range.
    pub fn writes(&self, site: SiteId, object: ObjectId) -> u64 {
        *self.patterns.writes.get(site.index(), object.index())
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

    /// Combined size of all objects, `Σ_k o_k`.
    pub fn total_object_size(&self) -> u64 {
        self.object_sizes.iter().sum()
    }

    /// Contiguous per-site read counts `r_k(·)` of one object — the
    /// structure-of-arrays row the cost kernels stream over instead of
    /// striding through the sites × objects table.
    ///
    /// # Panics
    ///
    /// Panics if `object` is out of range.
    #[inline]
    pub fn object_reads(&self, object: ObjectId) -> &[u64] {
        self.patterns.reads_by_object.row(object.index())
    }

    /// Contiguous per-site write counts `w_k(·)` of one object.
    ///
    /// # Panics
    ///
    /// Panics if `object` is out of range.
    #[inline]
    pub fn object_writes(&self, object: ObjectId) -> &[u64] {
        self.patterns.writes_by_object.row(object.index())
    }

    /// Precomputed update volume `Σ_x w_k(x) · o_k` of one object: what
    /// each replica site `j` contributes to Eq. 4 per unit of distance
    /// `C(j, SP_k)`.
    ///
    /// # Panics
    ///
    /// Panics if `object` is out of range.
    #[inline]
    pub fn write_volume(&self, object: ObjectId) -> u64 {
        self.write_volumes[object.index()]
    }

    /// The full read table (sites × objects).
    pub fn read_matrix(&self) -> &DenseMatrix<u64> {
        &self.patterns.reads
    }

    /// The full write table (sites × objects).
    pub fn write_matrix(&self) -> &DenseMatrix<u64> {
        &self.patterns.writes
    }

    /// NTC of the primary-only allocation (`D_prime`), the paper's
    /// normalization baseline for fitness and savings.
    pub fn d_prime(&self) -> u64 {
        self.d_prime
    }

    /// Per-object NTC under the primary-only allocation (`V_prime` of the
    /// AGRA fitness function).
    ///
    /// # Panics
    ///
    /// Panics if `object` is out of range.
    pub fn v_prime(&self, object: ObjectId) -> u64 {
        self.v_prime[object.index()]
    }

    /// Iterates over all site ids.
    pub fn sites(&self) -> impl Iterator<Item = SiteId> {
        (0..self.num_sites()).map(SiteId::new)
    }

    /// Iterates over all object ids.
    pub fn objects(&self) -> impl Iterator<Item = ObjectId> {
        (0..self.num_objects()).map(ObjectId::new)
    }

    /// Derives a new instance with the same network, objects and capacities
    /// but different read/write patterns — the adaptive experiments' "the
    /// daytime pattern no longer matches last night's statistics" situation.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidInstance`] if the tables have the wrong
    /// shape.
    pub fn with_patterns(
        &self,
        reads: DenseMatrix<u64>,
        writes: DenseMatrix<u64>,
    ) -> Result<Problem> {
        let mut builder = ProblemBuilder::new(self.costs.clone());
        builder.objects_bulk(self.object_sizes.clone(), self.primaries.clone());
        builder.capacities(self.capacities.clone());
        builder.read_matrix(reads);
        builder.write_matrix(writes);
        builder.build()
    }

    /// Checks a site id, for callers that construct ids from raw input.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::SiteOutOfRange`] when invalid.
    pub fn check_site(&self, site: SiteId) -> Result<()> {
        if site.index() >= self.num_sites() {
            return Err(CoreError::SiteOutOfRange {
                site,
                num_sites: self.num_sites(),
            });
        }
        Ok(())
    }

    /// Checks an object id.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::ObjectOutOfRange`] when invalid.
    pub fn check_object(&self, object: ObjectId) -> Result<()> {
        if object.index() >= self.num_objects() {
            return Err(CoreError::ObjectOutOfRange {
                object,
                num_objects: self.num_objects(),
            });
        }
        Ok(())
    }
}

/// Incremental builder for [`Problem`].
///
/// # Examples
///
/// ```
/// use drp_core::{Problem, SiteId};
/// use drp_net::CostMatrix;
///
/// let costs = CostMatrix::from_rows(2, vec![0, 3, 3, 0])?;
/// let problem = Problem::builder(costs)
///     .capacities(vec![50, 50])
///     .object(10, SiteId::new(0))
///     .reads(vec![2, 8])
///     .writes(vec![1, 1])
///     .object(5, SiteId::new(1))
///     .reads(vec![4, 0])
///     .writes(vec![0, 2])
///     .build()?;
/// assert_eq!(problem.num_objects(), 2);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct ProblemBuilder {
    costs: CostMatrix,
    object_sizes: Vec<u64>,
    primaries: Vec<SiteId>,
    capacities: Option<Vec<u64>>,
    per_object_reads: Vec<Vec<u64>>,
    per_object_writes: Vec<Vec<u64>>,
    bulk_reads: Option<DenseMatrix<u64>>,
    bulk_writes: Option<DenseMatrix<u64>>,
    error: Option<CoreError>,
}

impl ProblemBuilder {
    fn new(costs: CostMatrix) -> Self {
        Self {
            costs,
            object_sizes: Vec::new(),
            primaries: Vec::new(),
            capacities: None,
            per_object_reads: Vec::new(),
            per_object_writes: Vec::new(),
            bulk_reads: None,
            bulk_writes: None,
            error: None,
        }
    }

    fn fail(&mut self, e: CoreError) {
        if self.error.is_none() {
            self.error = Some(e);
        }
    }

    /// Sets the per-site storage capacities (length `M`).
    pub fn capacities(&mut self, capacities: Vec<u64>) -> &mut Self {
        if capacities.len() != self.costs.num_sites() {
            self.fail(CoreError::InvalidInstance {
                reason: format!(
                    "{} capacities supplied for {} sites",
                    capacities.len(),
                    self.costs.num_sites()
                ),
            });
        } else {
            self.capacities = Some(capacities);
        }
        self
    }

    /// Appends one object with the given size and primary site. Follow with
    /// [`reads`](Self::reads) / [`writes`](Self::writes) to set its pattern
    /// (defaults to all zeros).
    pub fn object(&mut self, size: u64, primary: SiteId) -> &mut Self {
        let m = self.costs.num_sites();
        if size == 0 {
            self.fail(CoreError::InvalidInstance {
                reason: "object sizes must be positive".into(),
            });
        } else if primary.index() >= m {
            self.fail(CoreError::SiteOutOfRange {
                site: primary,
                num_sites: m,
            });
        } else {
            self.object_sizes.push(size);
            self.primaries.push(primary);
            self.per_object_reads.push(vec![0; m]);
            self.per_object_writes.push(vec![0; m]);
        }
        self
    }

    /// Appends many objects at once (used by the workload generator).
    pub fn objects_bulk(&mut self, sizes: Vec<u64>, primaries: Vec<SiteId>) -> &mut Self {
        if sizes.len() != primaries.len() {
            self.fail(CoreError::InvalidInstance {
                reason: format!(
                    "{} sizes supplied for {} primaries",
                    sizes.len(),
                    primaries.len()
                ),
            });
            return self;
        }
        for (size, primary) in sizes.into_iter().zip(primaries) {
            self.object(size, primary);
        }
        self
    }

    /// Sets the per-site read counts (length `M`) of the most recently added
    /// object.
    pub fn reads(&mut self, reads: Vec<u64>) -> &mut Self {
        self.set_last_pattern(reads, true)
    }

    /// Sets the per-site write counts (length `M`) of the most recently
    /// added object.
    pub fn writes(&mut self, writes: Vec<u64>) -> &mut Self {
        self.set_last_pattern(writes, false)
    }

    fn set_last_pattern(&mut self, values: Vec<u64>, is_reads: bool) -> &mut Self {
        let m = self.costs.num_sites();
        if values.len() != m {
            self.fail(CoreError::InvalidInstance {
                reason: format!("pattern of length {} supplied for {m} sites", values.len()),
            });
            return self;
        }
        let table = if is_reads {
            &mut self.per_object_reads
        } else {
            &mut self.per_object_writes
        };
        match table.last_mut() {
            Some(slot) => *slot = values,
            None => self.fail(CoreError::InvalidInstance {
                reason: "reads/writes set before any object was added".into(),
            }),
        }
        self
    }

    /// Sets the entire read table at once (sites × objects); overrides any
    /// per-object values.
    pub fn read_matrix(&mut self, reads: DenseMatrix<u64>) -> &mut Self {
        self.bulk_reads = Some(reads);
        self
    }

    /// Sets the entire write table at once (sites × objects); overrides any
    /// per-object values.
    pub fn write_matrix(&mut self, writes: DenseMatrix<u64>) -> &mut Self {
        self.bulk_writes = Some(writes);
        self
    }

    fn assemble_table(
        per_object: &[Vec<u64>],
        bulk: Option<DenseMatrix<u64>>,
        m: usize,
        n: usize,
        what: &str,
    ) -> Result<DenseMatrix<u64>> {
        if let Some(bulk) = bulk {
            if bulk.rows() != m || bulk.cols() != n {
                return Err(CoreError::InvalidInstance {
                    reason: format!(
                        "{what} table is {}x{}, expected {m}x{n}",
                        bulk.rows(),
                        bulk.cols()
                    ),
                });
            }
            return Ok(bulk);
        }
        let mut table = DenseMatrix::zeros(m, n);
        for (k, column) in per_object.iter().enumerate() {
            for (i, &v) in column.iter().enumerate() {
                table.set(i, k, v);
            }
        }
        Ok(table)
    }

    /// Validates and builds the instance.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidInstance`] (or a more specific error
    /// recorded during building) when:
    ///
    /// * any builder step failed (wrong lengths, zero sizes, bad primaries);
    /// * capacities were never supplied;
    /// * there are no objects;
    /// * some site cannot store its own primary copies.
    pub fn build(&mut self) -> Result<Problem> {
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        let m = self.costs.num_sites();
        let n = self.object_sizes.len();
        if n == 0 {
            return Err(CoreError::InvalidInstance {
                reason: "an instance needs at least one object".into(),
            });
        }
        let capacities = self
            .capacities
            .clone()
            .ok_or_else(|| CoreError::InvalidInstance {
                reason: "capacities were never supplied".into(),
            })?;
        let reads =
            Self::assemble_table(&self.per_object_reads, self.bulk_reads.take(), m, n, "read")?;
        let writes = Self::assemble_table(
            &self.per_object_writes,
            self.bulk_writes.take(),
            m,
            n,
            "write",
        )?;

        // Every site must at least store its primary copies.
        let mut primary_load = vec![0u64; m];
        for (k, &primary) in self.primaries.iter().enumerate() {
            primary_load[primary.index()] += self.object_sizes[k];
        }
        for (i, (&load, &cap)) in primary_load.iter().zip(&capacities).enumerate() {
            if load > cap {
                return Err(CoreError::InvalidInstance {
                    reason: format!(
                        "site {i} stores primary copies totalling {load} data units \
                         but has capacity {cap}"
                    ),
                });
            }
        }

        // Object-major transposes: one contiguous row per object for the
        // cache-friendly cost kernels.
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

        // Eq. 4 multiplies a frequency total by an object size and a link
        // cost, and the update broadcast repeats such a term once per
        // replica. Per object that bounds V_k by
        // max_rw · max_size · max_cost · M exactly (the broadcast sum has
        // at most M − 1 nonzero terms since C(SP, SP) = 0, and the
        // read/write traffic contributes at most one more
        // max_rw · max_cost · max_size), and the total D accumulates N
        // such objects. The cost kernels use plain arithmetic, so reject
        // any instance whose extreme values could wrap u64 in release
        // builds — the full M · N chain, not just one object's term:
        // at M = 10k-scale traffic volumes the per-object guard alone
        // leaves the cross-object sum unprotected.
        let max_rw = (0..n)
            .map(|k| total_reads[k].saturating_add(total_writes[k]))
            .max()
            .unwrap_or(0);
        let max_size = self.object_sizes.iter().copied().max().unwrap_or(0);
        let max_cost = (0..m)
            .flat_map(|i| {
                let costs = &self.costs;
                (0..m).map(move |j| costs.cost(i, j))
            })
            .max()
            .unwrap_or(0);
        let fits = max_rw
            .checked_mul(max_size)
            .and_then(|x| x.checked_mul(max_cost))
            .and_then(|x| x.checked_mul(m as u64))
            .and_then(|x| x.checked_mul(n as u64))
            .is_some();
        if !fits {
            return Err(CoreError::InvalidInstance {
                reason: format!(
                    "cost terms may overflow u64: max access total {max_rw} x max object \
                     size {max_size} x max link cost {max_cost} x {m} sites x {n} objects"
                ),
            });
        }

        // Per-object update volumes Σ_x w_k(x) · o_k; the overflow guard
        // above bounds total_writes · size, so plain multiplication is safe.
        let write_volumes: Vec<u64> = (0..n)
            .map(|k| total_writes[k] * self.object_sizes[k])
            .collect();

        // D_prime / V_prime: with only primaries, every non-primary site pays
        // (r + w) · o · C(i, SP) and the primary itself pays nothing.
        let mut d_prime = 0u64;
        let mut v_prime = vec![0u64; n];
        for (k, &primary) in self.primaries.iter().enumerate() {
            let o = self.object_sizes[k];
            let sp_row = self.costs.row(primary.index());
            let r_row = reads_by_object.row(k);
            let w_row = writes_by_object.row(k);
            let mut v = 0u64;
            for i in 0..m {
                v += (r_row[i] + w_row[i]) * o * sp_row[i];
            }
            v_prime[k] = v;
            d_prime += v;
        }

        Ok(Problem {
            costs: self.costs.clone(),
            object_sizes: self.object_sizes.clone(),
            primaries: self.primaries.clone(),
            capacities,
            patterns: Arc::new(Patterns {
                reads,
                writes,
                reads_by_object,
                writes_by_object,
            }),
            total_reads,
            total_writes,
            write_volumes,
            d_prime,
            v_prime,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line_costs() -> CostMatrix {
        CostMatrix::from_rows(3, vec![0, 1, 2, 1, 0, 1, 2, 1, 0]).unwrap()
    }

    fn sample() -> Problem {
        Problem::builder(line_costs())
            .capacities(vec![30, 30, 30])
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
    fn accessors() {
        let p = sample();
        assert_eq!(p.num_sites(), 3);
        assert_eq!(p.num_objects(), 2);
        assert_eq!(p.object_size(ObjectId::new(0)), 10);
        assert_eq!(p.primary(ObjectId::new(1)), SiteId::new(2));
        assert_eq!(p.reads(SiteId::new(2), ObjectId::new(0)), 6);
        assert_eq!(p.writes(SiteId::new(1), ObjectId::new(0)), 2);
        assert_eq!(p.total_reads(ObjectId::new(0)), 10);
        assert_eq!(p.total_writes(ObjectId::new(0)), 3);
        assert_eq!(p.total_object_size(), 15);
    }

    #[test]
    fn object_major_rows_mirror_the_site_major_tables() {
        let p = sample();
        assert_eq!(p.object_reads(ObjectId::new(0)), &[0, 4, 6]);
        assert_eq!(p.object_writes(ObjectId::new(0)), &[1, 2, 0]);
        assert_eq!(p.object_reads(ObjectId::new(1)), &[3, 0, 0]);
        assert_eq!(p.object_writes(ObjectId::new(1)), &[0, 0, 1]);
        // write_volume = total_writes · size.
        assert_eq!(p.write_volume(ObjectId::new(0)), 3 * 10);
        assert_eq!(p.write_volume(ObjectId::new(1)), 5);
    }

    #[test]
    fn d_prime_matches_hand_computation() {
        let p = sample();
        // Object 0 (o=10, SP=0): site1 (4r+2w)·10·C(1,0)=60, site2 (6r+0w)·10·2=120.
        // Object 1 (o=5, SP=2): site0 (3r)·5·C(0,2)=30, site1 0.
        assert_eq!(p.v_prime(ObjectId::new(0)), 180);
        assert_eq!(p.v_prime(ObjectId::new(1)), 30);
        assert_eq!(p.d_prime(), 210);
    }

    #[test]
    fn build_requires_capacities_and_objects() {
        assert!(matches!(
            Problem::builder(line_costs())
                .capacities(vec![1, 1, 1])
                .build(),
            Err(CoreError::InvalidInstance { .. })
        ));
        assert!(matches!(
            Problem::builder(line_costs())
                .object(5, SiteId::new(0))
                .build(),
            Err(CoreError::InvalidInstance { .. })
        ));
    }

    #[test]
    fn build_rejects_zero_size_and_bad_primary() {
        let err = Problem::builder(line_costs())
            .capacities(vec![9, 9, 9])
            .object(0, SiteId::new(0))
            .build();
        assert!(err.is_err());
        let err = Problem::builder(line_costs())
            .capacities(vec![9, 9, 9])
            .object(1, SiteId::new(7))
            .build();
        assert!(matches!(err, Err(CoreError::SiteOutOfRange { .. })));
    }

    #[test]
    fn build_rejects_overfull_primary_site() {
        let err = Problem::builder(line_costs())
            .capacities(vec![5, 9, 9])
            .object(6, SiteId::new(0))
            .build();
        assert!(matches!(err, Err(CoreError::InvalidInstance { .. })));
    }

    #[test]
    fn build_rejects_instances_whose_costs_could_overflow() {
        // max_rw · max_size · max_cost · M · N must fit in u64. With link
        // cost 3, M = 3, N = 1 and size 1 << 32, a read total of 1 << 31
        // pushes the product past u64::MAX (2^31 · 2^32 · 3 · 3 ≈ 2^66.2).
        let err = Problem::builder(line_costs())
            .capacities(vec![u64::MAX, u64::MAX, u64::MAX])
            .object(1 << 32, SiteId::new(0))
            .reads(vec![0, 1 << 31, 0])
            .build();
        match err {
            Err(CoreError::InvalidInstance { reason }) => {
                assert!(reason.contains("overflow"), "unexpected reason: {reason}");
            }
            other => panic!("expected InvalidInstance, got {other:?}"),
        }

        // Just inside the limit builds fine: 2^30 · 2^32 · 1 · 3 · 1 < 2^64
        // with unit link costs.
        let unit_costs = CostMatrix::from_rows(3, vec![0, 1, 1, 1, 0, 1, 1, 1, 0]).unwrap();
        let ok = Problem::builder(unit_costs.clone())
            .capacities(vec![u64::MAX, u64::MAX, u64::MAX])
            .object(1 << 32, SiteId::new(0))
            .reads(vec![0, 1 << 30, 0])
            .build();
        assert!(ok.is_ok(), "near-limit instance should build: {ok:?}");

        // The object axis is part of the guard: the same near-limit object
        // plus one more (even a silent one) doubles the worst-case total D
        // past u64::MAX, because D accumulates one V_k per object.
        let err = Problem::builder(unit_costs)
            .capacities(vec![u64::MAX, u64::MAX, u64::MAX])
            .object(1 << 32, SiteId::new(0))
            .reads(vec![0, 1 << 30, 0])
            .object(1 << 32, SiteId::new(1))
            .build();
        assert!(
            matches!(err, Err(CoreError::InvalidInstance { .. })),
            "cross-object accumulation must be guarded: {err:?}"
        );
    }

    #[test]
    fn pattern_length_is_validated() {
        let err = Problem::builder(line_costs())
            .capacities(vec![9, 9, 9])
            .object(1, SiteId::new(0))
            .reads(vec![1, 2])
            .build();
        assert!(err.is_err());
    }

    #[test]
    fn with_patterns_replaces_tables() {
        let p = sample();
        let reads = DenseMatrix::from_rows(3, 2, vec![1, 0, 0, 0, 0, 0]).unwrap();
        let writes = DenseMatrix::zeros(3, 2);
        let q = p.with_patterns(reads, writes).unwrap();
        assert_eq!(q.total_reads(ObjectId::new(0)), 1);
        assert_eq!(q.total_writes(ObjectId::new(0)), 0);
        assert_eq!(q.num_sites(), p.num_sites());
        // Wrong shape is rejected.
        assert!(p
            .with_patterns(DenseMatrix::zeros(2, 2), DenseMatrix::zeros(3, 2))
            .is_err());
    }

    #[test]
    fn check_ids() {
        let p = sample();
        assert!(p.check_site(SiteId::new(2)).is_ok());
        assert!(p.check_site(SiteId::new(3)).is_err());
        assert!(p.check_object(ObjectId::new(1)).is_ok());
        assert!(p.check_object(ObjectId::new(2)).is_err());
    }

    #[test]
    fn bulk_matrix_shape_is_validated() {
        let err = Problem::builder(line_costs())
            .capacities(vec![9, 9, 9])
            .object(1, SiteId::new(0))
            .read_matrix(DenseMatrix::zeros(3, 5))
            .build();
        assert!(err.is_err());
    }
}
