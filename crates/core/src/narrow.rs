//! A `u32` structure-of-arrays mirror of a [`Problem`]'s hot rows.
//!
//! The Eq. 4 inner loops stream three kinds of `M`-length rows: cost
//! matrix rows (one per replicator for the nearest-replica min-scan),
//! and the per-object read/write frequency rows. All three are stored
//! as `u64` in [`Problem`], but paper-scale instances use small
//! integral costs and frequencies, so the values almost always fit in
//! 32 bits. Mirroring them as `u32` halves the memory traffic of every
//! scan and doubles the lane count of each vector register in the
//! [`kernels`] — the same width split `drp_net::shortest::all_pairs_flat`
//! applies to its Floyd–Warshall/Dijkstra distance arrays. The `u32`
//! min-scan only becomes one instruction per register (`vpminud`) in the
//! AVX2 build of [`kernels::object_sums_u32`]; see the [`kernels`] module
//! docs for how that build is chosen.
//!
//! Width selection is a pure function of the input: [`NarrowMirror::build`]
//! returns `None` unless *every* mirrored value fits `u32`, and callers
//! then fall back to the `u64` kernels. Because the narrow values are
//! exact copies and every product is widened to `u64` before
//! accumulation, the narrow path is bitwise identical to the wide one —
//! it is a representation change, never a semantics change.

use crate::{kernels, ObjectId, Problem};

/// Narrowed (`u32`) copies of the cost matrix and the per-object
/// read/write rows of one [`Problem`].
///
/// Build once per solve (O(M² + 2·N·M)), share freely (e.g. behind an
/// `Arc`) across worker threads; the mirror is immutable and carries no
/// borrow of the problem it was built from. Callers are responsible for
/// pairing a mirror only with the problem that produced it — the row
/// accessors are plain slices.
#[derive(Debug, Clone)]
pub struct NarrowMirror {
    num_sites: usize,
    num_objects: usize,
    /// Row-major M×M shortest-path costs.
    costs: Vec<u32>,
    /// Object-major N×M read frequencies (`Problem::object_reads`).
    reads: Vec<u32>,
    /// Object-major N×M write frequencies (`Problem::object_writes`).
    writes: Vec<u32>,
}

impl NarrowMirror {
    /// Mirrors `problem`'s cost and frequency rows into `u32`, or
    /// `None` if any value exceeds `u32::MAX` (callers keep the `u64`
    /// path; results are identical either way, the wide path is just
    /// slower).
    pub fn build(problem: &Problem) -> Option<Self> {
        let m = problem.num_sites();
        let n = problem.num_objects();
        let mut costs = Vec::with_capacity(m * m);
        for i in 0..m {
            narrow_extend(&mut costs, problem.costs().row(i))?;
        }
        let mut reads = Vec::with_capacity(n * m);
        let mut writes = Vec::with_capacity(n * m);
        for k in 0..n {
            narrow_extend(&mut reads, problem.object_reads(ObjectId::new(k)))?;
            narrow_extend(&mut writes, problem.object_writes(ObjectId::new(k)))?;
        }
        Some(Self {
            num_sites: m,
            num_objects: n,
            costs,
            reads,
            writes,
        })
    }

    /// Number of sites `M` the mirror was built for.
    pub fn num_sites(&self) -> usize {
        self.num_sites
    }

    /// Number of objects `N` the mirror was built for.
    pub fn num_objects(&self) -> usize {
        self.num_objects
    }

    /// Cost-matrix row `C(site, ·)` as `u32`.
    #[inline]
    pub fn cost_row(&self, site: usize) -> &[u32] {
        &self.costs[site * self.num_sites..(site + 1) * self.num_sites]
    }

    /// Per-site read frequencies of `object` as `u32`.
    #[inline]
    pub fn reads_row(&self, object: usize) -> &[u32] {
        &self.reads[object * self.num_sites..(object + 1) * self.num_sites]
    }

    /// Per-site write frequencies of `object` as `u32`.
    #[inline]
    pub fn writes_row(&self, object: usize) -> &[u32] {
        &self.writes[object * self.num_sites..(object + 1) * self.num_sites]
    }

    /// Narrow-width twin of [`Problem::nearest_costs_into`]: fills
    /// `nearest[i] = min { C(i, j) : j ∈ replicas }` over the mirrored
    /// rows; an empty list leaves every slot at [`u32::MAX`].
    ///
    /// # Panics
    ///
    /// Panics if `nearest.len() != num_sites()` or a replica index is
    /// out of range.
    pub fn nearest_costs_into(&self, replicas: &[usize], nearest: &mut [u32]) {
        assert_eq!(nearest.len(), self.num_sites);
        kernels::nearest_fill(&self.costs, replicas, nearest);
    }

    /// Narrow-width twin of [`Problem::object_cost_from_replicas`]:
    /// the same Eq. 4 terms streamed over `u32` rows by
    /// [`kernels::object_sums_u32`], accumulating in `u64`, bitwise identical
    /// to the wide path.
    ///
    /// `problem` must be the instance this mirror was built from;
    /// `replicas` must be sorted ascending and contain the primary;
    /// `nearest` is overwritten scratch.
    ///
    /// # Panics
    ///
    /// Panics if ids are out of range, `nearest.len() != num_sites()`,
    /// or `replicas` is unsorted (debug builds).
    pub fn object_cost_from_replicas(
        &self,
        problem: &Problem,
        object: ObjectId,
        replicas: &[usize],
        nearest: &mut [u32],
    ) -> u64 {
        debug_assert_eq!(self.num_sites, problem.num_sites());
        let k = object.index();
        let rows = kernels::ObjectRows {
            costs: &self.costs,
            reads: self.reads_row(k),
            writes: self.writes_row(k),
            primary: problem.primary(object).index(),
        };
        let sums = kernels::object_sums_u32(&rows, replicas, nearest);
        problem.write_volume(object) * sums.broadcast + problem.object_size(object) * sums.traffic
    }
}

/// Appends `row` to `out` narrowed to `u32`, or `None` on overflow.
fn narrow_extend(out: &mut Vec<u32>, row: &[u64]) -> Option<()> {
    for &v in row {
        out.push(u32::try_from(v).ok()?);
    }
    Some(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ReplicationScheme, SiteId};
    use drp_net::CostMatrix;

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

    #[test]
    fn mirror_rows_copy_the_wide_rows() {
        let p = problem();
        let mirror = NarrowMirror::build(&p).expect("small instance narrows");
        assert_eq!(mirror.num_sites(), 3);
        assert_eq!(mirror.num_objects(), 2);
        for i in 0..3 {
            let wide: Vec<u64> = mirror.cost_row(i).iter().map(|&c| u64::from(c)).collect();
            assert_eq!(wide.as_slice(), p.costs().row(i));
        }
        for k in 0..2 {
            let r: Vec<u64> = mirror.reads_row(k).iter().map(|&c| u64::from(c)).collect();
            assert_eq!(r.as_slice(), p.object_reads(ObjectId::new(k)));
            let w: Vec<u64> = mirror.writes_row(k).iter().map(|&c| u64::from(c)).collect();
            assert_eq!(w.as_slice(), p.object_writes(ObjectId::new(k)));
        }
    }

    #[test]
    fn narrow_object_cost_matches_wide_exactly() {
        let p = problem();
        let mirror = NarrowMirror::build(&p).unwrap();
        let mut wide = vec![u64::MAX; p.num_sites()];
        let mut narrow = vec![u32::MAX; p.num_sites()];
        // Every replica subset containing the primary, for both objects.
        for k in p.objects() {
            let sp = p.primary(k).index();
            for mask in 0u32..8 {
                if mask & (1 << sp) == 0 {
                    continue;
                }
                let replicas: Vec<usize> = (0..3).filter(|i| mask & (1 << i) != 0).collect();
                assert_eq!(
                    mirror.object_cost_from_replicas(&p, k, &replicas, &mut narrow),
                    p.object_cost_from_replicas(k, &replicas, &mut wide),
                    "object {k}, replicas {replicas:?}"
                );
            }
        }
    }

    #[test]
    fn narrow_nearest_matches_wide() {
        let p = problem();
        let mirror = NarrowMirror::build(&p).unwrap();
        let mut s = ReplicationScheme::primary_only(&p);
        s.add_replica(&p, SiteId::new(2), ObjectId::new(0)).unwrap();
        let mut wide = vec![0u64; 3];
        let mut narrow = vec![0u32; 3];
        p.nearest_costs_into(s.replicator_indices(0), &mut wide);
        mirror.nearest_costs_into(s.replicator_indices(0), &mut narrow);
        let widened: Vec<u64> = narrow.iter().map(|&c| u64::from(c)).collect();
        assert_eq!(widened, wide);
        // Empty replica sets leave the sentinel in both widths.
        p.nearest_costs_into(&[], &mut wide);
        mirror.nearest_costs_into(&[], &mut narrow);
        assert!(wide.iter().all(|&c| c == u64::MAX));
        assert!(narrow.iter().all(|&c| c == u32::MAX));
    }

    #[test]
    fn too_wide_values_refuse_to_narrow() {
        let big = u64::from(u32::MAX) + 1;
        let costs = CostMatrix::from_rows(3, vec![0, big, big, big, 0, big, big, big, 0]).unwrap();
        let p = Problem::builder(costs)
            .capacities(vec![40, 40, 40])
            .object(1, SiteId::new(0))
            .reads(vec![0, 1, 1])
            .writes(vec![0, 0, 0])
            .build()
            .unwrap();
        assert!(NarrowMirror::build(&p).is_none());

        // Frequencies can also be the too-wide axis.
        let costs = CostMatrix::from_rows(2, vec![0, 1, 1, 0]).unwrap();
        let p = Problem::builder(costs)
            .capacities(vec![4, 4])
            .object(1, SiteId::new(0))
            .reads(vec![0, big])
            .writes(vec![0, 0])
            .build()
            .unwrap();
        assert!(NarrowMirror::build(&p).is_none());
    }
}
