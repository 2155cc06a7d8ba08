//! Cache-friendly kernels shared by the cost model, the incremental
//! evaluator and the solvers.
//!
//! Every Eq. 4 evaluation reduces to streaming over contiguous `M`-length
//! rows: a cost-matrix row per replicator and the per-object `r_k(·)` /
//! `w_k(·)` rows of [`Problem::object_reads`] /
//! [`Problem::object_writes`]. Keeping the inner loops here — branchless,
//! slice-to-slice, bounds-checks hoisted by `zip` — gives the compiler
//! straight-line code it can unroll and vectorise, and gives the humans
//! one place to reason about it. The scans are generic over the row
//! [`Lane`] width: `u64` rows of the [`Problem`] itself, or the `u32`
//! rows of a [`NarrowMirror`](crate::NarrowMirror).
//!
//! # Instruction sets
//!
//! The workspace builds for baseline x86-64, which stops at SSE2. SSE2
//! has no unsigned 32- or 64-bit `min`, so at that level the min-scan is
//! a compare-and-select over sign-flipped lanes, and the widening
//! products of the traffic scan get no wider than two lanes. The whole
//! per-object Eq. 4 pass over `u32` rows — nearest fill, one min-scan per
//! replica row, the traffic scan — is therefore compiled twice from the
//! one `#[inline(always)]` body [`object_sums`]: once inside a
//! `#[target_feature(enable = "avx2")]` function, where the min-scan
//! becomes `vpminud` over eight lanes and the products `vpmuludq` over
//! four, and once for the baseline. [`object_sums_u32`] picks the AVX2
//! build per object when the CPU reports the feature ([`isa`] names the
//! build in use). Every operation is an integer `min`, multiply or add,
//! so both builds return the same integer; only the speed differs. The
//! `u64` path of [`Problem`] keeps the baseline build: the GA scores
//! every instance whose values fit 32 bits on the `u32` rows.
//!
//! [`Problem`]: crate::Problem
//! [`Problem::object_reads`]: crate::Problem::object_reads
//! [`Problem::object_writes`]: crate::Problem::object_writes

/// An unsigned row element the cost kernels stream over: `u64` for the
/// rows of a [`Problem`](crate::Problem), `u32` for the narrowed rows of
/// a [`NarrowMirror`](crate::NarrowMirror). Products widen to `u64`
/// before accumulation, so both widths give bitwise-identical sums on
/// values that fit either.
pub trait Lane: Copy + Ord + Into<u64> {
    /// The "no replica yet" sentinel of the nearest-cost fill.
    const MAX: Self;
}

impl Lane for u32 {
    const MAX: Self = u32::MAX;
}

impl Lane for u64 {
    const MAX: Self = u64::MAX;
}

/// Folds one cost-matrix row into the running nearest-replicator
/// distances: `nearest[i] = min(nearest[i], row[i])` for every site.
///
/// This is the nearest-replicator min-scan: calling it once per
/// replicator row leaves `nearest[i] = min_{j ∈ R_k} C(i, j)`, the
/// `C(i, SN_k(i))` term of Eq. 4. The select is branchless, so the scan
/// costs one pass of sequential memory traffic per replicator with no
/// mispredictions.
///
/// Only the first `min(nearest.len(), row.len())` entries are touched;
/// callers in this workspace always pass equal-length `M` slices.
#[inline(always)]
pub fn min_scan<T: Lane>(nearest: &mut [T], row: &[T]) {
    for (slot, &cost) in nearest.iter_mut().zip(row) {
        *slot = (*slot).min(cost);
    }
}

/// The read-plus-write traffic of one object over all sites, given the
/// per-site nearest-replicator distances: `Σ_i r[i]·nearest[i] +
/// w[i]·sp_row[i]`, i.e. the non-broadcast half of Eq. 4 *before* scaling
/// by the object size. Replicator sites must have `nearest[i] == 0`
/// (their own distance), which also zeroes their read term; their write
/// term is the ordinary "send the update to the primary" cost, which
/// Eq. 4 only charges to non-replicators — callers subtract or skip those
/// sites themselves when required.
///
/// Each product is computed in `u64` (for `u32` lanes, `r·near` cannot
/// overflow: `(2³²−1)² < 2⁶⁴`) into a `u64` accumulator, so `u32` rows
/// that are exact copies of `u64` rows give the same sum.
#[inline(always)]
pub fn traffic_scan<T: Lane>(reads: &[T], writes: &[T], nearest: &[T], sp_row: &[T]) -> u64 {
    let mut total = 0u64;
    for (((&r, &w), &near), &sp) in reads.iter().zip(writes).zip(nearest).zip(sp_row) {
        total += r.into() * near.into() + w.into() * sp.into();
    }
    total
}

/// Fills `nearest[i] = min { costs(i, j) : j ∈ replicas }` over the
/// row-major square matrix `costs` (one [`min_scan`] per replica row); an
/// empty list leaves every slot at [`Lane::MAX`].
///
/// # Panics
///
/// Panics if `costs.len() != nearest.len()²` or a replica index is out of
/// range.
#[inline(always)]
pub fn nearest_fill<T: Lane>(costs: &[T], replicas: &[usize], nearest: &mut [T]) {
    let m = nearest.len();
    assert_eq!(costs.len(), m * m, "cost matrix is not M × M");
    nearest.fill(T::MAX);
    for &j in replicas {
        min_scan(nearest, &costs[j * m..(j + 1) * m]);
    }
}

/// The rows one object's Eq. 4 cost streams over.
#[derive(Debug, Clone, Copy)]
pub struct ObjectRows<'a, T> {
    /// The row-major `M × M` cost matrix `C`.
    pub costs: &'a [T],
    /// The object's per-site reads `r_k(·)`.
    pub reads: &'a [T],
    /// The object's per-site writes `w_k(·)`.
    pub writes: &'a [T],
    /// The object's primary site `SP_k`.
    pub primary: usize,
}

/// The two unscaled sums one object's Eq. 4 cost is made of:
/// `V_k = W_k·o_k·broadcast + o_k·traffic`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObjectSums {
    /// `Σ_{j ∈ R_k} C(j, SP_k)`: the distance every update travels to
    /// reach the replicators.
    pub broadcast: u64,
    /// `Σ_i r_k(i)·C(i, SN_k(i))` plus the writes `w_k(i)·C(i, SP_k)` of
    /// the non-replicators.
    pub traffic: u64,
}

/// The per-object Eq. 4 sums for the sorted replica set `replicas` (which
/// must contain the primary), with `nearest` as scratch: the nearest
/// fill, then the broadcast and traffic sums.
///
/// This is the one source of every build of the per-object pass: it is
/// `#[inline(always)]`, so it compiles for whatever target its caller
/// is compiled for — the baseline in
/// [`Problem::object_cost_from_replicas`], the baseline or AVX2 in
/// [`object_sums_u32`].
///
/// [`Problem::object_cost_from_replicas`]: crate::Problem::object_cost_from_replicas
///
/// # Panics
///
/// Panics if the rows are not `M` long (`M²` for `costs`, with
/// `M = nearest.len()`) or an index is out of range.
#[inline(always)]
pub fn object_sums<T: Lane>(
    rows: &ObjectRows<'_, T>,
    replicas: &[usize],
    nearest: &mut [T],
) -> ObjectSums {
    debug_assert!(replicas.windows(2).all(|w| w[0] < w[1]));
    let m = nearest.len();
    nearest_fill(rows.costs, replicas, nearest);
    let sp_row = &rows.costs[rows.primary * m..(rows.primary + 1) * m];

    // Update broadcast: every replicator receives every write. Replicators
    // also don't ship their own writes to the primary, so collect their
    // w·C(j, SP) terms to subtract from the full scan.
    let mut broadcast = 0u64;
    let mut replica_writes = 0u64;
    for &j in replicas {
        let to_primary: u64 = sp_row[j].into();
        broadcast += to_primary;
        replica_writes += rows.writes[j].into() * to_primary;
    }

    // Reads from the nearest replica plus writes to SP, streamed
    // branchlessly over every site: replicators contribute zero read
    // traffic (their nearest distance is 0) and their write terms were
    // collected above, so no per-site membership test is needed.
    let traffic = traffic_scan(rows.reads, rows.writes, nearest, sp_row);
    ObjectSums {
        broadcast,
        traffic: traffic - replica_writes,
    }
}

/// [`object_sums`] over `u32` rows, run on the AVX2 build when the CPU
/// has AVX2 and on the baseline build otherwise (see the module docs).
/// Both return the same sums.
///
/// # Panics
///
/// As [`object_sums`].
pub fn object_sums_u32(
    rows: &ObjectRows<'_, u32>,
    replicas: &[usize],
    nearest: &mut [u32],
) -> ObjectSums {
    #[cfg(target_arch = "x86_64")]
    if std::is_x86_feature_detected!("avx2") {
        // SAFETY: `object_sums_u32_avx2` needs nothing beyond AVX2
        // support, which the CPU has just reported.
        return unsafe { object_sums_u32_avx2(rows, replicas, nearest) };
    }
    object_sums(rows, replicas, nearest)
}

/// The instruction set [`object_sums_u32`] runs on this CPU: `"avx2"` or
/// `"baseline"`.
pub fn isa() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    if std::is_x86_feature_detected!("avx2") {
        return "avx2";
    }
    "baseline"
}

/// [`object_sums`] compiled with AVX2 enabled: the body and the scans it
/// calls inline here, so their loops are vectorised at AVX2 width.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn object_sums_u32_avx2(
    rows: &ObjectRows<'_, u32>,
    replicas: &[usize],
    nearest: &mut [u32],
) -> ObjectSums {
    object_sums(rows, replicas, nearest)
}

/// Total set bits across a packed `u64` word slice.
///
/// One `popcnt` per word; this is the whole-scheme replica count over
/// [`ReplicationScheme`](crate::ReplicationScheme)'s bit matrix.
#[inline]
pub fn popcount(words: &[u64]) -> usize {
    words.iter().map(|w| w.count_ones() as usize).sum()
}

/// Set bits within the half-open bit range `[start, end)` of a packed
/// little-endian `u64` word slice.
///
/// Interior words cost one `popcnt` each; the two boundary words are
/// masked first. This makes per-site replica-degree scans over a
/// contiguous bit row `O(range/64)` instead of one probe per bit.
///
/// # Panics
///
/// Panics if `end < start` or `end > words.len() * 64`.
#[inline]
pub fn popcount_range(words: &[u64], start: usize, end: usize) -> usize {
    assert!(start <= end && end <= words.len() * 64, "bad bit range");
    if start == end {
        return 0;
    }
    let first = start / 64;
    let last = (end - 1) / 64;
    // Mask of bits >= the in-word offset of `start`.
    let head = u64::MAX << (start % 64);
    // Mask of bits < the in-word offset of `end` (inclusive last bit).
    let tail = u64::MAX >> (63 - (end - 1) % 64);
    if first == last {
        return (words[first] & head & tail).count_ones() as usize;
    }
    let mut total = (words[first] & head).count_ones() as usize;
    for &w in &words[first + 1..last] {
        total += w.count_ones() as usize;
    }
    total + (words[last] & tail).count_ones() as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn min_scan_keeps_the_pointwise_minimum() {
        let mut nearest = vec![u64::MAX, 5, 0, 7];
        min_scan(&mut nearest, &[3, 9, 2, 7]);
        assert_eq!(nearest, vec![3, 5, 0, 7]);
        min_scan(&mut nearest, &[4, 1, 1, 1]);
        assert_eq!(nearest, vec![3, 1, 0, 1]);
    }

    #[test]
    fn traffic_scan_matches_the_naive_sum() {
        let reads = [2u64, 0, 5];
        let writes = [1, 3, 0];
        let nearest = [0, 4, 2];
        let sp = [0, 7, 9];
        let naive: u64 = (0..3)
            .map(|i| reads[i] * nearest[i] + writes[i] * sp[i])
            .sum();
        assert_eq!(traffic_scan(&reads, &writes, &nearest, &sp), naive);
    }

    /// Runs both widths over the same values and demands bit-identical
    /// results: the narrow kernels must be a pure representation change.
    fn assert_widths_agree(reads: &[u32], writes: &[u32], nearest: &[u32], sp: &[u32]) {
        let wide = |v: &[u32]| v.iter().map(|&x| u64::from(x)).collect::<Vec<u64>>();
        let (r64, w64, n64, s64) = (wide(reads), wide(writes), wide(nearest), wide(sp));
        assert_eq!(
            traffic_scan(reads, writes, nearest, sp),
            traffic_scan(&r64, &w64, &n64, &s64),
        );
        let mut narrow = nearest.to_vec();
        let mut wide_nearest = n64.clone();
        min_scan(&mut narrow, sp);
        min_scan(&mut wide_nearest, &s64);
        assert_eq!(wide(&narrow), wide_nearest);
    }

    #[test]
    fn u32_kernels_match_u64_on_boundary_values() {
        // Saturated u32 volumes: one product is (2^32-1)^2, just under
        // u64::MAX — the widening multiply must not wrap. (Only one
        // product may saturate: the u64 accumulator itself is covered by
        // the Problem build-time overflow guard, not by the kernels.)
        assert_widths_agree(
            &[u32::MAX, 0, 1],
            &[0, 3, 1],
            &[u32::MAX, 3, 0],
            &[5, 7, u32::MAX],
        );
        assert_eq!(
            traffic_scan(&[u32::MAX], &[0], &[u32::MAX], &[0]),
            (u64::from(u32::MAX)) * (u64::from(u32::MAX)),
        );
    }

    #[test]
    fn u32_kernels_match_u64_on_zero_read_rows() {
        // All-zero read row: traffic collapses to the write half.
        assert_widths_agree(
            &[0, 0, 0, 0],
            &[7, 0, 2, u32::MAX],
            &[9, 9, 9, 9],
            &[1, 0, 3, 1],
        );
        assert_eq!(traffic_scan(&[0u32; 4], &[0; 4], &[1; 4], &[1; 4]), 0);
    }

    #[test]
    fn popcount_sums_word_populations() {
        assert_eq!(popcount(&[]), 0);
        assert_eq!(popcount(&[0, u64::MAX, 1 << 63]), 65);
    }

    #[test]
    fn popcount_range_matches_per_bit_probes() {
        let words = [0xdead_beef_0123_4567u64, 0xffff_0000_aaaa_5555, 0x1];
        let total_bits = words.len() * 64;
        let probe = |start: usize, end: usize| {
            (start..end)
                .filter(|&i| words[i / 64] & (1u64 << (i % 64)) != 0)
                .count()
        };
        for start in [0, 1, 63, 64, 65, 100, 127, 128, 150, total_bits] {
            for end in [start, start + 1, 64, 128, 129, total_bits] {
                if end < start || end > total_bits {
                    continue;
                }
                assert_eq!(
                    popcount_range(&words, start, end),
                    probe(start, end),
                    "range [{start}, {end})"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "bad bit range")]
    fn popcount_range_rejects_out_of_bounds() {
        popcount_range(&[0], 0, 65);
    }

    /// One object's rows over `m` sites for the build-equivalence
    /// property, with a sorted random replica set holding the primary.
    /// Costs are arbitrary `u32`s, a quarter of them `u32::MAX`. `mode`
    /// picks the frequency rows: 0 — reads and writes below 2¹², so the
    /// 67-site traffic sum stays far below `u64::MAX`; 1 — all-zero
    /// reads; 2 — one saturated read lane and no writes, whose product
    /// may reach `(2³²−1)²`.
    struct RandomObject {
        costs: Vec<u32>,
        reads: Vec<u32>,
        writes: Vec<u32>,
        primary: usize,
        replicas: Vec<usize>,
    }

    impl RandomObject {
        fn draw(m: usize, mode: u8, seed: u64) -> Self {
            let mut rng = StdRng::seed_from_u64(seed);
            let costs = (0..m * m)
                .map(|_| {
                    if rng.random_range(0..4) == 0 {
                        u32::MAX
                    } else {
                        rng.random_range(0..=u32::MAX)
                    }
                })
                .collect();
            let small = |rng: &mut StdRng| (0..m).map(|_| rng.random_range(0..4096)).collect();
            let (reads, writes) = match mode {
                0 => (small(&mut rng), small(&mut rng)),
                1 => (vec![0; m], small(&mut rng)),
                _ => {
                    let mut reads = vec![0; m];
                    reads[rng.random_range(0..m)] = u32::MAX;
                    (reads, vec![0; m])
                }
            };
            let primary = rng.random_range(0..m);
            let replicas = (0..m)
                .filter(|&i| i == primary || rng.random_range(0..3) == 0)
                .collect();
            Self {
                costs,
                reads,
                writes,
                primary,
                replicas,
            }
        }

        fn rows(&self) -> ObjectRows<'_, u32> {
            ObjectRows {
                costs: &self.costs,
                reads: &self.reads,
                writes: &self.writes,
                primary: self.primary,
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Both builds of the per-object kernel — and both lane widths —
        /// return the same sums, bit for bit, at every row length up to
        /// two AVX2 registers of `u32` past a multiple of 64, so every
        /// vector tail is covered.
        #[test]
        fn avx2_and_baseline_builds_agree(m in 1usize..=67, mode in 0u8..3, seed in 0u64..=u64::MAX) {
            let object = RandomObject::draw(m, mode, seed);
            let rows = object.rows();
            let wide = |v: &[u32]| v.iter().map(|&x| u64::from(x)).collect::<Vec<u64>>();
            let (costs, reads, writes) = (wide(&object.costs), wide(&object.reads), wide(&object.writes));
            let wide_rows = ObjectRows { costs: &costs, reads: &reads, writes: &writes, primary: object.primary };

            let mut nearest = vec![0u32; m];
            let baseline = object_sums(&rows, &object.replicas, &mut nearest);
            let baseline_nearest = nearest.clone();
            let mut wide_nearest = vec![0u64; m];
            prop_assert_eq!(object_sums(&wide_rows, &object.replicas, &mut wide_nearest), baseline);
            prop_assert_eq!(wide(&baseline_nearest), wide_nearest.clone());

            #[cfg(target_arch = "x86_64")]
            if std::is_x86_feature_detected!("avx2") {
                // SAFETY: the CPU has just reported AVX2.
                let avx2 = unsafe { object_sums_u32_avx2(&rows, &object.replicas, &mut nearest) };
                prop_assert_eq!(avx2, baseline);
                prop_assert_eq!(&nearest, &baseline_nearest);
            }

            // And the sums are the Eq. 4 terms, recomputed naively.
            let sp = object.primary;
            let broadcast: u64 = object.replicas.iter().map(|&j| costs[sp * m + j]).sum();
            let traffic: u64 = (0..m)
                .map(|i| {
                    let near = object.replicas.iter().map(|&j| costs[j * m + i]).min().unwrap();
                    let write = if object.replicas.contains(&i) { 0 } else { writes[i] * costs[sp * m + i] };
                    reads[i] * near + write
                })
                .sum();
            prop_assert_eq!(baseline, ObjectSums { broadcast, traffic });
        }
    }
}
