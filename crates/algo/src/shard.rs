//! Sharded hierarchical solving — the driver that breaks the `M = 1000`
//! ceiling.
//!
//! The flat pipeline (all-pairs cost matrix → GRA over `M·N`-bit
//! chromosomes) is quadratic in the site count twice over; past a thousand
//! sites it stops being a tool. This module decomposes the network
//! instead:
//!
//! 1. **Partition** the sites into `K` connected clusters by seeded
//!    farthest-point sampling plus a multi-source shortest-path-tree
//!    ownership sweep ([`drp_net::shortest::multi_source_owner`]).
//! 2. **Shard**: each cluster becomes a small, dense sub-[`Problem`].
//!    Every neighboring cluster is folded into one *virtual border site*
//!    attached by the cheapest cross-edges; aggregated remote read/write
//!    traffic lands on those borders, and objects whose primary lives
//!    elsewhere get the border toward their owner as a stand-in primary —
//!    so each shard sees the *global* update-broadcast pressure and the
//!    demand it could capture, at local size.
//! 3. **Solve** each shard with a compact [`Gra`] run seeded independently
//!    per shard — tree-metric shards included: on flat binary-tree solves
//!    GRA saves 10–63% of NTC where Wolfson's ADR tree heuristic saves
//!    6–15% (`results/trees_adr_vs_sra_vs_gra.csv`), so no tree special
//!    case is kept.
//! 4. **Reconcile**: member placements map straight onto global sites
//!    (shard capacities are the real ones, so they compose); an owner
//!    shard's border replicas — "this object wants a copy toward cluster
//!    `d`" — are granted at the portal site behind the border,
//!    capacity-permitting, in deterministic order.
//! 5. **Refine**: a few drop/add local-search passes over the
//!    [`SparseEvaluator`] — the flip engine over k-nearest candidate rows —
//!    polish the cross-shard seams in `O(k)` per flip.
//!
//! The result is scored *exactly* (Dijkstra-based
//! [`SparseProblem::total_cost`]) — the approximations live in the search,
//! never in the reported NTC.

use drp_core::{
    CoreError, DenseMatrix, ObjectId, Problem, ReplicationAlgorithm, SiteId, SparseEvaluator,
    SparseProblem,
};
use drp_net::shortest;
use drp_net::{CostMatrix, Graph, SparseCostRows};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::{Gra, GraConfig};

/// FNV-1a over a word sequence — the same seed-mixing scheme the serve
/// runtime and experiment harness use to derive independent rng streams.
fn mix(words: &[u64]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &word in words {
        for byte in word.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

/// Stream tags for `mix([seed, TAG, ...])`.
const TAG_SEEDS: u64 = 11;
const TAG_SHARD: u64 = 12;

/// Configuration of the sharded solver.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardConfig {
    /// Requested cluster count `K` (clamped to `[1, M]`).
    pub shards: usize,
    /// Candidate-list width for the refine passes' [`SparseCostRows`].
    /// The truncated evaluator undervalues replicas whose readers sit
    /// beyond the `knn`-nearest ring, so wider is safer: the refined
    /// placement is only kept when its *exact* NTC does not regress.
    pub knn: usize,
    /// Per-shard GRA configuration (shards are small, so the defaults here
    /// are leaner than [`GraConfig::default`]).
    pub gra: GraConfig,
    /// Drop/add local-search passes over the stitched global placement.
    pub refine_passes: usize,
}

impl Default for ShardConfig {
    fn default() -> Self {
        Self {
            shards: 8,
            knn: 128,
            gra: GraConfig {
                population_size: 16,
                generations: 24,
                ..GraConfig::default()
            },
            refine_passes: 3,
        }
    }
}

/// Diagnostics of one sharded solve.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardReport {
    /// Clusters actually used (`K` after clamping).
    pub clusters: usize,
    /// Member sites per cluster.
    pub shard_sites: Vec<usize>,
    /// Border replicas the owner shards asked for.
    pub border_requested: usize,
    /// Of those, granted at a portal site.
    pub border_placed: usize,
    /// Of those, dropped (already present, or portal out of capacity).
    pub border_dropped: usize,
    /// Flips applied by the refine passes.
    pub refine_moves: usize,
}

/// Result of a sharded solve: a feasible global placement with its exact
/// NTC.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardOutcome {
    /// Sorted global replica lists, one per object, each containing the
    /// object's primary.
    pub placement: Vec<Vec<usize>>,
    /// Exact Eq. 4 NTC of `placement` over the graph metric.
    pub ntc: u64,
    /// Primary-only baseline NTC.
    pub d_prime: u64,
    /// Decomposition diagnostics.
    pub report: ShardReport,
}

impl ShardOutcome {
    /// Percentage of NTC saved relative to the primary-only allocation.
    pub fn savings_percent(&self) -> f64 {
        if self.d_prime == 0 {
            return 0.0;
        }
        100.0 * (self.d_prime as f64 - self.ntc as f64) / self.d_prime as f64
    }

    /// FNV-1a fingerprint of the placement — equal fingerprints mean
    /// bitwise-equal placements, the determinism handle the smoke tests
    /// compare across thread counts and feature sets.
    pub fn fingerprint(&self) -> u64 {
        let mut words = Vec::new();
        for (k, replicas) in self.placement.iter().enumerate() {
            words.push(k as u64);
            words.extend(replicas.iter().map(|&j| j as u64));
        }
        mix(&words)
    }
}

/// Internal: one cluster's mapping between global and shard-local ids.
struct Shard {
    /// Global ids of member sites, ascending; local id = position.
    members: Vec<usize>,
    /// Neighbor cluster ids, ascending; border local id = `members.len() +
    /// position`.
    neighbors: Vec<usize>,
    /// Portal (global) site in each neighbor cluster: the far endpoint of
    /// the cheapest cross-edge.
    portals: Vec<usize>,
}

/// The sharded hierarchical solver over [`SparseProblem`] instances.
///
/// # Examples
///
/// ```
/// use drp_algo::shard::{ShardConfig, ShardedSolver};
/// use drp_workload::{TopologyKind, WorkloadSpec};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut spec = WorkloadSpec::paper(40, 12, 5.0, 30.0);
/// spec.topology = TopologyKind::Hierarchical { clusters: 4, wan_factor: 10 };
/// let sp = spec.generate_sparse(&mut StdRng::seed_from_u64(7))?;
/// let outcome = ShardedSolver::new(4).solve(&sp, 7)?;
/// assert!(outcome.ntc <= outcome.d_prime);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct ShardedSolver {
    config: ShardConfig,
}

impl ShardedSolver {
    /// Solver with `shards` clusters and default tuning.
    pub fn new(shards: usize) -> Self {
        Self::with_config(ShardConfig {
            shards,
            ..ShardConfig::default()
        })
    }

    /// Solver with explicit configuration.
    pub fn with_config(config: ShardConfig) -> Self {
        Self { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &ShardConfig {
        &self.config
    }

    /// Runs the full partition → shard-solve → reconcile → refine
    /// pipeline. Deterministic per `(instance, config, seed)`.
    ///
    /// # Errors
    ///
    /// Propagates sub-problem construction and solver failures.
    pub fn solve(&self, sp: &SparseProblem, seed: u64) -> drp_core::Result<ShardOutcome> {
        let m = sp.num_sites();
        let n = sp.num_objects();
        let k_clusters = self.config.shards.clamp(1, m);

        // 1. Partition: farthest-point seeds, then connected ownership
        // cells along the multi-source shortest-path tree.
        let seeds = farthest_point_seeds(sp.graph(), k_clusters, mix(&[seed, TAG_SEEDS]));
        let (_, owner) =
            shortest::multi_source_owner(sp.graph(), &seeds).map_err(CoreError::Net)?;

        let shards = build_shards(sp.graph(), &owner, k_clusters);
        let owner_cluster: Vec<usize> = (0..n)
            .map(|k| owner[sp.primary(ObjectId::new(k)).index()])
            .collect();

        // Per-cluster aggregate demand per object, for border folding.
        let mut agg_reads = DenseMatrix::zeros(k_clusters, n);
        let mut agg_writes = DenseMatrix::zeros(k_clusters, n);
        for (i, &c) in owner.iter().enumerate() {
            for k in 0..n {
                *agg_reads.get_mut(c, k) += sp.object_reads(ObjectId::new(k))[i];
                *agg_writes.get_mut(c, k) += sp.object_writes(ObjectId::new(k))[i];
            }
        }

        // Seed-rooted distance rows route non-neighbor clusters to a
        // deterministic portal.
        let seed_dists: Vec<Vec<u64>> = seeds
            .iter()
            .map(|&s| shortest::dijkstra_flat(sp.graph(), s).map_err(CoreError::Net))
            .collect::<drp_core::Result<_>>()?;

        // 2 + 3. Build and solve each shard.
        let mut placement: Vec<Vec<usize>> = (0..n)
            .map(|k| vec![sp.primary(ObjectId::new(k)).index()])
            .collect();
        let mut used = vec![0u64; m];
        for (k, p) in placement.iter().enumerate() {
            used[p[0]] += sp.object_size(ObjectId::new(k));
        }
        let mut border_requests: Vec<(usize, usize)> = Vec::new(); // (object, portal site)
        let gra = Gra::with_config(self.config.gra.clone());
        for (c, shard) in shards.iter().enumerate() {
            let problem = build_shard_problem(
                sp,
                shard,
                c,
                &owner,
                &owner_cluster,
                &agg_reads,
                &agg_writes,
                &seed_dists,
            )?;
            let mut rng = StdRng::seed_from_u64(mix(&[seed, TAG_SHARD, c as u64]));
            let scheme = gra.solve(&problem, &mut rng)?;

            // 4a. Member placements map straight to global sites.
            let mc = shard.members.len();
            for k in 0..n {
                for (local, &global) in shard.members.iter().enumerate() {
                    if !scheme.holds(SiteId::new(local), ObjectId::new(k))
                        || placement[k].binary_search(&global).is_ok()
                    {
                        continue;
                    }
                    let pos = placement[k].binary_search(&global).unwrap_err();
                    placement[k].insert(pos, global);
                    used[global] += sp.object_size(ObjectId::new(k));
                }
                // 4b. Border replicas: only the owner shard speaks for an
                // object's cross-cluster copies, and a stand-in primary is
                // not a request.
                if owner_cluster[k] != c {
                    continue;
                }
                for (b, &portal) in shard.portals.iter().enumerate() {
                    if scheme.holds(SiteId::new(mc + b), ObjectId::new(k)) {
                        border_requests.push((k, portal));
                    }
                }
            }
        }

        // 4c. Grant border requests in deterministic (object, portal)
        // order, re-checking global capacity.
        border_requests.sort_unstable();
        let mut border_placed = 0usize;
        let mut border_dropped = 0usize;
        for &(k, portal) in &border_requests {
            let size = sp.object_size(ObjectId::new(k));
            if placement[k].binary_search(&portal).is_ok() {
                border_dropped += 1;
                continue;
            }
            if used[portal] + size > sp.capacity(SiteId::new(portal)) {
                border_dropped += 1;
                continue;
            }
            let pos = placement[k].binary_search(&portal).unwrap_err();
            placement[k].insert(pos, portal);
            used[portal] += size;
            border_placed += 1;
        }

        // 5. Refine the seams with k-nearest local search. The evaluator
        // scores a truncated upper bound, so a pass can chase the bound
        // while the exact NTC drifts up (a replica whose readers are all
        // outside the knn ring looks worthless). Guard with the exact
        // metric: keep the refined placement only if it scores no worse.
        let stitched_ntc = sp.total_cost(&placement)?;
        let rows =
            SparseCostRows::from_graph(sp.graph(), self.config.knn).map_err(CoreError::Net)?;
        let mut eval = SparseEvaluator::new(sp, &rows, &placement)?;
        let mut refine_moves = 0usize;
        for _ in 0..self.config.refine_passes {
            refine_moves += refine_pass(&mut eval, &rows);
        }
        let (placement, ntc) = if refine_moves > 0 {
            let refined = eval.placement().to_vec();
            let refined_ntc = sp.total_cost(&refined)?;
            if refined_ntc <= stitched_ntc {
                (refined, refined_ntc)
            } else {
                refine_moves = 0;
                (placement, stitched_ntc)
            }
        } else {
            (placement, stitched_ntc)
        };
        Ok(ShardOutcome {
            placement,
            ntc,
            d_prime: sp.d_prime(),
            report: ShardReport {
                clusters: k_clusters,
                shard_sites: shards.iter().map(|s| s.members.len()).collect(),
                border_requested: border_requests.len(),
                border_placed,
                border_dropped,
                refine_moves,
            },
        })
    }
}

/// K-center style seed selection: a mixed-seed first pick, then repeatedly
/// the site farthest from all chosen seeds (ties to the lowest id).
fn farthest_point_seeds(graph: &Graph, k: usize, entropy: u64) -> Vec<usize> {
    let m = graph.num_sites();
    let mut seeds = Vec::with_capacity(k);
    let first = (entropy % m as u64) as usize;
    seeds.push(first);
    let mut min_dist =
        shortest::dijkstra_flat(graph, first).expect("first seed is in range on a nonempty graph");
    while seeds.len() < k {
        let next = min_dist
            .iter()
            .enumerate()
            .max_by(|(i, a), (j, b)| a.cmp(b).then(j.cmp(i)))
            .map(|(i, _)| i)
            .expect("graph has sites");
        seeds.push(next);
        let dist = shortest::dijkstra_flat(graph, next).expect("seed is in range");
        for (slot, d) in min_dist.iter_mut().zip(dist) {
            *slot = (*slot).min(d);
        }
    }
    seeds.sort_unstable();
    seeds
}

/// Groups sites by owner and finds, per cluster, its neighbor clusters and
/// cheapest portal into each.
fn build_shards(graph: &Graph, owner: &[usize], k_clusters: usize) -> Vec<Shard> {
    let mut members: Vec<Vec<usize>> = vec![Vec::new(); k_clusters];
    for (i, &c) in owner.iter().enumerate() {
        members[c].push(i);
    }
    // Cheapest cross-edge per ordered cluster pair: (cost, far site) with
    // lexicographic ties.
    let mut portal: Vec<Vec<Option<(u64, usize)>>> = vec![vec![None; k_clusters]; k_clusters];
    for e in graph.edges() {
        let (ca, cb) = (owner[e.a], owner[e.b]);
        if ca == cb {
            continue;
        }
        for (c, d, far) in [(ca, cb, e.b), (cb, ca, e.a)] {
            let cand = (e.cost, far);
            if portal[c][d].is_none_or(|best| cand < best) {
                portal[c][d] = Some(cand);
            }
        }
    }
    (0..k_clusters)
        .map(|c| {
            let neighbors: Vec<usize> = (0..k_clusters)
                .filter(|&d| portal[c][d].is_some())
                .collect();
            let portals = neighbors
                .iter()
                .map(|&d| portal[c][d].expect("neighbor has a portal").1)
                .collect();
            Shard {
                members: members[c].clone(),
                neighbors,
                portals,
            }
        })
        .collect()
}

/// Materializes one shard as a dense [`Problem`]: members plus one virtual
/// border site per neighbor cluster, cheapest cross-edges as border links,
/// remote demand aggregated onto the border toward its cluster, and remote
/// primaries stood in by the border toward their owner.
#[allow(clippy::too_many_arguments)]
fn build_shard_problem(
    sp: &SparseProblem,
    shard: &Shard,
    c: usize,
    owner: &[usize],
    owner_cluster: &[usize],
    agg_reads: &DenseMatrix<u64>,
    agg_writes: &DenseMatrix<u64>,
    seed_dists: &[Vec<u64>],
) -> drp_core::Result<Problem> {
    let n = sp.num_objects();
    let mc = shard.members.len();
    let m_sub = mc + shard.neighbors.len();
    let mut local_of = vec![usize::MAX; sp.num_sites()];
    for (local, &global) in shard.members.iter().enumerate() {
        local_of[global] = local;
    }

    let mut graph = Graph::new(m_sub).map_err(CoreError::Net)?;
    // Intra-cluster edges survive as-is.
    for e in sp.graph().edges() {
        let (a, b) = (local_of[e.a], local_of[e.b]);
        if a != usize::MAX && b != usize::MAX {
            graph.add_edge(a, b, e.cost).map_err(CoreError::Net)?;
        }
    }
    // Border links: per neighbor, the cheapest edge from each boundary
    // member into that cluster.
    for (b, &d) in shard.neighbors.iter().enumerate() {
        let border = mc + b;
        let mut cheapest: Vec<Option<u64>> = vec![None; mc];
        for e in sp.graph().edges() {
            for (near, far) in [(e.a, e.b), (e.b, e.a)] {
                let local = local_of[near];
                if local == usize::MAX || local_of[far] != usize::MAX {
                    continue;
                }
                // `far` is outside the shard; route it to this border only
                // if it belongs to cluster `d`.
                if owner[far] == d {
                    let slot = &mut cheapest[local];
                    if slot.is_none_or(|w| e.cost < w) {
                        *slot = Some(e.cost);
                    }
                }
            }
        }
        for (local, w) in cheapest.iter().enumerate() {
            if let Some(w) = w {
                graph.add_edge(local, border, *w).map_err(CoreError::Net)?;
            }
        }
    }
    let costs = CostMatrix::from_graph(&graph).map_err(CoreError::Net)?;

    // Route every external cluster to one of this shard's borders: itself
    // if it is a neighbor, otherwise the neighbor whose portal its seed
    // reaches cheapest (ties to the lowest neighbor id).
    let k_clusters = seed_dists.len();
    let mut border_of_cluster = vec![usize::MAX; k_clusters];
    for e in 0..k_clusters {
        if e == c {
            continue;
        }
        if let Some(b) = shard.neighbors.iter().position(|&d| d == e) {
            border_of_cluster[e] = b;
            continue;
        }
        let mut best: Option<(u64, usize)> = None;
        for (b, &p) in shard.portals.iter().enumerate() {
            let cand = (seed_dists[e][p], b);
            if best.is_none_or(|cur| cand < cur) {
                best = Some(cand);
            }
        }
        // An isolated shard (no neighbors) can only arise with one
        // cluster, where this loop body is unreachable.
        border_of_cluster[e] = best.expect("multi-cluster shards have neighbors").1;
    }

    // Workload tables: member rows verbatim, remote demand folded onto
    // borders.
    let mut reads = DenseMatrix::zeros(m_sub, n);
    let mut writes = DenseMatrix::zeros(m_sub, n);
    for (local, &global) in shard.members.iter().enumerate() {
        for k in 0..n {
            reads.set(local, k, sp.object_reads(ObjectId::new(k))[global]);
            writes.set(local, k, sp.object_writes(ObjectId::new(k))[global]);
        }
    }
    for (e, &border_slot) in border_of_cluster.iter().enumerate() {
        if e == c {
            continue;
        }
        let border = mc + border_slot;
        for k in 0..n {
            *reads.get_mut(border, k) += *agg_reads.get(e, k);
            *writes.get_mut(border, k) += *agg_writes.get(e, k);
        }
    }

    // Primaries: local where owned, the stand-in border otherwise.
    let primaries: Vec<SiteId> = (0..n)
        .map(|k| {
            if owner_cluster[k] == c {
                SiteId::new(local_of[sp.primary(ObjectId::new(k)).index()])
            } else {
                SiteId::new(mc + border_of_cluster[owner_cluster[k]])
            }
        })
        .collect();
    let sizes: Vec<u64> = (0..n).map(|k| sp.object_size(ObjectId::new(k))).collect();

    // Capacities: real for members. Borders aggregate a whole cluster (and
    // stand in for remote primaries), so they get room for everything;
    // border replicas are re-checked against the true portal capacity at
    // reconcile time.
    let total_size: u64 = sizes.iter().sum();
    let mut capacities: Vec<u64> = shard
        .members
        .iter()
        .map(|&g| sp.capacity(SiteId::new(g)))
        .collect();
    capacities.extend(std::iter::repeat_n(total_size, shard.neighbors.len()));

    let mut builder = Problem::builder(costs);
    builder.objects_bulk(sizes, primaries);
    builder.capacities(capacities);
    builder.read_matrix(reads);
    builder.write_matrix(writes);
    builder.build()
}

/// One deterministic drop/add sweep. Removals first (cheap, few replicas),
/// then additions over the union of the current replicas' k-nearest
/// in-neighborhoods. Returns the number of applied flips.
fn refine_pass(eval: &mut SparseEvaluator<'_>, rows: &SparseCostRows) -> usize {
    let sp = eval.problem();
    let n = sp.num_objects();
    let mut moves = 0usize;
    for k in 0..n {
        let object = ObjectId::new(k);
        let primary = sp.primary(object).index();
        for j in eval.replicas(object).to_vec() {
            if j == primary {
                continue;
            }
            if eval.delta_remove(SiteId::new(j), object) < 0 {
                eval.apply_remove(SiteId::new(j), object)
                    .expect("replica membership just checked");
                moves += 1;
            }
        }
        let mut seen = vec![false; sp.num_sites()];
        let mut candidates = Vec::new();
        for &j in eval.replicas(object) {
            let (sites, _) = rows.reverse_row(j);
            for &x in sites {
                if !seen[x as usize] {
                    seen[x as usize] = true;
                    candidates.push(x as usize);
                }
            }
        }
        for x in candidates {
            if eval.holds(SiteId::new(x), object)
                || sp.object_size(object) > eval.free_capacity(SiteId::new(x))
            {
                continue;
            }
            if eval.delta_add(SiteId::new(x), object) < 0 {
                eval.apply_add(SiteId::new(x), object)
                    .expect("capacity and membership just checked");
                moves += 1;
            }
        }
    }
    moves
}
