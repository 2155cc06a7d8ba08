//! Shortest-path algorithms over [`Graph`].
//!
//! The paper assumes `C(i, j)` is the cumulative cost of the shortest path
//! between sites `i` and `j`, known a priori. [`CostMatrix::from_graph`]
//! computes that table with [`all_pairs`], which picks Dijkstra-from-every-
//! source for sparse graphs and Floyd–Warshall for dense ones.
//!
//! [`CostMatrix::from_graph`]: crate::CostMatrix::from_graph

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::pool::WorkerPool;
use crate::{Graph, NetError, Result};

/// Sentinel distance for unreachable pairs in the flat representation
/// returned by [`all_pairs_flat`].
pub const UNREACHABLE: u64 = u64::MAX;

/// Single-source shortest path costs from `src` to every site (Dijkstra).
///
/// Unreachable sites are reported as `None`.
///
/// # Errors
///
/// Returns [`NetError::SiteOutOfRange`] if `src` is not a site of `graph`.
///
/// # Examples
///
/// ```
/// use drp_net::{Graph, shortest};
///
/// let mut g = Graph::new(3)?;
/// g.add_edge(0, 1, 4)?;
/// g.add_edge(1, 2, 2)?;
/// g.add_edge(0, 2, 9)?;
/// let d = shortest::dijkstra(&g, 0)?;
/// assert_eq!(d, vec![Some(0), Some(4), Some(6)]);
/// # Ok::<(), drp_net::NetError>(())
/// ```
pub fn dijkstra(graph: &Graph, src: usize) -> Result<Vec<Option<u64>>> {
    let m = graph.num_sites();
    if src >= m {
        return Err(NetError::SiteOutOfRange {
            site: src,
            num_sites: m,
        });
    }
    let mut dist = vec![UNREACHABLE; m];
    let mut heap = BinaryHeap::new();
    dijkstra_into(graph, src, &mut dist, &mut heap);
    Ok(dist
        .into_iter()
        .map(|d| (d != UNREACHABLE).then_some(d))
        .collect())
}

/// Single-source Dijkstra writing into a caller-owned row, with a reusable
/// heap. Unreachable sites are left at [`UNREACHABLE`]; `dist` is
/// overwritten, not accumulated. The flat-row form is what
/// [`all_pairs_flat`] fans over the worker pool — each source writes its
/// own disjoint row of the output matrix.
///
/// `src` must be a valid site index and `dist.len()` must equal the number
/// of sites (callers in this module guarantee both).
fn dijkstra_into(
    graph: &Graph,
    src: usize,
    dist: &mut [u64],
    heap: &mut BinaryHeap<Reverse<(u64, usize)>>,
) {
    dist.fill(UNREACHABLE);
    heap.clear();
    dist[src] = 0;
    heap.push(Reverse((0, src)));
    while let Some(Reverse((d, u))) = heap.pop() {
        if dist[u] != d {
            continue; // stale entry
        }
        for (v, w) in graph.neighbors(u) {
            let nd = d + w;
            if nd < dist[v] {
                dist[v] = nd;
                heap.push(Reverse((nd, v)));
            }
        }
    }
}

/// Single-source shortest path costs in the flat representation: entry `j`
/// is the cheapest path cost from `src` to `j`, or [`UNREACHABLE`]. The
/// sparse-scale twin of [`dijkstra`] — callers that index by sentinel (the
/// sharded solver, the sparse evaluator) avoid the `Option` boxing.
///
/// # Errors
///
/// Returns [`NetError::SiteOutOfRange`] if `src` is not a site of `graph`.
pub fn dijkstra_flat(graph: &Graph, src: usize) -> Result<Vec<u64>> {
    let m = graph.num_sites();
    if src >= m {
        return Err(NetError::SiteOutOfRange {
            site: src,
            num_sites: m,
        });
    }
    let mut dist = vec![UNREACHABLE; m];
    let mut heap = BinaryHeap::new();
    dijkstra_into(graph, src, &mut dist, &mut heap);
    Ok(dist)
}

/// Multi-source Dijkstra with ownership: for every site, the distance to
/// the nearest source and the index *into `sources`* of the source whose
/// shortest-path tree reached it.
///
/// Ownership propagates along tree edges — a site's owner is the owner of
/// the neighbour that last improved its distance — so each owner's region
/// is connected in `graph` (it is a union of shortest-path-tree branches).
/// Ties are broken deterministically: an equal-distance relaxation never
/// displaces an established owner, and the heap orders equal distances by
/// `(owner rank, site)`. Unreachable sites report [`UNREACHABLE`] and an
/// owner of `usize::MAX`.
///
/// # Errors
///
/// Returns [`NetError::EmptyNetwork`] when `sources` is empty and
/// [`NetError::SiteOutOfRange`] when a source is not a site of `graph`.
pub fn multi_source_owner(graph: &Graph, sources: &[usize]) -> Result<(Vec<u64>, Vec<usize>)> {
    let m = graph.num_sites();
    if sources.is_empty() {
        return Err(NetError::EmptyNetwork);
    }
    let mut dist = vec![UNREACHABLE; m];
    let mut owner = vec![usize::MAX; m];
    let mut heap = BinaryHeap::new();
    for (rank, &src) in sources.iter().enumerate() {
        if src >= m {
            return Err(NetError::SiteOutOfRange {
                site: src,
                num_sites: m,
            });
        }
        // A duplicated source keeps its first rank (0 is not < 0).
        if dist[src] > 0 {
            dist[src] = 0;
            owner[src] = rank;
            heap.push(Reverse((0u64, rank, src)));
        }
    }
    while let Some(Reverse((d, r, u))) = heap.pop() {
        if dist[u] != d || owner[u] != r {
            continue; // stale entry
        }
        for (v, w) in graph.neighbors(u) {
            let nd = d + w;
            if nd < dist[v] {
                dist[v] = nd;
                owner[v] = r;
                heap.push(Reverse((nd, r, v)));
            }
        }
    }
    Ok((dist, owner))
}

/// Truncated Dijkstra: the `k` sites nearest to `src` — always including
/// `src` itself at distance 0 — in nondecreasing `(cost, site)` order.
/// Returns fewer than `k` entries when `src`'s component is smaller.
///
/// # Errors
///
/// Returns [`NetError::SiteOutOfRange`] if `src` is not a site of `graph`.
pub fn k_nearest(graph: &Graph, src: usize, k: usize) -> Result<Vec<(usize, u64)>> {
    let m = graph.num_sites();
    if src >= m {
        return Err(NetError::SiteOutOfRange {
            site: src,
            num_sites: m,
        });
    }
    let mut dist = vec![UNREACHABLE; m];
    let mut heap = BinaryHeap::new();
    let mut out = Vec::new();
    k_nearest_into(graph, src, k, &mut dist, &mut heap, &mut out);
    Ok(out)
}

/// [`k_nearest`] into caller-owned scratch: `dist` must be all-
/// [`UNREACHABLE`] on entry and is restored to that state on exit (only
/// touched entries are reset), so a caller running one search per site
/// pays O(settled) per search instead of O(M). `out` receives the settled
/// `(site, cost)` pairs in nondecreasing `(cost, site)` order.
pub(crate) fn k_nearest_into(
    graph: &Graph,
    src: usize,
    k: usize,
    dist: &mut [u64],
    heap: &mut BinaryHeap<Reverse<(u64, usize)>>,
    out: &mut Vec<(usize, u64)>,
) {
    out.clear();
    heap.clear();
    if k == 0 {
        return;
    }
    dist[src] = 0;
    let mut touched = vec![src];
    heap.push(Reverse((0, src)));
    while let Some(Reverse((d, u))) = heap.pop() {
        if dist[u] != d {
            continue; // stale entry
        }
        out.push((u, d));
        if out.len() == k {
            break;
        }
        for (v, w) in graph.neighbors(u) {
            let nd = d + w;
            if nd < dist[v] {
                if dist[v] == UNREACHABLE {
                    touched.push(v);
                }
                dist[v] = nd;
                heap.push(Reverse((nd, v)));
            }
        }
    }
    for t in touched {
        dist[t] = UNREACHABLE;
    }
}

/// Internal "infinity" of the narrow [`floyd_warshall_flat`] kernel:
/// large enough that no real path cost comes near it (the kernel is only
/// selected when every possible path provably stays below it), small
/// enough that one relaxation sum of two entries cannot wrap a `u32`.
const FW_INF32: u32 = u32::MAX / 4;

/// Parallel flat Floyd–Warshall over a min-cost adjacency matrix — the
/// dense path of [`all_pairs_flat`]. `dist` starts as the adjacency
/// matrix (with [`UNREACHABLE`] holes) and ends as the all-pairs table.
///
/// At pivot `k`, row `k` is invariant (`dist[k][j]` relaxes against
/// `dist[k][k] + dist[k][j]`, i.e. itself), so every row can relax
/// independently against a snapshot of the pivot row: the per-pivot sweep
/// fans disjoint row chunks over the pool with no cross-row writes, which
/// keeps the result bitwise-identical for every pool size.
///
/// When every shortest path provably fits (any path has at most `M − 1`
/// hops of at most the largest edge weight), the sweep runs over a `u32`
/// copy of the matrix: half the memory traffic of the `u64` table — the
/// binding resource at M ≈ 1000, where the 8·M² working set dwarfs every
/// cache — and twice the lanes per vector register (baseline x86-64 has
/// no native unsigned `min`, so each lane is a compare-and-select).
/// Unreachable pairs ride through as [`FW_INF32`] (plain adds cannot wrap
/// it, and any path over an unreachable hop stays at least `FW_INF32`
/// while no real path gets close, so clamping at the end is exact). Wider weights fall back to
/// the same sweep in `u64` with a saturating add. Either way the math is
/// exact integer shortest paths, so kernel choice — a pure function of
/// the input — never changes results.
fn floyd_warshall_flat(dist: &mut [u64], m: usize, pool: &WorkerPool) {
    let max_edge = dist
        .iter()
        .filter(|&&d| d != UNREACHABLE)
        .max()
        .copied()
        .unwrap_or(0);
    let path_bound = (m as u64).saturating_sub(1).saturating_mul(max_edge);
    if path_bound < u64::from(FW_INF32) {
        let mut narrow: Vec<u32> = dist
            .iter()
            .map(|&d| if d == UNREACHABLE { FW_INF32 } else { d as u32 })
            .collect();
        floyd_warshall_sweep(&mut narrow, m, pool, |a, b| a + b);
        for (slot, &d) in dist.iter_mut().zip(&narrow) {
            *slot = if d >= FW_INF32 {
                UNREACHABLE
            } else {
                u64::from(d)
            };
        }
    } else {
        floyd_warshall_sweep(dist, m, pool, u64::saturating_add);
    }
}

/// The pivot sweep shared by both [`floyd_warshall_flat`] kernels.
/// `relax` must be monotone addition with an absorbing top value
/// (saturating for `u64`, plain for the bounded `u32` domain).
fn floyd_warshall_sweep<T>(
    dist: &mut [T],
    m: usize,
    pool: &WorkerPool,
    relax: impl Fn(T, T) -> T + Sync,
) where
    T: Copy + Ord + Send + Sync,
{
    let relax = &relax;
    let rows_per_task = m.div_ceil(pool.threads().min(m));
    let chunk = rows_per_task * m;
    let mut pivot_row = Vec::with_capacity(m);
    for k in 0..m {
        pivot_row.clear();
        pivot_row.extend_from_slice(&dist[k * m..(k + 1) * m]);
        let pivot = &pivot_row;
        pool.for_each_chunk_mut(dist, chunk, |_, rows| {
            for row in rows.chunks_mut(m) {
                let through = row[k];
                for (slot, &pk) in row.iter_mut().zip(pivot) {
                    *slot = (*slot).min(relax(through, pk));
                }
            }
        });
    }
}

/// Flat min-cost adjacency matrix: `adj[a * m + b]` is the cheapest direct
/// edge between `a` and `b` ([`UNREACHABLE`] if none, 0 on the diagonal).
fn flat_adjacency(graph: &Graph) -> Vec<u64> {
    let m = graph.num_sites();
    let mut adj = vec![UNREACHABLE; m * m];
    for i in 0..m {
        adj[i * m + i] = 0;
    }
    for e in graph.edges() {
        let best = e.cost.min(adj[e.a * m + e.b]);
        adj[e.a * m + e.b] = best;
        adj[e.b * m + e.a] = best;
    }
    adj
}

/// All-pairs shortest paths as a flat row-major `M × M` matrix, with
/// Dijkstra-from-every-source fanned over `pool`.
///
/// Entry `i * m + j` is the cheapest path cost from `i` to `j`, or
/// [`UNREACHABLE`]. Sparse graphs fan binary-heap Dijkstra per source over
/// the pool (each source owns one disjoint output row); dense ones (the
/// paper's complete topologies) run [`floyd_warshall_flat`] over the flat
/// adjacency matrix, fanning the per-pivot row sweep. Both assignments
/// depend only on the instance, so the result is bitwise-identical for
/// every pool size, including the inline `WorkerPool::new(1)`.
pub fn all_pairs_flat(graph: &Graph, pool: &WorkerPool) -> Vec<u64> {
    let m = graph.num_sites();
    let e = graph.num_edges();
    if m == 0 {
        return Vec::new();
    }
    // Rough crossover: heap Dijkstra is O(E·logM) per source, the flat FW
    // sweep O(M²) per pivot; prefer the sweep once E·logM outgrows M².
    let dense = e.saturating_mul((64 - (m as u64).leading_zeros()) as usize) > m * m;
    if dense {
        let mut out = flat_adjacency(graph);
        floyd_warshall_flat(&mut out, m, pool);
        return out;
    }
    let mut out = vec![UNREACHABLE; m * m];
    let rows_per_task = m.div_ceil(pool.threads().min(m));
    pool.for_each_chunk_mut(&mut out, rows_per_task * m, |chunk_index, rows| {
        let mut heap = BinaryHeap::new();
        for (offset, dist) in rows.chunks_mut(m).enumerate() {
            let src = chunk_index * rows_per_task + offset;
            dijkstra_into(graph, src, dist, &mut heap);
        }
    });
    out
}

/// All-pairs shortest path costs via Floyd–Warshall, O(M^3).
///
/// Unreachable pairs are `None`. Prefer [`all_pairs`], which chooses between
/// this and repeated Dijkstra based on density.
#[allow(clippy::needless_range_loop)] // i/j/k triple indexing reads clearest
pub fn floyd_warshall(graph: &Graph) -> Vec<Vec<Option<u64>>> {
    let m = graph.num_sites();
    let mut dist: Vec<Vec<Option<u64>>> = vec![vec![None; m]; m];
    for (i, row) in dist.iter_mut().enumerate() {
        row[i] = Some(0);
    }
    for e in graph.edges() {
        let best = dist[e.a][e.b].map_or(e.cost, |c| c.min(e.cost));
        dist[e.a][e.b] = Some(best);
        dist[e.b][e.a] = Some(best);
    }
    for k in 0..m {
        for i in 0..m {
            let Some(dik) = dist[i][k] else { continue };
            for j in 0..m {
                let Some(dkj) = dist[k][j] else { continue };
                let through = dik + dkj;
                if dist[i][j].is_none_or(|cur| through < cur) {
                    dist[i][j] = Some(through);
                }
            }
        }
    }
    dist
}

/// All-pairs shortest paths in the nested `Option` representation.
///
/// Compatibility wrapper over [`all_pairs_flat`] on the global worker
/// pool; [`floyd_warshall`] remains as the independent sequential
/// reference the property tests compare against.
pub fn all_pairs(graph: &Graph) -> Result<Vec<Vec<Option<u64>>>> {
    let m = graph.num_sites();
    let flat = all_pairs_flat(graph, WorkerPool::global());
    Ok(flat
        .chunks(m.max(1))
        .take(m)
        .map(|row| {
            row.iter()
                .map(|&d| (d != UNREACHABLE).then_some(d))
                .collect()
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> Graph {
        // 0 -1- 1 -1- 3, 0 -5- 2 -1- 3
        let mut g = Graph::new(4).unwrap();
        g.add_edge(0, 1, 1).unwrap();
        g.add_edge(1, 3, 1).unwrap();
        g.add_edge(0, 2, 5).unwrap();
        g.add_edge(2, 3, 1).unwrap();
        g
    }

    #[test]
    fn dijkstra_diamond() {
        let d = dijkstra(&diamond(), 0).unwrap();
        assert_eq!(d, vec![Some(0), Some(1), Some(3), Some(2)]);
    }

    #[test]
    fn dijkstra_rejects_bad_source() {
        assert!(dijkstra(&diamond(), 10).is_err());
    }

    #[test]
    fn dijkstra_reports_unreachable() {
        let mut g = Graph::new(3).unwrap();
        g.add_edge(0, 1, 2).unwrap();
        let d = dijkstra(&g, 0).unwrap();
        assert_eq!(d, vec![Some(0), Some(2), None]);
    }

    #[test]
    fn floyd_warshall_matches_dijkstra_on_diamond() {
        let g = diamond();
        let fw = floyd_warshall(&g);
        for (src, row) in fw.iter().enumerate() {
            assert_eq!(row, &dijkstra(&g, src).unwrap(), "row {src}");
        }
    }

    #[test]
    fn floyd_warshall_uses_cheapest_parallel_edge() {
        let mut g = Graph::new(2).unwrap();
        g.add_edge(0, 1, 9).unwrap();
        g.add_edge(0, 1, 3).unwrap();
        let fw = floyd_warshall(&g);
        assert_eq!(fw[0][1], Some(3));
    }

    #[test]
    fn all_pairs_agrees_with_floyd_warshall() {
        let g = diamond();
        assert_eq!(all_pairs(&g).unwrap(), floyd_warshall(&g));
    }

    #[test]
    fn all_pairs_flat_matches_floyd_warshall_for_any_pool_size() {
        let g = diamond();
        let m = g.num_sites();
        let fw = floyd_warshall(&g);
        for threads in [1, 2, 4] {
            let flat = all_pairs_flat(&g, &WorkerPool::new(threads));
            for i in 0..m {
                for j in 0..m {
                    let expect = fw[i][j].unwrap_or(UNREACHABLE);
                    assert_eq!(flat[i * m + j], expect, "({i},{j}) at {threads} threads");
                }
            }
        }
    }

    #[test]
    fn all_pairs_flat_marks_unreachable_pairs() {
        let mut g = Graph::new(3).unwrap();
        g.add_edge(0, 1, 2).unwrap();
        let flat = all_pairs_flat(&g, &WorkerPool::new(1));
        assert_eq!(flat[2], UNREACHABLE, "0 -> 2");
        assert_eq!(flat[2 * 3], UNREACHABLE, "2 -> 0");
        assert_eq!(flat[1], 2, "0 -> 1");
        assert_eq!(flat[2 * 3 + 2], 0, "2 -> 2");
    }

    #[test]
    fn dense_kernel_handles_parallel_edges_and_self_distance() {
        // Force the dense path: complete-ish multigraph on 4 sites.
        let mut g = Graph::new(4).unwrap();
        for a in 0..4 {
            for b in (a + 1)..4 {
                g.add_edge(a, b, 7).unwrap();
                g.add_edge(a, b, (a + b + 1) as u64).unwrap();
            }
        }
        let m = 4;
        let flat = all_pairs_flat(&g, &WorkerPool::new(2));
        let fw = floyd_warshall(&g);
        for i in 0..m {
            for j in 0..m {
                assert_eq!(flat[i * m + j], fw[i][j].unwrap(), "({i},{j})");
            }
        }
    }

    #[test]
    fn dijkstra_flat_matches_optional_form() {
        let g = diamond();
        let flat = dijkstra_flat(&g, 0).unwrap();
        let boxed = dijkstra(&g, 0).unwrap();
        for (f, b) in flat.iter().zip(&boxed) {
            assert_eq!(*f, b.unwrap_or(UNREACHABLE));
        }
        assert!(dijkstra_flat(&g, 9).is_err());
    }

    #[test]
    fn multi_source_owner_partitions_into_connected_cells() {
        // Line 0-1-2-3-4-5 with unit costs; sources 0 and 5.
        let mut g = Graph::new(6).unwrap();
        for a in 0..5 {
            g.add_edge(a, a + 1, 1).unwrap();
        }
        let (dist, owner) = multi_source_owner(&g, &[0, 5]).unwrap();
        assert_eq!(dist, vec![0, 1, 2, 2, 1, 0]);
        // Site 2 and 3 are equidistant-adjacent; whatever the tie rule
        // picks, each owner's cell must be a contiguous run on the line.
        assert_eq!(owner[0], 0);
        assert_eq!(owner[5], 1);
        let boundary = owner.windows(2).filter(|w| w[0] != w[1]).count();
        assert_eq!(boundary, 1, "cells must be contiguous: {owner:?}");
    }

    #[test]
    fn multi_source_owner_rejects_bad_input() {
        let g = diamond();
        assert!(multi_source_owner(&g, &[]).is_err());
        assert!(multi_source_owner(&g, &[0, 99]).is_err());
    }

    #[test]
    fn multi_source_owner_keeps_first_rank_for_duplicates() {
        let g = diamond();
        let (dist, owner) = multi_source_owner(&g, &[2, 2]).unwrap();
        assert_eq!(dist[2], 0);
        assert_eq!(owner[2], 0);
    }

    #[test]
    fn k_nearest_settles_in_cost_order() {
        let g = diamond();
        // From 0: self (0), 1 (1), 3 (2), 2 (3).
        assert_eq!(k_nearest(&g, 0, 3).unwrap(), vec![(0, 0), (1, 1), (3, 2)]);
        assert_eq!(k_nearest(&g, 0, 99).unwrap().len(), 4);
        assert!(k_nearest(&g, 9, 2).is_err());
    }

    #[test]
    fn k_nearest_stops_at_component_boundary() {
        let mut g = Graph::new(4).unwrap();
        g.add_edge(0, 1, 3).unwrap();
        assert_eq!(k_nearest(&g, 0, 4).unwrap(), vec![(0, 0), (1, 3)]);
    }

    #[test]
    fn shortest_paths_satisfy_triangle_inequality() {
        let g = diamond();
        let d = floyd_warshall(&g);
        let m = g.num_sites();
        for i in 0..m {
            for j in 0..m {
                for k in 0..m {
                    let (Some(dij), Some(dik), Some(dkj)) = (d[i][j], d[i][k], d[k][j]) else {
                        continue;
                    };
                    assert!(dij <= dik + dkj);
                }
            }
        }
    }
}
