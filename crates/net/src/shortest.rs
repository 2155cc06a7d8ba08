//! Shortest-path algorithms over [`Graph`].
//!
//! The paper assumes `C(i, j)` is the cumulative cost of the shortest path
//! between sites `i` and `j`, known a priori. [`CostMatrix::from_graph`]
//! computes that table once, on the calling thread, with
//! [`all_pairs_flat`], which picks Dijkstra-from-every-source for sparse
//! graphs and Floyd–Warshall for dense ones.
//!
//! [`CostMatrix::from_graph`]: crate::CostMatrix::from_graph

use std::cmp::Reverse;
use std::collections::BinaryHeap;

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
/// overwritten, not accumulated. [`all_pairs_flat`] runs it once per
/// source, each writing its own row of the output matrix.
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

/// Flat Floyd–Warshall over a min-cost adjacency matrix — the dense path
/// of [`all_pairs_flat`]. `dist` starts as the adjacency matrix (with
/// [`UNREACHABLE`] holes) and ends as the all-pairs table.
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
fn floyd_warshall_flat(dist: &mut [u64], m: usize) {
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
        floyd_warshall_sweep(&mut narrow, m, |a, b| a + b);
        for (slot, &d) in dist.iter_mut().zip(&narrow) {
            *slot = if d >= FW_INF32 {
                UNREACHABLE
            } else {
                u64::from(d)
            };
        }
    } else {
        floyd_warshall_sweep(dist, m, u64::saturating_add);
    }
}

/// The pivot sweep shared by both [`floyd_warshall_flat`] kernels.
/// `relax` must be monotone addition with an absorbing top value
/// (saturating for `u64`, plain for the bounded `u32` domain).
///
/// At pivot `k`, row `k` is invariant (`dist[k][j]` relaxes against
/// `dist[k][k] + dist[k][j]`, i.e. itself), so every row relaxes against
/// a copy of the pivot row.
fn floyd_warshall_sweep<T: Copy + Ord>(dist: &mut [T], m: usize, relax: impl Fn(T, T) -> T) {
    let mut pivot_row = Vec::with_capacity(m);
    for k in 0..m {
        pivot_row.clear();
        pivot_row.extend_from_slice(&dist[k * m..(k + 1) * m]);
        for row in dist.chunks_mut(m) {
            let through = row[k];
            for (slot, &pk) in row.iter_mut().zip(&pivot_row) {
                *slot = (*slot).min(relax(through, pk));
            }
        }
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

/// All-pairs shortest paths as a flat row-major `M × M` matrix, computed
/// on the calling thread.
///
/// Entry `i * m + j` is the cheapest path cost from `i` to `j`, or
/// [`UNREACHABLE`]. Sparse graphs run binary-heap Dijkstra from every
/// source, each filling its own output row; dense ones (the paper's
/// complete topologies) run `floyd_warshall_flat` over the flat adjacency
/// matrix. The kernel is picked from the instance alone.
pub fn all_pairs_flat(graph: &Graph) -> Vec<u64> {
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
        floyd_warshall_flat(&mut out, m);
        return out;
    }
    let mut out = vec![UNREACHABLE; m * m];
    let mut heap = BinaryHeap::new();
    for (src, dist) in out.chunks_mut(m).enumerate() {
        dijkstra_into(graph, src, dist, &mut heap);
    }
    out
}

/// All-pairs shortest path costs via Floyd–Warshall, O(M^3).
///
/// Unreachable pairs are `None`. The tests hold [`all_pairs_flat`] to this
/// independent reference; prefer `all_pairs_flat`, which chooses between a
/// flat sweep and repeated Dijkstra based on density.
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

    /// `fw` flattened into [`all_pairs_flat`]'s row-major form.
    fn flatten(fw: &[Vec<Option<u64>>]) -> Vec<u64> {
        fw.iter()
            .flatten()
            .map(|d| d.unwrap_or(UNREACHABLE))
            .collect()
    }

    #[test]
    fn all_pairs_agrees_with_floyd_warshall() {
        // A sparse ring of 8 sites with two chords: several shortest paths
        // go the long way round or through a chord.
        let mut g = Graph::new(8).unwrap();
        for i in 0..8 {
            g.add_edge(i, (i + 1) % 8, (i + 1) as u64).unwrap();
        }
        g.add_edge(0, 4, 3).unwrap();
        g.add_edge(2, 6, 20).unwrap();
        assert_eq!(all_pairs_flat(&g), flatten(&floyd_warshall(&g)));
    }

    /// `all_pairs_flat` takes no pool and runs on the calling thread, so
    /// the thread budget cannot change its table: one call covers every
    /// pool size.
    #[test]
    fn all_pairs_flat_matches_floyd_warshall_for_any_pool_size() {
        let g = diamond();
        assert_eq!(all_pairs_flat(&g), flatten(&floyd_warshall(&g)));
    }

    #[test]
    fn all_pairs_flat_marks_unreachable_pairs() {
        let mut g = Graph::new(3).unwrap();
        g.add_edge(0, 1, 2).unwrap();
        let flat = all_pairs_flat(&g);
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
        let flat = all_pairs_flat(&g);
        let fw = floyd_warshall(&g);
        for i in 0..m {
            for j in 0..m {
                assert_eq!(flat[i * m + j], fw[i][j].unwrap(), "({i},{j})");
            }
        }
    }

    #[test]
    fn wide_weights_take_the_saturating_u64_kernel() {
        // A complete multigraph on sites 0..4 plus the isolated site 4. Its
        // edges are so wide that a 4-hop path could pass `FW_INF32`, so the
        // dense sweep runs in u64; the isolated site's `UNREACHABLE` row and
        // column must survive every relaxation unwrapped.
        let base = u64::from(u32::MAX / 2);
        let m = 5;
        let mut g = Graph::new(m).unwrap();
        for a in 0..4 {
            for b in (a + 1)..4 {
                g.add_edge(a, b, 3 * base).unwrap();
                if (a, b) != (2, 3) {
                    g.add_edge(a, b, base + (a * 4 + b) as u64).unwrap();
                }
            }
        }
        let max_edge = g.edges().iter().map(|e| e.cost).max().unwrap();
        assert!(
            (m as u64 - 1) * max_edge >= u64::from(FW_INF32),
            "the narrow kernel would be picked"
        );

        let flat = all_pairs_flat(&g);
        assert_eq!(flat, flatten(&floyd_warshall(&g)));
        for i in 0..4 {
            assert_eq!(flat[i * m + 4], UNREACHABLE, "({i},4)");
            assert_eq!(flat[4 * m + i], UNREACHABLE, "(4,{i})");
        }
        assert_eq!(flat[4 * m + 4], 0);
        // 2 -> 0 -> 3 beats the direct 2 -> 3 link and leaves the u32 range.
        assert_eq!(flat[2 * m + 3], 2 * base + 5);
        assert!(flat[2 * m + 3] > u64::from(u32::MAX));
        assert_eq!(
            crate::CostMatrix::from_graph(&g),
            Err(NetError::Disconnected { pair: (0, 4) })
        );
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
