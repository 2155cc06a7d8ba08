use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::{shortest, Graph, NetError, Result};

/// The symmetric per-unit transfer cost table `C(i, j)` of the paper.
///
/// `C(i, j)` is the cumulative cost of the shortest path between sites `i`
/// and `j`; `C(i, i) = 0` and `C(i, j) = C(j, i)`. The matrix is validated on
/// construction so every algorithm downstream can index it infallibly. The
/// table is reference-counted and never mutated, so a clone shares it
/// (an `M = 500` table is 2 MB).
///
/// # Examples
///
/// ```
/// use drp_net::{Graph, CostMatrix};
///
/// let mut g = Graph::new(3)?;
/// g.add_edge(0, 1, 2)?;
/// g.add_edge(1, 2, 3)?;
/// let c = CostMatrix::from_graph(&g)?;
/// assert_eq!(c.cost(0, 2), 5); // via site 1
/// # Ok::<(), drp_net::NetError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CostMatrix {
    num_sites: usize,
    /// Row-major M×M table.
    costs: Arc<[u64]>,
}

impl CostMatrix {
    /// Builds the matrix from explicit entries (row-major, length `M·M`).
    ///
    /// # Errors
    ///
    /// Returns [`NetError::InvalidMatrix`] when the data has the wrong
    /// length, a non-zero diagonal, an asymmetric pair, a zero off-diagonal
    /// entry, or violates the triangle inequality (shortest-path costs are
    /// metric by construction; enforcing this catches hand-built mistakes).
    pub fn from_rows(num_sites: usize, costs: Vec<u64>) -> Result<Self> {
        if num_sites == 0 {
            return Err(NetError::EmptyNetwork);
        }
        if costs.len() != num_sites * num_sites {
            return Err(NetError::InvalidMatrix {
                reason: format!(
                    "expected {} entries for {} sites, got {}",
                    num_sites * num_sites,
                    num_sites,
                    costs.len()
                ),
            });
        }
        let matrix = Self {
            num_sites,
            costs: costs.into(),
        };
        matrix.validate()?;
        Ok(matrix)
    }

    /// Computes all-pairs shortest path costs of a connected graph, once,
    /// on the calling thread.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Disconnected`] if some pair of sites has no path.
    pub fn from_graph(graph: &Graph) -> Result<Self> {
        let m = graph.num_sites();
        let costs = shortest::all_pairs_flat(graph);
        if let Some(flat) = costs.iter().position(|&c| c == shortest::UNREACHABLE) {
            return Err(NetError::Disconnected {
                pair: (flat / m, flat % m),
            });
        }
        Ok(Self {
            num_sites: m,
            costs: costs.into(),
        })
    }

    fn validate(&self) -> Result<()> {
        let m = self.num_sites;
        for i in 0..m {
            if self.cost(i, i) != 0 {
                return Err(NetError::InvalidMatrix {
                    reason: format!("diagonal entry ({i}, {i}) must be zero"),
                });
            }
            for j in (i + 1)..m {
                if self.cost(i, j) != self.cost(j, i) {
                    return Err(NetError::InvalidMatrix {
                        reason: format!("entries ({i}, {j}) and ({j}, {i}) differ"),
                    });
                }
                if self.cost(i, j) == 0 {
                    return Err(NetError::InvalidMatrix {
                        reason: format!("off-diagonal entry ({i}, {j}) must be positive"),
                    });
                }
            }
        }
        for k in 0..m {
            for i in 0..m {
                for j in 0..m {
                    if self.cost(i, j) > self.cost(i, k) + self.cost(k, j) {
                        return Err(NetError::InvalidMatrix {
                            reason: format!(
                                "triangle inequality violated: C({i},{j}) > C({i},{k}) + C({k},{j})"
                            ),
                        });
                    }
                }
            }
        }
        Ok(())
    }

    /// Number of sites.
    pub fn num_sites(&self) -> usize {
        self.num_sites
    }

    /// Per-unit transfer cost `C(i, j)`.
    ///
    /// # Panics
    ///
    /// Panics if `i` or `j` is out of range.
    #[inline]
    pub fn cost(&self, i: usize, j: usize) -> u64 {
        self.costs[i * self.num_sites + j]
    }

    /// Row `i` of the matrix: costs from site `i` to every site.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[inline]
    pub fn row(&self, i: usize) -> &[u64] {
        &self.costs[i * self.num_sites..(i + 1) * self.num_sites]
    }

    /// The whole row-major `M × M` table: row `i` is
    /// `[i·M, (i+1)·M)`.
    #[inline]
    pub fn as_slice(&self) -> &[u64] {
        &self.costs
    }

    /// Sum of the costs from site `i` to every site (`Σ_x C(i, x)`), used by
    /// the paper's Eq. 6 "proportional link weight".
    pub fn row_sum(&self, i: usize) -> u64 {
        self.row(i).iter().sum()
    }

    /// Mean over sites of [`row_sum`](Self::row_sum):
    /// `Σ_l Σ_x C(l, x) / M`, the denominator of the Eq. 6 weight.
    pub fn mean_row_sum(&self) -> f64 {
        let total: u64 = self.costs.iter().sum();
        total as f64 / self.num_sites as f64
    }

    /// The site in `candidates` nearest to `i` (ties broken by lower index),
    /// together with the cost. Returns `None` for an empty candidate list.
    pub fn nearest_of<'a, I>(&self, i: usize, candidates: I) -> Option<(usize, u64)>
    where
        I: IntoIterator<Item = &'a usize>,
    {
        candidates
            .into_iter()
            .map(|&j| (self.cost(i, j), j))
            .min()
            .map(|(c, j)| (j, c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line3() -> CostMatrix {
        // 0 -2- 1 -3- 2
        let mut g = Graph::new(3).unwrap();
        g.add_edge(0, 1, 2).unwrap();
        g.add_edge(1, 2, 3).unwrap();
        CostMatrix::from_graph(&g).unwrap()
    }

    #[test]
    fn from_graph_computes_shortest_paths() {
        let c = line3();
        assert_eq!(c.cost(0, 1), 2);
        assert_eq!(c.cost(0, 2), 5);
        assert_eq!(c.cost(2, 0), 5);
        assert_eq!(c.cost(1, 1), 0);
    }

    #[test]
    fn from_graph_rejects_disconnected() {
        let mut g = Graph::new(3).unwrap();
        g.add_edge(0, 1, 1).unwrap();
        assert!(matches!(
            CostMatrix::from_graph(&g),
            Err(NetError::Disconnected { .. })
        ));
    }

    #[test]
    fn from_rows_validates_shape_and_symmetry() {
        assert!(CostMatrix::from_rows(2, vec![0, 1, 1]).is_err());
        assert!(CostMatrix::from_rows(2, vec![0, 1, 2, 0]).is_err()); // asymmetric
        assert!(CostMatrix::from_rows(2, vec![1, 1, 1, 0]).is_err()); // nonzero diag
        assert!(CostMatrix::from_rows(2, vec![0, 0, 0, 0]).is_err()); // zero off-diag
        assert!(CostMatrix::from_rows(2, vec![0, 4, 4, 0]).is_ok());
    }

    #[test]
    fn from_rows_enforces_triangle_inequality() {
        // C(0,2)=10 > C(0,1)+C(1,2)=2
        let bad = CostMatrix::from_rows(3, vec![0, 1, 10, 1, 0, 1, 10, 1, 0]);
        assert!(matches!(bad, Err(NetError::InvalidMatrix { .. })));
    }

    #[test]
    fn row_sums() {
        let c = line3();
        assert_eq!(c.row_sum(0), 7);
        assert_eq!(c.row_sum(1), 5);
        assert_eq!(c.row_sum(2), 8);
        let mean = c.mean_row_sum();
        assert!((mean - 20.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn nearest_of_picks_minimum_with_tie_break() {
        let c = line3();
        let replicas = vec![0usize, 2];
        assert_eq!(c.nearest_of(1, &replicas), Some((0, 2)));
        assert_eq!(c.nearest_of(0, &replicas), Some((0, 0)));
        assert_eq!(c.nearest_of(0, &[]), None);
    }

    #[test]
    fn serde_round_trip_shape() {
        let c = line3();
        let cloned = c.clone();
        assert_eq!(c, cloned);
        assert_eq!(c.num_sites(), 3);
        assert_eq!(c.row(1), &[2, 0, 3]);
    }
}
