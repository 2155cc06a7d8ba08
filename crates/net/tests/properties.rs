//! Property-based tests of the network substrate.

use drp_net::{shortest, topology, CostMatrix, Graph};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Strategy: a random connected graph built from a spanning path plus extra
/// random edges.
fn arb_connected_graph() -> impl Strategy<Value = Graph> {
    (2usize..12, 0usize..20, 1u64..999).prop_map(|(m, extra_edges, seed)| {
        let mut rng = StdRng::seed_from_u64(seed);
        use rand::Rng;
        let mut g = Graph::new(m).unwrap();
        for i in 0..m - 1 {
            g.add_edge(i, i + 1, rng.random_range(1..=10)).unwrap();
        }
        for _ in 0..extra_edges {
            let a = rng.random_range(0..m);
            let b = rng.random_range(0..m);
            if a != b {
                g.add_edge(a, b, rng.random_range(1..=10)).unwrap();
            }
        }
        g
    })
}

proptest! {
    #[test]
    fn dijkstra_agrees_with_floyd_warshall(g in arb_connected_graph()) {
        let fw = shortest::floyd_warshall(&g);
        for (src, row) in fw.iter().enumerate() {
            let d = shortest::dijkstra(&g, src).unwrap();
            prop_assert_eq!(&d, row, "row {}", src);
        }
    }

    #[test]
    fn parallel_all_pairs_agrees_with_floyd_warshall(g in arb_connected_graph()) {
        // The flat all-pairs build (dense sweep or per-source Dijkstra,
        // whichever the graph draws) must reproduce the nested
        // Floyd–Warshall reference exactly.
        let fw = shortest::floyd_warshall(&g);
        let flat = shortest::all_pairs_flat(&g);
        let m = g.num_sites();
        prop_assert_eq!(flat.len(), m * m);
        for (src, row) in fw.iter().enumerate() {
            for (dst, &want) in row.iter().enumerate() {
                let raw = flat[src * m + dst];
                let got = (raw != shortest::UNREACHABLE).then_some(raw);
                prop_assert_eq!(got, want, "pair ({}, {})", src, dst);
            }
        }
    }

    #[test]
    fn cost_matrix_is_metric(g in arb_connected_graph()) {
        let c = CostMatrix::from_graph(&g).unwrap();
        let m = c.num_sites();
        for i in 0..m {
            prop_assert_eq!(c.cost(i, i), 0);
            for j in 0..m {
                prop_assert_eq!(c.cost(i, j), c.cost(j, i));
                for k in 0..m {
                    prop_assert!(c.cost(i, j) <= c.cost(i, k) + c.cost(k, j));
                }
            }
        }
    }

    #[test]
    fn shortest_paths_never_exceed_direct_edges(g in arb_connected_graph()) {
        let c = CostMatrix::from_graph(&g).unwrap();
        for e in g.edges() {
            prop_assert!(c.cost(e.a, e.b) <= e.cost);
        }
    }

    #[test]
    fn generated_topologies_yield_valid_cost_matrices(
        m in 3usize..20,
        seed in 0u64..500,
        kind in 0usize..6,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let graph = match kind {
            0 => topology::complete_uniform(m, 1, 10, &mut rng).unwrap(),
            1 => topology::ring(m, 1, 10, &mut rng).unwrap(),
            2 => topology::line(m, 1, 10, &mut rng).unwrap(),
            3 => topology::balanced_tree(m, 2, 1, 10, &mut rng).unwrap(),
            4 => topology::erdos_renyi(m, 0.3, 1, 10, &mut rng).unwrap(),
            _ => topology::waxman(m, 0.8, 0.4, 1, 10, &mut rng).unwrap(),
        };
        prop_assert!(graph.is_connected());
        let c = CostMatrix::from_graph(&graph).unwrap();
        prop_assert_eq!(c.num_sites(), m);
        // Round-trip through the validated constructor must succeed: the
        // metric closure always passes its own validation.
        let mut rows = Vec::with_capacity(m * m);
        for i in 0..m {
            rows.extend_from_slice(c.row(i));
        }
        prop_assert!(CostMatrix::from_rows(m, rows).is_ok());
    }
}
