//! Random instances for the solvers' oracle properties.

use drp_core::{Problem, SiteId};
use drp_net::CostMatrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A random `m × n` instance drawn from `seed`. Sites sit on a line at
/// random positions and `C(i, j) = |x_i − x_j| + 1` (metric, so ties are
/// common); object `k` is never read when `k % 4 == 1` and never written
/// when `k % 4 == 2`. A `tight` instance leaves each site 0–4 units over
/// its primaries, a loose one room for every object.
pub(crate) fn random_instance(m: usize, n: usize, tight: bool, seed: u64) -> Problem {
    let mut rng = StdRng::seed_from_u64(seed);
    let positions: Vec<u64> = (0..m).map(|_| rng.random_range(0..50u64)).collect();
    let costs = (0..m * m)
        .map(|cell| {
            let (i, j) = (cell / m, cell % m);
            if i == j {
                0
            } else {
                positions[i].abs_diff(positions[j]) + 1
            }
        })
        .collect();
    let mut builder = Problem::builder(CostMatrix::from_rows(m, costs).expect("metric costs"));
    let mut primaries_size = vec![0u64; m];
    let mut total_size = 0u64;
    for k in 0..n {
        let size = rng.random_range(1..=10u64);
        let primary = rng.random_range(0..m);
        primaries_size[primary] += size;
        total_size += size;
        let reads = (0..m)
            .map(|_| {
                if k % 4 == 1 {
                    0
                } else {
                    rng.random_range(0..=12u64)
                }
            })
            .collect();
        let writes = (0..m)
            .map(|_| {
                if k % 4 == 2 {
                    0
                } else {
                    rng.random_range(0..=3u64)
                }
            })
            .collect();
        builder
            .object(size, SiteId::new(primary))
            .reads(reads)
            .writes(writes);
    }
    let capacities = primaries_size
        .iter()
        .map(|&own| {
            if tight {
                own + rng.random_range(0..=4u64)
            } else {
                total_size
            }
        })
        .collect();
    builder
        .capacities(capacities)
        .build()
        .expect("valid instance")
}
