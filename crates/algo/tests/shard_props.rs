//! Sharded-vs-flat parity suite: on instances small enough to solve both
//! ways, the sharded hierarchical driver must produce feasible placements,
//! stay within a bounded NTC ratio of the flat GRA, and be bitwise
//! deterministic for a fixed seed.

use drp_algo::shard::{ShardConfig, ShardedSolver};
use drp_algo::{Gra, GraConfig};
use drp_core::ReplicationAlgorithm;
use drp_workload::{TopologyKind, WorkloadSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn hier_spec(m: usize, n: usize, clusters: usize) -> WorkloadSpec {
    let mut spec = WorkloadSpec::paper(m, n, 5.0, 30.0);
    spec.topology = TopologyKind::Hierarchical {
        clusters,
        wan_factor: 10,
    };
    spec
}

#[test]
fn sharded_placement_is_feasible_at_m_300() {
    let sp = hier_spec(300, 12, 6)
        .generate_sparse(&mut StdRng::seed_from_u64(3))
        .unwrap();
    let outcome = ShardedSolver::new(6).solve(&sp, 3).unwrap();
    // Feasibility is re-validated from scratch: sorted lists, primaries
    // present, capacities respected.
    sp.validate_placement(&outcome.placement).unwrap();
    assert_eq!(outcome.ntc, sp.total_cost(&outcome.placement).unwrap());
    assert_eq!(outcome.d_prime, sp.d_prime());
    assert!(
        outcome.ntc <= outcome.d_prime,
        "replication must not cost more than primary-only: {} > {}",
        outcome.ntc,
        outcome.d_prime
    );
    assert_eq!(outcome.report.clusters, 6);
    assert_eq!(outcome.report.shard_sites.iter().sum::<usize>(), 300);
    assert!(outcome.report.shard_sites.iter().all(|&s| s > 0));
}

#[test]
fn sharded_tracks_flat_gra_within_budget() {
    let spec = hier_spec(120, 16, 4);
    let sp = spec
        .generate_sparse(&mut StdRng::seed_from_u64(11))
        .unwrap();
    let dense = sp.to_dense().unwrap();

    let flat_scheme = Gra::default()
        .solve(&dense, &mut StdRng::seed_from_u64(11))
        .unwrap();
    let flat_ntc = dense.total_cost(&flat_scheme);

    let sharded = ShardedSolver::new(4).solve(&sp, 11).unwrap();
    let ratio = sharded.ntc as f64 / flat_ntc as f64;
    assert!(
        ratio <= 1.15,
        "sharded NTC {} vs flat {} (ratio {ratio:.4}) exceeds the parity budget",
        sharded.ntc,
        flat_ntc
    );
}

#[test]
fn sharded_solve_repeats_bitwise() {
    let sp = hier_spec(90, 10, 3)
        .generate_sparse(&mut StdRng::seed_from_u64(5))
        .unwrap();
    let solve = || {
        ShardedSolver::with_config(ShardConfig {
            shards: 3,
            gra: GraConfig {
                population_size: 16,
                generations: 24,
                ..GraConfig::default()
            },
            ..ShardConfig::default()
        })
        .solve(&sp, 5)
        .unwrap()
    };
    // The whole pipeline is a pure function of (instance, seed).
    let (first, again) = (solve(), solve());
    assert_eq!(first.placement, again.placement);
    assert_eq!(first.fingerprint(), again.fingerprint());
    assert_eq!(first.ntc, again.ntc);
}

#[test]
fn single_shard_degenerates_to_a_flat_solve() {
    let sp = hier_spec(40, 8, 2)
        .generate_sparse(&mut StdRng::seed_from_u64(9))
        .unwrap();
    let outcome = ShardedSolver::new(1).solve(&sp, 9).unwrap();
    assert_eq!(outcome.report.clusters, 1);
    assert_eq!(outcome.report.border_requested, 0);
    assert_eq!(outcome.report.shard_sites, vec![40]);
    sp.validate_placement(&outcome.placement).unwrap();
    assert!(outcome.ntc <= outcome.d_prime);
}

#[test]
fn binary_tree_instances_shard_feasibly_and_deterministically() {
    let mut spec = WorkloadSpec::paper(63, 8, 5.0, 30.0);
    spec.topology = TopologyKind::Tree { arity: 2 };
    let sp = spec
        .generate_sparse(&mut StdRng::seed_from_u64(21))
        .unwrap();
    let outcome = ShardedSolver::new(4).solve(&sp, 21).unwrap();
    assert_eq!(outcome.report.clusters, 4);
    assert_eq!(outcome.report.shard_sites.iter().sum::<usize>(), 63);
    sp.validate_placement(&outcome.placement).unwrap();
    assert_eq!(outcome.ntc, sp.total_cost(&outcome.placement).unwrap());
    assert!(outcome.ntc <= outcome.d_prime);
    let again = ShardedSolver::new(4).solve(&sp, 21).unwrap();
    assert_eq!(outcome.fingerprint(), again.fingerprint());
    assert_eq!(outcome.ntc, again.ntc);
}

#[test]
fn fingerprints_separate_distinct_seeds() {
    let sp = hier_spec(80, 10, 4)
        .generate_sparse(&mut StdRng::seed_from_u64(2))
        .unwrap();
    let a = ShardedSolver::new(4).solve(&sp, 1).unwrap();
    let b = ShardedSolver::new(4).solve(&sp, 2).unwrap();
    // Different solve seeds explore differently; identical outcomes would
    // suggest the seed is ignored. (Equality of placements is possible in
    // principle, so compare the richer pair.)
    assert!(
        a.fingerprint() != b.fingerprint() || a.ntc == b.ntc,
        "same fingerprint should at least mean same cost"
    );
}
