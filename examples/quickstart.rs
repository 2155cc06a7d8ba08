//! Quickstart: build a small instance by hand, compare the primary-only
//! allocation with SRA's greedy placement and GRA's genetic search, then
//! serve one period of requests against GRA's scheme on the simulator and
//! check the measured NTC equals the Eq. 4 value.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use drp::core::migration::MigrationPlan;
use drp::core::telemetry;
use drp::serve::{EpochTraffic, MigrationTuning};
use drp::{CostMatrix, Gra, GraConfig, Problem, ReplicationAlgorithm, SiteId, Sra};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A 4-site line network: 0 —1— 1 —1— 2 —1— 3 (costs are per data unit).
    let mut graph = drp::Graph::new(4)?;
    graph.add_edge(0, 1, 1)?;
    graph.add_edge(1, 2, 1)?;
    graph.add_edge(2, 3, 1)?;
    let costs = CostMatrix::from_graph(&graph)?;

    // Two objects: a hot read-mostly page primaried at site 0 and a
    // write-heavy log primaried at site 3.
    let problem = Problem::builder(costs)
        .capacities(vec![40, 25, 25, 40])
        .object(20, SiteId::new(0)) // "page", 20 data units
        .reads(vec![5, 30, 45, 60])
        .writes(vec![2, 0, 0, 0])
        .object(15, SiteId::new(3)) // "log", 15 data units
        .reads(vec![4, 2, 2, 8])
        .writes(vec![10, 10, 10, 30])
        .build()?;

    println!("primary-only NTC (D_prime): {}", problem.d_prime());

    let mut rng = StdRng::seed_from_u64(1);
    let (sra_scheme, sra_report) = Sra::new().solve_report(&problem, &mut rng)?;
    println!("{sra_report}");
    for k in problem.objects() {
        let replicas: Vec<String> = sra_scheme.replicators(k).map(|s| s.to_string()).collect();
        println!("  object {k} replicated at sites [{}]", replicas.join(", "));
    }

    let config = GraConfig {
        population_size: 16,
        generations: 25,
        ..GraConfig::default()
    };
    let (gra_scheme, gra_report) = Gra::with_config(config).solve_report(&problem, &mut rng)?;
    println!("{gra_report}");

    // The analytic cost model is exact: serving one period of every read
    // and write as messages on the discrete-event simulator (one clean
    // epoch of the serve engine: no migration, no faults) measures the
    // same NTC.
    let epoch = drp::serve::execute_migration(
        &problem,
        &gra_scheme,
        &MigrationPlan::default(),
        None,
        MigrationTuning::default(),
        Some(EpochTraffic {
            period: 100,
            seed: 1,
        }),
        telemetry::noop(),
    )?;
    let measured = epoch.sim.transfer_cost;
    assert_eq!(measured, problem.total_cost(&gra_scheme));
    println!("served epoch agrees: NTC = {measured}");
    Ok(())
}
