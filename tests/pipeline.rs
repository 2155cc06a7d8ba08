//! End-to-end pipeline tests spanning every crate: workload generation →
//! placement algorithms → cost model → serve epoch engine cross-check.

use drp::baselines::{HillClimb, PrimaryOnly, RandomFill};
use drp::core::migration::MigrationPlan;
use drp::core::telemetry;
use drp::distributed::distributed_sra;
use drp::serve::{execute_migration, EpochTraffic, MigrationTuning};
use drp::workload::TopologyKind;
use drp::{Gra, GraConfig, ReplicationAlgorithm, Sra, WorkloadSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn small_gra() -> Gra {
    Gra::with_config(GraConfig {
        population_size: 10,
        generations: 10,
        ..GraConfig::default()
    })
}

#[test]
fn full_pipeline_on_paper_workload() {
    let mut rng = StdRng::seed_from_u64(1);
    let problem = WorkloadSpec::paper(15, 25, 5.0, 15.0)
        .generate(&mut rng)
        .unwrap();

    let solvers: Vec<Box<dyn ReplicationAlgorithm>> = vec![
        Box::new(PrimaryOnly),
        Box::new(RandomFill::default()),
        Box::new(Sra::new()),
        Box::new(HillClimb::default()),
        Box::new(small_gra()),
    ];
    for solver in &solvers {
        let (scheme, report) = solver.solve_report(&problem, &mut rng).unwrap();
        scheme.validate(&problem).unwrap();
        assert_eq!(
            report.cost,
            problem.total_cost(&scheme),
            "{}",
            solver.name()
        );
        // One clean served epoch measures exactly the analytic NTC.
        let epoch = execute_migration(
            &problem,
            &scheme,
            &MigrationPlan::default(),
            None,
            MigrationTuning::default(),
            Some(EpochTraffic {
                period: 100,
                seed: 2,
            }),
            telemetry::noop(),
        )
        .unwrap();
        assert_eq!(
            epoch.sim.transfer_cost,
            report.cost,
            "{} scheme disagrees with the serve epoch engine",
            solver.name()
        );
    }
}

#[test]
fn pipeline_works_on_every_topology() {
    for (idx, topology) in [
        TopologyKind::Complete,
        TopologyKind::Ring,
        TopologyKind::Tree { arity: 3 },
        TopologyKind::Grid,
        TopologyKind::ErdosRenyi { p: 0.25 },
        TopologyKind::Waxman {
            alpha: 0.8,
            beta: 0.4,
        },
    ]
    .into_iter()
    .enumerate()
    {
        let mut rng = StdRng::seed_from_u64(100 + idx as u64);
        let mut spec = WorkloadSpec::paper(12, 16, 5.0, 20.0);
        spec.topology = topology;
        let problem = spec.generate(&mut rng).unwrap();

        let sra = Sra::new().solve(&problem, &mut rng).unwrap();
        let gra = small_gra().solve(&problem, &mut rng).unwrap();
        assert!(
            problem.total_cost(&gra) <= problem.d_prime(),
            "{topology:?}: GRA worse than no replication"
        );
        assert!(
            problem.total_cost(&sra) <= problem.d_prime(),
            "{topology:?}: SRA worse than no replication"
        );
        // Distributed SRA agrees with the centralized algorithm regardless
        // of topology.
        let run = distributed_sra(&problem).unwrap();
        assert_eq!(run.scheme, sra, "{topology:?}");
    }
}

#[test]
fn zipf_reads_make_replication_more_selective() {
    // With skewed popularity the same capacity should be spent on the hot
    // objects; verify hot objects get more replicas than cold ones.
    let mut rng = StdRng::seed_from_u64(7);
    let mut spec = WorkloadSpec::paper(12, 40, 2.0, 10.0);
    spec.zipf_skew = Some(1.3);
    let problem = spec.generate(&mut rng).unwrap();
    let scheme = Sra::new().solve(&problem, &mut rng).unwrap();

    let mut by_reads: Vec<(u64, usize)> = problem
        .objects()
        .map(|k| (problem.total_reads(k), scheme.replica_degree(k)))
        .collect();
    by_reads.sort_unstable_by_key(|&(reads, _)| std::cmp::Reverse(reads));
    let hot: usize = by_reads[..10].iter().map(|&(_, d)| d).sum();
    let cold: usize = by_reads[by_reads.len() - 10..]
        .iter()
        .map(|&(_, d)| d)
        .sum();
    assert!(
        hot > cold,
        "hot objects ({hot}) should out-replicate cold ones ({cold})"
    );
}

#[test]
fn reports_format_for_humans() {
    let mut rng = StdRng::seed_from_u64(3);
    let problem = WorkloadSpec::paper(8, 10, 5.0, 20.0)
        .generate(&mut rng)
        .unwrap();
    let (_, report) = Sra::new().solve_report(&problem, &mut rng).unwrap();
    let text = report.to_string();
    assert!(text.contains("SRA") && text.contains("savings="));
}
