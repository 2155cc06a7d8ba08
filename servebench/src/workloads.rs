//! The three benchmark workloads. Sizes, shares and the reasons for each
//! choice are in the README next to this crate.

use drp_serve::{Policy, ServeConfig};
use drp_workload::{Scenario, TopologyKind, WorkloadSpec};

use crate::probe::mix;

/// Ingestion workers per epoch (`ServeConfig::threads`) and the solver
/// pool size (`DRP_THREADS`), pinned for every workload.
pub const THREADS: usize = 1;

/// One named workload: the instance generator, the service settings and
/// how many instances one run serves.
#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    pub spec: WorkloadSpec,
    /// Service settings; the seed is set per instance.
    pub config: ServeConfig,
    /// Journal every epoch to a `FileWalStore`.
    pub durable: bool,
    /// Instances drawn from the run's seed. NTC per request scales with
    /// the instance's object sizes and link costs, which vary from seed to
    /// seed; pooling several instances keeps a run's figures steady.
    pub instances: usize,
}

impl Workload {
    /// No drift, no faults and no retuning: every epoch serves the
    /// bootstrap scheme, so its serving NTC must equal
    /// `Problem::total_cost` of that scheme.
    pub fn clean(&self) -> bool {
        self.config.policy == Policy::Static
            && self.config.scenario.is_none()
            && self.config.drift.is_none()
            && self.config.faults.is_none()
    }

    /// The seed of instance `k` of a run seeded with `seed`: it seeds both
    /// the generator and the service.
    pub fn instance_seed(&self, seed: u64, k: usize) -> u64 {
        mix(&[seed, k as u64])
    }

    /// The service settings for an instance seed.
    pub fn config(&self, seed: u64) -> ServeConfig {
        ServeConfig {
            seed,
            ..self.config.clone()
        }
    }
}

pub const NAMES: [&str; 3] = ["steady-m500", "diurnal-m60", "failover-m100"];

/// The workload called `name`.
pub fn workload(name: &str) -> Option<Workload> {
    let base = ServeConfig {
        threads: THREADS,
        ..ServeConfig::default()
    };
    let workload = match name {
        // U=0.3%: at M>=200 the paper's U=5% places no replica at all
        // (0.00% savings), which would leave nothing to serve but primaries.
        "steady-m500" => Workload {
            name: "steady-m500",
            spec: WorkloadSpec::paper(500, 40, 0.3, 15.0),
            config: ServeConfig {
                policy: Policy::Static,
                epochs: 3,
                ..base
            },
            durable: false,
            instances: 2,
        },
        // Reads per (site, object) from 1..8: Eq. 4 is linear in the
        // counts, so the placement problem keeps its shape at a fifth of
        // the traffic and boundary work dominates the loop.
        "diurnal-m60" => Workload {
            name: "diurnal-m60",
            spec: WorkloadSpec {
                reads_range: (1, 8),
                ..WorkloadSpec::paper(60, 150, 2.0, 15.0)
            },
            config: ServeConfig {
                policy: Policy::Monitor,
                epochs: 12,
                night_every: 4,
                scenario: Some(Scenario::DiurnalCycle),
                ..base
            },
            durable: false,
            instances: 3,
        },
        // Six epochs: the region is dark in epochs 2 and 3, the write-lean
        // drift lands in epoch 2, and boundaries 2 and 5 rebuild.
        "failover-m100" => Workload {
            name: "failover-m100",
            spec: WorkloadSpec {
                topology: TopologyKind::Hierarchical {
                    clusters: 8,
                    wan_factor: 10,
                },
                ..WorkloadSpec::paper(100, 60, 5.0, 15.0)
            },
            config: ServeConfig {
                policy: Policy::Monitor,
                epochs: 6,
                night_every: 3,
                scenario: Some(Scenario::RegionalFailover),
                ..base
            },
            durable: true,
            instances: 8,
        },
        _ => return None,
    };
    Some(workload)
}
