//! # drp-serve — the closed-loop online adaptation runtime
//!
//! The other crates in this workspace answer *"where should replicas go?"*
//! for a known access pattern. This crate closes the loop the paper's
//! Section 5 sketches around AGRA: a long-running replication **service**
//! that only learns the pattern by serving it.
//!
//! ```text
//!             ┌────────────────────────── epoch e ───────────────────────────┐
//!  streaming  │  ┌─────────┐ requests ┌────────────┐ fetches  ┌───────────┐  │
//!  driver ───▶│  │admission│ ───────▶ │ simulator  │ ◀──────▶ │ migration │  │
//!  (trace::   │  │  gate   │          │ (serving)  │          │ executor  │  │
//!   stream)   │  └─────────┘          └─────┬──────┘          └───────────┘  │
//!             └─────────────────────────────┼──────────────────────────────-─┘
//!                                           │ observed (site, object) counts
//!                                           ▼
//!                        ┌───────────────────────────────────┐
//!                        │ boundary decision (Policy)        │
//!                        │  day:   monitor + AGRA re-tune    │
//!                        │  night: full GRA rebuild          │
//!                        └────────────────┬──────────────────┘
//!                                         │ target scheme
//!                                         ▼
//!                        migration plan for epoch e + 1
//! ```
//!
//! Each epoch streams one period of timed requests (generated lazily by
//! [`drp_workload::trace::stream`]) through per-site admission gates into
//! the deterministic discrete-event simulator, which serves them against
//! the current replica directory under the paper's Eq. 4 message
//! conventions. Concurrently, the migration executor fetches any replicas
//! the previous boundary decided to add — from the nearest old holder,
//! with crash-tolerant retry/re-sourcing — and cuts them into the
//! directory before applying deallocations. Serving NTC and migration NTC
//! are charged to separate ledgers.
//!
//! At each boundary the observed counters become a fresh [`Problem`]
//! snapshot and the [`Policy`] picks the next target scheme; the resulting
//! [`MigrationPlan`] executes *live* during the next epoch while serving
//! continues on the old replicas.
//!
//! The whole run is summarized in a [`ServiceReport`] (rendered as JSON by
//! [`ServiceReport::render_json`]) whose
//! [`fingerprint`](ServiceReport::fingerprint) is bitwise-stable across
//! thread counts — the determinism contract CI enforces.
//!
//! [`Problem`]: drp_core::Problem
//! [`MigrationPlan`]: drp_core::migration::MigrationPlan
//!
//! # Examples
//!
//! Serve a paper-style instance for three epochs under pattern drift and
//! compare the monitor against the frozen baseline:
//!
//! ```
//! use drp_serve::{run_service, Policy, ServeConfig};
//! use drp_workload::{PatternChange, WorkloadSpec};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(11);
//! let problem = WorkloadSpec::paper(6, 8, 5.0, 25.0).generate(&mut rng)?;
//! let drift = PatternChange { change_percent: 400.0, objects_percent: 40.0, read_share: 0.9 };
//!
//! let config = ServeConfig {
//!     policy: Policy::Monitor,
//!     epochs: 3,
//!     seed: 11,
//!     drift: Some(drift),
//!     ..ServeConfig::default()
//! };
//! let adaptive = run_service(&problem, &config)?;
//! let frozen = run_service(&problem, &ServeConfig { policy: Policy::Static, ..config.clone() })?;
//!
//! // Same seed ⇒ the two runs saw identical traffic; only adaptation differs.
//! assert_eq!(adaptive.epochs[0].offered, frozen.epochs[0].offered);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

mod epoch;
pub mod hotkey;
pub mod ingest;
pub mod model;
pub mod oracle;
pub mod predict;
pub mod recovery;
pub mod report;
pub mod runtime;
pub mod wal;

pub use drp_workload::FaultSpec;
pub use epoch::{MigrationTuning, RequestTally};
pub use hotkey::{HotKeyDetector, HotSnapshot};
pub use ingest::{ingest_epoch, IngestOutcome, IngestScratch, IngestSpec};
pub use oracle::OracleReport;
pub use predict::{DemandPredictor, PredictSnapshot, PredictorKind};
pub use recovery::{crash_points, RecoveryInfo};
pub use report::{EpochReport, ServiceReport, ServiceTotals};
pub use runtime::{
    execute_migration, run_service, run_service_durable, run_service_durable_recorded,
    run_service_recorded, run_service_with_oracle, run_service_with_oracle_recorded,
    DurableOutcome, EpochTraffic, MigrationOutcome, Policy, ServeConfig,
};
pub use wal::{FileWalStore, MemWalStore, TracingStore, WalStore, WalTuning};
