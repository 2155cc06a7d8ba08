//! The closed-loop service: epochs of streamed traffic, boundary decisions,
//! live migration of the decided scheme.
//!
//! [`run_service`] mounts a [`Problem`] on the epoch simulator and runs
//! [`ServeConfig::epochs`] periods. Each epoch serves a freshly streamed
//! window of requests against the *realized* directory while the migration
//! executor works the directory toward the policy's current *target*
//! scheme. At the boundary the observed per-(site, object) counters become
//! a fresh [`Problem`] snapshot and the [`Policy`] decides:
//!
//! * [`Policy::Static`] — never adapts; the bootstrap GRA scheme is served
//!   for the whole run (the frozen baseline).
//! * [`Policy::Monitor`] — the Section 5 loop: daytime boundaries feed the
//!   window to [`ReplicationMonitor::ingest_statistics`] (AGRA re-tune of
//!   drifted objects), every [`ServeConfig::night_every`]-th boundary runs
//!   a full nightly GRA rebuild instead.
//! * [`Policy::MonitorHot`] — the monitor loop plus the hot-object fast
//!   path: a windowed demand detector layers capacity-checked replica
//!   boosts onto every boundary's target.
//! * [`Policy::PredictiveEwma`] / [`Policy::PredictiveRegression`] — the
//!   hot-path monitor loop retuned on the forecast next window, with the
//!   forecast pre-staging the hot detector.
//!
//! Under [`ServeConfig::drift`], the true pattern shifts every epoch, so
//! the adaptive policies chase it while the static baseline decays.
//! [`ServeConfig::min_degree`] tops every scheme the service installs up
//! to a replica-degree floor, so crashes leave failover targets.
//!
//! # Determinism
//!
//! Every random draw comes from a stream seeded by FNV-mixing the master
//! seed with a fixed stream tag and the epoch index, the simulator is a
//! single-threaded event loop, and the only multi-threaded component (the
//! ingestion front end's per-site shards) builds the same queues for every
//! thread count. Same seed ⇒ byte-identical [`ServiceReport`], regardless
//! of `DRP_THREADS` or [`ServeConfig::threads`].

use std::sync::Arc;

use drp_algo::fault_tolerance::ensure_min_degree;
use drp_algo::monitor::{MonitorAction, MonitorConfig, ReplicationMonitor};
use drp_core::format::{write_instance, write_scheme};
use drp_core::migration::{plan_migration, MigrationPlan};
use drp_core::telemetry::{self, Recorder};
use drp_core::{CoreError, Problem, ReplicationScheme, ServeError};
use drp_net::sim::{FaultPlan, FaultStats, TrafficStats};
use drp_workload::{zipf, FaultSpec, PatternChange, Scenario};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::epoch::{run_epoch, EpochSpec};
pub use crate::epoch::{MigrationTuning, RequestTally};
use crate::hotkey::{self, HotKeyDetector, HotSnapshot};
use crate::ingest::IngestScratch;
use crate::predict::{DemandPredictor, PredictSnapshot, PredictorKind};
use crate::recovery::{parse_scheme, recover, RecoveryInfo};
use crate::report::{EpochReport, ServiceReport};
use crate::wal::{
    decode_stream, Checkpoint, MonitorSnapshot, RetuneKind, WalRecord, WalStore, WalTuning,
    WAL_VERSION,
};

/// How the service adapts at epoch boundaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    /// Serve the bootstrap scheme forever.
    Static,
    /// Monitor + AGRA by day, GRA by night.
    Monitor,
    /// [`Policy::Monitor`] plus the hot-object fast path: replica boosts
    /// for objects whose windowed demand stands far above the mean.
    MonitorHot,
    /// The hot-path monitor loop driven by EWMA demand forecasts: retunes
    /// act on the predicted next window and must pass the migration
    /// payback gate, and the forecast pre-stages the hot detector.
    PredictiveEwma,
    /// Like [`Policy::PredictiveEwma`] with windowed linear regression —
    /// the only forecaster that anticipates a ramp before its peak.
    PredictiveRegression,
}

impl Policy {
    /// Every policy, in canonical order.
    pub const ALL: [Policy; 5] = [
        Policy::Static,
        Policy::Monitor,
        Policy::MonitorHot,
        Policy::PredictiveEwma,
        Policy::PredictiveRegression,
    ];

    /// Parses a CLI name.
    ///
    /// # Errors
    ///
    /// Returns a message listing the valid names when the input matches
    /// none of them.
    pub fn parse(name: &str) -> Result<Policy, String> {
        Policy::ALL
            .into_iter()
            .find(|p| p.name() == name)
            .ok_or_else(|| {
                let names: Vec<&str> = Policy::ALL.iter().map(|p| p.name()).collect();
                let (last, rest) = names.split_last().expect("ALL is not empty");
                format!(
                    "unknown policy `{name}` (expected {} or {last})",
                    rest.join(", ")
                )
            })
    }

    /// The name used in reports and CLI flags.
    pub fn name(self) -> &'static str {
        match self {
            Policy::Static => "static",
            Policy::Monitor => "monitor",
            Policy::MonitorHot => "monitor+hot",
            Policy::PredictiveEwma => "predictive-ewma",
            Policy::PredictiveRegression => "predictive-regression",
        }
    }

    /// The forecaster a predictive policy runs (`None` for the reactive
    /// policies).
    pub fn predictor_kind(self) -> Option<PredictorKind> {
        match self {
            Policy::PredictiveEwma => Some(PredictorKind::Ewma),
            Policy::PredictiveRegression => Some(PredictorKind::Regression),
            _ => None,
        }
    }

    /// Whether the policy runs the hot-object fast path.
    pub fn hot(self) -> bool {
        matches!(
            self,
            Policy::MonitorHot | Policy::PredictiveEwma | Policy::PredictiveRegression
        )
    }
}

/// Configuration of one service run.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Adaptation policy.
    pub policy: Policy,
    /// Number of serving epochs.
    pub epochs: usize,
    /// Simulated time units per epoch; request timestamps fall in
    /// `[0, period)`.
    pub period: u64,
    /// Master seed; every internal stream derives from it.
    pub seed: u64,
    /// Every `k`-th boundary is a nightly GRA rebuild (0 = never).
    pub night_every: usize,
    /// Per-site admitted-request cap per epoch (0 = unlimited).
    pub admission_limit: u64,
    /// Monitor settings (GRA, AGRA, change threshold).
    pub monitor: MonitorConfig,
    /// Pattern drift applied to the true workload before every epoch after
    /// the first.
    pub drift: Option<PatternChange>,
    /// Faults injected into every epoch (crash windows in epoch-local
    /// time).
    pub faults: Option<FaultSpec>,
    /// A scenario compiled into per-epoch drift and fault windows. Mutually
    /// exclusive with `drift`/`faults`.
    pub scenario: Option<Scenario>,
    /// Migration executor timers.
    pub tuning: MigrationTuning,
    /// Durability knobs (used by [`run_service_durable`] only).
    pub wal: WalTuning,
    /// Ingestion worker threads per epoch (0 = size from the global
    /// worker pool, i.e. `DRP_THREADS` or the core count). Purely a
    /// throughput knob: every value produces the same report bitwise, so
    /// it is excluded from [`config_hash`] and WAL binding.
    pub threads: usize,
    /// Replica-degree floor: the bootstrap scheme and every boundary
    /// target are topped up to this many replicas per object (capacity
    /// permitting) so a crashed holder leaves a failover target. 1 is a
    /// no-op — every object already has its primary. Objects that capacity
    /// leaves below the floor are added to the `serve.min_degree_unmet`
    /// counter, once per topped-up scheme.
    pub min_degree: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            policy: Policy::Monitor,
            epochs: 3,
            period: 256,
            seed: 0,
            night_every: 0,
            admission_limit: 0,
            monitor: MonitorConfig::default(),
            drift: None,
            faults: None,
            scenario: None,
            tuning: MigrationTuning::default(),
            wal: WalTuning::default(),
            threads: 0,
            min_degree: 1,
        }
    }
}

/// FNV-1a over a word sequence: the seed-mixing scheme shared with the
/// experiment harness, used to derive independent rng streams.
pub(crate) fn mix(words: &[u64]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &word in words {
        for byte in word.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

// Stream tags for `mix([seed, TAG, ...])`.
pub(crate) const TAG_BOOT: u64 = 1;
pub(crate) const TAG_DRIFT: u64 = 2;
pub(crate) const TAG_TRACE: u64 = 3;
const TAG_DECIDE: u64 = 4;
const TAG_FAULT: u64 = 5;
pub(crate) const TAG_ORACLE: u64 = 6;

/// FNV-1a binding a WAL to its run: hashes the instance's exact text
/// rendering and the config's debug rendering, so recovery refuses to
/// resume a log under a different problem, policy, seed derivation or
/// tuning. [`ServeConfig::threads`] is canonicalized to 0 first — thread
/// count changes throughput, never results, so a log written under
/// `--threads 4` must resume cleanly under `--threads 1`.
pub(crate) fn config_hash(problem: &Problem, config: &ServeConfig) -> u64 {
    let canon = ServeConfig {
        threads: 0,
        ..config.clone()
    };
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for &byte in bytes {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(write_instance(problem).as_bytes());
    eat(format!("{canon:?}").as_bytes());
    hash
}

fn wal_io(e: std::io::Error) -> CoreError {
    ServeError::WalIo {
        reason: e.to_string(),
    }
    .into()
}

/// The run's per-epoch truth shifts: either the plain [`ServeConfig::drift`]
/// applied every epoch, or a [`Scenario`] compiled into one shift per
/// epoch. Shared by the loop and recovery's replay so both derive the same
/// truth from the same seed streams.
pub(crate) struct ShiftPlan {
    shifts: Option<Vec<drp_workload::EpochShift>>,
}

impl ShiftPlan {
    pub(crate) fn new(problem: &Problem, config: &ServeConfig) -> drp_core::Result<Self> {
        let shifts = match config.scenario {
            Some(scenario) => Some(
                scenario
                    .compile(config.epochs, problem.num_sites(), config.period)
                    .map_err(|e| CoreError::InvalidInstance {
                        reason: format!("bad scenario: {e}"),
                    })?,
            ),
            None => None,
        };
        Ok(ShiftPlan { shifts })
    }

    /// Applies epoch `e`'s shift to the truth in place (`e > 0`). The
    /// deterministic surges go first, then one TAG_DRIFT stream per shifted
    /// epoch feeds the Zipf re-skew and the pattern drift, so the replay in
    /// recovery is exact.
    pub(crate) fn advance(
        &self,
        truth: &mut Problem,
        config: &ServeConfig,
        e: usize,
    ) -> drp_core::Result<()> {
        static NO_SURGES: Vec<drp_workload::ObjectSurge> = Vec::new();
        let (drift, zipf_exponent, surges) = match &self.shifts {
            Some(plan) => (
                plan[e].drift.as_ref(),
                plan[e].zipf_exponent,
                &plan[e].surges,
            ),
            None => (config.drift.as_ref(), None, &NO_SURGES),
        };
        if !surges.is_empty() {
            let mut reads = truth.read_matrix().clone();
            for surge in surges {
                surge.apply(&mut reads);
            }
            *truth = truth.with_patterns(reads, truth.write_matrix().clone())?;
        }
        if drift.is_none() && zipf_exponent.is_none() {
            return Ok(());
        }
        let mut rng = StdRng::seed_from_u64(mix(&[config.seed, TAG_DRIFT, e as u64]));
        if let Some(s) = zipf_exponent {
            let mut reads = truth.read_matrix().clone();
            zipf::apply_popularity(&mut reads, s, &mut rng);
            *truth = truth.with_patterns(reads, truth.write_matrix().clone())?;
        }
        if let Some(drift) = drift {
            *truth = drift
                .apply(truth, &mut rng)
                .map_err(|err| CoreError::InvalidInstance {
                    reason: format!("drift failed: {err}"),
                })?
                .problem;
        }
        Ok(())
    }

    /// The fault spec active during epoch `e`.
    fn fault_spec<'a>(&'a self, config: &'a ServeConfig, e: usize) -> Option<&'a FaultSpec> {
        match &self.shifts {
            Some(plan) => plan[e].faults.as_ref(),
            None => config.faults.as_ref(),
        }
    }
}

/// A retune is accepted only if its predicted per-epoch saving repays the
/// migration transfer cost within this many epochs.
const PAYBACK_EPOCHS: u64 = 2;

/// Forecaster state of a predictive policy: the demand predictor plus any
/// retune candidate the payback gate has parked for a later boundary.
pub(crate) struct PredictState {
    predictor: DemandPredictor,
    deferred: Option<ReplicationScheme>,
}

impl PredictState {
    /// The forecaster of `config`'s policy (`None` for the reactive
    /// policies): cold, or restored bitwise from a WAL snapshot including
    /// any payback-deferred candidate.
    pub(crate) fn new(
        config: &ServeConfig,
        problem: &Problem,
        snap: Option<&PredictSnapshot>,
    ) -> drp_core::Result<Option<Self>> {
        let Some(kind) = config.policy.predictor_kind() else {
            return Ok(None);
        };
        Ok(Some(match snap {
            None => PredictState {
                predictor: DemandPredictor::new(kind, problem.num_objects()),
                deferred: None,
            },
            Some(snap) => PredictState {
                predictor: DemandPredictor::restore(kind, snap),
                deferred: snap
                    .deferred
                    .as_deref()
                    .map(|text| parse_scheme(text, problem, "deferred"))
                    .transpose()?,
            },
        }))
    }

    fn snapshot(&self) -> PredictSnapshot {
        self.predictor.snapshot(
            self.deferred
                .as_ref()
                .map(|scheme| write_scheme(scheme).into_bytes()),
        )
    }

    /// Payback gate: the candidate is this boundary's adaptation, else the
    /// parked one. It becomes the new target only if the NTC it saves on
    /// the `predicted` window amortizes its migration traffic within
    /// [`PAYBACK_EPOCHS`]; one that saves, just not fast enough yet, is
    /// parked for a cheaper boundary.
    fn payback_gate(
        &mut self,
        adapted: Option<ReplicationScheme>,
        predicted: &Problem,
        truth: &Problem,
        realized: &ReplicationScheme,
        target: &ReplicationScheme,
    ) -> drp_core::Result<Option<ReplicationScheme>> {
        let parked = self.deferred.take();
        let Some(candidate) = adapted.or(parked).filter(|c| c != target) else {
            return Ok(None);
        };
        let saving = predicted
            .total_cost(target)
            .saturating_sub(predicted.total_cost(&candidate));
        if saving == 0 {
            return Ok(None);
        }
        let migration = plan_migration(truth, realized, &candidate)?.transfer_cost();
        if migration <= saving.saturating_mul(PAYBACK_EPOCHS) {
            Ok(Some(candidate))
        } else {
            self.deferred = Some(candidate);
            Ok(None)
        }
    }
}

/// Hot-object detector plus the overlay of boosted replicas it currently
/// maintains on the target.
pub(crate) type HotState = (HotKeyDetector, Vec<(usize, usize)>);

/// The hot path of `config`'s policy (`None` when it runs none): cold, or
/// restored exactly from a WAL snapshot.
pub(crate) fn hot_state(
    config: &ServeConfig,
    num_objects: usize,
    snap: Option<&HotSnapshot>,
) -> Option<HotState> {
    config.policy.hot().then(|| match snap {
        Some(snap) => HotKeyDetector::restore(snap),
        None => (HotKeyDetector::new(num_objects), Vec::new()),
    })
}

/// The seeded bootstrap GRA topped up to [`ServeConfig::min_degree`]: the
/// scheme every run starts from, so all policies start from the same
/// realized scheme and differ only in how they adapt. Returns the monitor,
/// the floored scheme and the number of objects capacity leaves below the
/// floor. Recovery re-runs it when the log holds no monitor snapshot.
pub(crate) fn bootstrap(
    problem: &Problem,
    config: &ServeConfig,
) -> drp_core::Result<(ReplicationMonitor, ReplicationScheme, u64)> {
    let mut boot_rng = StdRng::seed_from_u64(mix(&[config.seed, TAG_BOOT]));
    let monitor =
        ReplicationMonitor::bootstrap(problem.clone(), config.monitor.clone(), &mut boot_rng)?;
    let mut scheme = monitor.scheme().clone();
    let floor = ensure_min_degree(problem, &mut scheme, config.min_degree)?;
    Ok((monitor, scheme, floor.unsatisfiable.len() as u64))
}

/// The serving loop's state at an epoch boundary: built by
/// [`LoopState::fresh`] for a new run, or rebuilt from the WAL's last
/// commit point by [`recover`].
pub(crate) struct LoopState {
    pub(crate) start_epoch: usize,
    pub(crate) truth: Problem,
    pub(crate) monitor: ReplicationMonitor,
    pub(crate) realized: ReplicationScheme,
    pub(crate) target: ReplicationScheme,
    pub(crate) epochs: Vec<EpochReport>,
    pub(crate) adaptations: u64,
    pub(crate) rebuilds: u64,
    pub(crate) hot: Option<HotState>,
    pub(crate) predict: Option<PredictState>,
}

impl LoopState {
    /// Epoch 0 of a new run: the bootstrap scheme realized and targeted,
    /// cold detectors. Records `serve.min_degree_unmet` for the bootstrap.
    fn fresh(
        problem: &Problem,
        config: &ServeConfig,
        recorder: &dyn Recorder,
    ) -> drp_core::Result<Self> {
        let (monitor, scheme, unmet) = bootstrap(problem, config)?;
        recorder.add_counter("serve.min_degree_unmet", unmet);
        Ok(LoopState {
            start_epoch: 0,
            truth: problem.clone(),
            monitor,
            realized: scheme.clone(),
            target: scheme,
            epochs: Vec::with_capacity(config.epochs),
            adaptations: 0,
            rebuilds: 0,
            hot: hot_state(config, problem.num_objects(), None),
            predict: PredictState::new(config, problem, None)?,
        })
    }
}

/// Rescales the observed window's read pattern so each object's column
/// totals the forecast demand (site proportions preserved, u128 interim to
/// dodge overflow). The write pattern is untouched: the forecasters track
/// read demand, which is what drives replica placement.
fn forecast_problem(observed: &Problem, forecast: &[u64]) -> drp_core::Result<Problem> {
    let mut reads = observed.read_matrix().clone();
    for (k, &demand) in forecast.iter().enumerate().take(observed.num_objects()) {
        let current: u64 = (0..observed.num_sites()).map(|i| *reads.get(i, k)).sum();
        let predicted = demand.max(1);
        if current == 0 || predicted == current {
            continue;
        }
        for i in 0..observed.num_sites() {
            let v = reads.get_mut(i, k);
            *v = (u128::from(*v) * u128::from(predicted) / u128::from(current)) as u64;
        }
    }
    observed.with_patterns(reads, observed.write_matrix().clone())
}

/// Client traffic for a standalone epoch: one `period` of the problem's
/// request pattern, timestamped from the stream `seed`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpochTraffic {
    /// Simulated time units the requests spread over.
    pub period: u64,
    /// Stream seed for the request timestamps.
    pub seed: u64,
}

/// What [`execute_migration`] did.
#[derive(Debug, Clone, PartialEq)]
pub struct MigrationOutcome {
    /// The directory after the final round (equals the plan's target when
    /// the migration converged).
    pub scheme: ReplicationScheme,
    /// Whether the directory reached the target.
    pub converged: bool,
    /// Rounds used (1 without faults).
    pub rounds: usize,
    /// Total NTC of the fetch traffic.
    pub migration_ntc: u64,
    /// Replica installs across all rounds.
    pub installed: usize,
    /// Deallocations across all rounds.
    pub deallocated: usize,
    /// Fetch retries across all rounds.
    pub retries: u64,
    /// Client requests of the first round (all zero without traffic).
    pub requests: RequestTally,
    /// Simulator traffic of the first round.
    pub sim: TrafficStats,
    /// Events the first round dispatched.
    pub sim_events: u64,
    /// Simulated time at which the first round went quiescent.
    pub completion_time: u64,
    /// Fault counters of the first (faulted) round.
    pub fault_stats: FaultStats,
}

/// Runs one standalone epoch of the serving engine: executes a
/// [`MigrationPlan`] and, with `traffic`, serves one period of client
/// requests against the directory at the same time — the form used to
/// study the migration executor and the failover path under faults.
///
/// Faults apply to the first round only — they model a crash *during* the
/// epoch; once the fault window has passed, the remaining additions are
/// re-planned against the surviving directory and fetched cleanly (with no
/// traffic), so a valid plan always converges. Each round closes a
/// `serve.epoch` span on `recorder`.
///
/// # Errors
///
/// Propagates shape errors from re-planning and simulator construction,
/// and rejects degenerate `tuning`.
pub fn execute_migration(
    problem: &Problem,
    scheme: &ReplicationScheme,
    plan: &MigrationPlan,
    faults: Option<FaultPlan>,
    tuning: MigrationTuning,
    traffic: Option<EpochTraffic>,
    recorder: Arc<dyn Recorder>,
) -> drp_core::Result<MigrationOutcome> {
    tuning.validate()?;
    let target = plan.apply(problem, scheme)?;
    let mut current = scheme.clone();
    let mut outcome = MigrationOutcome {
        scheme: current.clone(),
        converged: false,
        rounds: 0,
        migration_ntc: 0,
        installed: 0,
        deallocated: 0,
        retries: 0,
        requests: RequestTally::default(),
        sim: TrafficStats::default(),
        sim_events: 0,
        completion_time: 0,
        fault_stats: FaultStats::default(),
    };
    const MAX_ROUNDS: usize = 16;
    let mut scratch = IngestScratch::new();
    for round in 0..MAX_ROUNDS {
        let step = plan_migration(problem, &current, &target)?;
        let serve = round == 0 && traffic.is_some();
        if step.moves() == 0 && !serve {
            break;
        }
        let _span = telemetry::span(recorder.as_ref(), "serve.epoch");
        let epoch = run_epoch(
            &EpochSpec {
                problem,
                scheme: &current,
                plan: Some(&step),
                period: traffic.map_or(0, |t| t.period),
                admission_limit: 0,
                tuning,
                faults: if round == 0 { faults.clone() } else { None },
                seed: traffic.map_or(0, |t| t.seed),
                traffic: serve,
                threads: 1,
            },
            &mut scratch,
            Arc::clone(&recorder),
        )?;
        outcome.rounds += 1;
        outcome.migration_ntc += epoch.migration_ntc;
        outcome.installed += epoch.counters.installed;
        outcome.deallocated += epoch.counters.deallocated;
        outcome.retries += epoch.counters.retries;
        if round == 0 {
            outcome.requests = epoch.counters.requests;
            outcome.sim = epoch.traffic;
            outcome.sim_events = epoch.sim_events;
            outcome.completion_time = epoch.completion_time;
            outcome.fault_stats = epoch.fault_stats;
        }
        current = epoch.scheme;
    }
    outcome.converged = plan_migration(problem, &current, &target)?.moves() == 0;
    outcome.scheme = current;
    Ok(outcome)
}

/// Runs the service without telemetry.
///
/// # Errors
///
/// Propagates instance-shape, solver and simulator errors; rejects
/// degenerate tuning up front.
pub fn run_service(problem: &Problem, config: &ServeConfig) -> drp_core::Result<ServiceReport> {
    run_service_recorded(problem, config, telemetry::noop())
}

/// Runs the service, emitting `serve.*` spans and counters to `recorder`.
/// Inside each boundary's `serve.retune` span sit one `algo.adapt` span per
/// daytime monitor call, one `algo.rebuild` span per nightly GRA rebuild,
/// one `serve.forecast` span per predictive forecast and one `serve.hot`
/// span per hot-path pass.
///
/// # Errors
///
/// See [`run_service`].
pub fn run_service_recorded(
    problem: &Problem,
    config: &ServeConfig,
    recorder: Arc<dyn Recorder>,
) -> drp_core::Result<ServiceReport> {
    run_loop(problem, config, recorder, None, None, None)
}

/// Runs the service and scores it against the offline-optimal replay
/// oracle: the run's epoch-start schemes are re-costed under the oracle's
/// clean replay model and compared against the cheapest trajectory a
/// full-knowledge scheduler could have taken (see [`crate::oracle`]). The
/// returned report carries the resulting
/// [`competitive_ratio`](ServiceReport::competitive_ratio), which is
/// `>= 1.0` by construction.
///
/// # Errors
///
/// See [`run_service`]; additionally propagates solver errors from the
/// oracle's hindsight re-solves.
pub fn run_service_with_oracle(
    problem: &Problem,
    config: &ServeConfig,
) -> drp_core::Result<(ServiceReport, crate::oracle::OracleReport)> {
    run_service_with_oracle_recorded(problem, config, telemetry::noop())
}

/// [`run_service_with_oracle`] with telemetry: the run emits the usual
/// `serve.*` spans and counters, and the oracle pass closes one
/// `serve.oracle` span.
///
/// # Errors
///
/// See [`run_service_with_oracle`].
pub fn run_service_with_oracle_recorded(
    problem: &Problem,
    config: &ServeConfig,
    recorder: Arc<dyn Recorder>,
) -> drp_core::Result<(ServiceReport, crate::oracle::OracleReport)> {
    let mut schemes = Vec::with_capacity(config.epochs);
    let mut report = run_loop(
        problem,
        config,
        Arc::clone(&recorder),
        None,
        None,
        Some(&mut schemes),
    )?;
    let _span = telemetry::span(recorder.as_ref(), "serve.oracle");
    let oracle = crate::oracle::evaluate(problem, config, &schemes)?;
    report.competitive_ratio = oracle.competitive_ratio;
    Ok((report, oracle))
}

/// A [`ServiceReport`] plus what recovery found when the run resumed from
/// an existing WAL.
#[derive(Debug, Clone, PartialEq)]
pub struct DurableOutcome {
    /// The complete run report — bitwise-identical to the report an
    /// uncrashed in-memory run of the same `(problem, config)` produces.
    pub report: ServiceReport,
    /// `Some` when the store held a prior run's log and the run resumed
    /// from it; `None` for a fresh log.
    pub recovery: Option<RecoveryInfo>,
}

/// Runs the service in durable mode: every epoch is journaled to `store`
/// (see [`crate::wal`] for the record grammar) and compacted into periodic
/// checkpoints per [`ServeConfig::wal`]. If `store` already holds a log
/// for this exact `(problem, config)`, the run *recovers*: committed
/// epochs are restored from the log, a partially journaled epoch is
/// re-run deterministically, and the final report is bitwise-identical to
/// an uncrashed run — the crash-simulation suite enumerates every record
/// boundary and torn prefix to certify exactly that.
///
/// # Errors
///
/// Everything [`run_service`] rejects, plus [`ServeError`] wrapped in
/// [`CoreError::Serve`]: `WalMismatch` when the log belongs to a different
/// run, `WalIo` on store failures. Torn or corrupt log tails are NOT
/// errors — recovery truncates to the last commit point and reports the
/// damage in [`DurableOutcome::recovery`]. A log torn inside this run's
/// own `RunStart` header restarts from epoch 0 the same way.
pub fn run_service_durable(
    problem: &Problem,
    config: &ServeConfig,
    store: &mut dyn WalStore,
) -> drp_core::Result<DurableOutcome> {
    run_service_durable_recorded(problem, config, store, telemetry::noop())
}

/// [`run_service_durable`] with telemetry.
///
/// # Errors
///
/// See [`run_service_durable`].
pub fn run_service_durable_recorded(
    problem: &Problem,
    config: &ServeConfig,
    store: &mut dyn WalStore,
    recorder: Arc<dyn Recorder>,
) -> drp_core::Result<DurableOutcome> {
    let bytes = store.load().map_err(wal_io)?;
    let run_start = WalRecord::RunStart {
        version: WAL_VERSION,
        seed: config.seed,
        config_hash: config_hash(problem, config),
    }
    .frame();
    let decoded = decode_stream(&bytes);
    // A crash inside the very first append leaves a proper prefix of this
    // run's header: nothing was committed, so the run starts over.
    let torn_header = decoded.records.is_empty()
        && matches!(decoded.damage, Some(ServeError::WalTruncated { .. }))
        && run_start.starts_with(&bytes);
    if bytes.is_empty() || torn_header {
        if torn_header {
            store.reset(&run_start).map_err(wal_io)?;
        } else {
            store.append(&run_start).map_err(wal_io)?;
        }
        let mut ctx = WalCtx {
            store,
            run_start,
            since_checkpoint: 0,
        };
        let report = run_loop(problem, config, recorder, None, Some(&mut ctx), None)?;
        return Ok(DurableOutcome {
            report,
            recovery: torn_header.then_some(RecoveryInfo {
                resumed_epoch: 0,
                dropped_records: 0,
                damage: decoded.damage,
            }),
        });
    }
    let recovered = recover(problem, config, &decoded.records, decoded.damage)?;
    // Truncate to the commit point: re-framing the kept records is
    // byte-identical to what was originally written.
    let kept: Vec<u8> = decoded.records[..recovered.kept]
        .iter()
        .flat_map(WalRecord::frame)
        .collect();
    store.reset(&kept).map_err(wal_io)?;
    let mut ctx = WalCtx {
        store,
        run_start,
        since_checkpoint: recovered.since_checkpoint,
    };
    let report = run_loop(
        problem,
        config,
        recorder,
        Some(recovered.resume),
        Some(&mut ctx),
        None,
    )?;
    Ok(DurableOutcome {
        report,
        recovery: Some(recovered.info),
    })
}

/// Journaling context threaded through the durable loop.
struct WalCtx<'a> {
    store: &'a mut dyn WalStore,
    /// Framed `RunStart`, re-written at every compaction.
    run_start: Vec<u8>,
    /// Epochs committed since the last checkpoint.
    since_checkpoint: usize,
}

impl WalCtx<'_> {
    fn append(&mut self, records: &[WalRecord]) -> drp_core::Result<()> {
        let bytes: Vec<u8> = records.iter().flat_map(WalRecord::frame).collect();
        self.store.append(&bytes).map_err(wal_io)
    }

    /// Compacts the log to `RunStart` + one checkpoint.
    fn checkpoint(&mut self, cp: Checkpoint) -> drp_core::Result<()> {
        let mut bytes = self.run_start.clone();
        bytes.extend_from_slice(&WalRecord::Checkpoint(cp).frame());
        self.store.reset(&bytes).map_err(wal_io)?;
        self.since_checkpoint = 0;
        Ok(())
    }
}

fn snapshot_monitor(monitor: &ReplicationMonitor) -> drp_core::Result<MonitorSnapshot> {
    let population = monitor
        .population()
        .iter()
        .map(|c| {
            let bits = u32::try_from(c.len()).map_err(|_| ServeError::FrameOverflow {
                what: "monitor genome bits",
                value: c.len() as u64,
                limit: u64::from(u32::MAX),
            })?;
            Ok((bits, c.words().to_vec()))
        })
        .collect::<drp_core::Result<Vec<_>>>()?;
    Ok(MonitorSnapshot {
        problem: write_instance(monitor.problem()).into_bytes(),
        population,
    })
}

/// The shared serving loop: fresh and recovered, in-memory and durable.
/// `schemes_out`, when present, collects the realized scheme at the start
/// of every epoch — the online trajectory the oracle scores.
fn run_loop(
    problem: &Problem,
    config: &ServeConfig,
    recorder: Arc<dyn Recorder>,
    resume: Option<LoopState>,
    mut wal: Option<&mut WalCtx<'_>>,
    mut schemes_out: Option<&mut Vec<ReplicationScheme>>,
) -> drp_core::Result<ServiceReport> {
    let _run_span = telemetry::span(recorder.as_ref(), "serve.run");
    if let Some(drift) = &config.drift {
        drift.validate().map_err(|e| CoreError::InvalidInstance {
            reason: format!("bad drift spec: {e}"),
        })?;
    }
    if config.scenario.is_some() && (config.drift.is_some() || config.faults.is_some()) {
        return Err(CoreError::InvalidInstance {
            reason: "a scenario is mutually exclusive with explicit drift/faults".into(),
        });
    }
    if let Some(faults) = &config.faults {
        faults
            .validate(problem.num_sites())
            .map_err(|e| CoreError::InvalidInstance {
                reason: format!("bad fault spec: {e}"),
            })?;
    }
    config.tuning.validate()?;
    config.wal.validate()?;
    let shift_plan = ShiftPlan::new(problem, config)?;
    let threads = if config.threads == 0 {
        drp_net::pool::WorkerPool::global().threads()
    } else {
        config.threads
    };

    let mut st = match resume {
        Some(state) => state,
        None => LoopState::fresh(problem, config, recorder.as_ref())?,
    };

    // One scratch for the whole run: the admitted queues and the
    // producer's pull buffer are reused epoch after epoch instead of
    // re-materializing the full trace each time.
    let mut scratch = IngestScratch::new();

    for e in st.start_epoch..config.epochs {
        let _epoch_span = telemetry::span(recorder.as_ref(), "serve.epoch");
        if e > 0 {
            shift_plan.advance(&mut st.truth, config, e)?;
        }
        if let Some(out) = schemes_out.as_deref_mut() {
            out.push(st.realized.clone());
        }

        let plan = if st.realized != st.target {
            Some(plan_migration(&st.truth, &st.realized, &st.target)?)
        } else {
            None
        };
        let outcome = run_epoch(
            &EpochSpec {
                problem: &st.truth,
                scheme: &st.realized,
                plan: plan.as_ref(),
                period: config.period,
                admission_limit: config.admission_limit,
                tuning: config.tuning,
                faults: shift_plan
                    .fault_spec(config, e)
                    .map(|f| f.plan(mix(&[config.seed, TAG_FAULT, e as u64]))),
                seed: mix(&[config.seed, TAG_TRACE, e as u64]),
                traffic: true,
                threads,
            },
            &mut scratch,
            Arc::clone(&recorder),
        )?;
        st.realized = outcome.scheme.clone();

        // Boundary decision. The matrices move out of the outcome — no
        // clone; nothing downstream reads them again. The `serve.retune`
        // span covers the policy, hot boosts and degree floor; inside it,
        // `serve.forecast` times the forecaster, `algo.rebuild` the nightly
        // GRA, `algo.adapt` the monitor's daytime AGRA call and `serve.hot`
        // the hot detector and its boosts (the GA's own spans stay off the
        // serve recorder).
        let retune_span = telemetry::span(recorder.as_ref(), "serve.retune");
        let observed = st
            .truth
            .with_patterns(outcome.observed_reads, outcome.observed_writes)?;
        let night = config.night_every > 0 && (e + 1) % config.night_every == 0;
        let mut decide_rng = StdRng::seed_from_u64(mix(&[config.seed, TAG_DECIDE, e as u64]));
        let mut adapted_objects = 0usize;
        // What this boundary did, for the WAL's commit record. A monitor
        // snapshot rides along exactly when the decision mutated the
        // monitor — its state is untouched on the Keep path.
        let mut kind = RetuneKind::Keep;
        let mut monitor_changed = false;
        // The retune input. A predictive policy folds this window's
        // realized demand into its forecaster and retunes on the observed
        // window rescaled to the forecast demand — the window it is about
        // to serve, not the one that just ended — and pre-stages the hot
        // detector with the same forecast.
        let mut prestage: Option<Vec<u64>> = None;
        let input = match st.predict.as_mut() {
            Some(ps) => {
                let _span = telemetry::span(recorder.as_ref(), "serve.forecast");
                let demand: Vec<u64> = st
                    .truth
                    .objects()
                    .map(|k| st.truth.total_reads(k))
                    .collect();
                ps.predictor.observe(&demand);
                let forecast = ps.predictor.forecast();
                let predicted = forecast_problem(&observed, &forecast)?;
                prestage = Some(forecast);
                predicted
            }
            None => observed,
        };
        if config.policy != Policy::Static {
            if night {
                {
                    let _span = telemetry::span(recorder.as_ref(), "algo.rebuild");
                    st.monitor.nightly_rebuild_with(input, &mut decide_rng)?;
                }
                st.rebuilds += 1;
                kind = RetuneKind::Rebuild;
                monitor_changed = true;
                st.target = st.monitor.scheme().clone();
                if let Some(ps) = st.predict.as_mut() {
                    ps.deferred = None;
                }
            } else {
                // Only a predictive policy gates the candidate, on the
                // input it was tuned for.
                let gate = st.predict.as_mut().map(|ps| (ps, input.clone()));
                let mut acted = 0usize;
                let mut candidate = None;
                let action = {
                    let _span = telemetry::span(recorder.as_ref(), "algo.adapt");
                    st.monitor.ingest_statistics(input, &mut decide_rng)?
                };
                if let MonitorAction::Adapted {
                    changed_objects, ..
                } = action
                {
                    acted = changed_objects;
                    monitor_changed = true;
                    candidate = Some(st.monitor.scheme().clone());
                }
                let accepted = match gate {
                    Some((ps, predicted)) => {
                        ps.payback_gate(candidate, &predicted, &st.truth, &st.realized, &st.target)?
                    }
                    // The reactive monitor serves its own scheme, adapted
                    // or not.
                    None => {
                        st.target = st.monitor.scheme().clone();
                        candidate
                    }
                };
                if let Some(next) = accepted {
                    st.target = next;
                    st.adaptations += 1;
                    kind = RetuneKind::Adapt;
                    adapted_objects = acted;
                }
            }
        }

        // Hot-object fast path: fold this epoch's demand into the windowed
        // EWMA, re-decide the hot set, and layer capacity-checked replica
        // boosts onto whatever target the policy just picked — fast-track
        // adaptation between (or on top of) retunes.
        let mut hot_promotions = 0u64;
        let mut hot_demotions = 0u64;
        if let Some((detector, boosted)) = st.hot.as_mut() {
            let _span = telemetry::span(recorder.as_ref(), "serve.hot");
            // The streaming driver offers exactly the truth's pattern and
            // demand is counted pre-shed, so the truth's per-object read
            // totals ARE the observed window's demand vector — no extra
            // observed-problem materialization needed.
            let demand: Vec<u64> = prestage.unwrap_or_else(|| {
                st.truth
                    .objects()
                    .map(|k| st.truth.total_reads(k))
                    .collect()
            });
            let step = detector.observe(&demand);
            hot_promotions = step.promotions;
            hot_demotions = step.demotions;
            let boost = hotkey::apply_boosts(&st.truth, &st.realized, st.target, detector, boosted);
            st.target = boost.target;
            *boosted = boost.boosted;
            recorder.add_counter("serve.hot_boosts_added", boost.added);
            recorder.add_counter("serve.hot_boosts_removed", boost.removed);
        }
        if config.min_degree > 1 {
            let floor = ensure_min_degree(&st.truth, &mut st.target, config.min_degree)?;
            recorder.add_counter("serve.min_degree_unmet", floor.unsatisfiable.len() as u64);
            // The monitor adapts from the floored target, which is also the
            // scheme recovery rebuilds it around.
            if config.policy != Policy::Static && st.monitor.scheme() != &st.target {
                st.monitor = ReplicationMonitor::from_parts(
                    st.monitor.problem().clone(),
                    config.monitor.clone(),
                    st.target.clone(),
                    st.monitor.population().to_vec(),
                )?;
                monitor_changed = true;
            }
        }
        drop(retune_span);

        let c = outcome.counters;
        let report = EpochReport {
            epoch: e,
            night,
            adapted_objects,
            rebuilt: kind == RetuneKind::Rebuild,
            hot_promotions,
            hot_demotions,
            serving_ntc: outcome.serving_ntc,
            migration_ntc: outcome.migration_ntc,
            migration_planned: plan.as_ref().map_or(0, MigrationPlan::moves),
            migration_installed: c.installed,
            migration_deallocated: c.deallocated,
            migration_deferred: c.deferred,
            migration_retries: c.retries,
            offered: c.offered,
            admitted: c.admitted,
            shed: c.shed,
            reads_issued: c.requests.reads_issued,
            reads_served: c.requests.reads_served,
            reads_stale: c.requests.reads_stale,
            reads_lost: c.requests.reads_lost(),
            writes_issued: c.requests.writes_issued,
            writes_committed: c.requests.writes_committed,
            writes_lost: c.requests.writes_lost(),
            replicas: st.realized.replica_count(),
            savings_percent: st.truth.savings_percent(&st.realized),
            crashes: outcome.fault_stats.crashes,
            messages_lost: outcome.fault_stats.dropped_random + outcome.fault_stats.lost_arrivals,
            sim_events: outcome.sim_events,
            completion_time: outcome.completion_time,
        };
        recorder.add_counter("serve.serving_ntc", report.serving_ntc);
        recorder.add_counter("serve.migration_ntc", report.migration_ntc);
        recorder.add_counter("serve.shed", report.shed);
        match kind {
            RetuneKind::Keep => {}
            RetuneKind::Adapt => recorder.add_counter("serve.adaptations", 1),
            RetuneKind::Rebuild => recorder.add_counter("serve.rebuilds", 1),
        }
        st.epochs.push(report);

        if let (Some(ctx), Some(epoch_report)) = (wal.as_deref_mut(), st.epochs.last()) {
            // Journal the epoch in one append: the EpochEnd/Retune pair
            // that makes it durable (Retune is the commit point).
            let snapshot = if monitor_changed {
                Some(snapshot_monitor(&st.monitor)?)
            } else {
                None
            };
            ctx.append(&[
                WalRecord::EpochEnd {
                    epoch: e as u64,
                    report: epoch_report.clone(),
                    realized: write_scheme(&st.realized).into_bytes(),
                },
                WalRecord::Retune {
                    epoch: e as u64,
                    kind,
                    target: write_scheme(&st.target).into_bytes(),
                    monitor: snapshot,
                    hot: st.hot.as_ref().map(|(d, b)| d.snapshot(b)),
                    predictor: st.predict.as_ref().map(PredictState::snapshot),
                },
            ])?;
            ctx.since_checkpoint += 1;
            if ctx.since_checkpoint >= config.wal.checkpoint_every {
                ctx.checkpoint(Checkpoint {
                    next_epoch: e as u64 + 1,
                    adaptations: st.adaptations,
                    rebuilds: st.rebuilds,
                    realized: write_scheme(&st.realized).into_bytes(),
                    target: write_scheme(&st.target).into_bytes(),
                    monitor: Some(snapshot_monitor(&st.monitor)?),
                    hot: st.hot.as_ref().map(|(d, b)| d.snapshot(b)),
                    predictor: st.predict.as_ref().map(PredictState::snapshot),
                    reports: st.epochs.clone(),
                })?;
            }
        }
    }

    let totals = ServiceReport::tally(&st.epochs, st.adaptations, st.rebuilds);
    Ok(ServiceReport {
        policy: config.policy.name().to_string(),
        seed: config.seed,
        period: config.period,
        admission_limit: config.admission_limit,
        night_every: config.night_every,
        epochs: st.epochs,
        totals,
        competitive_ratio: 0.0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use drp_algo::GraConfig;
    use drp_core::telemetry::InMemoryRecorder;
    use drp_workload::WorkloadSpec;

    fn monitor_config() -> MonitorConfig {
        MonitorConfig {
            gra: GraConfig {
                population_size: 12,
                generations: 20,
                ..GraConfig::default()
            },
            ..MonitorConfig::default()
        }
    }

    fn problem(seed: u64) -> Problem {
        let mut rng = StdRng::seed_from_u64(seed);
        WorkloadSpec::paper(6, 8, 5.0, 30.0)
            .generate(&mut rng)
            .unwrap()
    }

    fn drift() -> PatternChange {
        PatternChange {
            change_percent: 600.0,
            objects_percent: 50.0,
            read_share: 0.9,
        }
    }

    #[test]
    fn the_hot_path_runs_under_monitor_hot_and_both_predictive_policies() {
        let hot: Vec<Policy> = Policy::ALL.into_iter().filter(|p| p.hot()).collect();
        assert_eq!(
            hot,
            [
                Policy::MonitorHot,
                Policy::PredictiveEwma,
                Policy::PredictiveRegression
            ]
        );
        // Every forecaster pre-stages a hot detector.
        for policy in Policy::ALL {
            assert!(
                policy.predictor_kind().is_none() || policy.hot(),
                "{policy:?}"
            );
        }
    }

    #[test]
    fn explicit_faults_are_validated_not_panicked_on() {
        let problem = problem(2);
        let sites = problem.num_sites();
        for bad in [
            FaultSpec {
                crashes: vec![(sites, 0, 10)],
                ..FaultSpec::default()
            },
            FaultSpec {
                crashes: vec![(0, 10, 10)],
                ..FaultSpec::default()
            },
            FaultSpec {
                drop_probability: 1.5,
                ..FaultSpec::default()
            },
        ] {
            let config = ServeConfig {
                policy: Policy::Static,
                epochs: 1,
                monitor: monitor_config(),
                faults: Some(bad.clone()),
                ..ServeConfig::default()
            };
            let err = run_service(&problem, &config).unwrap_err();
            assert!(err.to_string().contains("bad fault spec"), "{bad:?}: {err}");
        }
    }

    #[test]
    fn oversized_admission_limit_sheds_nothing() {
        // Regression (32-bit truncation): an admission limit past u32::MAX
        // must mean "admit everything", exactly like the 0 sentinel — a
        // plain `as usize` cast would wrap it to a tiny quota and shed
        // admitted requests on 32-bit targets.
        let problem = problem(7);
        let unlimited = ServeConfig {
            policy: Policy::Static,
            epochs: 2,
            seed: 7,
            admission_limit: 0,
            monitor: monitor_config(),
            ..ServeConfig::default()
        };
        let huge = ServeConfig {
            admission_limit: u64::from(u32::MAX) + 7,
            ..unlimited.clone()
        };
        let a = run_service(&problem, &unlimited).unwrap();
        let b = run_service(&problem, &huge).unwrap();
        assert_eq!(b.totals.shed, 0);
        assert_eq!(a.epochs, b.epochs);
    }

    #[test]
    fn monitor_snapshots_are_fallible_not_panicking() {
        // Regression (serve-path panic sweep): snapshotting a healthy
        // monitor succeeds through the typed-error path, and the overflow
        // case maps into `ServeError::FrameOverflow` rather than a panic.
        let problem = problem(3);
        let mut boot = StdRng::seed_from_u64(1);
        let monitor =
            ReplicationMonitor::bootstrap(problem.clone(), monitor_config(), &mut boot).unwrap();
        let snapshot = snapshot_monitor(&monitor).unwrap();
        assert!(!snapshot.population.is_empty());

        let err = CoreError::from(ServeError::FrameOverflow {
            what: "monitor genome bits",
            value: u64::from(u32::MAX) + 1,
            limit: u64::from(u32::MAX),
        });
        assert!(err.to_string().contains("exceeds the wal frame limit"));
    }

    #[test]
    fn static_epoch_ntc_matches_offline_replay() {
        let problem = problem(5);
        let config = ServeConfig {
            policy: Policy::Static,
            epochs: 1,
            seed: 5,
            monitor: monitor_config(),
            ..ServeConfig::default()
        };
        let report = run_service(&problem, &config).unwrap();

        // Replay the same window offline as a standalone epoch: the same
        // bootstrap scheme and the same request stream, so the serving
        // NTC must match data-unit for data-unit (and nothing may have
        // been billed to migration).
        let mut boot = StdRng::seed_from_u64(mix(&[config.seed, TAG_BOOT]));
        let scheme = ReplicationMonitor::bootstrap(problem.clone(), monitor_config(), &mut boot)
            .unwrap()
            .scheme()
            .clone();
        let offline = execute_migration(
            &problem,
            &scheme,
            &MigrationPlan::default(),
            None,
            config.tuning,
            Some(EpochTraffic {
                period: config.period,
                seed: mix(&[config.seed, TAG_TRACE, 0]),
            }),
            telemetry::noop(),
        )
        .unwrap();

        let e = &report.epochs[0];
        assert_eq!(e.serving_ntc, problem.total_cost(&scheme));
        assert_eq!(e.serving_ntc, offline.sim.transfer_cost);
        assert_eq!(e.completion_time, offline.completion_time);
        // Nothing is shed without an admission limit, so everything
        // offered was issued.
        assert_eq!(
            e.offered,
            offline.requests.reads_issued + offline.requests.writes_issued
        );
        assert_eq!(e.migration_ntc, 0);
        assert_eq!(e.shed, 0);
        assert_eq!(e.reads_lost, 0);
        assert_eq!(e.writes_lost, 0);
    }

    #[test]
    fn same_seed_is_bitwise_reproducible_with_and_without_telemetry() {
        let problem = problem(9);
        let config = ServeConfig {
            policy: Policy::Monitor,
            epochs: 3,
            seed: 9,
            night_every: 3,
            monitor: monitor_config(),
            drift: Some(drift()),
            faults: Some(FaultSpec {
                crashes: vec![(1, 10, 60)],
                drop_probability: 0.02,
                jitter: 2,
            }),
            ..ServeConfig::default()
        };
        let a = run_service(&problem, &config).unwrap();
        let b = run_service(&problem, &config).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.fingerprint(), b.fingerprint());

        let recorder = Arc::new(InMemoryRecorder::default());
        let c = run_service_recorded(&problem, &config, recorder.clone()).unwrap();
        assert_eq!(a.fingerprint(), c.fingerprint());
        assert_eq!(recorder.span_count("serve.epoch"), 3);
        assert_eq!(recorder.span_count("serve.run"), 1);
        assert_eq!(recorder.counter("serve.serving_ntc"), a.totals.serving_ntc);
    }

    #[test]
    fn every_epoch_opens_one_ingest_and_one_retune_span() {
        let problem = problem(4);
        let config = ServeConfig {
            policy: Policy::Monitor,
            epochs: 4,
            seed: 4,
            night_every: 2,
            monitor: monitor_config(),
            drift: Some(drift()),
            ..ServeConfig::default()
        };
        let recorder = Arc::new(InMemoryRecorder::default());
        run_service_recorded(&problem, &config, recorder.clone()).unwrap();
        assert_eq!(recorder.span_count("serve.ingest"), 4);
        assert_eq!(recorder.span_count("serve.retune"), 4);
    }

    #[test]
    fn monitor_spans_count_the_boundaries_inside_retune() {
        let problem = problem(4);
        let config = ServeConfig {
            policy: Policy::Monitor,
            epochs: 5,
            seed: 4,
            night_every: 2,
            monitor: monitor_config(),
            drift: Some(drift()),
            ..ServeConfig::default()
        };
        let recorder = Arc::new(InMemoryRecorder::default());
        let report = run_service_recorded(&problem, &config, recorder.clone()).unwrap();
        let days = (0..config.epochs)
            .filter(|e| (e + 1) % config.night_every != 0)
            .count() as u64;
        assert!(report.totals.rebuilds > 0 && days > 0);
        assert_eq!(recorder.span_count("algo.rebuild"), report.totals.rebuilds);
        assert_eq!(recorder.span_count("algo.adapt"), days);
        let total = |name| recorder.span_stats(name).map_or(0, |s| s.total_ns);
        assert!(total("algo.adapt") + total("algo.rebuild") <= total("serve.retune"));
        // The GA's own spans stay off the serve recorder.
        assert_eq!(recorder.span_count("ga.generation"), 0);
    }

    #[test]
    fn forecast_and_hot_spans_count_the_boundaries_inside_retune() {
        let problem = problem(4);
        for policy in Policy::ALL {
            let config = ServeConfig {
                policy,
                epochs: 5,
                seed: 4,
                night_every: 2,
                monitor: monitor_config(),
                drift: Some(drift()),
                ..ServeConfig::default()
            };
            let recorder = Arc::new(InMemoryRecorder::default());
            run_service_recorded(&problem, &config, recorder.clone()).unwrap();
            let boundaries = config.epochs as u64;
            let forecasts = if policy.predictor_kind().is_some() {
                boundaries
            } else {
                0
            };
            let hot = if policy.hot() { boundaries } else { 0 };
            assert_eq!(
                recorder.span_count("serve.forecast"),
                forecasts,
                "{policy:?}"
            );
            assert_eq!(recorder.span_count("serve.hot"), hot, "{policy:?}");
            let total = |name| recorder.span_stats(name).map_or(0, |s| s.total_ns);
            assert!(
                total("serve.forecast") + total("serve.hot") <= total("serve.retune"),
                "{policy:?}"
            );
        }
    }

    #[test]
    fn admission_limit_sheds_and_caps_issued_traffic() {
        let problem = problem(3);
        let base = ServeConfig {
            policy: Policy::Static,
            epochs: 1,
            seed: 3,
            monitor: monitor_config(),
            ..ServeConfig::default()
        };
        let open = run_service(&problem, &base).unwrap();
        let limited = run_service(
            &problem,
            &ServeConfig {
                admission_limit: 5,
                ..base
            },
        )
        .unwrap();
        let e = &limited.epochs[0];
        assert_eq!(e.offered, open.epochs[0].offered);
        assert!(e.shed > 0, "a 5-request cap must shed on a paper workload");
        assert_eq!(e.admitted + e.shed, e.offered);
        assert!(e.admitted <= 5 * problem.num_sites() as u64);
        assert!(e.serving_ntc < open.epochs[0].serving_ntc);
        // The observation window still sees the full offered pattern, so
        // backpressure never starves the monitor.
        assert_eq!(open.epochs[0].offered, e.offered);
    }

    #[test]
    fn monitor_beats_frozen_static_under_drift() {
        let problem = problem(21);
        let base = ServeConfig {
            policy: Policy::Static,
            epochs: 4,
            seed: 21,
            monitor: monitor_config(),
            drift: Some(drift()),
            ..ServeConfig::default()
        };
        let frozen = run_service(&problem, &base).unwrap();
        let adaptive = run_service(
            &problem,
            &ServeConfig {
                policy: Policy::Monitor,
                ..base
            },
        )
        .unwrap();
        assert!(
            adaptive.totals.adaptations > 0,
            "drift this strong must trigger AGRA"
        );
        assert!(
            adaptive.totals.total_ntc < frozen.totals.total_ntc,
            "monitor+AGRA (serving {} + migration {}) must beat frozen static ({})",
            adaptive.totals.serving_ntc,
            adaptive.totals.migration_ntc,
            frozen.totals.serving_ntc,
        );
    }
}
