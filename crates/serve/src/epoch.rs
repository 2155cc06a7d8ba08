//! One serving epoch on the discrete-event simulator.
//!
//! An epoch mounts the current replica *directory* (the realized scheme
//! plus per-replica versions) on [`drp_net::sim::Simulator`] and drives it
//! with two interleaved workloads:
//!
//! * **Serving** — the streaming request driver's admitted reads and
//!   writes, replayed per site at their timestamps with the Eq. 4 message
//!   conventions (control-sized read requests and replicator write ships,
//!   primary update broadcasts). With no faults and no migration the
//!   epoch's serving NTC equals [`Problem::total_cost`] exactly.
//! * **Failover** — a read whose nearest holder is down goes to the
//!   nearest *live* holder instead, and a write whose primary is down is
//!   queued at the writer and re-shipped on a backed-off timer. Liveness
//!   comes from the simulator's perfect failure detector
//!   ([`Context::is_up`]); a request whose target is up takes the plain
//!   Eq. 4 path with no extra scan, timer or event. A request still
//!   without a live target after [`MigrationTuning::max_attempts`] tries
//!   is lost, as is one issued by a dark site, dropped by the network or
//!   caught in flight by a crash.
//! * **Migration** — a [`MigrationPlan`] executed live: each addition's
//!   target fetches the object from the plan's source (nearest old
//!   holder), installs it at the source's version and cuts it into the
//!   directory; an object's deallocations apply only after all its
//!   additions have landed, so a planned source keeps serving fetches
//!   until cutover. Fetch data is charged to a separate migration-NTC
//!   ledger. A crashed source is tolerated by timer-driven retries that
//!   re-source the fetch from the remaining holders in cost order;
//!   additions still pending when the retry budget runs out are reported
//!   as deferred and re-planned by the caller.
//!
//! The directory keeps per-request work independent of M. For every
//! object it caches the holders R_k in ascending site id and the nearest
//! holder by `(cost, site)` as seen from every site. A read looks its
//! target up in O(1), a write's update broadcast walks R_k (in ascending
//! site id, the send order of a scan over all sites), and failover and
//! fetch re-sourcing consider R_k only. An object's column of the nearest
//! table is rebuilt in O(M·|R_k|) at epoch start and after every install
//! and cutover, the only points where R_k changes.
//!
//! Everything is deterministic: the simulator's event order is seeded, the
//! directory is only touched from the single-threaded event loop,
//! and the streaming driver's timestamps come from a caller-provided
//! stream seed.

use std::sync::Arc;

use drp_core::migration::MigrationPlan;
use drp_core::telemetry::{self, Recorder};
use drp_core::{DenseMatrix, ObjectId, Problem, ReplicationScheme};
use drp_net::sim::{Context, FaultPlan, FaultStats, Message, Node, Simulator, TrafficStats};
use drp_net::CostMatrix;

use crate::ingest::{self, IngestScratch};

/// Timer/retry knobs of the migration executor and the client failover
/// path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MigrationTuning {
    /// Extra slack beyond the round-trip added to every fetch timeout.
    pub rpc_timeout: u64,
    /// Cap on the exponential retry backoff.
    pub backoff_cap: u64,
    /// Fetch attempts per addition within one epoch before deferring; also
    /// the attempts a request gets to find a live target before it is lost.
    pub max_attempts: u32,
}

impl Default for MigrationTuning {
    fn default() -> Self {
        Self {
            rpc_timeout: 16,
            backoff_cap: 512,
            max_attempts: 10,
        }
    }
}

impl MigrationTuning {
    /// Rejects degenerate timer settings: a zero-length RPC timeout makes
    /// every fetch "time out" instantly (retry storms), and a zero retry
    /// budget can never recover from a single lost fetch.
    ///
    /// # Errors
    ///
    /// Returns [`drp_core::CoreError::InvalidInstance`] naming the bad knob.
    pub fn validate(&self) -> drp_core::Result<()> {
        if self.rpc_timeout == 0 {
            return Err(drp_core::CoreError::InvalidInstance {
                reason: "MigrationTuning::rpc_timeout must be at least 1".into(),
            });
        }
        if self.max_attempts == 0 {
            return Err(drp_core::CoreError::InvalidInstance {
                reason: "MigrationTuning::max_attempts must be at least 1".into(),
            });
        }
        Ok(())
    }
}

/// Client requests of one epoch, each counted exactly once:
/// `reads_issued == reads_served + reads_lost()`, and the same for writes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RequestTally {
    /// Reads admitted and fired.
    pub reads_issued: u64,
    /// Reads answered, by the nearest holder or a failover target.
    pub reads_served: u64,
    /// Reads whose nearest holder was down when issued.
    pub reads_failed_over: u64,
    /// Served reads that came from a replica behind the primary.
    pub reads_stale: u64,
    /// Writes admitted and fired.
    pub writes_issued: u64,
    /// Writes committed at the primary, queued ones included.
    pub writes_committed: u64,
    /// Writes that found their primary down and waited for it.
    pub writes_queued: u64,
}

impl RequestTally {
    /// Reads never served: issued by a dark site, dropped or caught in
    /// flight by a crash, or out of attempts without a live holder.
    pub fn reads_lost(&self) -> u64 {
        self.reads_issued.saturating_sub(self.reads_served)
    }

    /// Writes never committed.
    pub fn writes_lost(&self) -> u64 {
        self.writes_issued.saturating_sub(self.writes_committed)
    }
}

/// Counters harvested from one epoch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Counters {
    pub offered: u64,
    pub admitted: u64,
    pub shed: u64,
    pub requests: RequestTally,
    pub installed: usize,
    pub deallocated: usize,
    pub deferred: usize,
    pub retries: u64,
}

/// What one epoch run produced.
#[derive(Debug, Clone)]
pub(crate) struct EpochOutcome {
    /// The directory at epoch end, as a scheme.
    pub scheme: ReplicationScheme,
    /// Observed per-(site, object) read counts — the statistics window.
    pub observed_reads: DenseMatrix<u64>,
    /// Observed per-(site, object) write counts.
    pub observed_writes: DenseMatrix<u64>,
    pub counters: Counters,
    pub serving_ntc: u64,
    pub migration_ntc: u64,
    /// Simulator traffic, serving and migration together.
    pub traffic: TrafficStats,
    pub fault_stats: FaultStats,
    pub sim_events: u64,
    pub completion_time: u64,
}

/// Inputs of one epoch run.
pub(crate) struct EpochSpec<'a> {
    pub problem: &'a Problem,
    pub scheme: &'a ReplicationScheme,
    pub plan: Option<&'a MigrationPlan>,
    pub period: u64,
    /// Per-site admitted-request cap (0 = unlimited).
    pub admission_limit: u64,
    pub tuning: MigrationTuning,
    pub faults: Option<FaultPlan>,
    /// Stream seed for the request timestamps.
    pub seed: u64,
    /// `false` runs migration only (no serving traffic).
    pub traffic: bool,
    /// Ingestion worker threads (1 = inline on the caller's thread).
    pub threads: usize,
}

/// Every timer and message payload of the epoch protocol. The two
/// variants that carry a version hold their object as `u32`, which keeps
/// `Msg` at 16 bytes: each admitted request queues one `Fire` timer at
/// epoch start, so the payload size sets the simulator's memory.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Msg {
    /// Fire one queued request (timer payload carries its index).
    Fire {
        index: usize,
    },
    /// Re-issue queued request `index` whose target was down.
    Retry {
        index: usize,
        attempt: u32,
    },
    ReadReq {
        object: usize,
    },
    ReadData {
        object: usize,
        stale: bool,
    },
    WriteShip {
        object: usize,
    },
    Update {
        object: u32,
        version: u64,
    },
    /// Start this site's pending fetches (timer at epoch start).
    MigrateKick,
    FetchReq {
        object: usize,
    },
    FetchData {
        object: u32,
        version: u64,
    },
    FetchRetry {
        object: usize,
        attempt: u32,
    },
}

/// One outstanding replica addition at its target site.
#[derive(Debug, Clone, Copy)]
struct PendingFetch {
    object: usize,
    source: usize,
}

/// Marks an object without any holder in [`Directory`]'s nearest table.
const NO_HOLDER: u32 = u32::MAX;

/// The live replica directory, with the caches that keep every
/// per-request lookup independent of M.
///
/// Per object it keeps the holders R_k in ascending site id and, for
/// every site, the nearest holder by `(cost, site)`. Rebuilding one
/// object's column costs O(M·|R_k|); it happens at epoch start and on
/// every [`Directory::add`] / [`Directory::remove`] that changes R_k.
struct Directory<'a> {
    costs: &'a CostMatrix,
    m: usize,
    n: usize,
    /// Row-major `m x n` holder flags.
    holds: Vec<bool>,
    /// Per-object holders, ascending site id.
    holders: Vec<Vec<usize>>,
    /// Object-major `n x m`: entry `k * m + i` is the nearest holder of
    /// object `k` as seen from site `i`, or [`NO_HOLDER`].
    nearest: Vec<u32>,
}

impl<'a> Directory<'a> {
    fn new(problem: &'a Problem, scheme: &ReplicationScheme) -> Self {
        let m = problem.num_sites();
        let n = problem.num_objects();
        assert!(
            m < NO_HOLDER as usize && u32::try_from(n).is_ok(),
            "site and object ids must fit in u32"
        );
        let mut holds = vec![false; m * n];
        let mut holders = vec![Vec::new(); n];
        for i in problem.sites() {
            for k in problem.objects() {
                if scheme.holds(i, k) {
                    holds[i.index() * n + k.index()] = true;
                    holders[k.index()].push(i.index());
                }
            }
        }
        let mut dir = Self {
            costs: problem.costs(),
            m,
            n,
            holds,
            holders,
            nearest: vec![NO_HOLDER; n * m],
        };
        for object in 0..n {
            dir.refresh(object);
        }
        dir
    }

    fn holds(&self, site: usize, object: usize) -> bool {
        self.holds[site * self.n + object]
    }

    /// Holders of `object`, ascending site id.
    fn holders(&self, object: usize) -> &[usize] {
        &self.holders[object]
    }

    /// Nearest holder of `object` as seen from `site`: min link cost, site
    /// id as the deterministic tie-break.
    fn nearest(&self, site: usize, object: usize) -> Option<usize> {
        let holder = self.nearest[object * self.m + site];
        (holder != NO_HOLDER).then_some(holder as usize)
    }

    fn add(&mut self, site: usize, object: usize) {
        let slot = &mut self.holds[site * self.n + object];
        if !*slot {
            *slot = true;
            let list = &mut self.holders[object];
            let at = list.partition_point(|&j| j < site);
            list.insert(at, site);
            self.refresh(object);
        }
    }

    fn remove(&mut self, site: usize, object: usize) {
        let slot = &mut self.holds[site * self.n + object];
        if *slot {
            *slot = false;
            self.holders[object].retain(|&j| j != site);
            self.refresh(object);
        }
    }

    /// Rebuilds `object`'s nearest column from its holder list. Holders
    /// are scanned in ascending id with a strict `<`, so ties go to the
    /// lowest site id.
    fn refresh(&mut self, object: usize) {
        let holders = &self.holders[object];
        let column = &mut self.nearest[object * self.m..(object + 1) * self.m];
        for (site, slot) in column.iter_mut().enumerate() {
            let row = self.costs.row(site);
            let mut best = None;
            for &j in holders {
                if best.is_none_or(|(c, _)| row[j] < c) {
                    best = Some((row[j], j));
                }
            }
            *slot = best.map_or(NO_HOLDER, |(_, j)| j as u32);
        }
    }
}

/// One epoch's world: the live replica directory, the epoch's mutable
/// ledgers, and the serving behaviour of every site on the simulator.
struct Epoch<'a> {
    problem: &'a Problem,
    /// Per-site admitted request queues: `(time, object, is_write)`,
    /// borrowed from the caller's reusable [`IngestScratch`].
    queues: &'a [Vec<(u64, u32, bool)>],
    tuning: MigrationTuning,
    dir: Directory<'a>,
    /// Row-major `m x n` installed versions.
    version: Vec<u64>,
    /// Per-object committed version at the primary.
    committed: Vec<u64>,
    /// Outstanding additions per target site.
    pending: Vec<Vec<PendingFetch>>,
    /// Outstanding additions per object (gates deallocation).
    pending_by_object: Vec<usize>,
    /// Removals deferred until their object's cutover.
    removals_by_object: Vec<Vec<usize>>,
    counters: Counters,
    migration_ntc: u64,
}

impl<'a> Epoch<'a> {
    /// Mounts `scheme` as the directory and stages `plan`'s additions as
    /// pending fetches. Objects with removals but no additions cut over
    /// immediately (there is nothing to wait for).
    fn new(
        problem: &'a Problem,
        scheme: &ReplicationScheme,
        plan: Option<&MigrationPlan>,
        queues: &'a [Vec<(u64, u32, bool)>],
        tuning: MigrationTuning,
        mut counters: Counters,
    ) -> Self {
        let m = problem.num_sites();
        let n = problem.num_objects();
        let mut dir = Directory::new(problem, scheme);
        let mut pending: Vec<Vec<PendingFetch>> = vec![Vec::new(); m];
        let mut pending_by_object = vec![0usize; n];
        let mut removals_by_object: Vec<Vec<usize>> = vec![Vec::new(); n];
        if let Some(plan) = plan {
            for addition in &plan.additions {
                pending[addition.site.index()].push(PendingFetch {
                    object: addition.object.index(),
                    source: addition.source.index(),
                });
                pending_by_object[addition.object.index()] += 1;
            }
            for &(site, object) in &plan.removals {
                removals_by_object[object.index()].push(site.index());
            }
            for (object, removals) in removals_by_object.iter_mut().enumerate() {
                if pending_by_object[object] == 0 {
                    for site in removals.drain(..) {
                        dir.remove(site, object);
                        counters.deallocated += 1;
                    }
                }
            }
        }
        Self {
            problem,
            queues,
            tuning,
            dir,
            version: vec![0u64; m * n],
            committed: vec![0u64; n],
            pending,
            pending_by_object,
            removals_by_object,
            counters,
            migration_ntc: 0,
        }
    }

    fn cost(&self, a: usize, b: usize) -> u64 {
        self.problem.costs().cost(a, b)
    }

    fn n(&self) -> usize {
        self.problem.num_objects()
    }

    /// Current holders other than `me`, cheapest link first — the failover
    /// order for re-sourcing a fetch.
    fn fetch_candidates(&self, me: usize, object: usize) -> Vec<usize> {
        let mut holders: Vec<usize> = self
            .dir
            .holders(object)
            .iter()
            .copied()
            .filter(|&j| j != me)
            .collect();
        holders.sort_unstable_by_key(|&j| (self.cost(me, j), j));
        holders
    }

    /// The cheapest live holder other than `me` — the first live entry of
    /// [`Self::fetch_candidates`], found without sorting.
    fn nearest_live_holder(
        &self,
        ctx: &Context<'_, Msg>,
        me: usize,
        object: usize,
    ) -> Option<usize> {
        self.dir
            .holders(object)
            .iter()
            .copied()
            .filter(|&j| j != me && ctx.is_up(j))
            .min_by_key(|&j| (self.cost(me, j), j))
    }

    fn commit_write(&mut self, committer: usize, object: usize) -> u64 {
        let n = self.n();
        self.committed[object] += 1;
        let version = self.committed[object];
        self.version[committer * n + object] = version;
        self.counters.requests.writes_committed += 1;
        version
    }

    /// Primary's update broadcast to every other current holder, in
    /// ascending site id.
    fn broadcast(&self, ctx: &mut Context<'_, Msg>, object: usize, version: u64) {
        let size = self.problem.object_size(ObjectId::new(object));
        let me = ctx.node_id();
        for &j in self.dir.holders(object) {
            if j != me {
                ctx.send(
                    j,
                    size,
                    Msg::Update {
                        object: object as u32,
                        version,
                    },
                );
            }
        }
    }

    /// Issues queued request `index` of this site; `attempt` counts the
    /// earlier tries that found no live target.
    fn issue(&mut self, ctx: &mut Context<'_, Msg>, index: usize, attempt: u32) {
        let me = ctx.node_id();
        let (_, object, is_write) = self.queues[me][index];
        let object = object as usize;
        let n = self.n();
        let k = ObjectId::new(object);
        if is_write {
            let sp = self.problem.primary(k).index();
            if sp == me {
                let version = self.commit_write(me, object);
                self.broadcast(ctx, object, version);
            } else if ctx.is_up(sp) {
                let size = if self.dir.holds(me, object) {
                    0
                } else {
                    self.problem.object_size(k)
                };
                ctx.send(sp, size, Msg::WriteShip { object });
            } else {
                if attempt == 0 {
                    self.counters.requests.writes_queued += 1;
                }
                self.retry_later(ctx, index, sp, attempt);
            }
        } else {
            match self.dir.nearest(me, object) {
                Some(j) if j == me => {
                    self.counters.requests.reads_served += 1;
                    if self.version[me * n + object] < self.committed[object] {
                        self.counters.requests.reads_stale += 1;
                    }
                }
                Some(j) if ctx.is_up(j) => ctx.send(j, 0, Msg::ReadReq { object }),
                Some(j) => {
                    if attempt == 0 {
                        self.counters.requests.reads_failed_over += 1;
                    }
                    match self.nearest_live_holder(ctx, me, object) {
                        Some(c) => ctx.send(c, 0, Msg::ReadReq { object }),
                        None => self.retry_later(ctx, index, j, attempt),
                    }
                }
                // Unreachable while primaries stay pinned; drop the read
                // (it counts as lost) rather than panic mid-epoch.
                None => {}
            }
        }
    }

    /// Re-arms request `index` on the fetch-retry schedule towards
    /// `target`, or gives it up (lost) once the attempts run out.
    fn retry_later(&self, ctx: &mut Context<'_, Msg>, index: usize, target: usize, attempt: u32) {
        if attempt + 1 < self.tuning.max_attempts {
            ctx.set_timer(
                self.fetch_deadline(ctx.node_id(), target, attempt),
                Msg::Retry {
                    index,
                    attempt: attempt + 1,
                },
            );
        }
    }

    /// Installs a fetched replica and, once its object has no more pending
    /// additions, applies the deferred deallocations — the cutover step.
    fn install(&mut self, me: usize, object: usize, version: u64) {
        let n = self.n();
        self.pending[me].retain(|p| p.object != object);
        self.dir.add(me, object);
        let slot = &mut self.version[me * n + object];
        *slot = (*slot).max(version);
        self.counters.installed += 1;
        self.pending_by_object[object] -= 1;
        if self.pending_by_object[object] == 0 {
            for site in std::mem::take(&mut self.removals_by_object[object]) {
                self.dir.remove(site, object);
                self.counters.deallocated += 1;
            }
        }
    }

    /// Retry delay covering the request + data round trip plus backoff.
    fn fetch_deadline(&self, me: usize, source: usize, attempt: u32) -> u64 {
        let rtt = 2 * self.cost(me, source);
        let backoff = (self.tuning.rpc_timeout << attempt.min(16)).min(self.tuning.backoff_cap);
        rtt + self.tuning.rpc_timeout + backoff
    }
}

impl Node<Msg> for Epoch<'_> {
    fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
        let me = ctx.node_id();
        for (index, &(time, _, _)) in self.queues[me].iter().enumerate() {
            ctx.set_timer(time, Msg::Fire { index });
        }
        if !self.pending[me].is_empty() {
            ctx.set_timer(0, Msg::MigrateKick);
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, Msg>, payload: Msg) {
        let me = ctx.node_id();
        match payload {
            Msg::Fire { index } => self.issue(ctx, index, 0),
            Msg::Retry { index, attempt } => self.issue(ctx, index, attempt),
            Msg::MigrateKick => {
                for fetch in &self.pending[me] {
                    ctx.send(
                        fetch.source,
                        0,
                        Msg::FetchReq {
                            object: fetch.object,
                        },
                    );
                    ctx.set_timer(
                        self.fetch_deadline(me, fetch.source, 0),
                        Msg::FetchRetry {
                            object: fetch.object,
                            attempt: 1,
                        },
                    );
                }
            }
            Msg::FetchRetry { object, attempt } => {
                if !self.pending[me].iter().any(|p| p.object == object) {
                    return; // already installed
                }
                self.counters.retries += 1;
                let candidates = self.fetch_candidates(me, object);
                let Some(&source) = candidates.get(attempt as usize % candidates.len().max(1))
                else {
                    return;
                };
                ctx.send(source, 0, Msg::FetchReq { object });
                if attempt < self.tuning.max_attempts {
                    ctx.set_timer(
                        self.fetch_deadline(me, source, attempt),
                        Msg::FetchRetry {
                            object,
                            attempt: attempt + 1,
                        },
                    );
                }
            }
            _ => {}
        }
    }

    fn on_message(&mut self, ctx: &mut Context<'_, Msg>, msg: Message<Msg>) {
        let me = ctx.node_id();
        let n = self.n();
        match msg.payload {
            Msg::ReadReq { object } => {
                let stale = self.version[me * n + object] < self.committed[object];
                let size = self.problem.object_size(ObjectId::new(object));
                ctx.send(msg.src, size, Msg::ReadData { object, stale });
            }
            Msg::ReadData { stale, .. } => {
                self.counters.requests.reads_served += 1;
                if stale {
                    self.counters.requests.reads_stale += 1;
                }
            }
            Msg::WriteShip { object } => {
                let version = self.commit_write(me, object);
                self.broadcast(ctx, object, version);
            }
            Msg::Update { object, version } => {
                let slot = &mut self.version[me * n + object as usize];
                *slot = (*slot).max(version);
            }
            Msg::FetchReq { object } => {
                // Serve the fetch even after a local deallocation: the data
                // stays on disk until overwritten, and refusing would only
                // stall a migration that re-sourced late.
                let size = self.problem.object_size(ObjectId::new(object));
                self.migration_ntc += size * self.cost(me, msg.src);
                let version = self.version[me * n + object];
                ctx.send(
                    msg.src,
                    size,
                    Msg::FetchData {
                        object: object as u32,
                        version,
                    },
                );
            }
            Msg::FetchData { object, version } => {
                let object = object as usize;
                if self.pending[me].iter().any(|p| p.object == object) {
                    self.install(me, object, version);
                }
            }
            Msg::Fire { .. } | Msg::Retry { .. } | Msg::MigrateKick | Msg::FetchRetry { .. } => {}
        }
    }
}

/// Runs one epoch and harvests its outcome. The caller owns the
/// [`IngestScratch`] so its buffers amortize across epochs; the admitted
/// queues it holds stay valid (and borrowed) for the whole epoch.
pub(crate) fn run_epoch(
    spec: &EpochSpec<'_>,
    scratch: &mut IngestScratch,
    recorder: Arc<dyn Recorder>,
) -> drp_core::Result<EpochOutcome> {
    let problem = spec.problem;
    let m = problem.num_sites();
    let n = problem.num_objects();

    // Ingestion front end: stream this period's requests in batches
    // through the sharded admission pipeline (see [`crate::ingest`]),
    // leaving the admitted per-site queues in the scratch.
    let mut observed_reads = DenseMatrix::zeros(m, n);
    let mut observed_writes = DenseMatrix::zeros(m, n);
    let mut counters = Counters::default();
    if spec.traffic {
        let ingested = {
            let _span = telemetry::span(recorder.as_ref(), "serve.ingest");
            ingest::ingest_epoch(
                &ingest::IngestSpec {
                    problem,
                    period: spec.period,
                    seed: spec.seed,
                    admission_limit: spec.admission_limit,
                    threads: spec.threads,
                    batch: 0,
                    depth: 0,
                },
                scratch,
                &mut observed_reads,
                &mut observed_writes,
            )
        };
        counters.offered = ingested.report.offered();
        counters.shed = ingested.report.shed();
        counters.requests.reads_issued = ingested.admitted_reads;
        counters.requests.writes_issued = ingested.admitted_writes;
        counters.admitted = ingested.admitted_reads + ingested.admitted_writes;
        if recorder.enabled() {
            recorder.add_counter("ingest.offered", counters.offered);
            recorder.add_counter("ingest.admitted", counters.admitted);
            recorder.add_counter("ingest.shed", counters.shed);
            recorder.add_counter("ingest.batches", ingested.report.batches);
        }
    } else {
        // Migration-only epoch: make sure no stale queues from a previous
        // epoch leak into the simulator.
        scratch.reset(m);
    }

    let mut sim = Simulator::new(
        problem.costs(),
        Epoch::new(
            problem,
            spec.scheme,
            spec.plan,
            &scratch.queues,
            spec.tuning,
            counters,
        ),
    );
    sim.set_recorder(Arc::clone(&recorder));
    if let Some(plan) = spec.faults.clone() {
        sim.set_fault_plan(plan);
    }
    sim.run_to_completion().map_err(drp_core::CoreError::from)?;

    let stats = sim.stats();
    let fault_stats = sim.fault_stats();
    let sim_events = sim.events_processed();
    let completion_time = sim.now();
    let state = sim.into_handler();
    let mut counters = state.counters;
    counters.deferred = state.pending.iter().map(Vec::len).sum();
    if recorder.enabled() {
        recorder.add_counter(
            "serve.reads_failed_over",
            counters.requests.reads_failed_over,
        );
        recorder.add_counter("serve.writes_queued", counters.requests.writes_queued);
    }
    let mut holds = state.dir.holds;
    let scheme = match ReplicationScheme::from_fn(problem, |i, k| holds[i.index() * n + k.index()])
    {
        Ok(scheme) => scheme,
        Err(drp_core::CoreError::InsufficientCapacity { .. }) => {
            // A deferred cutover left some site holding both its old replica
            // and a freshly installed one. Reclaim capacity by applying the
            // outstanding deallocations early: what remains is a subset of
            // the migration target plus the old scheme's survivors, which
            // both fit. The unfinished additions stay deferred and are
            // re-planned by the caller.
            for (object, removals) in state.removals_by_object.iter().enumerate() {
                for &site in removals {
                    if holds[site * n + object] {
                        holds[site * n + object] = false;
                        counters.deallocated += 1;
                    }
                }
            }
            ReplicationScheme::from_fn(problem, |i, k| holds[i.index() * n + k.index()])?
        }
        Err(other) => return Err(other),
    };
    Ok(EpochOutcome {
        scheme,
        observed_reads,
        observed_writes,
        counters,
        serving_ntc: stats.transfer_cost.saturating_sub(state.migration_ntc),
        migration_ntc: state.migration_ntc,
        traffic: stats,
        fault_stats,
        sim_events,
        completion_time,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use drp_core::migration::plan_migration;
    use drp_core::{ObjectId, SiteId};
    use drp_workload::WorkloadSpec;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn msg_stays_compact() {
        assert_eq!(std::mem::size_of::<Msg>(), 16);
    }

    /// The O(M) oracle: every site scanned in id order.
    fn scan_holders(dir: &Directory<'_>, object: usize) -> Vec<usize> {
        (0..dir.m).filter(|&j| dir.holds(j, object)).collect()
    }

    /// The O(M) oracle for the nearest holder, tie-broken by site id.
    fn scan_nearest(dir: &Directory<'_>, site: usize, object: usize) -> Option<usize> {
        (0..dir.m)
            .filter(|&j| dir.holds(j, object))
            .min_by_key(|&j| (dir.costs.cost(site, j), j))
    }

    fn assert_matches_scan(dir: &Directory<'_>) {
        for object in 0..dir.n {
            assert_eq!(dir.holders(object), scan_holders(dir, object));
            for site in 0..dir.m {
                assert_eq!(
                    dir.nearest(site, object),
                    scan_nearest(dir, site, object),
                    "object {object} seen from site {site}"
                );
            }
        }
    }

    /// The epoch protocol with the directory checked against the scan
    /// after every callback that installed a replica or cut an object
    /// over.
    struct Checked<'a> {
        epoch: Epoch<'a>,
        checks: usize,
    }

    impl Checked<'_> {
        fn check_if_changed(&mut self, installed: usize, deallocated: usize) {
            let counters = &self.epoch.counters;
            if counters.installed != installed || counters.deallocated != deallocated {
                assert_matches_scan(&self.epoch.dir);
                self.checks += 1;
            }
        }
    }

    impl Node<Msg> for Checked<'_> {
        fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
            self.epoch.on_start(ctx);
        }

        fn on_timer(&mut self, ctx: &mut Context<'_, Msg>, payload: Msg) {
            let before = (
                self.epoch.counters.installed,
                self.epoch.counters.deallocated,
            );
            self.epoch.on_timer(ctx, payload);
            self.check_if_changed(before.0, before.1);
        }

        fn on_message(&mut self, ctx: &mut Context<'_, Msg>, msg: Message<Msg>) {
            let before = (
                self.epoch.counters.installed,
                self.epoch.counters.deallocated,
            );
            self.epoch.on_message(ctx, msg);
            self.check_if_changed(before.0, before.1);
        }
    }

    /// The primaries plus replicas at random, as capacity allows.
    fn random_scheme(problem: &Problem, rng: &mut StdRng, tries: usize) -> ReplicationScheme {
        let mut scheme = ReplicationScheme::primary_only(problem);
        for _ in 0..tries {
            let site = SiteId::new(rng.random_range(0..problem.num_sites()));
            let object = ObjectId::new(rng.random_range(0..problem.num_objects()));
            if !scheme.holds(site, object) {
                let _ = scheme.add_replica(problem, site, object);
            }
        }
        scheme
    }

    /// Random migration plans under crash windows, drops and jitter, with
    /// serving traffic: after every install and cutover the cached holder
    /// lists and nearest holders equal a brute-force scan of the
    /// directory.
    #[test]
    fn directory_cache_matches_scan_through_migration() {
        let mut checks = 0;
        for seed in 0..24u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let m = rng.random_range(5..14);
            let n = rng.random_range(3..9);
            let problem = WorkloadSpec::paper(m, n, 8.0, 30.0)
                .generate(&mut rng)
                .unwrap();
            let old = random_scheme(&problem, &mut rng, m * n / 2);
            let new = random_scheme(&problem, &mut rng, m * n / 2);
            let plan = plan_migration(&problem, &old, &new).unwrap();
            let queues: Vec<Vec<(u64, u32, bool)>> = (0..m)
                .map(|_| {
                    (0..rng.random_range(0..30))
                        .map(|_| {
                            (
                                rng.random_range(0..400),
                                rng.random_range(0..n as u32),
                                rng.random_bool(0.3),
                            )
                        })
                        .collect()
                })
                .collect();
            let mut faults = FaultPlan::new(seed)
                .drop_probability(0.05)
                .jitter(rng.random_range(0..4));
            for _ in 0..rng.random_range(0..3) {
                let site = rng.random_range(0..m);
                let from: u64 = rng.random_range(0..200);
                faults = faults.crash(site, from, from + rng.random_range(1..300u64));
            }

            let epoch = Epoch::new(
                &problem,
                &old,
                Some(&plan),
                &queues,
                MigrationTuning::default(),
                Counters::default(),
            );
            assert_matches_scan(&epoch.dir);
            let mut sim = Simulator::new(problem.costs(), Checked { epoch, checks: 0 });
            sim.set_fault_plan(faults);
            sim.run_to_completion().unwrap();
            let checked = sim.into_handler();
            assert_matches_scan(&checked.epoch.dir);
            checks += checked.checks;
        }
        assert!(checks >= 24, "only {checks} installs or cutovers checked");
    }
}
