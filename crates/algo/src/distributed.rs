//! The distributed variant of SRA (Section 3).
//!
//! The paper sketches it as: candidate lists `L(i)` live on their sites, the
//! list-of-sites `LS` on a network leader; site selection is done by the
//! leader, followed by a token-passing mechanism; each replication is
//! broadcast so every site can update its nearest-site (`SN`) field.
//!
//! This module runs the protocol on the `drp-net` discrete-event simulator:
//!
//! 1. the leader passes the **token** to the next site of `LS` (round
//!    robin);
//! 2. the token holder evaluates its candidates *locally* (it only needs its
//!    own nearest-replica distances and the instance constants), replicates
//!    the best positive-benefit object and reports the **decision** — or
//!    returns the token if it has no candidate left;
//! 3. the leader broadcasts the decision; every site updates its `SN` table
//!    and **acks**; the new replicator also *fetches the object data* from
//!    its previously nearest holder (the only non-control traffic);
//! 4. once all acks arrive the leader advances the token. When `LS` empties
//!    the protocol terminates.
//!
//! The ack barrier makes the decision sequence identical to the centralized
//! round-robin [`Sra`](crate::Sra), which the tests assert; the price is
//! protocol latency, which the returned [`TrafficStats`] quantifies.

use drp_core::{ObjectId, Problem, ReplicationScheme, Result, SiteId};
use drp_net::sim::{Context, Message, Node, Simulator, TrafficStats};

/// Protocol messages. All are control (size 0) except `ObjectData`.
#[derive(Debug, Clone, PartialEq, Eq)]
enum SraMsg {
    /// Leader → site: your turn to replicate.
    Token,
    /// Site → leader: nothing (left) to replicate; drop me from LS if
    /// `exhausted`.
    TokenBack { exhausted: bool },
    /// Site → leader: I replicate `object`; drop me from LS if `exhausted`.
    Decision { object: usize, exhausted: bool },
    /// Leader → everyone else: `site` now replicates `object`.
    Update { site: usize, object: usize },
    /// Site → leader: update applied.
    Ack,
    /// New replicator → previous nearest holder: send me the object.
    Fetch { object: usize },
    /// Holder → new replicator: the object data (size `o_k`).
    ObjectData { object: usize },
}

/// The network leader's site id.
const LEADER: usize = 0;

/// One site's local SRA fields.
struct SiteState {
    /// C(self, SN_k(self)) per object.
    nearest: Vec<u64>,
    /// Candidate objects (paper's `L(i)`): every object it does not hold.
    candidates: Vec<usize>,
    free: u64,
}

/// The leader's bookkeeping.
struct LeaderState {
    /// Sites still holding candidates, in round-robin order.
    ls: Vec<usize>,
    cursor: usize,
    token_at: usize,
    awaiting_acks: usize,
    pending_removal: bool,
}

/// Every site's protocol behaviour: per-site state indexed by
/// `ctx.node_id()`, plus the leader's bookkeeping and the committed
/// holders.
struct DistributedSra<'a> {
    problem: &'a Problem,
    sites: Vec<SiteState>,
    leader: LeaderState,
    /// Per-object holders recorded by the leader: the primary, then the
    /// replicators in decision order.
    holders: Vec<Vec<usize>>,
}

impl<'a> DistributedSra<'a> {
    fn new(problem: &'a Problem) -> Self {
        let n = problem.num_objects();
        let scheme = ReplicationScheme::primary_only(problem);
        let sites = problem
            .sites()
            .map(|site| {
                let id = site.index();
                let nearest: Vec<u64> = (0..n)
                    .map(|k| {
                        problem
                            .costs()
                            .cost(id, problem.primary(ObjectId::new(k)).index())
                    })
                    .collect();
                let candidates: Vec<usize> = (0..n)
                    .filter(|&k| problem.primary(ObjectId::new(k)) != site)
                    .collect();
                SiteState {
                    nearest,
                    candidates,
                    free: scheme.free_capacity(problem, site),
                }
            })
            .collect();
        let leader = LeaderState {
            ls: (0..problem.num_sites())
                .filter(|&i| {
                    // A site starts in LS iff it has any non-primary object.
                    (0..n).any(|k| problem.primary(ObjectId::new(k)).index() != i)
                })
                .collect(),
            cursor: 0,
            token_at: 0,
            awaiting_acks: 0,
            pending_removal: false,
        };
        Self {
            problem,
            sites,
            leader,
            holders: problem
                .objects()
                .map(|k| vec![problem.primary(k).index()])
                .collect(),
        }
    }

    /// Leader only: hand the token to the next site in LS.
    fn advance_token(&mut self, ctx: &mut Context<'_, SraMsg>) {
        debug_assert_eq!(ctx.node_id(), LEADER, "only the leader passes the token");
        let leader = &mut self.leader;
        if leader.pending_removal {
            let slot = leader
                .ls
                .iter()
                .position(|&s| s == leader.token_at)
                .expect("token holder must be in LS");
            leader.ls.remove(slot);
            if leader.cursor > slot {
                leader.cursor -= 1;
            }
            leader.pending_removal = false;
        }
        if leader.ls.is_empty() {
            return; // protocol complete; the event queue drains
        }
        let slot = leader.cursor % leader.ls.len();
        leader.cursor = slot + 1;
        leader.token_at = leader.ls[slot];
        let target = leader.token_at;
        ctx.send(target, 0, SraMsg::Token);
    }

    /// Evaluate candidates exactly like centralized SRA's inner loop.
    fn local_step(&mut self, ctx: &mut Context<'_, SraMsg>) {
        let problem = self.problem;
        let me = ctx.node_id();
        let site = SiteId::new(me);
        let state = &mut self.sites[me];
        let free = state.free;
        let nearest = &state.nearest;

        let mut best: Option<(i64, usize)> = None;
        state.candidates.retain(|&k| {
            let object = ObjectId::new(k);
            if problem.object_size(object) > free {
                return false;
            }
            let c_sp = problem.costs().cost(me, problem.primary(object).index());
            let benefit = problem.reads(site, object) as i64 * nearest[k] as i64
                + (problem.writes(site, object) as i64 - problem.total_writes(object) as i64)
                    * c_sp as i64;
            if benefit <= 0 {
                return false;
            }
            if best.is_none_or(|(b, _)| benefit > b) {
                best = Some((benefit, k));
            }
            true
        });

        match best {
            Some((_, k)) => {
                let object = ObjectId::new(k);
                // Fetch the data from the (pre-update) nearest holder.
                let (sn, c) = self.nearest_holder(me, k);
                if c > 0 {
                    ctx.send(sn, 0, SraMsg::Fetch { object: k });
                }
                // Apply locally.
                let state = &mut self.sites[me];
                state.free -= problem.object_size(object);
                state.nearest[k] = 0;
                state.candidates.retain(|&x| x != k);
                let exhausted = state.candidates.is_empty();
                ctx.send(
                    LEADER,
                    0,
                    SraMsg::Decision {
                        object: k,
                        exhausted,
                    },
                );
            }
            None => {
                ctx.send(
                    LEADER,
                    0,
                    SraMsg::TokenBack {
                        exhausted: state.candidates.is_empty(),
                    },
                );
            }
        }
    }

    /// The site `me` would read `object` from (its `SN` field). Only the
    /// distance is tracked per site; the identity comes from the holder
    /// lists the leader appends to on each decision, which its barrier
    /// keeps consistent. Ties go to the earlier holder.
    fn nearest_holder(&self, me: usize, object: usize) -> (usize, u64) {
        let holders = &self.holders[object];
        let mut best = (holders[0], u64::MAX);
        for &holder in holders {
            let c = self.problem.costs().cost(me, holder);
            if c < best.1 {
                best = (holder, c);
            }
        }
        best
    }
}

impl Node<SraMsg> for DistributedSra<'_> {
    fn on_start(&mut self, ctx: &mut Context<'_, SraMsg>) {
        if ctx.node_id() == LEADER {
            self.advance_token(ctx);
        }
    }

    fn on_message(&mut self, ctx: &mut Context<'_, SraMsg>, msg: Message<SraMsg>) {
        let me = ctx.node_id();
        match msg.payload {
            SraMsg::Token => self.local_step(ctx),
            SraMsg::TokenBack { exhausted } => {
                self.leader.pending_removal = exhausted;
                self.advance_token(ctx);
            }
            SraMsg::Decision { object, exhausted } => {
                let m = self.problem.num_sites();
                self.holders[object].push(msg.src);
                self.leader.pending_removal = exhausted;
                self.leader.awaiting_acks = m - 1;
                // Broadcast to everyone but the decider (the leader includes
                // itself via a self-message so all updates flow uniformly).
                for site in (0..m).filter(|&s| s != msg.src) {
                    ctx.send(
                        site,
                        0,
                        SraMsg::Update {
                            site: msg.src,
                            object,
                        },
                    );
                }
                if self.leader.awaiting_acks == 0 {
                    self.advance_token(ctx);
                }
            }
            SraMsg::Update { site, object } => {
                let c = self.problem.costs().cost(me, site);
                let nearest = &mut self.sites[me].nearest[object];
                if c < *nearest {
                    *nearest = c;
                }
                ctx.send(LEADER, 0, SraMsg::Ack);
            }
            SraMsg::Ack => {
                self.leader.awaiting_acks -= 1;
                if self.leader.awaiting_acks == 0 {
                    self.advance_token(ctx);
                }
            }
            SraMsg::Fetch { object } => {
                let size = self.problem.object_size(ObjectId::new(object));
                ctx.send(msg.src, size, SraMsg::ObjectData { object });
            }
            SraMsg::ObjectData { .. } => {}
        }
    }
}

/// Outcome of the distributed protocol.
#[derive(Debug, Clone)]
pub struct DistributedRun {
    /// The scheme the network converged to.
    pub scheme: ReplicationScheme,
    /// Traffic accounting: `transfer_cost` is the object-migration NTC, and
    /// `messages` counts the control traffic (tokens, decisions, updates,
    /// acks) the centralized algorithm does not pay.
    pub stats: TrafficStats,
    /// Simulated time at which the protocol finished.
    pub completion_time: u64,
}

/// Runs distributed SRA with site 0 as the leader.
///
/// # Errors
///
/// Propagates simulator errors (an exceeded event budget would indicate a
/// protocol bug).
///
/// # Examples
///
/// ```
/// use drp_algo::distributed::distributed_sra;
/// use drp_workload::WorkloadSpec;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(6);
/// let problem = WorkloadSpec::paper(6, 8, 5.0, 20.0).generate(&mut rng)?;
/// let run = distributed_sra(&problem)?;
/// assert!(problem.total_cost(&run.scheme) <= problem.d_prime());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn distributed_sra(problem: &Problem) -> Result<DistributedRun> {
    let mut sim = Simulator::new(problem.costs(), DistributedSra::new(problem));
    sim.run_to_completion()?;
    let stats = sim.stats();
    let completion_time = sim.now();

    let mut scheme = ReplicationScheme::primary_only(problem);
    for (object, holders) in sim.into_handler().holders.iter().enumerate() {
        for &site in &holders[1..] {
            scheme.add_replica(problem, SiteId::new(site), ObjectId::new(object))?;
        }
    }
    Ok(DistributedRun {
        scheme,
        stats,
        completion_time,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Sra;
    use drp_core::ReplicationAlgorithm;
    use drp_workload::WorkloadSpec;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn matches_centralized_round_robin_sra() {
        for seed in 0..6 {
            let p = WorkloadSpec::paper(8, 12, 5.0, 20.0)
                .generate(&mut StdRng::seed_from_u64(seed))
                .unwrap();
            let mut rng = StdRng::seed_from_u64(1000 + seed);
            let centralized = Sra::new().solve(&p, &mut rng).unwrap();
            let run = distributed_sra(&p).unwrap();
            assert_eq!(
                run.scheme, centralized,
                "seed {seed}: distributed and centralized SRA diverged"
            );
        }
    }

    #[test]
    fn migration_traffic_matches_replica_fetches() {
        let p = WorkloadSpec::paper(6, 8, 2.0, 20.0)
            .generate(&mut StdRng::seed_from_u64(9))
            .unwrap();
        let run = distributed_sra(&p).unwrap();
        // Every created replica was fetched once; data traffic is the only
        // non-zero-size flow, so it must be positive iff replicas exist.
        if run.scheme.extra_replica_count() > 0 {
            assert!(run.stats.transfer_cost > 0);
        }
        assert!(run.stats.messages > 0);
        assert!(run.completion_time > 0);
    }

    #[test]
    fn protocol_terminates_on_update_heavy_instances() {
        // Nothing is worth replicating: the token must still cycle through
        // every site exactly once and stop.
        let p = WorkloadSpec::paper(5, 5, 500.0, 50.0)
            .generate(&mut StdRng::seed_from_u64(10))
            .unwrap();
        let run = distributed_sra(&p).unwrap();
        assert_eq!(run.scheme.extra_replica_count(), 0);
        assert_eq!(run.stats.transfer_cost, 0);
    }

    #[test]
    fn single_site_network_is_a_noop() {
        use drp_core::Problem;
        use drp_net::CostMatrix;
        let costs = CostMatrix::from_rows(1, vec![0]).unwrap();
        let p = Problem::builder(costs)
            .capacities(vec![100])
            .object(5, SiteId::new(0))
            .build()
            .unwrap();
        let run = distributed_sra(&p).unwrap();
        assert_eq!(run.scheme.extra_replica_count(), 0);
    }
}
