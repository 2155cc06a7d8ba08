//! Discrete-event replay of a read/write pattern against a replication
//! scheme.
//!
//! Every site issues its period's reads and writes as messages on the
//! `drp-net` simulator following the paper's replication policy:
//!
//! * reads go to the nearest replicator `SN_k(i)`, which returns the object;
//! * writes ship the updated object to the primary `SP_k`, which broadcasts
//!   it to every other replicator.
//!
//! Requests with the same `(site, object)` pair are batched into one message
//! whose size is the aggregate data volume, so the replay is O(M·N +
//! broadcasts) messages regardless of request counts.
//!
//! Two conventions align the replay with Eq. 4 exactly (and are asserted by
//! [`replay_total_cost`]'s tests):
//!
//! * a *replicator* that writes ships a zero-size control message — the
//!   model charges the `C(i, SP_k)` link once per write for replicators (it
//!   already receives the broadcast over that same shortest path);
//! * read *requests* are control messages (size 0); only the returned data
//!   is charged.

use drp_net::sim::{Context, Message, Node, Simulator};

use crate::{ObjectId, Problem, ReplicationScheme, Result, SiteId};

/// Messages exchanged during the replay.
#[derive(Debug, Clone, PartialEq, Eq)]
enum ReplayMsg {
    /// `count` batched read requests for an object (control, size 0).
    ReadRequest { object: usize, count: u64 },
    /// The object data satisfying `count` reads.
    Data { object: usize, count: u64 },
    /// `count` batched writes shipped toward the primary.
    WriteShip { object: usize, count: u64 },
    /// The updated object broadcast to one replicator, `count` times.
    Update { object: usize, count: u64 },
}

/// Every site's replay behaviour, plus the update ledger it fills.
struct Replay<'a> {
    problem: &'a Problem,
    scheme: &'a ReplicationScheme,
    /// updates_received[i * N + k]: update batches delivered to site i for
    /// object k, used to verify the broadcast half of the policy.
    updates_received: Vec<u64>,
}

impl Replay<'_> {
    fn broadcast_updates(&self, ctx: &mut Context<'_, ReplayMsg>, object: usize, count: u64) {
        let k = ObjectId::new(object);
        let size = self.problem.object_size(k);
        let me = ctx.node_id();
        for j in self.scheme.replicators(k).map(SiteId::index) {
            if j != me {
                ctx.send(j, count * size, ReplayMsg::Update { object, count });
            }
        }
    }
}

impl Node<ReplayMsg> for Replay<'_> {
    fn on_start(&mut self, ctx: &mut Context<'_, ReplayMsg>) {
        let problem = self.problem;
        let scheme = self.scheme;
        let me = SiteId::new(ctx.node_id());
        for k in problem.objects() {
            let object = k.index();
            // Reads: fetch from the nearest replicator unless we hold one.
            let reads = problem.reads(me, k);
            if reads > 0 {
                let (sn, _) = scheme.nearest_replica(problem, me, k);
                if sn != me {
                    ctx.send(
                        sn.index(),
                        0,
                        ReplayMsg::ReadRequest {
                            object,
                            count: reads,
                        },
                    );
                }
            }
            // Writes: ship to the primary (object-sized for non-replicators,
            // control-sized for replicators), which broadcasts.
            let writes = problem.writes(me, k);
            if writes > 0 {
                let sp = problem.primary(k);
                if sp == me {
                    self.broadcast_updates(ctx, object, writes);
                } else {
                    let size = if scheme.holds(me, k) {
                        0
                    } else {
                        writes * problem.object_size(k)
                    };
                    ctx.send(
                        sp.index(),
                        size,
                        ReplayMsg::WriteShip {
                            object,
                            count: writes,
                        },
                    );
                }
            }
        }
    }

    fn on_message(&mut self, ctx: &mut Context<'_, ReplayMsg>, msg: Message<ReplayMsg>) {
        match msg.payload {
            ReplayMsg::ReadRequest { object, count } => {
                let size = self.problem.object_size(ObjectId::new(object));
                ctx.send(msg.src, count * size, ReplayMsg::Data { object, count });
            }
            ReplayMsg::WriteShip { object, count } => {
                debug_assert_eq!(
                    self.problem.primary(ObjectId::new(object)),
                    SiteId::new(ctx.node_id()),
                    "write shipped to a non-primary site"
                );
                self.broadcast_updates(ctx, object, count);
            }
            ReplayMsg::Update { object, count } => {
                let n = self.problem.num_objects();
                self.updates_received[ctx.node_id() * n + object] += count;
            }
            ReplayMsg::Data { .. } => {}
        }
    }
}

/// Replays the whole read/write pattern and returns the measured network
/// transfer cost, which equals [`Problem::total_cost`] for the same scheme.
///
/// # Errors
///
/// Returns an error if the simulation exceeds its event budget (which would
/// indicate a protocol bug, not a property of the instance).
///
/// # Examples
///
/// ```
/// use drp_core::{Problem, ReplicationScheme, SiteId, replay::replay_total_cost};
/// use drp_net::CostMatrix;
///
/// let costs = CostMatrix::from_rows(2, vec![0, 3, 3, 0])?;
/// let problem = Problem::builder(costs)
///     .capacities(vec![10, 10])
///     .object(2, SiteId::new(0))
///     .reads(vec![0, 4])
///     .writes(vec![1, 1])
///     .build()?;
/// let scheme = ReplicationScheme::primary_only(&problem);
/// let measured = replay_total_cost(&problem, &scheme)?;
/// assert_eq!(measured, problem.total_cost(&scheme));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn replay_total_cost(problem: &Problem, scheme: &ReplicationScheme) -> Result<u64> {
    Ok(replay_verified(problem, scheme)?.transfer_cost)
}

/// Outcome of a verified replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplayReport {
    /// The measured NTC (equals [`Problem::total_cost`]).
    pub transfer_cost: u64,
    /// Update batches delivered across all replicas.
    pub updates_delivered: u64,
    /// Simulated completion time.
    pub completion_time: u64,
}

/// Replays the pattern and additionally verifies the *consistency* half of
/// the replication policy: every replicator of every object (other than the
/// primary) must receive exactly the object's total writes as updates —
/// i.e. no update is lost and none is delivered twice.
///
/// # Errors
///
/// Returns [`crate::CoreError::InvalidInstance`] if the delivery ledger
/// disagrees with the pattern (which would indicate a policy bug), or
/// simulator errors.
pub fn replay_verified(problem: &Problem, scheme: &ReplicationScheme) -> Result<ReplayReport> {
    let mut sim = Simulator::new(
        problem.costs(),
        Replay {
            problem,
            scheme,
            updates_received: vec![0; problem.num_sites() * problem.num_objects()],
        },
    );
    sim.run_to_completion()?;
    let stats = sim.stats();
    let completion_time = sim.now();
    let received = sim.into_handler().updates_received;

    let n = problem.num_objects();
    let mut delivered = 0u64;
    for k in problem.objects() {
        let expected = problem.total_writes(k);
        for i in problem.sites() {
            let got = received[i.index() * n + k.index()];
            let should = if scheme.holds(i, k) && problem.primary(k) != i {
                expected
            } else {
                0
            };
            if got != should {
                return Err(crate::CoreError::InvalidInstance {
                    reason: format!(
                        "site {i} received {got} updates for object {k}, expected {should}"
                    ),
                });
            }
            delivered += got;
        }
    }
    Ok(ReplayReport {
        transfer_cost: stats.transfer_cost,
        updates_delivered: delivered,
        completion_time,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use drp_net::CostMatrix;

    fn problem() -> Problem {
        let costs = CostMatrix::from_rows(3, vec![0, 1, 2, 1, 0, 1, 2, 1, 0]).unwrap();
        Problem::builder(costs)
            .capacities(vec![40, 40, 40])
            .object(10, SiteId::new(0))
            .reads(vec![0, 4, 6])
            .writes(vec![1, 2, 0])
            .object(5, SiteId::new(2))
            .reads(vec![3, 0, 2])
            .writes(vec![0, 0, 1])
            .build()
            .unwrap()
    }

    #[test]
    fn replay_matches_analytic_cost_primary_only() {
        let p = problem();
        let s = ReplicationScheme::primary_only(&p);
        assert_eq!(replay_total_cost(&p, &s).unwrap(), p.total_cost(&s));
    }

    #[test]
    fn replay_matches_analytic_cost_with_replicas() {
        let p = problem();
        let mut s = ReplicationScheme::primary_only(&p);
        s.add_replica(&p, SiteId::new(2), ObjectId::new(0)).unwrap();
        s.add_replica(&p, SiteId::new(1), ObjectId::new(0)).unwrap();
        s.add_replica(&p, SiteId::new(0), ObjectId::new(1)).unwrap();
        assert_eq!(replay_total_cost(&p, &s).unwrap(), p.total_cost(&s));
    }

    #[test]
    fn verified_replay_counts_update_deliveries() {
        let p = problem();
        let mut s = ReplicationScheme::primary_only(&p);
        s.add_replica(&p, SiteId::new(2), ObjectId::new(0)).unwrap();
        let report = replay_verified(&p, &s).unwrap();
        // Object 0 has 3 total writes and one non-primary replicator.
        assert_eq!(report.updates_delivered, 3);
        assert_eq!(report.transfer_cost, p.total_cost(&s));
        assert!(report.completion_time > 0);
    }

    #[test]
    fn replay_matches_analytic_cost_full_replication() {
        let p = problem();
        let s = ReplicationScheme::from_fn(&p, |_, _| true).unwrap();
        assert_eq!(replay_total_cost(&p, &s).unwrap(), p.total_cost(&s));
    }
}
