//! Timed request traces — a reproduction extension.
//!
//! The paper's cost model is aggregate (per-period counts). For the
//! simulator-driven examples we expand a pattern into a timestamped request
//! stream, each read/write landing at a uniformly random instant of the
//! period. [`stream`] yields the requests lazily for consumers that iterate
//! period by period (the `drp-serve` runtime); [`expand`] materializes and
//! time-orders one period for the small examples.

use drp_core::{ObjectId, Problem, SiteId};
use rand::{Rng, RngCore};
use serde::{Deserialize, Serialize};

/// Whether a request reads or writes its object.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RequestKind {
    /// Fetch the object from the nearest replicator.
    Read,
    /// Ship an updated version toward the primary.
    Write,
}

/// One timestamped request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Request {
    /// Instant within the period, in simulator time units.
    pub time: u64,
    /// Issuing site.
    pub site: SiteId,
    /// Target object.
    pub object: ObjectId,
    /// Read or write.
    pub kind: RequestKind,
}

/// Lazy request generator over one period: yields the pattern's requests
/// one at a time in deterministic `(site, object, reads-then-writes)`
/// generation order, drawing each timestamp from the rng on demand.
///
/// This is the streaming form of [`expand`]: nothing is materialized, so a
/// long-running consumer (the `drp-serve` runtime, a large sweep) can pull
/// a period's worth of requests without ever holding the full vector. The
/// items are *not* time-ordered — sorting requires materialization, which
/// is exactly what this type avoids; callers that need a time-ordered
/// batch use [`expand`], callers that bucket per site (the simulator
/// drivers) sort their own, smaller queues.
///
/// The rng draws happen in the same order as `expand`'s, so for the same
/// rng state the streamed requests are element-wise identical to
/// `expand`'s pre-sort sequence (asserted by a test).
#[derive(Debug)]
pub struct RequestStream<'a, R: RngCore + ?Sized> {
    problem: &'a Problem,
    period: u64,
    rng: &'a mut R,
    site: usize,
    object: usize,
    reads_left: u64,
    writes_left: u64,
    remaining: u64,
}

impl<'a, R: RngCore + ?Sized> RequestStream<'a, R> {
    fn new(problem: &'a Problem, period: u64, rng: &'a mut R) -> Self {
        let remaining = problem
            .objects()
            .map(|k| problem.total_reads(k) + problem.total_writes(k))
            .sum();
        let first = (SiteId::new(0), ObjectId::new(0));
        Self {
            reads_left: problem.reads(first.0, first.1),
            writes_left: problem.writes(first.0, first.1),
            problem,
            period,
            rng,
            site: 0,
            object: 0,
            remaining,
        }
    }

    /// Appends up to `max` requests to `buf`, returning how many were
    /// written. Batched form of the iterator for consumers that refill a
    /// reusable buffer instead of pulling one request at a time — the
    /// ingestion front end drains the period in fixed-size batches through
    /// this without the per-item iterator plumbing in its hot loop.
    pub fn fill(&mut self, buf: &mut Vec<Request>, max: usize) -> usize {
        let take = max.min(self.remaining as usize);
        buf.reserve(take);
        for _ in 0..take {
            // `remaining` exactly counts what the pattern still owes, so
            // the iterator cannot run dry inside the batch.
            buf.push(self.next().expect("remaining bounds the stream"));
        }
        take
    }

    fn emit(&mut self, kind: RequestKind) -> Request {
        self.remaining -= 1;
        Request {
            time: self.rng.random_range(0..self.period.max(1)),
            site: SiteId::new(self.site),
            object: ObjectId::new(self.object),
            kind,
        }
    }
}

impl<R: RngCore + ?Sized> Iterator for RequestStream<'_, R> {
    type Item = Request;

    fn next(&mut self) -> Option<Request> {
        loop {
            if self.reads_left > 0 {
                self.reads_left -= 1;
                return Some(self.emit(RequestKind::Read));
            }
            if self.writes_left > 0 {
                self.writes_left -= 1;
                return Some(self.emit(RequestKind::Write));
            }
            self.object += 1;
            if self.object == self.problem.num_objects() {
                self.object = 0;
                self.site += 1;
            }
            if self.site == self.problem.num_sites() {
                return None;
            }
            let (i, k) = (SiteId::new(self.site), ObjectId::new(self.object));
            self.reads_left = self.problem.reads(i, k);
            self.writes_left = self.problem.writes(i, k);
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.remaining as usize;
        (n, Some(n))
    }
}

impl<R: RngCore + ?Sized> ExactSizeIterator for RequestStream<'_, R> {}

/// Streams the aggregate pattern of `problem` as individual requests over
/// `[0, period)` without materializing them. See [`RequestStream`].
pub fn stream<'a, R: RngCore + ?Sized>(
    problem: &'a Problem,
    period: u64,
    rng: &'a mut R,
) -> RequestStream<'a, R> {
    RequestStream::new(problem, period, rng)
}

/// Expands the aggregate pattern of `problem` into a time-ordered request
/// stream over `[0, period)` — a thin wrapper that collects [`stream`] and
/// sorts by timestamp.
///
/// The returned vector holds the total number of reads and writes in the
/// instance, so use this with small instances; large consumers should pull
/// from [`stream`] incrementally instead.
///
/// # Examples
///
/// ```
/// use drp_workload::{trace, WorkloadSpec};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(10);
/// let problem = WorkloadSpec::paper(4, 3, 5.0, 25.0).generate(&mut rng)?;
/// let requests = trace::expand(&problem, 1_000, &mut rng);
/// assert!(requests.windows(2).all(|w| w[0].time <= w[1].time));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn expand<R: RngCore + ?Sized>(problem: &Problem, period: u64, rng: &mut R) -> Vec<Request> {
    let mut requests: Vec<Request> = stream(problem, period, rng).collect();
    requests.sort_by_key(|r| r.time);
    requests
}

/// Drives a request trace through the discrete-event simulator against a
/// replication scheme, request by request at the trace's timestamps.
///
/// Each read issues a control request to the issuer's nearest replicator,
/// which returns the object; each write ships the object to the primary
/// (control-sized when the writer is itself a replicator, matching Eq. 4's
/// convention), which broadcasts the update to every other replicator. The
/// measured transfer cost therefore equals the aggregate model's
/// [`Problem::total_cost`] whenever the trace was expanded from the same
/// pattern — asserted by the tests.
///
/// # Errors
///
/// Propagates simulator errors (event budget exhaustion would indicate a
/// protocol bug) and rejects traces whose ids exceed the instance.
pub fn simulate(
    problem: &Problem,
    scheme: &drp_core::ReplicationScheme,
    requests: &[Request],
) -> drp_core::Result<TraceReport> {
    use drp_net::sim::{Context, Message, Node, Simulator};

    #[derive(Debug, Clone, PartialEq, Eq)]
    enum Msg {
        /// Fire one queued request (timer payload carries its index).
        Fire {
            index: usize,
        },
        ReadRequest {
            object: usize,
        },
        Data {
            object: usize,
        },
        WriteShip {
            object: usize,
        },
        Update {
            object: usize,
        },
    }

    // The handler borrows the problem and scheme for the lifetime of the
    // run — the simulator is lifetime-parameterized, so no dense-matrix or
    // scheme copy is paid per invocation.
    struct Trace<'p> {
        problem: &'p Problem,
        scheme: &'p drp_core::ReplicationScheme,
        /// Per-site request queues: (time, object, is_write).
        queues: Vec<Vec<(u64, usize, bool)>>,
    }

    impl Trace<'_> {
        fn broadcast(&self, ctx: &mut Context<'_, Msg>, object: usize) {
            let k = ObjectId::new(object);
            let size = self.problem.object_size(k);
            let me = ctx.node_id();
            for j in self.scheme.replicators(k).map(SiteId::index) {
                if j != me {
                    ctx.send(j, size, Msg::Update { object });
                }
            }
        }

        fn issue(&self, ctx: &mut Context<'_, Msg>, object: usize, is_write: bool) {
            let me = SiteId::new(ctx.node_id());
            let k = ObjectId::new(object);
            if is_write {
                let sp = self.problem.primary(k);
                if sp == me {
                    self.broadcast(ctx, object);
                } else {
                    let size = if self.scheme.holds(me, k) {
                        0
                    } else {
                        self.problem.object_size(k)
                    };
                    ctx.send(sp.index(), size, Msg::WriteShip { object });
                }
            } else {
                let (sn, _) = self.scheme.nearest_replica(self.problem, me, k);
                if sn != me {
                    ctx.send(sn.index(), 0, Msg::ReadRequest { object });
                }
            }
        }
    }

    impl Node<Msg> for Trace<'_> {
        fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
            for (index, &(time, _, _)) in self.queues[ctx.node_id()].iter().enumerate() {
                ctx.set_timer(time, Msg::Fire { index });
            }
        }
        fn on_timer(&mut self, ctx: &mut Context<'_, Msg>, payload: Msg) {
            if let Msg::Fire { index } = payload {
                let (_, object, is_write) = self.queues[ctx.node_id()][index];
                self.issue(ctx, object, is_write);
            }
        }
        fn on_message(&mut self, ctx: &mut Context<'_, Msg>, msg: Message<Msg>) {
            match msg.payload {
                Msg::ReadRequest { object } => {
                    let size = self.problem.object_size(ObjectId::new(object));
                    ctx.send(msg.src, size, Msg::Data { object });
                }
                Msg::WriteShip { object } => self.broadcast(ctx, object),
                Msg::Data { .. } | Msg::Update { .. } | Msg::Fire { .. } => {}
            }
        }
    }

    let mut queues = vec![Vec::new(); problem.num_sites()];
    for request in requests {
        problem.check_site(request.site)?;
        problem.check_object(request.object)?;
        queues[request.site.index()].push((
            request.time,
            request.object.index(),
            request.kind == RequestKind::Write,
        ));
    }
    let mut sim = Simulator::new(
        problem.costs(),
        Trace {
            problem,
            scheme,
            queues,
        },
    );
    sim.run_to_completion().map_err(drp_core::CoreError::from)?;
    Ok(TraceReport {
        transfer_cost: sim.stats().transfer_cost,
        completion_time: sim.now(),
        messages: sim.stats().messages,
    })
}

/// Outcome of a trace-driven simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceReport {
    /// Measured network transfer cost.
    pub transfer_cost: u64,
    /// Simulated instant the last message settled.
    pub completion_time: u64,
    /// Messages exchanged (requests, data, ships, updates).
    pub messages: u64,
}

/// Counts requests by kind, a convenience for reporting.
pub fn volume(requests: &[Request]) -> (usize, usize) {
    let reads = requests
        .iter()
        .filter(|r| r.kind == RequestKind::Read)
        .count();
    (reads, requests.len() - reads)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::WorkloadSpec;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn expansion_matches_aggregate_counts() {
        let mut rng = StdRng::seed_from_u64(11);
        let p = WorkloadSpec::paper(4, 3, 10.0, 25.0)
            .generate(&mut rng)
            .unwrap();
        let requests = expand(&p, 500, &mut rng);
        let (reads, writes) = volume(&requests);
        let expected_reads: u64 = p.objects().map(|k| p.total_reads(k)).sum();
        let expected_writes: u64 = p.objects().map(|k| p.total_writes(k)).sum();
        assert_eq!(reads as u64, expected_reads);
        assert_eq!(writes as u64, expected_writes);
    }

    #[test]
    fn trace_simulation_matches_aggregate_cost_model() {
        let mut rng = StdRng::seed_from_u64(21);
        let p = WorkloadSpec::paper(5, 4, 10.0, 30.0)
            .generate(&mut rng)
            .unwrap();
        let scheme = drp_core::ReplicationScheme::primary_only(&p);
        let requests = expand(&p, 200, &mut rng);
        let report = simulate(&p, &scheme, &requests).unwrap();
        assert_eq!(report.transfer_cost, p.total_cost(&scheme));
        assert!(report.completion_time >= 1);
        assert!(report.messages as usize >= requests.len() / 2);
    }

    #[test]
    fn trace_simulation_matches_with_replicas() {
        let mut rng = StdRng::seed_from_u64(22);
        let p = WorkloadSpec::paper(5, 4, 10.0, 40.0)
            .generate(&mut rng)
            .unwrap();
        let mut scheme = drp_core::ReplicationScheme::primary_only(&p);
        for k in p.objects() {
            for i in p.sites() {
                if !scheme.holds(i, k) && p.object_size(k) <= scheme.free_capacity(&p, i) {
                    scheme.add_replica(&p, i, k).unwrap();
                    break;
                }
            }
        }
        let requests = expand(&p, 100, &mut rng);
        let report = simulate(&p, &scheme, &requests).unwrap();
        assert_eq!(report.transfer_cost, p.total_cost(&scheme));
    }

    #[test]
    fn trace_simulation_rejects_foreign_requests() {
        let mut rng = StdRng::seed_from_u64(23);
        let p = WorkloadSpec::paper(4, 3, 5.0, 30.0)
            .generate(&mut rng)
            .unwrap();
        let scheme = drp_core::ReplicationScheme::primary_only(&p);
        let bad = vec![Request {
            time: 0,
            site: SiteId::new(9),
            object: ObjectId::new(0),
            kind: RequestKind::Read,
        }];
        assert!(simulate(&p, &scheme, &bad).is_err());
    }

    #[test]
    fn stream_matches_expand_exactly() {
        // Same rng state: the streamed requests, once sorted like `expand`
        // sorts, are element-wise identical — `expand` is a thin wrapper.
        let p = WorkloadSpec::paper(6, 5, 10.0, 25.0)
            .generate(&mut StdRng::seed_from_u64(31))
            .unwrap();
        let expanded = expand(&p, 300, &mut StdRng::seed_from_u64(77));
        let mut rng = StdRng::seed_from_u64(77);
        let mut streamed: Vec<Request> = stream(&p, 300, &mut rng).collect();
        streamed.sort_by_key(|r| r.time);
        assert_eq!(expanded, streamed);
    }

    #[test]
    fn stream_is_exact_size_and_incremental() {
        let p = WorkloadSpec::paper(4, 3, 10.0, 25.0)
            .generate(&mut StdRng::seed_from_u64(32))
            .unwrap();
        let total: u64 = p
            .objects()
            .map(|k| p.total_reads(k) + p.total_writes(k))
            .sum();
        let mut rng = StdRng::seed_from_u64(5);
        let mut it = stream(&p, 100, &mut rng);
        assert_eq!(it.len() as u64, total);
        // Pulling one request shrinks the exact size hint: the generator is
        // incremental, not a drained buffer.
        let first = it.next().unwrap();
        assert!(first.time < 100);
        assert_eq!(it.len() as u64, total - 1);
        assert_eq!(it.count() as u64, total - 1);
    }

    #[test]
    fn fill_batches_concatenate_to_the_full_stream() {
        let p = WorkloadSpec::paper(5, 4, 10.0, 25.0)
            .generate(&mut StdRng::seed_from_u64(33))
            .unwrap();
        let mut rng = StdRng::seed_from_u64(99);
        let whole: Vec<Request> = stream(&p, 250, &mut rng).collect();
        let mut rng = StdRng::seed_from_u64(99);
        let mut it = stream(&p, 250, &mut rng);
        let mut batched = Vec::new();
        loop {
            let got = it.fill(&mut batched, 7);
            if got == 0 {
                break;
            }
            assert!(got <= 7);
        }
        assert_eq!(whole, batched);
        assert_eq!(it.len(), 0);
    }

    #[test]
    fn times_are_within_period_and_sorted() {
        let mut rng = StdRng::seed_from_u64(12);
        let p = WorkloadSpec::paper(3, 2, 5.0, 25.0)
            .generate(&mut rng)
            .unwrap();
        let requests = expand(&p, 100, &mut rng);
        assert!(requests.iter().all(|r| r.time < 100));
        assert!(requests.windows(2).all(|w| w[0].time <= w[1].time));
    }
}
