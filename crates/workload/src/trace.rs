//! Timed request traces — a reproduction extension.
//!
//! The paper's cost model is aggregate (per-period counts). The serving
//! engine needs individual requests instead, so [`stream`] expands a
//! pattern lazily into a timestamped request stream, each read/write
//! landing at a uniformly random instant of the period.

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
/// Nothing is materialized, so a long-running consumer (the `drp-serve`
/// runtime, a large sweep) can pull a period's worth of requests without
/// ever holding the full vector. The items are *not* time-ordered —
/// sorting requires materialization, which is exactly what this type
/// avoids; consumers that bucket per site (the serve ingest) sort their
/// own, smaller queues.
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
        let requests: Vec<Request> = stream(&p, 500, &mut rng).collect();
        for k in p.objects() {
            for i in p.sites() {
                let count = |kind| {
                    requests
                        .iter()
                        .filter(|r| (r.site, r.object, r.kind) == (i, k, kind))
                        .count() as u64
                };
                assert_eq!(count(RequestKind::Read), p.reads(i, k));
                assert_eq!(count(RequestKind::Write), p.writes(i, k));
            }
        }
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
        // Times are drawn within the period; the stream itself is sorted in
        // generation order: by (site, object), reads before writes.
        let mut rng = StdRng::seed_from_u64(12);
        let p = WorkloadSpec::paper(3, 2, 5.0, 25.0)
            .generate(&mut rng)
            .unwrap();
        let requests: Vec<Request> = stream(&p, 100, &mut rng).collect();
        assert!(requests.iter().all(|r| r.time < 100));
        let order = |r: &Request| (r.site, r.object, r.kind == RequestKind::Write);
        assert!(requests.windows(2).all(|w| order(&w[0]) <= order(&w[1])));
    }
}
