//! Thread-per-core ingestion front end for the serving runtime.
//!
//! One epoch's request trace is pulled from [`drp_workload::trace::stream`]
//! in fixed-size batches by a single producer (the rng draw order is the
//! serial, determinism-bearing part) and routed to shard workers over
//! *bounded* channels — a worker that falls behind blocks the producer,
//! which is the backpressure contract. Sites are partitioned into
//! contiguous shard ranges, so each worker owns a disjoint set of per-site
//! queues and a disjoint block of rows in the observed-traffic matrices:
//! no locks anywhere on the hot path.
//!
//! Determinism: a site's queue receives exactly the producer's
//! sub-sequence for that site, in producer order, no matter how many
//! workers run (each site has one owner, and the per-worker channel is
//! FIFO). A stable sort by time therefore reproduces the single-threaded
//! `(time, global sequence)` order restricted to the site,
//! and the admitted queues — and everything downstream of them — are
//! bitwise-identical across `threads` ∈ {1, 2, 4, …}. Every time lies in
//! `[0, period)`, so that sort is a least-significant-digit radix sort:
//! one stable counting pass per byte `period − 1` needs (one pass at
//! period 256), scattering through a buffer kept in the scratch. The shed
//! accounting satisfies `offered == admitted + shed` per site, asserted by
//! property tests.
//!
//! With `threads == 1` the whole pipeline runs inline on the caller's
//! thread: no channels, no spawns, same code for counting and finalizing.

use drp_core::{DenseMatrix, IngestReport, Problem};
use drp_workload::trace::{self, Request, RequestKind};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Requests per producer pull from the trace stream.
pub const DEFAULT_BATCH: usize = 8_192;
/// Bounded-channel depth, in batches, before the producer blocks.
pub const DEFAULT_DEPTH: usize = 4;

/// Inputs of one ingested epoch.
#[derive(Debug, Clone, Copy)]
pub struct IngestSpec<'a> {
    /// The instance whose aggregate pattern is streamed.
    pub problem: &'a Problem,
    /// Period length in simulator time units.
    pub period: u64,
    /// Stream seed for the request timestamps.
    pub seed: u64,
    /// Per-site admitted-request cap (0 = unlimited).
    pub admission_limit: u64,
    /// Ingestion worker threads (values < 1 mean 1; capped at the site
    /// count). Any value yields bitwise-identical queues and reports.
    pub threads: usize,
    /// Requests per producer batch (0 = [`DEFAULT_BATCH`]).
    pub batch: usize,
    /// Channel depth in batches (0 = [`DEFAULT_DEPTH`]).
    pub depth: usize,
}

/// Reusable per-epoch buffers: the admitted queues the epoch engine
/// mounts and the producer's pull buffer. Hold one per serving loop and
/// every epoch reuses the allocations.
#[derive(Debug, Default)]
pub struct IngestScratch {
    /// Admitted per-site queues: `(time, object, is_write)`, time-ordered.
    /// Valid until the next [`ingest_epoch`] call overwrites them.
    pub queues: Vec<Vec<(u64, u32, bool)>>,
    pull: Vec<Request>,
    /// Scatter buffer of the per-site radix passes.
    sorted: Vec<(u64, u32, bool)>,
}

impl IngestScratch {
    /// Creates empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    pub(crate) fn reset(&mut self, num_sites: usize) {
        self.queues.resize_with(num_sites, Vec::new);
        for q in &mut self.queues {
            q.clear();
        }
        self.pull.clear();
    }
}

/// What one ingested epoch produced, besides the queues in the scratch.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IngestOutcome {
    /// Per-site admission accounting (`offered == admitted + shed`).
    pub report: IngestReport,
    /// Reads among the admitted requests.
    pub admitted_reads: u64,
    /// Writes among the admitted requests.
    pub admitted_writes: u64,
}

/// The per-site admission cap as a queue length, saturating so an
/// oversized u64 limit means "admit everything" on every target width.
fn site_limit(admission_limit: u64, offered: usize) -> usize {
    if admission_limit == 0 {
        offered
    } else {
        usize::try_from(admission_limit).unwrap_or(usize::MAX)
    }
}

/// Routes one request into its site queue and the observation window.
/// `base` is the first site of the owning shard; `reads`/`writes` are that
/// shard's rows of the observed matrices.
#[inline]
fn absorb(
    r: &Request,
    base: usize,
    n: usize,
    queues: &mut [Vec<(u64, u32, bool)>],
    reads: &mut [u64],
    writes: &mut [u64],
) {
    let local = r.site.index() - base;
    let object = r.object.index();
    let is_write = r.kind == RequestKind::Write;
    if is_write {
        writes[local * n + object] += 1;
    } else {
        reads[local * n + object] += 1;
    }
    queues[local].push((r.time, object as u32, is_write));
}

/// Bytes of a time in `[0, period)` that ordering by time must look at.
fn time_bytes(period: u64) -> u32 {
    let max = period.max(1) - 1;
    (u64::BITS - max.leading_zeros()).div_ceil(8)
}

/// Orders `queue` by time with a stable LSD radix sort over the low
/// `bytes` bytes of each time: one counting pass per byte, scattering
/// through `buf`. Equal times keep their order in `queue`.
fn radix_sort_by_time(
    queue: &mut Vec<(u64, u32, bool)>,
    buf: &mut Vec<(u64, u32, bool)>,
    bytes: u32,
) {
    debug_assert!(
        queue
            .iter()
            .all(|&(time, _, _)| time.checked_shr(8 * bytes).unwrap_or(0) == 0),
        "a time past the period"
    );
    for byte in 0..bytes {
        let shift = 8 * byte;
        let mut slots = [0usize; 256];
        for &(time, _, _) in queue.iter() {
            slots[(time >> shift) as usize & 0xff] += 1;
        }
        let mut next = 0;
        for slot in &mut slots {
            let count = *slot;
            *slot = next;
            next += count;
        }
        buf.clear();
        buf.resize(queue.len(), (0, 0, false));
        for &entry in queue.iter() {
            let slot = &mut slots[(entry.0 >> shift) as usize & 0xff];
            buf[*slot] = entry;
            *slot += 1;
        }
        std::mem::swap(queue, buf);
    }
}

/// Orders one site's arrivals by time and sheds the queue down to the
/// admission cap. Returns `(offered, shed, admitted_reads,
/// admitted_writes)`.
fn finalize_site(
    queue: &mut Vec<(u64, u32, bool)>,
    buf: &mut Vec<(u64, u32, bool)>,
    bytes: u32,
    admission_limit: u64,
) -> (u64, u64, u64, u64) {
    // The queue holds this site's arrivals in producer order whatever the
    // thread count, so a stable sort by time is the `(time, arrival
    // order)` key that keeps the result thread-count-independent.
    radix_sort_by_time(queue, buf, bytes);
    let offered = queue.len();
    let limit = site_limit(admission_limit, offered);
    let shed = offered.saturating_sub(limit);
    queue.truncate(limit);
    let writes = queue.iter().filter(|&&(_, _, write)| write).count() as u64;
    let reads = queue.len() as u64 - writes;
    (offered as u64, shed as u64, reads, writes)
}

/// Contiguous site ranges: shard `w` of `t` owns `[lo, hi)`.
fn shard_ranges(num_sites: usize, threads: usize) -> Vec<(usize, usize)> {
    let t = threads.max(1).min(num_sites.max(1));
    (0..t)
        .map(|w| (w * num_sites / t, (w + 1) * num_sites / t))
        .collect()
}

/// Splits a row-major matrix slice into per-shard row blocks.
fn split_rows<'x>(
    mut slice: &'x mut [u64],
    ranges: &[(usize, usize)],
    cols: usize,
) -> Vec<&'x mut [u64]> {
    let mut out = Vec::with_capacity(ranges.len());
    for &(lo, hi) in ranges {
        let (head, tail) = slice.split_at_mut((hi - lo) * cols);
        out.push(head);
        slice = tail;
    }
    out
}

/// Splits a per-site vector into per-shard blocks.
fn split_sites<'x, T>(mut slice: &'x mut [T], ranges: &[(usize, usize)]) -> Vec<&'x mut [T]> {
    let mut out = Vec::with_capacity(ranges.len());
    for &(lo, hi) in ranges {
        let (head, tail) = slice.split_at_mut(hi - lo);
        out.push(head);
        slice = tail;
    }
    out
}

/// Streams one period's trace into per-site admitted queues (left in
/// `scratch.queues`) and the observed-traffic matrices, using up to
/// `spec.threads` shard workers. The matrices must be `m x n` and are
/// *incremented*, not cleared — pass zeroed matrices for a fresh window.
///
/// Every offered request lands in the observation window; only admitted
/// ones survive into the queues. All outputs are bitwise-identical for
/// any `threads` value.
pub fn ingest_epoch(
    spec: &IngestSpec<'_>,
    scratch: &mut IngestScratch,
    observed_reads: &mut DenseMatrix<u64>,
    observed_writes: &mut DenseMatrix<u64>,
) -> IngestOutcome {
    let problem = spec.problem;
    let m = problem.num_sites();
    let n = problem.num_objects();
    assert_eq!(observed_reads.rows(), m, "observed_reads shape");
    assert_eq!(observed_writes.rows(), m, "observed_writes shape");
    assert!(
        u32::try_from(n).is_ok(),
        "object ids must fit the queues' u32"
    );
    scratch.reset(m);

    let batch = if spec.batch == 0 {
        DEFAULT_BATCH
    } else {
        spec.batch
    };
    let depth = if spec.depth == 0 {
        DEFAULT_DEPTH
    } else {
        spec.depth
    };
    let threads = spec.threads.max(1).min(m.max(1));
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let mut stream = trace::stream(problem, spec.period, &mut rng);
    let mut batches = 0u64;

    if threads == 1 {
        let reads = observed_reads.as_mut_slice();
        let writes = observed_writes.as_mut_slice();
        loop {
            scratch.pull.clear();
            if stream.fill(&mut scratch.pull, batch) == 0 {
                break;
            }
            batches += 1;
            for r in &scratch.pull {
                absorb(r, 0, n, &mut scratch.queues, reads, writes);
            }
        }
    } else {
        let ranges = shard_ranges(m, threads);
        let read_blocks = split_rows(observed_reads.as_mut_slice(), &ranges, n);
        let write_blocks = split_rows(observed_writes.as_mut_slice(), &ranges, n);
        let queue_blocks = split_sites(&mut scratch.queues, &ranges);

        let mut senders = Vec::with_capacity(ranges.len());
        let mut workers = Vec::with_capacity(ranges.len());
        for (((&(lo, _), queues), reads), writes) in ranges
            .iter()
            .zip(queue_blocks)
            .zip(read_blocks)
            .zip(write_blocks)
        {
            let (tx, rx) = crossbeam::channel::bounded::<Vec<Request>>(depth);
            senders.push(tx);
            workers.push((lo, rx, queues, reads, writes));
        }

        std::thread::scope(|scope| {
            for (lo, rx, queues, reads, writes) in workers {
                scope.spawn(move || {
                    while let Ok(sub) = rx.recv() {
                        for r in &sub {
                            absorb(r, lo, n, queues, reads, writes);
                        }
                    }
                });
            }

            // Producer: pull a batch, partition it by shard, send each
            // shard its sub-batch. `send` blocks while a shard's channel
            // is full — bounded-queue backpressure.
            let mut subs: Vec<Vec<Request>> = ranges.iter().map(|_| Vec::new()).collect();
            loop {
                scratch.pull.clear();
                if stream.fill(&mut scratch.pull, batch) == 0 {
                    break;
                }
                batches += 1;
                for sub in &mut subs {
                    sub.clear();
                }
                for &r in &scratch.pull {
                    // Contiguous equal ranges: the owner index is direct.
                    let w = (r.site.index() * ranges.len()) / m;
                    let w = if r.site.index() < ranges[w].0 {
                        w - 1
                    } else if r.site.index() >= ranges[w].1 {
                        w + 1
                    } else {
                        w
                    };
                    subs[w].push(r);
                }
                for (sub, tx) in subs.iter_mut().zip(&senders) {
                    if !sub.is_empty() {
                        tx.send(std::mem::take(sub)).expect("worker alive");
                    }
                }
            }
            drop(senders); // hang up: workers drain and exit
        });
    }

    // Finalize per site on the caller's thread, in site order, so the
    // report's aggregation order never depends on worker scheduling.
    let mut report = IngestReport::zeros(m);
    report.batches = batches;
    let mut outcome = IngestOutcome::default();
    let bytes = time_bytes(spec.period);
    for site in 0..m {
        let (offered, shed, reads, writes) = finalize_site(
            &mut scratch.queues[site],
            &mut scratch.sorted,
            bytes,
            spec.admission_limit,
        );
        report.offered_by_site[site] = offered;
        report.shed_by_site[site] = shed;
        report.admitted_by_site[site] = offered - shed;
        outcome.admitted_reads += reads;
        outcome.admitted_writes += writes;
    }
    outcome.report = report;
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use drp_workload::WorkloadSpec;
    use proptest::prelude::*;

    fn problem(m: usize, n: usize, seed: u64) -> Problem {
        WorkloadSpec::paper(m, n, 10.0, 25.0)
            .generate(&mut StdRng::seed_from_u64(seed))
            .unwrap()
    }

    fn spec(problem: &Problem, threads: usize, admission_limit: u64) -> IngestSpec<'_> {
        IngestSpec {
            problem,
            period: 500,
            seed: 42,
            admission_limit,
            threads,
            batch: 64, // small batches so multi-batch paths are exercised
            depth: 2,
        }
    }

    #[test]
    fn single_thread_matches_the_legacy_materialized_path() {
        // Reference: the old run_epoch ingestion — materialize the whole
        // stream with global sequence numbers, sort, shed.
        let p = problem(7, 5, 3);
        let s = spec(&p, 1, 6);
        let mut rng = StdRng::seed_from_u64(s.seed);
        let mut arrivals: Vec<Vec<(u64, u64, u32, bool)>> = vec![Vec::new(); 7];
        for (seq, r) in trace::stream(&p, s.period, &mut rng).enumerate() {
            arrivals[r.site.index()].push((
                r.time,
                seq as u64,
                r.object.index() as u32,
                r.kind == RequestKind::Write,
            ));
        }
        let mut want: Vec<Vec<(u64, u32, bool)>> = Vec::new();
        for mut list in arrivals {
            list.sort_unstable();
            list.truncate(6);
            want.push(list.into_iter().map(|(t, _, o, w)| (t, o, w)).collect());
        }

        let mut scratch = IngestScratch::new();
        let mut reads = DenseMatrix::zeros(7, 5);
        let mut writes = DenseMatrix::zeros(7, 5);
        let out = ingest_epoch(&s, &mut scratch, &mut reads, &mut writes);
        assert_eq!(scratch.queues, want);
        assert!(out.report.balanced());
    }

    /// A three-unit period puts most of a site's requests on equal times:
    /// the admission sort must keep their arrival order (the legacy
    /// `(time, global sequence)` key) at any thread count.
    #[test]
    fn equal_times_keep_arrival_order() {
        let p = problem(4, 12, 5);
        let mut rng = StdRng::seed_from_u64(42);
        let mut arrivals: Vec<Vec<(u64, u64, u32, bool)>> = vec![Vec::new(); 4];
        for (seq, r) in trace::stream(&p, 3, &mut rng).enumerate() {
            arrivals[r.site.index()].push((
                r.time,
                seq as u64,
                r.object.index() as u32,
                r.kind == RequestKind::Write,
            ));
        }
        let want: Vec<Vec<(u64, u32, bool)>> = arrivals
            .into_iter()
            .map(|mut list| {
                list.sort_unstable();
                list.into_iter().map(|(t, _, o, w)| (t, o, w)).collect()
            })
            .collect();
        assert!(want.iter().all(|q| q.len() > 100), "too few ties");
        for threads in [1, 3] {
            let s = IngestSpec {
                period: 3,
                ..spec(&p, threads, 0)
            };
            let mut scratch = IngestScratch::new();
            let mut reads = DenseMatrix::zeros(4, 12);
            let mut writes = DenseMatrix::zeros(4, 12);
            ingest_epoch(&s, &mut scratch, &mut reads, &mut writes);
            assert_eq!(scratch.queues, want, "threads={threads}");
        }
    }

    #[test]
    fn queues_and_reports_are_identical_across_thread_counts() {
        type Snapshot = (Vec<Vec<(u64, u32, bool)>>, IngestOutcome, Vec<u64>);
        let p = problem(9, 6, 4);
        let mut base: Option<Snapshot> = None;
        for threads in [1usize, 2, 4, 9, 16] {
            let s = spec(&p, threads, 11);
            let mut scratch = IngestScratch::new();
            let mut reads = DenseMatrix::zeros(9, 6);
            let mut writes = DenseMatrix::zeros(9, 6);
            let out = ingest_epoch(&s, &mut scratch, &mut reads, &mut writes);
            assert!(out.report.balanced());
            let observed: Vec<u64> = reads.iter().chain(writes.iter()).copied().collect();
            match &base {
                None => base = Some((scratch.queues.clone(), out, observed)),
                Some((q, o, obs)) => {
                    assert_eq!(&scratch.queues, q, "queues differ at threads={threads}");
                    assert_eq!(&out, o, "outcome differs at threads={threads}");
                    assert_eq!(&observed, obs, "window differs at threads={threads}");
                }
            }
        }
    }

    #[test]
    fn scratch_reuse_is_bitwise_stable() {
        let p = problem(5, 4, 7);
        let s = spec(&p, 3, 0);
        let mut scratch = IngestScratch::new();
        let mut first = None;
        for _ in 0..3 {
            let mut reads = DenseMatrix::zeros(5, 4);
            let mut writes = DenseMatrix::zeros(5, 4);
            let out = ingest_epoch(&s, &mut scratch, &mut reads, &mut writes);
            match &first {
                None => first = Some((scratch.queues.clone(), out)),
                Some((q, o)) => {
                    assert_eq!(&scratch.queues, q);
                    assert_eq!(&out, o);
                }
            }
        }
    }

    #[test]
    fn unlimited_admission_sheds_nothing_and_counts_everything() {
        let p = problem(6, 4, 9);
        let s = spec(&p, 2, 0);
        let mut scratch = IngestScratch::new();
        let mut reads = DenseMatrix::zeros(6, 4);
        let mut writes = DenseMatrix::zeros(6, 4);
        let out = ingest_epoch(&s, &mut scratch, &mut reads, &mut writes);
        let total: u64 = p
            .objects()
            .map(|k| p.total_reads(k) + p.total_writes(k))
            .sum();
        assert_eq!(out.report.offered(), total);
        assert_eq!(out.report.shed(), 0);
        assert_eq!(out.admitted_reads + out.admitted_writes, total);
        let window: u64 = reads.iter().chain(writes.iter()).sum();
        assert_eq!(window, total);
    }

    /// The periods the order tests cover: zero to three radix bytes, and
    /// both sides of the one-byte boundary.
    const PERIODS: [u64; 5] = [1, 255, 256, 257, 1 << 20];

    #[test]
    fn time_bytes_cover_period_minus_one() {
        let bytes: Vec<u32> = PERIODS.iter().map(|&p| time_bytes(p)).collect();
        assert_eq!(bytes, [0, 1, 1, 2, 3]);
        assert_eq!((time_bytes(0), time_bytes(u64::MAX)), (0, 8));
    }

    /// FNV-1a over the admitted queues.
    fn queues_hash(queues: &[Vec<(u64, u32, bool)>]) -> u64 {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for (time, object, write) in queues.iter().flatten() {
            let bytes = time.to_le_bytes().into_iter();
            let bytes = bytes.chain(object.to_le_bytes()).chain([u8::from(*write)]);
            for byte in bytes {
                hash ^= u64::from(byte);
                hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        hash
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The radix pass orders a queue exactly as a stable comparison
        /// sort by time does, ties in queue order, with times at
        /// `period − 1` in every case.
        #[test]
        fn radix_order_equals_a_stable_sort_by_time(
            p in 0usize..PERIODS.len(),
            raw in prop::collection::vec((0u64..u64::MAX, 0u32..u32::MAX, 0u8..2, 0u8..4), 0..600),
        ) {
            let period = PERIODS[p];
            // One time in four is `period − 1`.
            let queue: Vec<(u64, u32, bool)> = raw
                .iter()
                .map(|&(t, object, write, last)| {
                    let time = if last == 0 { period - 1 } else { t % period };
                    (time, object, write == 1)
                })
                .collect();
            let mut want = queue.clone();
            want.sort_by_key(|&(time, _, _)| time);
            let mut got = queue;
            radix_sort_by_time(&mut got, &mut Vec::new(), time_bytes(period));
            prop_assert_eq!(got, want);
        }

        /// Ingest admits the same queues at 1, 2 and 4 threads, at every
        /// period.
        #[test]
        fn admitted_queues_hash_alike_across_thread_counts(
            p in 0usize..PERIODS.len(),
            seed in 0u64..1_000,
            admission_limit in 0u64..40,
        ) {
            let period = PERIODS[p];
            let p = problem(6, 5, seed);
            let hashes: Vec<u64> = [1, 2, 4]
                .into_iter()
                .map(|threads| {
                    let s = IngestSpec {
                        period,
                        seed,
                        ..spec(&p, threads, admission_limit)
                    };
                    let mut scratch = IngestScratch::new();
                    let mut reads = DenseMatrix::zeros(6, 5);
                    let mut writes = DenseMatrix::zeros(6, 5);
                    ingest_epoch(&s, &mut scratch, &mut reads, &mut writes);
                    for q in &scratch.queues {
                        assert!(q.windows(2).all(|w| w[0].0 <= w[1].0));
                        assert!(q.iter().all(|e| e.0 < period));
                    }
                    queues_hash(&scratch.queues)
                })
                .collect();
            prop_assert!(hashes.iter().all(|&h| h == hashes[0]), "{:x?}", hashes);
        }
    }
}
