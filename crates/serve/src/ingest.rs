//! Thread-per-core ingestion front end for the serving runtime.
//!
//! One epoch's request trace is pulled from [`drp_workload::trace::stream`]
//! in fixed-size batches by a single producer (the rng draw order is the
//! serial, determinism-bearing part) and routed to shard workers over
//! *bounded* channels — a worker that falls behind blocks the producer,
//! which is the backpressure contract. Sites are partitioned into
//! contiguous shard ranges, so each worker owns a disjoint set of per-site
//! absorb buffers and a disjoint block of rows in the observed-traffic
//! matrices: no locks anywhere on the hot path.
//!
//! Determinism: a site's buffer receives exactly the producer's
//! sub-sequence for that site, in producer order, no matter how many
//! workers run (each site has one owner, and the per-worker channel is
//! FIFO). On the caller's thread, a stable sort by time over the buffers
//! concatenated in site order then yields one stream in `(time, site,
//! arrival order)` — restricted to a site, the single-threaded `(time,
//! global sequence)` order — and one admission walk over it keeps each
//! site's first [`IngestSpec::admission_limit`] requests. The admitted
//! stream, and everything downstream of it, is bitwise-identical across
//! `threads` ∈ {1, 2, 4, …}. Every time lies in `[0, period)`, so that sort
//! is a least-significant-digit radix sort: one stable counting pass per
//! byte `period − 1` needs (one pass at period 256). The shed accounting
//! satisfies `offered == admitted + shed` per site, asserted by property
//! tests.
//!
//! With `threads == 1` the whole pipeline runs inline on the caller's
//! thread: no channels, no spawns, same code for counting and finalizing.

use drp_core::{DenseMatrix, IngestReport, Problem};
use drp_net::sim::Arrival;
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
    /// count). Any value yields a bitwise-identical stream and report.
    pub threads: usize,
    /// Requests per producer batch (0 = [`DEFAULT_BATCH`]).
    pub batch: usize,
    /// Channel depth in batches (0 = [`DEFAULT_DEPTH`]).
    pub depth: usize,
}

/// Per-epoch buffers: the admitted stream (the serving loop's epoch
/// engine takes it for the epoch) and the producer's pull buffer, whose
/// allocation every epoch reuses. Hold one per serving loop.
#[derive(Debug, Default)]
pub struct IngestScratch {
    /// The admitted requests in `(time, site, arrival order)`: the
    /// simulator's arrival stream. Valid until the next [`ingest_epoch`]
    /// call overwrites it.
    pub stream: Vec<Arrival>,
    pull: Vec<Request>,
}

impl IngestScratch {
    /// Creates empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// What one ingested epoch produced, besides the stream in the scratch.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IngestOutcome {
    /// Per-site admission accounting (`offered == admitted + shed`).
    pub report: IngestReport,
    /// Reads among the admitted requests.
    pub admitted_reads: u64,
    /// Writes among the admitted requests.
    pub admitted_writes: u64,
}

/// Routes one request into its site's buffer and the observation window.
/// `base` is the first site of the owning shard; `reads`/`writes` are that
/// shard's rows of the observed matrices.
#[inline]
fn absorb(
    r: &Request,
    base: usize,
    n: usize,
    buffers: &mut [Vec<(u64, u32, bool)>],
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
    buffers[local].push((r.time, object as u32, is_write));
}

/// Bytes of a time in `[0, period)` that ordering by time must look at.
fn time_bytes(period: u64) -> u32 {
    let max = period.max(1) - 1;
    (u64::BITS - max.leading_zeros()).div_ceil(8)
}

/// Orders every absorbed request into `stream` by `(time, site, arrival
/// order)`: a stable LSD radix sort over the low `bytes` bytes of each
/// time, whose first pass reads the buffers in site order. That pass runs
/// even at `bytes == 0`, where every time is 0.
fn order_by_time(absorbed: &[Vec<(u64, u32, bool)>], stream: &mut Vec<Arrival>, bytes: u32) {
    debug_assert!(
        absorbed
            .iter()
            .flatten()
            .all(|e| e.0.checked_shr(8 * bytes).unwrap_or(0) == 0),
        "a time past the period"
    );
    let concatenated = || {
        let sites = absorbed.iter().zip(0u32..);
        sites.flat_map(|(buffer, site)| {
            buffer.iter().map(move |&(at, object, write)| Arrival {
                at,
                site,
                object,
                write,
            })
        })
    };
    counting_pass(concatenated, stream, 0);
    // Periods past 256 scatter through a second buffer, held only here.
    let mut buf = Vec::new();
    for byte in 1..bytes {
        counting_pass(|| stream.iter().copied(), &mut buf, 8 * byte);
        std::mem::swap(stream, &mut buf);
    }
}

/// One stable counting pass: scatters what `src` yields into `dst` by the
/// byte of each time at `shift`. `dst` is resized rather than cleared:
/// the pass overwrites every entry, so stale ones need no zeroing.
fn counting_pass<I: Iterator<Item = Arrival>>(
    src: impl Fn() -> I,
    dst: &mut Vec<Arrival>,
    shift: u32,
) {
    let digit = |a: &Arrival| (a.at >> shift) as usize & 0xff;
    let mut slots = [0usize; 256];
    for a in src() {
        slots[digit(&a)] += 1;
    }
    let mut len = 0;
    for slot in &mut slots {
        (*slot, len) = (len, len + *slot);
    }
    dst.resize(len, Arrival::default());
    for a in src() {
        let slot = &mut slots[digit(&a)];
        dst[*slot] = a;
        *slot += 1;
    }
}

/// Contiguous site ranges: shard `w` of `t` owns `[lo, hi)`.
fn shard_ranges(num_sites: usize, threads: usize) -> Vec<(usize, usize)> {
    let t = threads.max(1).min(num_sites.max(1));
    (0..t)
        .map(|w| (w * num_sites / t, (w + 1) * num_sites / t))
        .collect()
}

/// Splits a slice of `width` entries per site (a row-major matrix's rows,
/// or one entry each) into per-shard blocks.
fn split_blocks<'x, T>(
    mut slice: &'x mut [T],
    ranges: &[(usize, usize)],
    width: usize,
) -> Vec<&'x mut [T]> {
    let mut out = Vec::with_capacity(ranges.len());
    for &(lo, hi) in ranges {
        let (head, tail) = slice.split_at_mut((hi - lo) * width);
        out.push(head);
        slice = tail;
    }
    out
}

/// Streams one period's trace into the admitted stream (left in
/// `scratch.stream`) and the observed-traffic matrices, using up to
/// `spec.threads` shard workers. The matrices must be `m x n` and are
/// *incremented*, not cleared — pass zeroed matrices for a fresh window.
///
/// Every offered request lands in the observation window; only admitted
/// ones survive into the stream. All outputs are bitwise-identical for
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
        "object ids must fit the stream's u32"
    );
    // Per-site offered requests, `(time, object, is_write)` in producer
    // order, each sized to the site's row of the pattern. They live for
    // this call only: kept across epochs, they would sit beside the
    // stream through every simulation.
    let mut absorbed: Vec<Vec<(u64, u32, bool)>> = (0..m)
        .map(|i| {
            let rows = [problem.read_matrix(), problem.write_matrix()];
            Vec::with_capacity(rows.iter().flat_map(|p| p.row(i)).sum::<u64>() as usize)
        })
        .collect();

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
                absorb(r, 0, n, &mut absorbed, reads, writes);
            }
        }
    } else {
        let ranges = shard_ranges(m, threads);
        let read_blocks = split_blocks(observed_reads.as_mut_slice(), &ranges, n);
        let write_blocks = split_blocks(observed_writes.as_mut_slice(), &ranges, n);
        let buffer_blocks = split_blocks(&mut absorbed, &ranges, 1);

        let mut senders = Vec::with_capacity(ranges.len());
        let mut workers = Vec::with_capacity(ranges.len());
        for (((&(lo, _), buffers), reads), writes) in ranges
            .iter()
            .zip(buffer_blocks)
            .zip(read_blocks)
            .zip(write_blocks)
        {
            let (tx, rx) = crossbeam::channel::bounded::<Vec<Request>>(depth);
            senders.push(tx);
            workers.push((lo, rx, buffers, reads, writes));
        }

        std::thread::scope(|scope| {
            for (lo, rx, buffers, reads, writes) in workers {
                scope.spawn(move || {
                    while let Ok(sub) = rx.recv() {
                        for r in &sub {
                            absorb(r, lo, n, buffers, reads, writes);
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

    // Order and admit on the caller's thread, so neither depends on
    // worker scheduling. Restricted to one site, the stream is in `(time,
    // arrival order)`, so keeping each site's first `admission_limit`
    // requests sheds exactly a per-site cap on that order.
    order_by_time(&absorbed, &mut scratch.stream, time_bytes(spec.period));
    let limit = match spec.admission_limit {
        0 => u64::MAX,
        limit => limit,
    };
    let mut report = IngestReport::zeros(m);
    report.batches = batches;
    let admitted = &mut report.admitted_by_site;
    let mut admitted_writes = 0;
    scratch.stream.retain(|a| {
        let count = &mut admitted[a.site as usize];
        let keep = *count < limit;
        *count += u64::from(keep);
        admitted_writes += u64::from(keep && a.write);
        keep
    });
    for (site, buffer) in absorbed.iter().enumerate() {
        report.offered_by_site[site] = buffer.len() as u64;
        report.shed_by_site[site] = buffer.len() as u64 - report.admitted_by_site[site];
    }
    IngestOutcome {
        report,
        admitted_reads: scratch.stream.len() as u64 - admitted_writes,
        admitted_writes,
    }
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

    /// The legacy materialized ingestion: the whole stream with global
    /// sequence numbers, each site's requests sorted by `(time,
    /// sequence)` and cut to `limit` (0 = all), then merged across sites
    /// by `(time, site, sequence)`.
    fn legacy_stream(p: &Problem, period: u64, seed: u64, limit: usize) -> Vec<Arrival> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut by_site = vec![Vec::new(); p.num_sites()];
        for (seq, r) in trace::stream(p, period, &mut rng).enumerate() {
            let site = r.site.index() as u32;
            let object = r.object.index() as u32;
            let write = r.kind == RequestKind::Write;
            let arrival = Arrival {
                at: r.time,
                site,
                object,
                write,
            };
            by_site[r.site.index()].push((r.time, seq, arrival));
        }
        let mut all = Vec::new();
        for mut list in by_site {
            list.sort_unstable_by_key(|&(at, seq, _)| (at, seq));
            list.truncate(if limit == 0 { list.len() } else { limit });
            all.extend(list);
        }
        all.sort_unstable_by_key(|&(at, seq, a)| (at, a.site, seq));
        all.into_iter().map(|(_, _, a)| a).collect()
    }

    #[test]
    fn single_thread_matches_the_legacy_materialized_path() {
        let p = problem(7, 5, 3);
        let s = spec(&p, 1, 6);
        let want = legacy_stream(&p, s.period, s.seed, 6);
        let mut scratch = IngestScratch::new();
        let mut reads = DenseMatrix::zeros(7, 5);
        let mut writes = DenseMatrix::zeros(7, 5);
        let out = ingest_epoch(&s, &mut scratch, &mut reads, &mut writes);
        assert_eq!(scratch.stream, want);
        assert!(out.report.balanced());
    }

    /// A three-unit period puts most of a site's requests on equal times:
    /// the admission sort must keep their arrival order (the legacy
    /// `(time, global sequence)` key) at any thread count.
    #[test]
    fn equal_times_keep_arrival_order() {
        let p = problem(4, 12, 5);
        let want = legacy_stream(&p, 3, 42, 0);
        let per_site = |site| want.iter().filter(|a| a.site == site).count();
        assert!((0..4).all(|site| per_site(site) > 100), "too few ties");
        for threads in [1, 3] {
            let s = IngestSpec {
                period: 3,
                ..spec(&p, threads, 0)
            };
            let mut scratch = IngestScratch::new();
            let mut reads = DenseMatrix::zeros(4, 12);
            let mut writes = DenseMatrix::zeros(4, 12);
            ingest_epoch(&s, &mut scratch, &mut reads, &mut writes);
            assert_eq!(scratch.stream, want, "threads={threads}");
        }
    }

    #[test]
    fn queues_and_reports_are_identical_across_thread_counts() {
        type Snapshot = (Vec<Arrival>, IngestOutcome, Vec<u64>);
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
                None => base = Some((scratch.stream.clone(), out, observed)),
                Some((stream, o, obs)) => {
                    assert_eq!(
                        &scratch.stream, stream,
                        "stream differs at threads={threads}"
                    );
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
                None => first = Some((scratch.stream.clone(), out)),
                Some((stream, o)) => {
                    assert_eq!(&scratch.stream, stream);
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
        assert_eq!(scratch.stream.len() as u64, total);
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The radix passes order the buffers exactly as a stable
        /// comparison sort by time does over their concatenation in site
        /// order, ties in that order, with times at `period − 1` in every
        /// case.
        #[test]
        fn radix_order_equals_a_stable_sort_by_time(
            p in 0usize..PERIODS.len(),
            raw in prop::collection::vec(
                (0u64..u64::MAX, 0usize..5, 0u32..u32::MAX, 0u8..2, 0u8..4),
                0..600,
            ),
        ) {
            let period = PERIODS[p];
            let mut absorbed: Vec<Vec<(u64, u32, bool)>> = vec![Vec::new(); 5];
            // One time in four is `period − 1`.
            for &(t, site, object, write, last) in &raw {
                let time = if last == 0 { period - 1 } else { t % period };
                absorbed[site].push((time, object, write == 1));
            }
            let mut want: Vec<Arrival> = Vec::new();
            for (site, buffer) in absorbed.iter().enumerate() {
                want.extend(buffer.iter().map(|&(at, object, write)| Arrival {
                    at,
                    site: site as u32,
                    object,
                    write,
                }));
            }
            want.sort_by_key(|a| a.at);
            let mut got = Vec::new();
            order_by_time(&absorbed, &mut got, time_bytes(period));
            prop_assert_eq!(got, want);
        }

        /// Ingest admits the same stream at 1, 2 and 4 threads, at every
        /// period: `(time, site)`-ordered, inside the period, and with
        /// each site's admitted count in the stream.
        #[test]
        fn admitted_queues_hash_alike_across_thread_counts(
            p in 0usize..PERIODS.len(),
            seed in 0u64..1_000,
            admission_limit in 0u64..40,
        ) {
            let period = PERIODS[p];
            let p = problem(6, 5, seed);
            let streams: Vec<Vec<Arrival>> = [1, 2, 4]
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
                    let out = ingest_epoch(&s, &mut scratch, &mut reads, &mut writes);
                    let stream = scratch.stream;
                    let key = |a: &Arrival| (a.at, a.site);
                    assert!(stream.windows(2).all(|w| key(&w[0]) <= key(&w[1])));
                    assert!(stream.iter().all(|a| a.at < period));
                    for (site, &admitted) in out.report.admitted_by_site.iter().enumerate() {
                        let in_stream = stream.iter().filter(|a| a.site as usize == site).count();
                        assert_eq!(in_stream as u64, admitted);
                    }
                    stream
                })
                .collect();
            prop_assert!(streams.iter().all(|s| *s == streams[0]));
        }
    }
}
