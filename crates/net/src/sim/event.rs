use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Simulated time, in abstract cost units.
pub type Time = u64;

/// A scheduled occurrence inside the engine.
#[derive(Debug)]
pub(crate) struct Scheduled<P> {
    pub at: Time,
    /// Monotonic tie-breaker preserving send order.
    pub seq: u64,
    pub kind: EventKind<P>,
}

#[derive(Debug)]
pub(crate) enum EventKind<P> {
    /// A message arriving at `msg.dst`.
    Arrival(super::Message<P>),
    /// A timer set by `node` with an opaque payload.
    Timer { node: usize, payload: P },
    /// A fault-plan transition taking a site down (the plan itself
    /// answers liveness queries; the event only counts and orders it).
    Crash,
    /// A fault-plan transition bringing a site back up.
    Recover,
}

/// Priority queue ordered by `(at, seq)` — earliest first, FIFO on ties.
///
/// Two stores share the order. Timers pushed before the first [`pop`]
/// (the start phase, where a driver typically arms one timer per queued
/// request) collect in `run`, a vector of compact entries that the first
/// pop sorts once and then drains from the back. Everything else — sends,
/// crash/recover transitions and every push after the first pop — goes to
/// the binary heap. `pop` takes the smaller `(at, seq)` of the two heads;
/// `seq` is unique, so the popped sequence is exactly the one a single
/// heap over every push would give.
///
/// [`pop`]: Self::pop
#[derive(Debug)]
pub(crate) struct EventQueue<P> {
    heap: BinaryHeap<Reverse<Entry<P>>>,
    /// Start-phase timers; sorted descending by `(at, seq)` once sealed.
    run: Vec<StartTimer<P>>,
    /// Set by the first pop: the run is sorted and takes no more pushes.
    sealed: bool,
    next_seq: u64,
}

/// A start-phase timer: the `Timer` event without the enum around it.
#[derive(Debug)]
struct StartTimer<P> {
    at: Time,
    seq: u64,
    node: usize,
    payload: P,
}

#[derive(Debug)]
struct Entry<P>(Scheduled<P>);

impl<P> PartialEq for Entry<P> {
    fn eq(&self, other: &Self) -> bool {
        self.0.at == other.0.at && self.0.seq == other.0.seq
    }
}
impl<P> Eq for Entry<P> {}
impl<P> PartialOrd for Entry<P> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<P> Ord for Entry<P> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.0.at, self.0.seq).cmp(&(other.0.at, other.0.seq))
    }
}

impl<P> EventQueue<P> {
    pub fn new() -> Self {
        Self {
            heap: BinaryHeap::new(),
            run: Vec::new(),
            sealed: false,
            next_seq: 0,
        }
    }

    pub fn push(&mut self, at: Time, kind: EventKind<P>) {
        let seq = self.next_seq;
        self.next_seq += 1;
        match kind {
            EventKind::Timer { node, payload } if !self.sealed => self.run.push(StartTimer {
                at,
                seq,
                node,
                payload,
            }),
            kind => self.heap.push(Reverse(Entry(Scheduled { at, seq, kind }))),
        }
    }

    pub fn pop(&mut self) -> Option<Scheduled<P>> {
        if !self.sealed {
            self.sealed = true;
            // `(at, seq)` is unique, so the unstable sort is deterministic.
            self.run.sort_unstable_by_key(|t| Reverse((t.at, t.seq)));
        }
        let run_first = match (self.run.last(), self.heap.peek()) {
            (Some(t), Some(Reverse(Entry(s)))) => (t.at, t.seq) < (s.at, s.seq),
            (Some(_), None) => true,
            (None, _) => false,
        };
        if !run_first {
            return self.heap.pop().map(|Reverse(Entry(s))| s);
        }
        let t = self.run.pop()?;
        // Hand drained capacity back as the run shrinks: halving at a
        // quarter full copies O(total) entries over the whole drain.
        if self.run.capacity() > 4 * self.run.len() + 64 {
            self.run.shrink_to(2 * self.run.len());
        }
        Some(Scheduled {
            at: t.at,
            seq: t.seq,
            kind: EventKind::Timer {
                node: t.node,
                payload: t.payload,
            },
        })
    }

    pub fn len(&self) -> usize {
        self.heap.len() + self.run.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::Message;
    use proptest::prelude::*;

    #[test]
    fn pops_in_time_order_with_fifo_ties() {
        let mut q: EventQueue<u8> = EventQueue::new();
        q.push(
            5,
            EventKind::Timer {
                node: 0,
                payload: 1,
            },
        );
        q.push(
            2,
            EventKind::Timer {
                node: 0,
                payload: 2,
            },
        );
        q.push(
            5,
            EventKind::Timer {
                node: 0,
                payload: 3,
            },
        );
        assert_eq!(q.len(), 3);
        let order: Vec<(Time, u8)> = std::iter::from_fn(|| q.pop())
            .map(|s| match s.kind {
                EventKind::Timer { payload, .. } => (s.at, payload),
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(order, vec![(2, 2), (5, 1), (5, 3)]);
    }

    /// What a popped event is, flattened for comparison:
    /// `(at, seq, kind, site, payload)` with kinds 0 arrival, 1 timer,
    /// 2 crash, 3 recover.
    type Flat = (Time, u64, u8, usize, u32);

    /// The order the queue must reproduce: one binary heap over every
    /// push, keyed by `(at, seq)`.
    #[derive(Default)]
    struct Reference {
        heap: BinaryHeap<Reverse<Flat>>,
        next_seq: u64,
    }

    impl Reference {
        fn push(&mut self, at: Time, kind: u8, site: usize, payload: u32) {
            self.heap
                .push(Reverse((at, self.next_seq, kind, site, payload)));
            self.next_seq += 1;
        }
    }

    /// Pushes one event of `kind` into both queues.
    fn push_both(
        q: &mut EventQueue<u32>,
        r: &mut Reference,
        at: Time,
        kind: u8,
        site: usize,
        payload: u32,
    ) {
        let event = match kind {
            0 => EventKind::Arrival(Message {
                src: 0,
                dst: site,
                size: 0,
                payload,
            }),
            1 => EventKind::Timer {
                node: site,
                payload,
            },
            2 => EventKind::Crash,
            _ => EventKind::Recover,
        };
        q.push(at, event);
        r.push(at, kind, site, payload);
    }

    fn flatten(s: Scheduled<u32>) -> Flat {
        match s.kind {
            EventKind::Arrival(msg) => (s.at, s.seq, 0, msg.dst, msg.payload),
            EventKind::Timer { node, payload } => (s.at, s.seq, 1, node, payload),
            EventKind::Crash => (s.at, s.seq, 2, 0, 0),
            EventKind::Recover => (s.at, s.seq, 3, 0, 0),
        }
    }

    proptest! {
        /// Crash/recover windows, then a start phase of interleaved
        /// timers and sends, then pops interleaved with runtime pushes at
        /// times ≥ now: the run + heap queue pops exactly the sequence
        /// a single heap over the same pushes pops.
        #[test]
        fn run_and_heap_pop_like_one_heap(
            windows in prop::collection::vec((0u64..30, 0u64..30), 0..4),
            start in prop::collection::vec((0u8..2, 0u64..24, 0usize..5), 0..120),
            runtime in prop::collection::vec((0u8..3, 0u64..10, 0usize..5), 0..160),
        ) {
            let mut q: EventQueue<u32> = EventQueue::new();
            let mut r = Reference::default();
            let mut label = 0u32;
            for &(from, len) in &windows {
                push_both(&mut q, &mut r, from, 2, 0, 0);
                push_both(&mut q, &mut r, from + len, 3, 0, 0);
            }
            for &(kind, at, site) in &start {
                label += 1;
                push_both(&mut q, &mut r, at, kind, site, label);
            }
            prop_assert_eq!(q.len(), r.heap.len());
            let mut now = 0;
            for &(op, delay, site) in &runtime {
                if op == 0 {
                    let got = q.pop().map(flatten);
                    let want = r.heap.pop().map(|Reverse(f)| f);
                    prop_assert_eq!(got, want);
                    if let Some(f) = got {
                        prop_assert!(f.0 >= now, "time went backwards");
                        now = f.0;
                    }
                } else {
                    label += 1;
                    push_both(&mut q, &mut r, now + delay, op - 1, site, label);
                }
                prop_assert_eq!(q.len(), r.heap.len());
            }
            loop {
                let got = q.pop().map(flatten);
                let want = r.heap.pop().map(|Reverse(f)| f);
                prop_assert_eq!(got, want);
                if got.is_none() {
                    break;
                }
            }
        }
    }

    #[test]
    fn drained_run_releases_its_capacity() {
        let mut q: EventQueue<u32> = EventQueue::new();
        for i in 0..10_000u32 {
            q.push(
                u64::from(i % 97),
                EventKind::Timer {
                    node: 0,
                    payload: i,
                },
            );
        }
        let keys: Vec<(Time, u64)> = std::iter::from_fn(|| q.pop())
            .map(|s| (s.at, s.seq))
            .collect();
        assert_eq!(keys.len(), 10_000);
        assert!(keys.windows(2).all(|w| w[0] < w[1]));
        assert!(q.run.capacity() <= 64, "capacity {}", q.run.capacity());
    }
}
