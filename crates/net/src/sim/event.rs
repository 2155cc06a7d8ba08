//! The simulator's event queue: a calendar of per-time buckets, popped
//! in `(at, seq)` order without a sort.

use std::collections::VecDeque;

/// Simulated time, in abstract cost units.
pub type Time = u64;

/// A scheduled occurrence inside the engine.
#[derive(Debug)]
pub(crate) enum EventKind<P> {
    /// A message arriving at `msg.dst`.
    Arrival(super::Message<P>),
    /// A timer set by `node` with an opaque payload.
    Timer { node: usize, payload: P },
    /// Entry `index` of the arrival stream, due at its site. The engine
    /// pops it from the stream; it is never queued.
    Stream(usize),
    /// A fault-plan transition taking a site down (the plan itself
    /// answers liveness queries; the event only counts and orders it).
    Crash,
    /// A fault-plan transition bringing a site back up.
    Recover,
}

/// Priority queue ordered by `(at, seq)` — earliest first, FIFO on ties.
///
/// A calendar: one FIFO bucket per pending time, buckets in ascending
/// time (Brown, "Calendar queues", CACM 1988, with one bucket per time).
/// `seq` rises with every push and every [`reserve_seq`], so a bucket's
/// FIFO order *is* its `(at, seq)` order and nothing is ever sorted.
/// Event times are small integers (link costs and timer delays), so few
/// times are pending at once: a push binary-searches those few buckets
/// and a pop is O(1). A bucket is dropped, storage and all, when it
/// drains. The popped sequence is exactly the one a single binary heap
/// over every push would give.
///
/// [`reserve_seq`]: Self::reserve_seq
#[derive(Debug)]
pub(crate) struct EventQueue<P> {
    /// Pending times in ascending order, none of them empty.
    calendar: VecDeque<Bucket<P>>,
    next_seq: u64,
}

/// The calendar's events due at one time, in push order.
#[derive(Debug)]
struct Bucket<P> {
    at: Time,
    events: VecDeque<(u64, EventKind<P>)>,
}

impl<P> EventQueue<P> {
    pub fn new() -> Self {
        Self {
            calendar: VecDeque::new(),
            next_seq: 0,
        }
    }

    /// Takes the next `seq` without queuing anything, for an event kept
    /// outside the queue that must order among its pushes.
    pub fn reserve_seq(&mut self) -> u64 {
        self.next_seq += 1;
        self.next_seq - 1
    }

    pub fn push(&mut self, at: Time, kind: EventKind<P>) {
        let seq = self.reserve_seq();
        let i = self.calendar.partition_point(|b| b.at < at);
        match self.calendar.get_mut(i) {
            Some(bucket) if bucket.at == at => bucket.events.push_back((seq, kind)),
            _ => self.calendar.insert(
                i,
                Bucket {
                    at,
                    events: VecDeque::from([(seq, kind)]),
                },
            ),
        }
    }

    /// The `(at, seq)` of the event [`pop`](Self::pop) would return.
    pub fn peek(&self) -> Option<(Time, u64)> {
        self.calendar.front().map(|b| (b.at, b.events[0].0))
    }

    pub fn pop(&mut self) -> Option<(Time, EventKind<P>)> {
        let bucket = self.calendar.front_mut()?;
        let at = bucket.at;
        let (_, kind) = bucket.events.pop_front()?;
        if bucket.events.is_empty() {
            self.calendar.pop_front();
        }
        Some((at, kind))
    }

    /// Events queued; counts bucket by bucket, so it is for diagnostics
    /// rather than the event loop.
    pub fn len(&self) -> usize {
        self.calendar.iter().map(|b| b.events.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::Message;
    use proptest::prelude::*;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    /// Pops in `(at, seq)` order, FIFO on ties; `peek` names the head's
    /// key, and a reserved `seq` queues nothing.
    #[test]
    fn pops_in_time_order_with_fifo_ties() {
        let mut q: EventQueue<u8> = EventQueue::new();
        for (at, payload) in [(5, 1), (2, 2), (5, 3)] {
            q.push(at, EventKind::Timer { node: 0, payload });
            assert_eq!(q.reserve_seq() % 2, 1);
        }
        assert_eq!((q.len(), q.peek()), (3, Some((2, 2))));
        let order: Vec<(Time, u8)> = std::iter::from_fn(|| q.pop())
            .map(|(at, kind)| match kind {
                EventKind::Timer { payload, .. } => (at, payload),
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(order, vec![(2, 2), (5, 1), (5, 3)]);
        assert_eq!(q.peek(), None);
    }

    #[test]
    fn drained_queue_holds_no_bucket_storage() {
        let mut q: EventQueue<u32> = EventQueue::new();
        let mut pending = std::collections::BTreeMap::<Time, usize>::new();
        for i in 0..6_000u32 {
            let at = u64::from(i % 13) * 150 + u64::from(i / 500);
            q.push(
                at,
                EventKind::Arrival(Message {
                    src: 0,
                    dst: 1,
                    size: 0,
                    payload: i,
                }),
            );
            *pending.entry(at).or_default() += 1;
            if i % 2 == 1 {
                let (at, _) = q.pop().expect("queued");
                let left = pending.get_mut(&at).expect("pending time");
                *left -= 1;
                if *left == 0 {
                    pending.remove(&at);
                }
            }
            // One bucket per pending time, none of them empty.
            assert_eq!(q.calendar.len(), pending.len());
            assert!(q.calendar.iter().all(|b| !b.events.is_empty()));
        }
        while q.pop().is_some() {}
        assert_eq!(q.len(), 0);
        assert!(q.calendar.is_empty());
    }

    proptest! {
        /// Pops interleaved with pushes at times ≥ now — ties, bursts at
        /// one time, pushes 1000+ units ahead, reserved seqs between —
        /// pop exactly the sequence one binary heap keyed by `(at, push
        /// order)` pops, and `peek` names its head. Ops are 0 a pop; 1 a
        /// push up to 9 units ahead; 2 the same after a reserved seq; 3 a
        /// push far ahead; 4 a burst of eight pushes at one time.
        #[test]
        fn run_and_heap_pop_like_one_heap(
            ops in prop::collection::vec((0u8..5, 0u64..10), 0..300),
        ) {
            let mut q: EventQueue<u32> = EventQueue::new();
            let mut heap = BinaryHeap::new();
            let pop = |q: &mut EventQueue<u32>| {
                q.pop().map(|(at, kind)| match kind {
                    EventKind::Timer { payload, .. } => (at, payload),
                    _ => unreachable!(),
                })
            };
            let (mut now, mut label) = (0, 0u32);
            for &(op, delay) in &ops {
                let (at, pushes) = match op {
                    0 => (now, 0),
                    3 => (now + 1000 + 397 * delay, 1),
                    4 => (now + delay, 8),
                    _ => (now + delay, 1),
                };
                for _ in 0..pushes {
                    if op == 2 {
                        q.reserve_seq();
                    }
                    label += 1;
                    q.push(at, EventKind::Timer { node: 0, payload: label });
                    heap.push(Reverse((at, label)));
                }
                let head = heap.peek().map(|&Reverse((at, _))| at);
                prop_assert_eq!(q.peek().map(|(at, _)| at), head);
                prop_assert_eq!(q.len(), heap.len());
                if op == 0 {
                    let got = pop(&mut q);
                    prop_assert_eq!(got, heap.pop().map(|Reverse(key)| key));
                    now = got.map_or(now, |(at, _)| at);
                }
            }
            while let Some(Reverse(key)) = heap.pop() {
                prop_assert_eq!(pop(&mut q), Some(key));
            }
            prop_assert_eq!(pop(&mut q), None);
        }
    }
}
