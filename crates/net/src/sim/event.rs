//! The simulator's event queue: start-phase timers in per-time slots
//! filled as they are armed, everything else in a calendar of per-time
//! buckets, popped in `(at, seq)` order without a sort.

use std::collections::VecDeque;

/// Simulated time, in abstract cost units.
pub type Time = u64;

/// A scheduled occurrence inside the engine, as [`EventQueue::pop`] hands
/// it out.
#[derive(Debug)]
pub(crate) struct Scheduled<P> {
    pub at: Time,
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

/// Start-phase timers due before this many time units always get a slot;
/// a later one gets one while the slots would still number no more than
/// the timers they hold, so a far-off timer cannot blow up the table.
const MIN_START_SLOTS: usize = 1024;

/// Priority queue ordered by `(at, seq)` — earliest first, FIFO on ties.
///
/// Two stores share the order. Timers pushed before the first [`pop`]
/// (the start phase, where a driver typically arms one timer per queued
/// request) go into `start`, one FIFO of compact entries per due time,
/// indexed by that time. Everything else — sends, crash/recover
/// transitions, start timers due past the slot bound or whose `seq` or
/// `node` overflows 32 bits, and every push after the first pop — goes to
/// the calendar: one FIFO bucket per pending time, buckets in ascending
/// time (Brown, "Calendar queues", CACM 1988, with one bucket per time).
/// `seq` rises with every push, so in both stores a bucket's FIFO order
/// *is* its `(at, seq)` order and nothing is ever sorted: the start
/// store's head is the front of its first non-empty slot, the calendar's
/// the front of its front bucket. Event times are small integers (link
/// costs and timer delays), so few times are pending in the calendar at
/// once: a push binary-searches those few buckets and a pop is O(1). A
/// bucket of either store is dropped, storage and all, when it drains.
/// `pop` takes the smaller `(at, seq)` of the two heads; `seq` is unique,
/// so the popped sequence is exactly the one a single binary heap over
/// every push would give.
///
/// [`pop`]: Self::pop
#[derive(Debug)]
pub(crate) struct EventQueue<P> {
    /// Pending times in ascending order, none of them empty.
    calendar: VecDeque<Bucket<P>>,
    /// Start-phase timers due at time `t`, in push order, at `start[t]`.
    start: Vec<VecDeque<StartTimer<P>>>,
    /// First slot of `start` that may hold a timer; once sealed, the
    /// first non-empty one (or `start.len()`).
    cursor: usize,
    /// Timers left in `start`.
    start_len: usize,
    /// Set by the first pop: `start` takes no more pushes.
    sealed: bool,
    next_seq: u64,
}

/// The calendar's events due at one time, in push order.
#[derive(Debug)]
struct Bucket<P> {
    at: Time,
    events: VecDeque<(u64, EventKind<P>)>,
}

/// A start-phase timer: the `Timer` event without the enum around it,
/// with `seq` and `node` narrowed to 32 bits and its time implied by its
/// slot. A timer whose `seq` or `node` does not fit goes to the calendar
/// instead.
#[derive(Debug)]
struct StartTimer<P> {
    seq: u32,
    node: u32,
    payload: P,
}

impl<P> EventQueue<P> {
    pub fn new() -> Self {
        Self {
            calendar: VecDeque::new(),
            start: Vec::new(),
            cursor: 0,
            start_len: 0,
            sealed: false,
            next_seq: 0,
        }
    }

    pub fn push(&mut self, at: Time, kind: EventKind<P>) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let kind = match kind {
            EventKind::Timer { node, payload } if !self.sealed => {
                let slot = usize::try_from(at)
                    .ok()
                    .filter(|&t| t < MIN_START_SLOTS.max(self.start_len));
                match (slot, u32::try_from(seq), u32::try_from(node)) {
                    (Some(slot), Ok(seq), Ok(node)) => {
                        if slot >= self.start.len() {
                            self.start.resize_with(slot + 1, VecDeque::new);
                        }
                        self.start[slot].push_back(StartTimer { seq, node, payload });
                        self.start_len += 1;
                        return;
                    }
                    _ => EventKind::Timer { node, payload },
                }
            }
            kind => kind,
        };
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

    /// Moves the cursor past drained slots, releasing the slot table once
    /// every start timer is out.
    fn skip_drained_slots(&mut self) {
        while self.start.get(self.cursor).is_some_and(VecDeque::is_empty) {
            self.cursor += 1;
        }
        if self.start_len == 0 && !self.start.is_empty() {
            self.start = Vec::new();
            self.cursor = 0;
        }
    }

    pub fn pop(&mut self) -> Option<Scheduled<P>> {
        if !self.sealed {
            self.sealed = true;
            self.skip_drained_slots();
        }
        let start_first = match (self.start.get(self.cursor), self.calendar.front()) {
            (Some(slot), Some(b)) => {
                (self.cursor as Time, u64::from(slot[0].seq)) < (b.at, b.events[0].0)
            }
            (Some(_), None) => true,
            (None, _) => false,
        };
        if !start_first {
            let bucket = self.calendar.front_mut()?;
            let at = bucket.at;
            let (_, kind) = bucket.events.pop_front()?;
            if bucket.events.is_empty() {
                self.calendar.pop_front();
            }
            return Some(Scheduled { at, kind });
        }
        let at = self.cursor as Time;
        let slot = &mut self.start[self.cursor];
        let t = slot.pop_front()?;
        self.start_len -= 1;
        if slot.is_empty() {
            // A drained slot hands its storage back at once, so memory
            // falls as time advances.
            *slot = VecDeque::new();
            self.skip_drained_slots();
        }
        Some(Scheduled {
            at,
            kind: EventKind::Timer {
                node: t.node as usize,
                payload: t.payload,
            },
        })
    }

    /// Events queued; counts the calendar bucket by bucket, so it is for
    /// diagnostics rather than the event loop.
    pub fn len(&self) -> usize {
        let queued: usize = self.calendar.iter().map(|b| b.events.len()).sum();
        queued + self.start_len
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::Message;
    use proptest::prelude::*;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

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
    /// `(at, kind, site, payload)` with kinds 0 arrival, 1 timer,
    /// 2 crash, 3 recover.
    type Flat = (Time, u8, usize, u32);

    /// The order the queue must reproduce: one binary heap over every
    /// push, keyed by `(at, seq)` with `seq` counting pushes.
    #[derive(Default)]
    struct Reference {
        heap: BinaryHeap<Reverse<(Time, u64, Flat)>>,
        next_seq: u64,
    }

    impl Reference {
        fn push(&mut self, at: Time, kind: u8, site: usize, payload: u32) {
            self.heap
                .push(Reverse((at, self.next_seq, (at, kind, site, payload))));
            self.next_seq += 1;
        }

        fn pop(&mut self) -> Option<Flat> {
            self.heap.pop().map(|Reverse((_, _, flat))| flat)
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
            EventKind::Arrival(msg) => (s.at, 0, msg.dst, msg.payload),
            EventKind::Timer { node, payload } => (s.at, 1, node, payload),
            EventKind::Crash => (s.at, 2, 0, 0),
            EventKind::Recover => (s.at, 3, 0, 0),
        }
    }

    /// Pops one event from both queues and checks they agree and that
    /// time never runs backwards; returns the popped event.
    fn pop_both(q: &mut EventQueue<u32>, r: &mut Reference, now: &mut Time) -> Option<Flat> {
        let got = q.pop().map(flatten);
        let want = r.pop();
        assert_eq!(got, want);
        if let Some(f) = got {
            assert!(f.0 >= *now, "time went backwards");
            *now = f.0;
        }
        assert_eq!(q.len(), r.heap.len());
        got
    }

    proptest! {
        /// Crash/recover windows, then a start phase, then pops
        /// interleaved with runtime pushes at times ≥ now: the start slots
        /// + calendar queue pops exactly the sequence a single heap over
        /// the same pushes pops. Start ops are 0/1 an arrival/timer at a
        /// time the windows also use; 2 a cost-0 self-send, due at 0 with
        /// the earliest start timers; 3 a timer past the slot bound.
        /// Runtime ops are 0 pop; 1/2 an arrival/timer up to 9 units
        /// ahead; 3 an arrival 1000+ units ahead (retry and deadline
        /// timers); 4 a burst of pushes at one time interleaved with
        /// pops; 5 a push tied with the start slots' head.
        #[test]
        fn run_and_heap_pop_like_one_heap(
            windows in prop::collection::vec((0u64..30, 0u64..30), 0..4),
            start in prop::collection::vec((0u8..4, 0u64..24, 0usize..5), 0..120),
            runtime in prop::collection::vec((0u8..6, 0u64..10, 0usize..5), 0..160),
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
                match kind {
                    0 | 1 => push_both(&mut q, &mut r, at, kind, site, label),
                    2 => push_both(&mut q, &mut r, 0, 0, site, label),
                    _ => {
                        let far = MIN_START_SLOTS as Time + 7 * at;
                        push_both(&mut q, &mut r, far, 1, site, label);
                    }
                }
            }
            prop_assert_eq!(q.len(), r.heap.len());
            let mut now = 0;
            for &(op, delay, site) in &runtime {
                match op {
                    0 => {
                        pop_both(&mut q, &mut r, &mut now);
                    }
                    1 | 2 => {
                        label += 1;
                        push_both(&mut q, &mut r, now + delay, op - 1, site, label);
                    }
                    3 => {
                        label += 1;
                        push_both(&mut q, &mut r, now + 1000 + 397 * delay, 0, site, label);
                    }
                    4 => {
                        let at = now + delay;
                        for j in 0..24u8 {
                            label += 1;
                            push_both(&mut q, &mut r, at, j % 2, site, label);
                            if j % 3 == 2 {
                                pop_both(&mut q, &mut r, &mut now);
                            }
                        }
                    }
                    _ => {
                        // Before the first pop the slots have no head yet.
                        if q.sealed && q.cursor < q.start.len() {
                            let head = q.cursor as Time;
                            prop_assert!(head >= now);
                            label += 1;
                            push_both(&mut q, &mut r, head, (delay % 2) as u8, site, label);
                        }
                    }
                }
                prop_assert_eq!(q.len(), r.heap.len());
            }
            while pop_both(&mut q, &mut r, &mut now).is_some() {}
        }
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
                let s = q.pop().expect("queued");
                let left = pending.get_mut(&s.at).expect("pending time");
                *left -= 1;
                if *left == 0 {
                    pending.remove(&s.at);
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

    /// Start-phase timers whose `seq` or `node` overflows the slots'
    /// 32-bit fields are queued in the calendar, intact and in `(at, seq)`
    /// order.
    #[test]
    fn start_timers_past_u32_go_to_the_calendar() {
        // The narrowing, and the time implied by the slot, are what keep
        // a timer with a 16-byte payload at 24 bytes.
        assert_eq!(std::mem::size_of::<StartTimer<[u64; 2]>>(), 24);
        let mut q: EventQueue<u32> = EventQueue::new();
        q.next_seq = u64::from(u32::MAX) - 2;
        let wide = u32::MAX as usize + 1;
        // Seqs MAX-2 ..= MAX+2: the first three fit in 32 bits, but the
        // second timer's node does not.
        for (at, node) in [(9, 0), (7, wide), (7, 1), (5, 2), (7, 3)] {
            q.push(at, EventKind::Timer { node, payload: 0 });
        }
        assert_eq!((q.start_len, q.len()), (2, 5));
        let order: Vec<(Time, usize)> = std::iter::from_fn(|| q.pop())
            .map(|s| match s.kind {
                EventKind::Timer { node, .. } => (s.at, node),
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(order, vec![(5, 2), (7, wide), (7, 1), (7, 3), (9, 0)]);
    }

    /// A start timer due past the slot bound waits in the calendar, so
    /// one far timer cannot grow the slot table; the bound rises with the
    /// timers the slots hold.
    #[test]
    fn start_timers_past_the_slot_bound_go_to_the_calendar() {
        let mut q: EventQueue<u32> = EventQueue::new();
        let bound = MIN_START_SLOTS as Time;
        for (i, at) in [Time::MAX, bound, bound - 1, 3].into_iter().enumerate() {
            q.push(
                at,
                EventKind::Timer {
                    node: 0,
                    payload: i as u32,
                },
            );
        }
        assert_eq!((q.start_len, q.start.len(), q.calendar.len()), (2, 1024, 2));
        // Once the slots hold more timers than the minimum, a timer due
        // just under that count gets a slot.
        for i in 0..bound {
            q.push(
                i % 4,
                EventKind::Timer {
                    node: 0,
                    payload: 0,
                },
            );
        }
        q.push(
            bound,
            EventKind::Timer {
                node: 0,
                payload: 9,
            },
        );
        assert_eq!((q.start.len(), q.calendar.len()), (1025, 2));
        let times: Vec<Time> = std::iter::from_fn(|| q.pop()).map(|s| s.at).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(&times[times.len() - 3..], [bound, bound, Time::MAX]);
    }

    /// Each start slot hands its storage back as soon as it drains, and
    /// the slot table goes once the last start timer is out.
    #[test]
    fn drained_start_slots_release_their_storage() {
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
        assert_eq!(q.start.len(), 97);
        let mut keys = Vec::new();
        while let Some(s) = q.pop() {
            let EventKind::Timer { payload, .. } = s.kind else {
                unreachable!()
            };
            keys.push((s.at, payload));
            // Every slot before the head is drained and holds nothing.
            let head = q.cursor.min(q.start.len());
            assert!(q.start[..head].iter().all(|s| s.capacity() == 0));
        }
        assert_eq!(keys.len(), 10_000);
        assert!(keys.windows(2).all(|w| w[0] < w[1]));
        assert_eq!((q.start.capacity(), q.start_len), (0, 0));
    }
}
