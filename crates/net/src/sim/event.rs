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
#[derive(Debug)]
pub(crate) struct EventQueue<P> {
    heap: BinaryHeap<Reverse<Entry<P>>>,
    next_seq: u64,
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
            next_seq: 0,
        }
    }

    pub fn push(&mut self, at: Time, kind: EventKind<P>) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse(Entry(Scheduled { at, seq, kind })));
    }

    pub fn pop(&mut self) -> Option<Scheduled<P>> {
        self.heap.pop().map(|Reverse(Entry(s))| s)
    }

    pub fn len(&self) -> usize {
        self.heap.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
