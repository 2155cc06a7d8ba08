//! The simulator: the [`Node`] callbacks, the [`Context`] through which a
//! callback sends and arms timers straight into the event queue, and the
//! event loop that merges the arrival stream with that queue and
//! dispatches each event to the site it belongs to.

use std::sync::Arc;

use crate::telemetry::{self, Recorder};
use crate::CostMatrix;

use super::error::SimError;
use super::event::{EventKind, EventQueue, Time};
use super::fault::{FaultPlan, FaultStats, Verdict};
use super::message::{Arrival, Message};
use super::stats::TrafficStats;

/// The behaviour of every site in the simulated network.
///
/// One handler serves all sites: each callback learns which site it acts
/// for from [`Context::node_id`], and [`Context`] is the only way to
/// produce side effects (sending messages, setting timers) on that site's
/// behalf. Per-site state, if any, lives in the handler indexed by site.
pub trait Node<P> {
    /// Invoked once per site, in id order, before any message is delivered.
    fn on_start(&mut self, ctx: &mut Context<'_, P>) {
        let _ = ctx;
    }

    /// Invoked when a message addressed to site `ctx.node_id()` arrives.
    fn on_message(&mut self, ctx: &mut Context<'_, P>, msg: Message<P>);

    /// Invoked when a timer set via [`Context::set_timer`] fires, at the
    /// site that set it.
    fn on_timer(&mut self, ctx: &mut Context<'_, P>, payload: P) {
        let _ = (ctx, payload);
    }

    /// Invoked when entry `index` of the arrival stream (see
    /// [`Simulator::set_arrivals`]) falls due, at its site.
    fn on_arrival(&mut self, ctx: &mut Context<'_, P>, index: usize) {
        let _ = (ctx, index);
    }
}

/// Handle through which a [`Node`] acts for one site.
///
/// A send or timer goes straight into the simulator's event queue: a send
/// is charged and, under a fault plan, given its drop/jitter verdict when
/// it is made, so verdicts are drawn in send order.
pub struct Context<'a, P> {
    node: usize,
    now: Time,
    /// Whether `node` is up for this callback, decided once: a down
    /// origin's sends and timers are suppressed.
    up: bool,
    costs: &'a CostMatrix,
    queue: &'a mut EventQueue<P>,
    stats: &'a mut TrafficStats,
    fault_stats: &'a mut FaultStats,
    faults: Option<&'a mut FaultPlan>,
}

impl<P> std::fmt::Debug for Context<'_, P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Context")
            .field("node", &self.node)
            .field("now", &self.now)
            .finish()
    }
}

impl<P> Context<'_, P> {
    /// The site this callback acts for.
    pub fn node_id(&self) -> usize {
        self.node
    }

    /// Current simulated time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Is `site` currently up? Always `true` without a fault plan.
    ///
    /// This is an oracle (perfect failure detector): protocol drivers like
    /// the serving engine's failover path may consult it, while
    /// message-level code can ignore it and rely on timeouts alone.
    pub fn is_up(&self, site: usize) -> bool {
        self.faults.as_ref().is_none_or(|p| p.is_up(site, self.now))
    }

    /// Sends `size` data units with `payload` to `dst`.
    ///
    /// Delivery happens at `now + C(self, dst)` and the transfer is charged
    /// `size · C(self, dst)` NTC. Sending to self delivers on the next
    /// dispatch round at the current time (cost 0). Under a fault plan the
    /// message may be dropped or delayed; NTC is charged for every
    /// transmitted message, delivered or not, except those suppressed at a
    /// down origin.
    ///
    /// # Panics
    ///
    /// Panics if `dst` is out of range, at the call.
    pub fn send(&mut self, dst: usize, size: u64, payload: P) {
        assert!(
            dst < self.costs.num_sites(),
            "destination {dst} out of range"
        );
        // A crashed origin produces nothing: its sends never reach the
        // wire.
        if !self.up {
            self.fault_stats.suppressed_effects += 1;
            return;
        }
        let c = self.costs.cost(self.node, dst);
        let extra = match &mut self.faults {
            Some(plan) => match plan.verdict() {
                Verdict::Deliver { extra_delay } => {
                    self.fault_stats.extra_delay += extra_delay;
                    extra_delay
                }
                Verdict::DropRandom => {
                    // The message was transmitted and lost in flight: the
                    // bandwidth is spent.
                    self.stats.record(size, c);
                    self.fault_stats.dropped_random += 1;
                    return;
                }
            },
            None => 0,
        };
        self.stats.record(size, c);
        self.queue.push(
            self.now + c + extra,
            EventKind::Arrival(Message {
                src: self.node,
                dst,
                size,
                payload,
            }),
        );
    }

    /// Schedules `payload` to be delivered back to this site via
    /// [`Node::on_timer`] after `delay` time units.
    ///
    /// Under a fault plan a timer that fires while its owner is down is
    /// discarded; a handler that must act after an outage consults
    /// [`Context::is_up`] before it relies on a peer.
    pub fn set_timer(&mut self, delay: Time, payload: P) {
        // A crashed origin arms nothing.
        if !self.up {
            self.fault_stats.suppressed_effects += 1;
            return;
        }
        self.queue.push(
            self.now + delay,
            EventKind::Timer {
                node: self.node,
                payload,
            },
        );
    }
}

/// Deterministic discrete-event simulator over a [`CostMatrix`].
///
/// See the [module documentation](crate::sim) for an example.
pub struct Simulator<'a, P, H: Node<P>> {
    costs: &'a CostMatrix,
    handler: H,
    queue: EventQueue<P>,
    /// The arrival stream, in `(at, site)` order.
    arrivals: &'a [Arrival],
    /// Next entry of `arrivals` to dispatch.
    cursor: usize,
    /// Per site, the `seq` its stream arrivals order by among the queue's
    /// events, taken at start; `None` for a site down at start.
    arrival_seq: Vec<Option<u64>>,
    stats: TrafficStats,
    faults: Option<FaultPlan>,
    fault_stats: FaultStats,
    now: Time,
    started: bool,
    events_processed: u64,
    recorder: Arc<dyn Recorder>,
    /// `recorder.enabled()`, cached so the event loop never pays a virtual
    /// call per event when telemetry is off.
    rec_enabled: bool,
}

impl<P, H: Node<P>> std::fmt::Debug for Simulator<'_, P, H> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulator")
            .field("num_sites", &self.costs.num_sites())
            .field("now", &self.now)
            .field("pending_events", &self.pending_events())
            .field("stats", &self.stats)
            .field("faults", &self.faults.is_some())
            .finish()
    }
}

impl<'a, P, H: Node<P>> Simulator<'a, P, H> {
    /// Creates a simulator whose `handler` acts for every site of `costs`.
    pub fn new(costs: &'a CostMatrix, handler: H) -> Self {
        Self {
            costs,
            handler,
            queue: EventQueue::new(),
            arrivals: &[],
            cursor: 0,
            arrival_seq: Vec::new(),
            stats: TrafficStats::default(),
            faults: None,
            fault_stats: FaultStats::default(),
            now: 0,
            started: false,
            events_processed: 0,
            recorder: telemetry::noop(),
            rec_enabled: false,
        }
    }

    /// Ends the simulation and hands the handler's state back.
    pub fn into_handler(self) -> H {
        self.handler
    }

    /// Attaches a telemetry recorder. Each [`run_for_events`] /
    /// [`run_to_completion`] call closes a `sim.run` span and publishes
    /// what that run did as counters: `sim.events`, `sim.messages`,
    /// `sim.data_units`, `sim.transfer_cost`, `sim.timers` and the
    /// [`FaultStats`] breakdown (`fault.dropped_random`,
    /// `fault.lost_arrivals`, `fault.lost_timers`,
    /// `fault.suppressed_effects`, `fault.crashes`, `fault.recoveries`,
    /// `fault.extra_delay`). The per-event hot loop is
    /// untouched, so an armed [`NoopRecorder`](telemetry::NoopRecorder)
    /// costs nothing.
    ///
    /// [`run_for_events`]: Self::run_for_events
    /// [`run_to_completion`]: Self::run_to_completion
    pub fn set_recorder(&mut self, recorder: Arc<dyn Recorder>) {
        self.rec_enabled = recorder.enabled();
        self.recorder = recorder;
    }

    /// Arms a [`FaultPlan`]: crash/recover transitions are scheduled as
    /// events and every send/delivery consults the plan from then on.
    ///
    /// # Panics
    ///
    /// Panics if the simulation has already started, or if a window names
    /// a site out of range.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        assert!(
            !self.started,
            "fault plan must be set before the first step"
        );
        for w in plan.crash_windows() {
            assert!(
                w.site < self.costs.num_sites(),
                "crash window site {} out of range",
                w.site
            );
        }
        self.faults = Some(plan);
    }

    /// Hands over a stream of client requests: entry `i` falls due at its
    /// `site` at its `at` and goes to [`Node::on_arrival`] as `i`. Each
    /// dispatches and counts as a timer its site armed at the head of its
    /// [`Node::on_start`] would: on equal times after crash/recover
    /// transitions and lower sites' start events, before its own start's,
    /// and as a suppressed effect (no event) if its site is down at start.
    ///
    /// # Panics
    ///
    /// Panics if the simulation has already started, or if `arrivals` is
    /// not in `(at, site)` order with every site in range.
    pub fn set_arrivals(&mut self, arrivals: &'a [Arrival]) {
        assert!(!self.started, "arrivals must be set before the first step");
        let m = self.costs.num_sites();
        let key = |a: &Arrival| (a.at, a.site);
        assert!(
            arrivals.iter().all(|a| (a.site as usize) < m)
                && arrivals.windows(2).all(|w| key(&w[0]) <= key(&w[1])),
            "arrivals must be in (at, site) order, at sites in range"
        );
        self.arrivals = arrivals;
    }

    /// Traffic accounting so far.
    pub fn stats(&self) -> TrafficStats {
        self.stats
    }

    /// What the fault injector did so far (all zeros without a plan).
    pub fn fault_stats(&self) -> FaultStats {
        self.fault_stats
    }

    /// Current simulated time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Total events dispatched so far.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Runs one callback for `node` with a [`Context`] over the queue,
    /// the ledgers and the fault plan; `up` says whether `node` is up
    /// (an arrival or timer at a down site never reaches its callback,
    /// so only the start phase can pass `false`).
    fn dispatch(&mut self, node: usize, up: bool, f: impl FnOnce(&mut H, &mut Context<'_, P>)) {
        let mut ctx = Context {
            node,
            now: self.now,
            up,
            costs: self.costs,
            queue: &mut self.queue,
            stats: &mut self.stats,
            fault_stats: &mut self.fault_stats,
            faults: self.faults.as_mut(),
        };
        f(&mut self.handler, &mut ctx);
    }

    fn start_if_needed(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        // Crash/recover transitions enter the queue first, so at equal
        // times a transition is dispatched before any message arrival.
        if let Some(plan) = &self.faults {
            for w in plan.crash_windows() {
                self.queue.push(w.from, EventKind::Crash);
                self.queue.push(w.until, EventKind::Recover);
            }
        }
        // Each up site's arrivals take the seq before its start's first
        // push; a dark site's are suppressed, as its start's effects are.
        for id in 0..self.costs.num_sites() {
            let up = self.faults.as_ref().is_none_or(|p| p.is_up(id, self.now));
            self.arrival_seq.push(up.then(|| self.queue.reserve_seq()));
            self.dispatch(id, up, |h, ctx| h.on_start(ctx));
        }
        if self.arrival_seq.contains(&None) {
            let dark = self.arrivals.iter().filter(|a| self.is_dark(a)).count();
            self.fault_stats.suppressed_effects += dark as u64;
        }
    }

    /// Whether `a`'s site was down at start, so `a` is never dispatched.
    fn is_dark(&self, a: &Arrival) -> bool {
        self.arrival_seq.get(a.site as usize) == Some(&None)
    }

    /// The `(at, seq)` key of the next stream arrival of a site up at
    /// start, skipping those of dark sites on the way.
    fn arrival_head(&mut self) -> Option<(Time, u64)> {
        while let Some(a) = self.arrivals.get(self.cursor) {
            if let Some(seq) = self.arrival_seq[a.site as usize] {
                return Some((a.at, seq));
            }
            self.cursor += 1;
        }
        None
    }

    /// Events left to dispatch: the queue's plus the stream's, less the
    /// arrivals of sites dark at start.
    fn pending_events(&self) -> usize {
        let arrivals = self.arrivals[self.cursor..].iter();
        self.queue.len() + arrivals.filter(|a| !self.is_dark(a)).count()
    }

    /// Dispatches a single event: the stream's next arrival or the
    /// queue's head, whichever has the smaller `(at, seq)`. Returns
    /// `false` when both are empty.
    pub fn step(&mut self) -> bool {
        self.start_if_needed();
        let (at, kind) = match self.arrival_head() {
            Some((at, seq)) if self.queue.peek().is_none_or(|queued| (at, seq) < queued) => {
                self.cursor += 1;
                (at, EventKind::Stream(self.cursor - 1))
            }
            _ => match self.queue.pop() {
                Some(next) => next,
                None => return false,
            },
        };
        debug_assert!(at >= self.now, "time must be monotone");
        self.now = at;
        self.events_processed += 1;
        match kind {
            EventKind::Arrival(msg) => {
                let dst = msg.dst;
                if let Some(plan) = &self.faults {
                    if !plan.is_up(dst, self.now) {
                        self.fault_stats.lost_arrivals += 1;
                        return true;
                    }
                }
                self.dispatch(dst, true, |h, ctx| h.on_message(ctx, msg));
            }
            EventKind::Timer { node, payload } => {
                self.fire(node, |h, ctx| h.on_timer(ctx, payload))
            }
            EventKind::Stream(index) => {
                let site = self.arrivals[index].site as usize;
                self.fire(site, |h, ctx| h.on_arrival(ctx, index));
            }
            // A crash discards the site's volatile state implicitly: its
            // arrivals and timers are dropped while it is down.
            EventKind::Crash => self.fault_stats.crashes += 1,
            EventKind::Recover => self.fault_stats.recoveries += 1,
        }
        true
    }

    /// Fires a timer (or stream arrival) of `node` due now: dispatched
    /// with `f` if `node` is up, counted as lost if not.
    fn fire(&mut self, node: usize, f: impl FnOnce(&mut H, &mut Context<'_, P>)) {
        if self.faults.as_ref().is_none_or(|p| p.is_up(node, self.now)) {
            self.stats.timers += 1;
            self.dispatch(node, true, f);
        } else {
            self.fault_stats.lost_timers += 1;
        }
    }

    /// Runs until no events remain.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::EventBudgetExhausted`] after 100 million events
    /// as a runaway-protocol guard.
    pub fn run_to_completion(&mut self) -> std::result::Result<(), SimError> {
        self.run_for_events(100_000_000)
    }

    /// Runs until no events remain or `max_events` have been dispatched.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::EventBudgetExhausted`] if the budget runs out
    /// with events still queued.
    pub fn run_for_events(&mut self, max_events: u64) -> std::result::Result<(), SimError> {
        let before_events = self.events_processed;
        let before_stats = self.stats;
        let before_faults = self.fault_stats;
        // Cloning the handle keeps the guard's borrow off `self` so the
        // loop below can take `&mut self`.
        let recorder = Arc::clone(&self.recorder);
        let _span = telemetry::span(recorder.as_ref(), "sim.run");
        let mut budget = max_events;
        let result = loop {
            if budget == 0 {
                let queue_depth = self.pending_events();
                if queue_depth > 0 {
                    break Err(SimError::EventBudgetExhausted {
                        budget: max_events,
                        events_processed: self.events_processed,
                        queue_depth,
                    });
                }
                break Ok(());
            }
            if !self.step() {
                break Ok(());
            }
            budget -= 1;
        };
        if self.rec_enabled {
            self.publish_run_counters(before_events, before_stats, before_faults);
        }
        result
    }

    /// Publishes what the just-finished run did, as counter deltas against
    /// the snapshots taken at its start (runs are resumable, so lifetime
    /// totals would double-count across calls).
    fn publish_run_counters(&self, events: u64, stats: TrafficStats, faults: FaultStats) {
        let rec = self.recorder.as_ref();
        rec.add_counter("sim.events", self.events_processed - events);
        rec.add_counter("sim.messages", self.stats.messages - stats.messages);
        rec.add_counter("sim.data_units", self.stats.data_units - stats.data_units);
        rec.add_counter(
            "sim.transfer_cost",
            self.stats.transfer_cost - stats.transfer_cost,
        );
        rec.add_counter("sim.timers", self.stats.timers - stats.timers);
        let f = self.fault_stats;
        rec.add_counter(
            "fault.dropped_random",
            f.dropped_random - faults.dropped_random,
        );
        rec.add_counter(
            "fault.lost_arrivals",
            f.lost_arrivals - faults.lost_arrivals,
        );
        rec.add_counter("fault.lost_timers", f.lost_timers - faults.lost_timers);
        rec.add_counter(
            "fault.suppressed_effects",
            f.suppressed_effects - faults.suppressed_effects,
        );
        rec.add_counter("fault.crashes", f.crashes - faults.crashes);
        rec.add_counter("fault.recoveries", f.recoveries - faults.recoveries);
        rec.add_counter("fault.extra_delay", f.extra_delay - faults.extra_delay);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    type TestResult = std::result::Result<(), Box<dyn std::error::Error>>;

    #[derive(Debug, Clone, PartialEq)]
    enum P {
        Hello,
        Echo,
        Tick,
    }

    /// Site 0 is a client that says hello and arms a timer; site 1 echoes.
    #[derive(Default)]
    struct ClientServer {
        replies: u32,
        seen: u32,
    }

    impl Node<P> for ClientServer {
        fn on_start(&mut self, ctx: &mut Context<'_, P>) {
            if ctx.node_id() == 0 {
                ctx.send(1, 5, P::Hello);
                ctx.set_timer(100, P::Tick);
            }
        }
        fn on_message(&mut self, ctx: &mut Context<'_, P>, msg: Message<P>) {
            if ctx.node_id() == 0 {
                assert_eq!(msg.payload, P::Echo);
                self.replies += 1;
            } else {
                self.seen += 1;
                ctx.send(msg.src, 0, P::Echo);
            }
        }
        fn on_timer(&mut self, ctx: &mut Context<'_, P>, payload: P) {
            assert_eq!((ctx.node_id(), payload), (0, P::Tick));
        }
    }

    fn two_site_costs() -> crate::Result<CostMatrix> {
        CostMatrix::from_rows(2, vec![0, 4, 4, 0])
    }

    #[test]
    fn request_reply_accounts_only_data_traffic() -> TestResult {
        let costs = two_site_costs()?;
        let mut sim = Simulator::new(&costs, ClientServer::default());
        sim.run_to_completion()?;
        let stats = sim.stats();
        assert_eq!(stats.messages, 2);
        assert_eq!(stats.data_units, 5);
        assert_eq!(stats.transfer_cost, 20); // 5 units × C=4; the echo is free
        assert_eq!(stats.timers, 1);
        assert_eq!(sim.now(), 100); // the timer is the last event
        let handler = sim.into_handler();
        assert_eq!((handler.replies, handler.seen), (1, 1));
        Ok(())
    }

    #[test]
    fn latency_is_link_cost() -> TestResult {
        /// Site 0 probes site 1, which notes the arrival time.
        struct Probe {
            arrived_at: Option<Time>,
        }
        impl Node<()> for Probe {
            fn on_start(&mut self, ctx: &mut Context<'_, ()>) {
                if ctx.node_id() == 0 {
                    ctx.send(1, 1, ());
                }
            }
            fn on_message(&mut self, ctx: &mut Context<'_, ()>, _msg: Message<()>) {
                self.arrived_at = Some(ctx.now());
            }
        }
        let costs = two_site_costs()?;
        let mut sim = Simulator::new(&costs, Probe { arrived_at: None });
        sim.run_to_completion()?;
        assert_eq!(sim.now(), 4);
        assert_eq!(sim.into_handler().arrived_at, Some(4));
        Ok(())
    }

    /// What a [`Log`] handler saw: callback, site, time.
    type Seen = (&'static str, usize, Time);

    /// Pins the single-handler dispatch contract on a three-site line
    /// (C(0,1)=2, C(1,2)=3, C(0,2)=5): site 1 sends 7 units to site 2 and
    /// one to site 0, site 2 arms a timer, and site 0 is down throughout.
    #[derive(Default)]
    struct Log {
        seen: Vec<Seen>,
    }

    impl Node<()> for Log {
        fn on_start(&mut self, ctx: &mut Context<'_, ()>) {
            self.seen.push(("start", ctx.node_id(), ctx.now()));
            match ctx.node_id() {
                1 => {
                    ctx.send(2, 7, ());
                    ctx.send(0, 1, ());
                }
                2 => ctx.set_timer(10, ()),
                _ => {}
            }
        }
        fn on_message(&mut self, ctx: &mut Context<'_, ()>, msg: Message<()>) {
            assert_eq!((msg.src, msg.dst), (1, ctx.node_id()));
            self.seen.push(("message", ctx.node_id(), ctx.now()));
        }
        fn on_timer(&mut self, ctx: &mut Context<'_, ()>, _payload: ()) {
            self.seen.push(("timer", ctx.node_id(), ctx.now()));
        }
    }

    #[test]
    fn one_handler_is_dispatched_per_site() -> TestResult {
        let costs = CostMatrix::from_rows(3, vec![0, 2, 5, 2, 0, 3, 5, 3, 0])?;
        let mut sim = Simulator::new(&costs, Log::default());
        sim.set_fault_plan(FaultPlan::new(0).crash(0, 0, 1_000));
        sim.run_to_completion()?;
        // Both sends are charged from site 1, the site being dispatched:
        // 7·C(1,2) + 1·C(1,0), although site 0's arrival is lost.
        assert_eq!(sim.stats().transfer_cost, 7 * 3 + 2);
        assert_eq!(sim.fault_stats().lost_arrivals, 1);
        let seen = sim.into_handler().seen;
        assert_eq!(
            seen,
            vec![
                ("start", 0, 0),
                ("start", 1, 0),
                ("start", 2, 0),
                ("message", 2, 3),
                ("timer", 2, 10),
            ]
        );
        Ok(())
    }

    #[test]
    fn event_budget_error_is_typed_and_counted() -> TestResult {
        struct Looper;
        impl Node<()> for Looper {
            fn on_start(&mut self, ctx: &mut Context<'_, ()>) {
                if ctx.node_id() == 0 {
                    ctx.send(1, 1, ());
                }
            }
            fn on_message(&mut self, ctx: &mut Context<'_, ()>, msg: Message<()>) {
                ctx.send(msg.src, 1, ());
            }
        }
        let costs = two_site_costs()?;
        let mut sim = Simulator::new(&costs, Looper);
        match sim.run_for_events(10) {
            Err(SimError::EventBudgetExhausted {
                budget,
                events_processed,
                queue_depth,
            }) => {
                assert_eq!(budget, 10);
                assert_eq!(events_processed, 10);
                assert!(queue_depth > 0);
            }
            other => panic!("expected budget exhaustion, got {other:?}"),
        }
        Ok(())
    }

    #[test]
    fn step_returns_false_when_idle() -> TestResult {
        struct Quiet;
        impl Node<()> for Quiet {
            fn on_message(&mut self, _ctx: &mut Context<'_, ()>, _msg: Message<()>) {}
        }
        let costs = two_site_costs()?;
        let mut sim = Simulator::new(&costs, Quiet);
        assert!(!sim.step());
        assert_eq!(sim.events_processed(), 0);
        Ok(())
    }

    /// Each site sends one message to its peer per timer tick, for as many
    /// ticks as it is given, to probe fault semantics on two sites.
    struct Ticker {
        ticks: [u64; 2],
        got: [u64; 2],
    }

    impl Ticker {
        fn new(ticks: [u64; 2]) -> Self {
            Self { ticks, got: [0; 2] }
        }
    }

    impl Node<u64> for Ticker {
        fn on_start(&mut self, ctx: &mut Context<'_, u64>) {
            if self.ticks[ctx.node_id()] > 0 {
                ctx.set_timer(1, 0);
            }
        }
        fn on_message(&mut self, ctx: &mut Context<'_, u64>, _msg: Message<u64>) {
            self.got[ctx.node_id()] += 1;
        }
        fn on_timer(&mut self, ctx: &mut Context<'_, u64>, tick: u64) {
            let me = ctx.node_id();
            ctx.send(1 - me, 1, tick);
            if tick + 1 < self.ticks[me] {
                ctx.set_timer(1, tick + 1);
            }
        }
    }

    #[test]
    fn crashed_destination_loses_arrivals() -> TestResult {
        let costs = two_site_costs()?;
        // Site 1 stays silent.
        let mut sim = Simulator::new(&costs, Ticker::new([10, 0]));
        // Site 1 is down for the whole run.
        sim.set_fault_plan(FaultPlan::new(0).crash(1, 0, 1_000));
        sim.run_to_completion()?;
        let fs = sim.fault_stats();
        assert_eq!(fs.lost_arrivals, 10);
        assert_eq!(fs.crashes, 1);
        assert_eq!(fs.recoveries, 1);
        // NTC is still charged for transmitted-but-undelivered messages.
        assert_eq!(sim.stats().data_units, 10);
        assert_eq!(sim.into_handler().got, [0, 0]);
        Ok(())
    }

    #[test]
    fn crash_discards_timers_for_good() -> TestResult {
        let costs = two_site_costs()?;
        let mut sim = Simulator::new(&costs, Ticker::new([1_000, 0]));
        // Site 0 crashes mid-run and recovers: its tick chain stops for
        // good (the pending timer is lost with the site).
        sim.set_fault_plan(FaultPlan::new(0).crash(0, 5, 10));
        sim.run_to_completion()?;
        let fs = sim.fault_stats();
        assert_eq!(fs.crashes, 1);
        assert_eq!(fs.recoveries, 1);
        assert_eq!(fs.lost_timers, 1); // the chain dies exactly once
                                       // Ticks at t=1..=4 each send one message; the t=5 tick fires after
                                       // the crash (transition first on ties) and is lost.
        assert_eq!(sim.stats().data_units, 4);
        Ok(())
    }

    #[test]
    fn jitter_delays_but_delivers_everything() -> TestResult {
        let costs = two_site_costs()?;
        let mut sim = Simulator::new(&costs, Ticker::new([8, 0]));
        sim.set_fault_plan(FaultPlan::new(11).jitter(9));
        sim.run_to_completion()?;
        assert_eq!(sim.stats().data_units, 8);
        assert_eq!(sim.into_handler().got, [0, 8]);
        Ok(())
    }

    #[test]
    fn recorder_publishes_event_and_fault_counters() -> TestResult {
        use crate::telemetry::InMemoryRecorder;

        let costs = two_site_costs()?;
        let mut sim = Simulator::new(&costs, Ticker::new([10, 0]));
        sim.set_fault_plan(FaultPlan::new(0).crash(1, 0, 1_000));
        let recorder = Arc::new(InMemoryRecorder::new());
        sim.set_recorder(recorder.clone());
        sim.run_to_completion()?;
        assert_eq!(recorder.span_count("sim.run"), 1);
        assert_eq!(recorder.counter("sim.events"), sim.events_processed());
        assert_eq!(recorder.counter("sim.data_units"), sim.stats().data_units);
        assert_eq!(
            recorder.counter("fault.lost_arrivals"),
            sim.fault_stats().lost_arrivals
        );
        assert_eq!(recorder.counter("fault.crashes"), 1);
        // A second (empty) run adds a span but no new events.
        sim.run_to_completion()?;
        assert_eq!(recorder.span_count("sim.run"), 2);
        assert_eq!(recorder.counter("sim.events"), sim.events_processed());
        Ok(())
    }

    #[test]
    fn identical_plans_give_identical_runs() -> TestResult {
        let run = |seed: u64| -> crate::Result<(TrafficStats, FaultStats, Time)> {
            let costs = two_site_costs()?;
            let mut sim = Simulator::new(&costs, Ticker::new([50, 50]));
            sim.set_fault_plan(
                FaultPlan::new(seed)
                    .crash(1, 20, 30)
                    .drop_probability(0.2)
                    .jitter(3),
            );
            sim.run_for_events(100_000).ok();
            Ok((sim.stats(), sim.fault_stats(), sim.now()))
        };
        assert_eq!(run(5)?, run(5)?);
        Ok(())
    }

    /// Stream-request labels of [`Gossip`]'s timers, above every tick.
    const REQUEST: u32 = 1 << 20;

    /// A four-site gossip for [`a_seeded_faulted_run_is_pinned`] and the
    /// merge proptest: every site sends to itself (cost 0) and to both
    /// neighbours and arms two timers at start; a tick sends to the
    /// opposite site when it is up and re-arms, 60 ticks in all; a message
    /// is forwarded until its hop budget runs out; a stream request sends
    /// one hop and arms a timer due now or next. With `timers`, a start
    /// first arms one timer per request of its site, due at its time: the
    /// way a request log was served before the arrival stream. The trace
    /// folds every callback into an FNV-1a hash.
    struct Gossip<'s> {
        trace: u64,
        ticks: u32,
        arrivals: &'s [Arrival],
        timers: bool,
    }

    impl<'s> Gossip<'s> {
        fn new(arrivals: &'s [Arrival], timers: bool) -> Self {
            let trace = 0xcbf2_9ce4_8422_2325;
            Self {
                trace,
                ticks: 0,
                arrivals,
                timers,
            }
        }

        fn note(&mut self, kind: u8, ctx: &Context<'_, u32>, payload: u32) {
            let fields = [
                u64::from(kind),
                ctx.node_id() as u64,
                ctx.now(),
                u64::from(payload),
            ];
            for byte in fields.iter().flat_map(|f| f.to_le_bytes()) {
                self.trace ^= u64::from(byte);
                self.trace = self.trace.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }

    impl Node<u32> for Gossip<'_> {
        fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
            let me = ctx.node_id();
            if self.timers {
                for (index, a) in (0..).zip(self.arrivals) {
                    if a.site as usize == me {
                        ctx.set_timer(a.at, REQUEST + index);
                    }
                }
            }
            self.note(0, ctx, 0);
            ctx.send(me, 0, 3);
            ctx.send((me + 1) % 4, 2, 5);
            ctx.send((me + 3) % 4, 1, 4);
            ctx.set_timer(0, 100);
            ctx.set_timer(me as u64 + 1, 200);
        }
        fn on_message(&mut self, ctx: &mut Context<'_, u32>, msg: Message<u32>) {
            self.note(1, ctx, msg.payload);
            if msg.payload > 0 {
                let next = (ctx.node_id() + msg.payload as usize) % 4;
                ctx.send(next, u64::from(msg.payload), msg.payload - 1);
            }
        }
        fn on_timer(&mut self, ctx: &mut Context<'_, u32>, payload: u32) {
            if payload >= REQUEST {
                return self.on_arrival(ctx, (payload - REQUEST) as usize);
            }
            self.note(2, ctx, payload);
            if payload >= 200 && self.ticks < 60 {
                self.ticks += 1;
                let me = ctx.node_id();
                if ctx.is_up((me + 2) % 4) {
                    ctx.send((me + 2) % 4, 1, 2);
                }
                ctx.set_timer(3, payload + 1);
            }
        }
        fn on_arrival(&mut self, ctx: &mut Context<'_, u32>, index: usize) {
            self.note(3, ctx, index as u32);
            ctx.send((ctx.node_id() + index) % 4, 1, 1);
            ctx.set_timer(index as u64 % 2, 100);
        }
    }

    /// One seeded faulted run — drops, jitter, site 3 dark from time 0 and
    /// site 1 crashing mid-run — pinned event for event: the traffic and
    /// fault ledgers, the event count, the final time and the hash of
    /// every callback the handler saw.
    #[test]
    fn a_seeded_faulted_run_is_pinned() -> TestResult {
        let costs = CostMatrix::from_rows(4, vec![0, 2, 5, 3, 2, 0, 3, 4, 5, 3, 0, 2, 3, 4, 2, 0])?;
        let mut sim = Simulator::new(&costs, Gossip::new(&[], false));
        sim.set_fault_plan(
            FaultPlan::new(0x5eed)
                .crash(3, 0, 30)
                .crash(1, 20, 45)
                .drop_probability(0.15)
                .jitter(3),
        );
        sim.run_to_completion()?;
        let (stats, faults, events, now) = (
            sim.stats(),
            sim.fault_stats(),
            sim.events_processed(),
            sim.now(),
        );
        let trace = sim.into_handler().trace;
        assert_eq!(
            stats,
            TrafficStats {
                messages: 166,
                data_units: 246,
                transfer_cost: 953,
                timers: 65,
            }
        );
        assert_eq!(
            faults,
            FaultStats {
                dropped_random: 23,
                lost_arrivals: 13,
                lost_timers: 1,
                suppressed_effects: 5,
                crashes: 2,
                recoveries: 2,
                extra_delay: 225,
            }
        );
        assert_eq!((events, now, trace), (213, 101, 0x737f_3478_01c4_c76c));
        Ok(())
    }

    /// Budget exhaustion sees the arrivals left in the stream: a cursor
    /// the check forgot would end the run `Ok` with requests undelivered.
    #[test]
    fn budget_exhaustion_counts_pending_arrivals() -> TestResult {
        struct Quiet;
        impl Node<()> for Quiet {
            fn on_message(&mut self, _ctx: &mut Context<'_, ()>, _msg: Message<()>) {}
        }
        let costs = two_site_costs()?;
        let arrivals: Vec<Arrival> = (0..20)
            .map(|i| Arrival {
                at: i / 2,
                site: (i % 2) as u32,
                ..Arrival::default()
            })
            .collect();
        let mut sim = Simulator::new(&costs, Quiet);
        sim.set_arrivals(&arrivals);
        assert!(format!("{sim:?}").contains("pending_events: 20"));
        match sim.run_for_events(10) {
            Err(SimError::EventBudgetExhausted {
                budget: 10,
                events_processed: 10,
                queue_depth: 10,
            }) => {}
            other => panic!("expected budget exhaustion, got {other:?}"),
        }
        assert!(format!("{sim:?}").contains("pending_events: 10"));
        sim.run_for_events(10)?;
        assert_eq!((sim.events_processed(), sim.stats().timers), (20, 20));
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The arrival stream merged with the calendar dispatches exactly
        /// as one timer per request armed at the head of its site's start
        /// does — and so, the calendar popping like one binary heap (see
        /// the `event` tests), as one heap over those timers would: every
        /// callback in the same order at the same time, and the same
        /// ledgers, event count and end time. Requests cluster on times
        /// 0–11, where crash windows open and close (sites down at start
        /// among them), starts arm time-0 timers and cost-0 self-sends,
        /// and replies land; one in eight lies past time 1024. Drops and
        /// jitter draw their verdicts in send order in both runs.
        #[test]
        fn stream_and_calendar_dispatch_like_one_heap(
            raw in prop::collection::vec((0u64..12, 0u32..4, 0u8..8), 0..80),
            windows in prop::collection::vec((0usize..4, 0u64..10, 1u64..12), 0..4),
            seed in 0u64..1_000,
            lossy in any::<bool>(),
        ) {
            let rows = vec![0, 2, 5, 3, 2, 0, 3, 4, 5, 3, 0, 2, 3, 4, 2, 0];
            let costs = CostMatrix::from_rows(4, rows).unwrap();
            let mut arrivals: Vec<Arrival> = raw
                .iter()
                .map(|&(at, site, far)| Arrival {
                    at: if far == 0 { 1024 + 97 * at } else { at },
                    site,
                    ..Arrival::default()
                })
                .collect();
            arrivals.sort_by_key(|a| (a.at, a.site));
            let mut plan = FaultPlan::new(seed);
            for &(site, from, len) in &windows {
                plan = plan.crash(site, from, from + len);
            }
            if lossy {
                plan = plan.drop_probability(0.1).jitter(2);
            }
            let run = |timers: bool| {
                let mut sim = Simulator::new(&costs, Gossip::new(&arrivals, timers));
                sim.set_fault_plan(plan.clone());
                if !timers {
                    sim.set_arrivals(&arrivals);
                }
                sim.run_to_completion().unwrap();
                let ledgers = (sim.stats(), sim.fault_stats(), sim.events_processed());
                (ledgers, sim.now(), sim.into_handler().trace)
            };
            prop_assert_eq!(run(false), run(true));
        }
    }
}
